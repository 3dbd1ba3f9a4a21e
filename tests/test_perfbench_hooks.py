"""The benchmark's hold on the library: every name it imports or wraps exists.

``perfbench/check.py`` imports library names and ``perfbench/layers.py``
wraps library functions and methods by name, in place.  A renamed or
deleted name would otherwise fail only the benchmark's own slow
self-tests (``perfbench/test_selftest.py``).
"""

import os
import sys

from continuants import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _namespaces() -> dict:
    """Namespace of every loaded ``continuants`` module and of its classes."""
    modules = [m for name, m in sys.modules.items() if name.startswith("continuants.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return {owner: dict(vars(owner)) for owner in modules + classes}


def test_tracer_wraps_the_library_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import check  # noqa: F401 -- fails if a name it imports is gone
    import layers

    before = _namespaces()
    parse_config = cli.parse_config
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert cli.parse_config is not parse_config
    finally:
        tracer.uninstall()
    assert cli.parse_config is parse_config
    assert _namespaces() == before


def test_tracer_wraps_scaled_u_pair_in_every_module_that_imports_it(monkeypatch):
    # ``from .chebyshev import scaled_u_pair`` binds the name once per
    # module; a module that stops importing it drops out of the S_m spans.
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from continuants import chebyshev, mat2, periodic, qrational, quaternion

    holders = (chebyshev, mat2, periodic, qrational, quaternion)
    original = chebyshev.scaled_u_pair
    tracer = layers.Tracer()
    try:
        tracer.install()
        for module in holders:
            assert module.scaled_u_pair.__wrapped__ is original, module.__name__
    finally:
        tracer.uninstall()
    for module in holders:
        assert module.scaled_u_pair is original, module.__name__
