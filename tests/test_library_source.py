"""Checks on the library's source.

``python -O`` strips ``assert`` statements, so a check written as one
vanishes in optimized runs.  Every module of the package must raise
instead; tests are free to assert.

Every public name is used by library code other than its own definition,
so code that only tests call lives under ``tests/``.  The exceptions are
the paper's independent routes that the cross-checks keep as oracles, its
two named closed forms, and ``quat_mul``, the product that the benchmark's
reference powering calls.
"""

import ast
import pathlib

import continuants

PACKAGE = pathlib.Path(continuants.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}

PUBLIC_WITHOUT_LIBRARY_CALLER = (
    "u_coeffs_hypergeometric", "u_genfun_coeff", "det_leibniz", "mat_power_naive",
    "q_fibonacci_closed", "closed_form_klm", "closed_form_klm_minus1", "quat_mul",
)


def test_library_modules_have_no_assert():
    found = [f"{name}:{node.lineno}" for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _definition_lines(tree: ast.Module, name: str) -> range:
    for node in tree.body:
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if getattr(node, "name", None) == name or any(
                isinstance(t, ast.Name) and t.id == name for t in targets):
            return range(node.lineno, node.end_lineno + 1)
    raise LookupError(name)


def _references(name: str) -> list[str]:
    """Places outside ``name``'s own definition that read it (a name or an attribute)."""
    home = continuants._SOURCE[name] + ".py"
    own = _definition_lines(TREES[home], name)
    return [f"{module}:{node.lineno}" for module, tree in TREES.items()
            for node in ast.walk(tree)
            if name in (getattr(node, "id", None), getattr(node, "attr", None))
            and not (module == home and node.lineno in own)]


def test_no_two_public_names_are_one_object():
    # One name per value: a public alias is a second way to build it.
    names = {}
    for name in continuants.__all__:
        names.setdefault(id(getattr(continuants, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_every_public_name_has_a_library_caller():
    unused = [name for name in continuants.__all__ if not _references(name)]
    assert sorted(unused) == sorted(PUBLIC_WITHOUT_LIBRARY_CALLER)
