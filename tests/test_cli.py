import glob
import os
import shlex
import sys
from fractions import Fraction

import pytest

from conftest import cf_value, int_str_limit
from continuants import (
    ORACLE_MAX_N,
    VERIFY_MAX,
    LaurentFraction,
    LaurentPoly,
    ModInt,
    Quaternion,
    continuant_rec,
    parse_laurent,
    q_fibonacci,
    quat_power_naive,
    ring_by_name,
    u_coeffs,
)
from continuants import cli, continuant, strategies
from continuants.cli import ConfigError, load_config, main, parse_config

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.cfg")))

FIB_CFG = """\
ring = rational
l = 1
p = 1
a = [1]
b = [1]
c = [-1]
"""


class TestParseConfig:
    def test_fibonacci_config(self):
        cfg = parse_config(FIB_CFG)
        assert (cfg.ring, cfg.l, cfg.p) == ("rational", 1, 1)
        alpha = cfg.to_alpha()
        assert alpha.a_at(1) == Fraction(1)
        assert alpha.c_at(1) == Fraction(-1)

    def test_qfib_config(self):
        cfg = parse_config(
            "ring = laurent\nl = 2\np = 1\na = [1, 1]\nb = [q, q^-1]\nc = [-1, -1]\n")
        alpha = cfg.to_alpha()
        assert alpha.b_at(1) == LaurentPoly({1: 1})
        assert alpha.b_at(2) == LaurentPoly({-1: 1})

    def test_modint_modulus(self):
        cfg = parse_config(
            "ring = modint\nmodulus = 97\nl = 1\np = 1\na = [1]\nb = [1]\nc = [-1]\n")
        assert cfg.to_alpha().c_at(1) == ModInt(96, 97)

    def test_leading_bom_is_ignored(self, tmp_path):
        path = os.path.join(REPO, "configs", "modint_l3.cfg")
        bom = tmp_path / "bom.cfg"
        with open(path, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        cfg, original = load_config(str(bom)), load_config(path)
        assert cfg == original

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nring = rational # trailing\nl = 1\np = 1\n"
                           "a = [1]\nb = [2]\nc = [3]\n")
        assert cfg.ring == "rational"

    def test_length_mismatch_names_line_and_field(self):
        text = "ring = rational\nl = 2\np = 1\na = [1, 2, 3]\nb = [1, 1]\nc = [1, 1]\n"
        with pytest.raises(ConfigError, match=r"line 4.*'a'.*3 elements.*l=2"):
            parse_config(text)

    def test_unknown_ring(self):
        with pytest.raises(ConfigError, match="unknown ring"):
            parse_config("ring = real\nl = 1\np = 1\na = [1]\nb = [1]\nc = [1]\n")

    def test_unparseable_element_names_index(self):
        text = "ring = rational\nl = 2\np = 1\na = [1, q]\nb = [1, 1]\nc = [1, 1]\n"
        with pytest.raises(ConfigError, match=r"line 4.*'a'\[1\]"):
            parse_config(text)

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing required key 'c'"):
            parse_config("ring = rational\nl = 1\np = 1\na = [1]\nb = [1]\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("ring = rational\nring = laurent\nl = 1\np = 1\n"
                         "a = [1]\nb = [1]\nc = [1]\n")

    def test_modulus_requires_modint(self):
        with pytest.raises(ConfigError, match="modulus"):
            parse_config("ring = rational\nmodulus = 7\nl = 1\np = 1\n"
                         "a = [1]\nb = [1]\nc = [1]\n")

    def test_bad_syntax(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("ring: rational\n")

    def test_zero_denominator_names_line_and_field(self):
        text = "ring = rational\nl = 2\np = 1\na = [1, 2]\nb = [1, 1/0]\nc = [1, 1]\n"
        with pytest.raises(ConfigError, match=r"line 5.*'b'\[1\].*zero denominator"):
            parse_config(text)

    @pytest.mark.parametrize("modulus", ["4", "9", "561", str(2 ** 89 - 1)])
    def test_bad_modulus_names_line_and_field(self, modulus):
        text = f"ring = modint\nl = 1\np = 1\nmodulus = {modulus}\na = [1]\nb = [1]\nc = [1]\n"
        with pytest.raises(ConfigError, match=r"line 4: field 'modulus': modulus must be"):
            parse_config(text)

    @pytest.mark.parametrize("text,message", [
        ("ring = modint\nl = 1\np = 1\na = [1.5]\nb = [1]\nc = [1]\n",
         r"^line 4: field 'a'\[0\]: not an integer literal: '1.5'$"),
        ("ring = rational\nl = 0\np = 1\na = []\nb = []\nc = []\n",
         r"^line 2: field 'l' must be >= 1$"),
    ], ids=["modint-decimal", "l-zero"])
    def test_refused_field_names_line_and_field(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


def _no_identity(alpha, n_max, m_max):
    """A verify identity that fails if a refused size reaches it."""
    raise AssertionError(f"identity ran at n_max = {n_max}, m_max = {m_max}")
    yield


def _no_worker(*args):
    """A command's worker that fails if a refused input reaches it."""
    raise AssertionError(f"worker ran on {args}")


SIZE_BOUNDS = [
    (["chebyshev", "--n", str(cli.CHEBYSHEV_MAX_N + 1)], "continuants.chebyshev.u_coeffs",
     f"chebyshev refuses n = {cli.CHEBYSHEV_MAX_N + 1} > CHEBYSHEV_MAX_N = "
     f"{cli.CHEBYSHEV_MAX_N}"),
    (["qfib", "--n", str(cli.QFIB_MAX_N + 1)], "continuants.qrational.q_fibonacci",
     f"qfib refuses n = {cli.QFIB_MAX_N + 1} > QFIB_MAX_N = {cli.QFIB_MAX_N}"),
    (["quatpow", "--q", "1,2,3,4", "--n", str(cli.QUATPOW_MAX_N + 1)],
     "continuants.quaternion.quat_power_cheb",
     f"quatpow refuses n = {cli.QUATPOW_MAX_N + 1} > QUATPOW_MAX_N = {cli.QUATPOW_MAX_N}"),
    # The digits of (10^9 + 1)/10^9 are [1, 10^9]: [10^9]_q alone has 10^9 terms.
    (["qrat", "--r", "1000000001", "--s", "1000000000"], "continuants.qrational.q_rational",
     f"qrat refuses digit sum = 1000000001 > QRAT_MAX_DIGIT_SUM = {cli.QRAT_MAX_DIGIT_SUM}"),
]


def _record_periodic_routes(monkeypatch) -> list:
    """Wrap each `periodic` route to append (name, stdout so far) to the
    returned list when it is called."""
    calls = []

    def recorded(name, fn):
        def run(*args):
            calls.append((name, sys.stdout.getvalue()))
            return fn(*args)
        return run

    for name in cli.PERIODIC_STRATEGIES:
        monkeypatch.setitem(strategies.STRATEGIES, name,
                            recorded(name, strategies.STRATEGIES[name]))
    return calls


class TestSubcommands:
    def test_qfib_prints_polynomial(self, capsys):
        assert main(["qfib", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1 + q"

    def test_chebyshev_prints_coefficients(self, capsys):
        assert main(["chebyshev", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "[-1, 0, 4]"

    def test_continuant_negative_index(self, tmp_path, capsys):
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        assert main(["continuant", "--config", str(cfg), "--n", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_continuant_strategies_agree(self, tmp_path, capsys):
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        outs = []
        for strategy in ("oracle", "rec", "transfer"):
            assert main(["continuant", "--config", str(cfg), "--n", "7",
                         "--strategy", strategy]) == 0
            outs.append(capsys.readouterr().out.strip())
        assert outs == ["21", "21", "21"]

    def test_periodic_verify(self, tmp_path, capsys):
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        assert main(["periodic", "--config", str(cfg), "--m", "5", "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "8"
        assert out.count("PASS") == 4

    @pytest.mark.parametrize("strategy", cli.PERIODIC_STRATEGIES)
    def test_periodic_verify_evaluates_each_strategy_once(self, tmp_path, capsys,
                                                          monkeypatch, strategy):
        from continuants import strategies

        calls = []

        def counted(name, fn):
            def run(*args):
                calls.append(name)
                return fn(*args)
            return run

        monkeypatch.setattr(strategies, "STRATEGIES", {
            name: counted(name, fn) for name, fn in strategies.STRATEGIES.items()})
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        assert main(["periodic", "--config", str(cfg), "--m", "5", "--strategy", strategy,
                     "--verify"]) == 0
        assert sorted(calls) == sorted(cli.PERIODIC_STRATEGIES)
        assert capsys.readouterr().out.splitlines() == [
            "8", "PASS closed = 8", "PASS rec = 8", "PASS oracle = 8", "PASS matpow = 8"]

    @pytest.mark.parametrize("strategy", cli.PERIODIC_STRATEGIES)
    def test_periodic_verify_runs_every_route_before_printing(self, strategy, monkeypatch,
                                                              capsys):
        # Each route runs once, the oracle first, and nothing prints until all ran.
        calls = _record_periodic_routes(monkeypatch)
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["periodic", "--config", cfg, "--m", "3", "--strategy", strategy,
                     "--verify"]) == 0
        assert calls == [("oracle", ""), ("closed", ""), ("rec", ""), ("matpow", "")]
        assert capsys.readouterr().out.count("PASS") == 4

    @pytest.mark.parametrize("strategy", cli.PERIODIC_STRATEGIES)
    def test_periodic_verify_above_oracle_bound_runs_only_the_oracle(self, strategy,
                                                                     monkeypatch, capsys):
        calls = _record_periodic_routes(monkeypatch)
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["periodic", "--config", cfg, "--m", "200", "--strategy", strategy,
                     "--verify"]) == 1
        assert calls == [("oracle", "")]
        assert capsys.readouterr() == (
            "", f"error: the oracle refuses n = 600 > ORACLE_MAX_N = {ORACLE_MAX_N}\n")

    def test_qrat(self, capsys):
        assert main(["qrat", "--r", "8", "--s", "5"]) == 0
        out = capsys.readouterr().out
        assert "digits: [1, 1, 1, 2]" in out
        assert "numerator: 1 + 2*q + 2*q^2 + 2*q^3 + q^4" in out
        assert "denominator: 1 + 2*q + q^2 + q^3" in out

    def test_quatpow(self, capsys):
        assert main(["quatpow", "--q", "0,1,0,0", "--n", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1,0,0,0"

    @pytest.mark.parametrize("n, expected", [(0, "1,0,0,0"), (3, "0,0,0,0")])
    def test_quatpow_zero_quaternion(self, n, expected, capsys):
        assert main(["quatpow", "--q", "0,0,0,0", "--n", str(n)]) == 0
        assert capsys.readouterr() == (f"{expected}\n", "")

    def test_bench_csv_schema(self, capsys):
        cfg = os.path.join(REPO, "configs", "modint_l2.cfg")
        assert main(["bench", "--config", cfg, "--m-list", "4,16", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "strategy,l,m,ns,ops,digest"
        assert len(lines) == 1 + 2 * 4
        digests = {line.split(",")[-1] for line in lines[1:] if line.split(",")[2] == "4"}
        assert len(digests) == 1

    def test_bench_accepts_modint_config(self, capsys):
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["bench", "--m-list", "8", "--config", cfg, "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5

    def test_bench_rejects_non_modint_config(self, tmp_path, capsys):
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        assert main(["bench", "--m-list", "4", "--config", str(cfg)]) == 1
        assert "modint" in capsys.readouterr().err

    def test_usage_error_exit_codes(self, capsys):
        assert main(["verify", "--config", "/nonexistent.cfg"]) == 1
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["continuant"])  # missing required flags

    @pytest.mark.parametrize("strategy", ["closed", "rec", "oracle", "matpow"])
    @pytest.mark.parametrize("opts,message", [
        (["--m", "2", "--j", "1"], "j must lie in -1..0, got 1"),
        (["--m", "2", "--j", "-2"], "j must lie in -1..0, got -2"),
        (["--m", "-1"], "need m >= 0"),
        (["--m", "-1", "--j", "0"], "need m >= 0"),
    ], ids=["j-above", "j-below", "m-negative", "m-negative-with-j"])
    def test_periodic_domain_for_every_strategy(self, tmp_path, capsys, strategy, opts,
                                                message):
        cfg = tmp_path / "l2.cfg"
        cfg.write_text("ring = rational\nl = 2\np = 1\na = [2, 2]\nb = [1, 1]\nc = [-1, -1]\n")
        assert main(["periodic", "--config", str(cfg), "--strategy", strategy, *opts]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bench_digest_disagreement_is_a_one_line_error(self, monkeypatch, capsys):
        from continuants import bench

        monkeypatch.setitem(bench.STRATEGIES, "closed", lambda alpha, p, n: ModInt(-1))
        cfg = os.path.join(REPO, "configs", "modint_l2.cfg")
        assert main(["bench", "--config", cfg, "--m-list", "3", "--csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: strategy digests disagree at m=3: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_modint_config_checks_its_modulus_once(self, monkeypatch, capsys):
        from continuants import ring

        checked = []
        is_prime = ring._is_prime
        monkeypatch.setattr(ring, "_is_prime", lambda n: checked.append(n) or is_prime(n))
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["periodic", "--config", cfg, "--m", "3", "--verify"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4
        assert len(checked) == 1

    @pytest.mark.parametrize("argv", [
        ["bench", "--m-list", "2", "--csv"],
        ["bench", "--config", "configs/modint_l3.cfg", "--m-list", "2", "--l", "3"],
        ["bench", "--config", "configs/modint_l3.cfg", "--m-list", "2", "--seed", "1"],
        ["bench", "--config", "configs/modint_l3.cfg", "--m-list", "2", "--modulus", "97"],
        ["continuant", "--config", "configs/fib_l1.cfg", "--n", "5", "--p", "1"],
        ["periodic", "--config", "configs/fib_l1.cfg", "--m", "5", "--p", "1"],
    ], ids=["bench-without-config", "bench-l", "bench-seed", "bench-modulus",
            "continuant-p", "periodic-p"])
    def test_config_is_the_only_table_source(self, argv, monkeypatch, capsys):
        # The table and its base index come only from --config: anything
        # else is an argparse usage error, before any handler runs.
        monkeypatch.chdir(REPO)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: continuants ")

    @pytest.mark.parametrize("m_list", [",,", ",", " "])
    def test_bench_refuses_m_list_without_sizes(self, m_list, capsys):
        # An empty table would check nothing and exit 0.
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["bench", "--config", cfg, "--m-list", m_list, "--csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: bench refuses an --m-list with no sizes\n"

    @pytest.mark.parametrize("config", ["rational_l2_basic.cfg", "laurent_l3.cfg"])
    def test_bench_refuses_configs_outside_modint(self, config, monkeypatch, capsys):
        monkeypatch.setattr("continuants.bench.run_bench", _no_worker)
        cfg = os.path.join(REPO, "configs", config)
        assert main(["bench", "--config", cfg, "--m-list", "2", "--csv"]) == 1
        assert capsys.readouterr() == ("", "error: bench configs must use ring=modint\n")

    def test_bench_refuses_negative_m_before_any_strategy(self, monkeypatch, capsys):
        # A size after a large one must not wait for the large one's timings.
        from continuants import bench

        for name in bench.STRATEGIES:
            monkeypatch.setitem(bench.STRATEGIES, name, _no_worker)
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["bench", "--config", cfg, "--m-list", "2000000,-1", "--csv"]) == 1
        assert capsys.readouterr() == ("", "error: need m >= 0\n")

    def test_quatpow_cross_check_failure_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr("continuants.quaternion.quat_power_naive",
                            lambda x, n: Quaternion(0, 0, 0, 0))
        assert main(["quatpow", "--q", "1,2,3,4", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_quatpow_rejects_bad_vector(self, capsys):
        assert main(["quatpow", "--q", "1,2,3", "--n", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_prints_values_beyond_the_int_str_digit_limit(self, capsys):
        cfg = os.path.join(REPO, "configs", "rational_l2_basic.cfg")
        limit = sys.get_int_max_str_digits()
        assert main(["continuant", "--config", cfg, "--n", "20000",
                     "--strategy", "transfer"]) == 0
        assert sys.get_int_max_str_digits() == limit
        out = capsys.readouterr().out
        expected = continuant_rec(load_config(cfg).to_alpha(), 1, 20000)
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{expected}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(out) > limit

    @pytest.mark.parametrize("argv, length", [
        (["continuant", "--config", os.path.join(REPO, "configs", "rational_l2_basic.cfg"),
          "--n", "20000", "--strategy", "transfer"], 7_657),
        (["quatpow", "--q=123456789/1000003,2,3/7,4", "--n", "2000"], 126_225),
    ], ids=["continuant", "quatpow"])
    def test_long_values_print_without_touching_the_limit(self, argv, length,
                                                          monkeypatch, capsys):
        if argv[0] == "continuant":
            values = [continuant_rec(load_config(argv[2]).to_alpha(), 1, 20000)]
        else:
            x = Quaternion(Fraction(123456789, 1000003), 2, Fraction(3, 7), 4)
            values = quat_power_naive(x, 2000)
        with int_str_limit(0):
            expected = ",".join(map(str, values)) + "\n"

        def refuse(limit):
            raise AssertionError(f"set_int_max_str_digits({limit}) called")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected and len(out) == length

    def test_chebyshev_prints_its_coefficients_under_a_low_limit(self, capsys):
        with int_str_limit(0):
            expected = f"{u_coeffs(4000)}\n"
        with int_str_limit(640):
            assert main(["chebyshev", "--n", "4000"]) == 0
        assert capsys.readouterr().out == expected

    def test_over_long_input_literal_still_refused(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(FIB_CFG.replace("a = [1]", "a = [" + "7" * 5000 + "]"))
        assert main(["continuant", "--config", str(cfg), "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 4: field 'a'[0]: Exceeds the limit")

    @pytest.mark.parametrize("argv", [
        ["continuant", "--n", "100000", "--strategy", "oracle"],
        ["continuant", "--n", str(ORACLE_MAX_N + 1), "--strategy", "oracle"],
        ["periodic", "--m", "200", "--strategy", "oracle"],
        ["periodic", "--m", "200", "--verify"],
    ], ids=["continuant-1e5", "continuant-bound", "periodic", "periodic-verify"])
    def test_dense_oracle_refuses_large_n(self, argv, monkeypatch, capsys):
        def no_matrix(alpha, p, n):
            raise AssertionError(f"oracle band built at n = {n}")

        monkeypatch.setattr(continuant, "tridiagonal_matrix", no_matrix)
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main([argv[0], "--config", cfg, *argv[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # periodic --verify refuses before printing its value
        assert err.startswith("error: the oracle refuses n = ")
        assert f"ORACLE_MAX_N = {ORACLE_MAX_N}" in err


    @pytest.mark.parametrize("option", ["--n-max", "--m-max"])
    def test_verify_refuses_sizes_above_cap(self, option, monkeypatch, capsys):
        # The real suite takes seconds here.
        monkeypatch.setattr(strategies, "_IDENTITIES", {"any": _no_identity})
        cfg = os.path.join(REPO, "configs", "rational_l3_basic.cfg")
        assert main(["verify", "--config", cfg, option, str(VERIFY_MAX + 1)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: verify refuses {option[2:].replace('-', '_')} = "
                       f"{VERIFY_MAX + 1} > VERIFY_MAX = {VERIFY_MAX}\n")

    @pytest.mark.parametrize("option", ["--n-max", "--m-max"])
    def test_verify_refuses_negative_sizes(self, option, monkeypatch, capsys):
        # A negative size would check no case, print SKIP lines and pass.
        monkeypatch.setattr(strategies, "_IDENTITIES", {"any": _no_identity})
        cfg = os.path.join(REPO, "configs", "modint_l3.cfg")
        assert main(["verify", "--config", cfg, option, "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: verify refuses {option[2:].replace('-', '_')} = -1 < 0\n"

    def test_verify_accepts_sizes_at_cap(self, monkeypatch, capsys):
        seen = []

        def record(alpha, n_max, m_max):
            seen.append((n_max, m_max))
            yield None

        monkeypatch.setattr(strategies, "_IDENTITIES", {"any": record})
        cfg = os.path.join(REPO, "configs", "rational_l3_basic.cfg")
        cap = str(VERIFY_MAX)
        assert main(["verify", "--config", cfg, "--n-max", cap, "--m-max", cap]) == 0
        assert seen == [(VERIFY_MAX, VERIFY_MAX)]
        assert capsys.readouterr().out == "PASS any: 1 cases\n"

    def test_verify_prints_fail_row_and_exits_1(self, tmp_path, monkeypatch, capsys):
        closed = strategies.STRATEGIES["closed"]
        monkeypatch.setitem(strategies.STRATEGIES, "closed",
                            lambda alpha, p, n: closed(alpha, p, n) + 1)
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        assert main(["verify", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "FAIL closed=recurrence: 5/5 cases; first: m=0 j=-1: closed=1 rec=0" in out
        assert [line.split()[0] for line in out].count("FAIL") == 1

    def test_verify_skips_identities_with_no_cases(self, capsys):
        cfg = os.path.join(REPO, "configs", "modint_l3_cf.cfg")
        assert main(["verify", "--config", cfg, "--n-max", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "SKIP trace/det: no applicable cases" in out
        assert "SKIP cf-quotient: no applicable cases" in out

    def test_periodic_verify_prints_fail_and_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(strategies.STRATEGIES, "matpow", lambda alpha, p, n: Fraction(-1))
        cfg = tmp_path / "fib.cfg"
        cfg.write_text(FIB_CFG)
        assert main(["periodic", "--config", str(cfg), "--m", "5", "--verify"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "8", "PASS closed = 8", "PASS rec = 8", "PASS oracle = 8", "FAIL matpow = -1"]

    def test_bench_without_csv_prints_table(self, capsys):
        cfg = os.path.join(REPO, "configs", "modint_l2.cfg")
        assert main(["bench", "--config", cfg, "--m-list", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["strategy", "l", "m", "time_ns", "ops", "digest"]
        assert lines[1] == "-" * len(lines[0])
        assert len(lines) == 2 + 4

    @pytest.mark.parametrize("q,n", [
        ("-5/3,1,0,2", 3),
        (",".join(str(Fraction(x)) for x in (Fraction(-7, 9), 3, Fraction(2, 4), -1)), 5),
    ], ids=["negative-first", "str-fraction"])
    def test_quatpow_reads_rational_literals(self, q, n, capsys):
        from continuants.quaternion import quat_power_naive

        assert main(["quatpow", f"--q={q}", "--n", str(n)]) == 0
        x = Quaternion(*(Fraction(s) for s in q.split(",")))
        assert capsys.readouterr().out == f"{quat_power_naive(x, n)}\n"

    @pytest.mark.parametrize("q,bad", [
        ("1e3,0.5,0,0", "1e3"), ("1e1000000,0,0,0", "1e1000000"), ("1,0.5,0,0", "0.5")])
    def test_quatpow_refuses_decimals_and_exponents(self, q, bad, monkeypatch, capsys):
        monkeypatch.setattr("continuants.quaternion.quat_power_cheb", _no_worker)
        assert main(["quatpow", f"--q={q}", "--n", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: not a rational literal: {bad!r}\n")

    @pytest.mark.parametrize("argv,worker,message", SIZE_BOUNDS,
                             ids=[argv[0] for argv, _, _ in SIZE_BOUNDS])
    def test_commands_refuse_sizes_above_their_bound(self, argv, worker, message,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(worker, _no_worker)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv,worker,value", [
        (["chebyshev", "--n", str(cli.CHEBYSHEV_MAX_N)], "continuants.chebyshev.u_coeffs",
         [1]),
        (["qfib", "--n", str(cli.QFIB_MAX_N)], "continuants.qrational.q_fibonacci", 1),
        (["quatpow", "--q", "1,0,0,0", "--n", str(cli.QUATPOW_MAX_N)],
         "continuants.quaternion.quat_power_cheb", Quaternion(1, 0, 0, 0)),
        # [1, QRAT_MAX_DIGIT_SUM - 1] is the expansion of (d + 1)/d.
        (["qrat", "--r", str(cli.QRAT_MAX_DIGIT_SUM), "--s", str(cli.QRAT_MAX_DIGIT_SUM - 1)],
         "continuants.qrational.q_rational", LaurentFraction(1)),
    ], ids=["chebyshev", "qfib", "quatpow", "qrat"])
    def test_commands_accept_sizes_at_their_bound(self, argv, worker, value, monkeypatch,
                                                  capsys):
        seen = []
        monkeypatch.setattr(worker, lambda *args: seen.append(args) or value)
        monkeypatch.setattr("continuants.quaternion.quat_power_naive", lambda x, n: value)
        assert main(argv) == 0
        assert len(seen) == 1 and capsys.readouterr().err == ""


    @pytest.mark.parametrize("digits,bits", [([9] * 1000, 28_695_188), ([9] * 2000, 114_756_375),
                                             ([1] * 4500, 14_061_124)],
                             ids=["nines-1000", "nines-2000", "ones-4500"])
    def test_qrat_refuses_outputs_above_its_bound(self, digits, bits, monkeypatch, capsys):
        # Small digits: the digit sum passes, but the output would not fit.
        monkeypatch.setattr("continuants.qrational.q_rational", _no_worker)
        value = cf_value(digits)
        assert main(["qrat", "--r", str(value.numerator), "--s", str(value.denominator)]) == 1
        assert capsys.readouterr() == (
            "", f"error: qrat refuses (digit sum + 1) * bit_length(r) = {bits} > "
                f"QRAT_MAX_OUTPUT_BITS = {cli.QRAT_MAX_OUTPUT_BITS}\n")

    # The bound is the largest of these four costs, that of [20000] * 4.
    @pytest.mark.parametrize("value,bits", [
        (Fraction(1000000007, 123456789), 2_302_650), (Fraction(80000, 79999), 1_360_017),
        (cf_value([40000, 40000]), 2_480_031), (cf_value([20000] * 4), 4_640_058),
    ], ids=["1000000007/123456789", "80000/79999", "40000x2", "20000x4"])
    def test_qrat_accepts_outputs_at_its_bound(self, value, bits, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr("continuants.qrational.q_rational",
                            lambda digits: seen.append(digits) or LaurentFraction(1))
        assert main(["qrat", "--r", str(value.numerator), "--s", str(value.denominator)]) == 0
        assert capsys.readouterr().err == ""
        assert (sum(seen[0]) + 1) * value.numerator.bit_length() == bits
        assert bits <= cli.QRAT_MAX_OUTPUT_BITS == 4_640_058


class TestVerifyFixtures:
    @pytest.mark.parametrize("path", CONFIGS, ids=[os.path.basename(p) for p in CONFIGS])
    def test_shipped_config_verifies(self, path, capsys):
        assert main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_twenty_configs_shipped(self):
        assert len(CONFIGS) == 20


def _readme_cli_lines() -> list[str]:
    """The ``continuants ...`` lines of the README's CLI code block."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("continuants ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_runs(line, monkeypatch, capsys):
    # The README's paths are relative to the repository root.
    monkeypatch.chdir(REPO)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_cli_block_shows_every_subcommand():
    assert {line.split()[1] for line in _readme_cli_lines()} == {
        "continuant", "periodic", "qrat", "qfib", "quatpow", "chebyshev", "bench", "verify"}


class TestRoundTrip:
    def test_laurent_values_reparse(self):
        laurent = ring_by_name("laurent")
        for n in range(1, 25):
            value = q_fibonacci(n)
            assert laurent.parse(laurent.format(value)) == value

    def test_rational_values_reparse(self):
        rational = ring_by_name("rational")
        for value in (Fraction(0), Fraction(-8, 5), Fraction(21), Fraction(3, 7)):
            assert rational.parse(rational.format(value)) == value

    def test_modint_values_reparse(self):
        modint = ring_by_name("modint", 97)
        for v in range(0, 97, 13):
            value = ModInt(v, 97)
            assert modint.parse(modint.format(value)) == value

    def test_negative_exponent_polynomials(self):
        value = parse_laurent("-3*q^-2 + 1 - q^4")
        assert parse_laurent(str(value)) == value
