"""Command line interface: subcommands, formats, caching, exit codes."""

import collections
import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import shlex
import shutil
import stat
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RECORD_MUTATIONS
from weakper import cli, companion, gf, mat, search
from weakper.cli import (
    EXIT_BROKEN_PIPE,
    _randrange_draws,
    _verify_cache_key,
    run,
)
from weakper.companion import DEFAULT_ENUM_BOUND, Witness, companion_of
from weakper.errors import LimitError
from weakper.mat import Mat, universal_potency_exponent
from weakper.poly import Poly, parse_poly
from weakper.search import (
    DEFAULT_BRUTE_CAP,
    MODES,
    TOOL_VERSION,
    CompanionRecord,
    VerifyReport,
    _report_json,
    _report_payload,
    conjecture_scan,
    verify_field,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(*argv):
    return subprocess.run([sys.executable, "-m", "weakper.cli", *argv],
                          capture_output=True, text=True, check=False)


# every memo a potency verdict passes through
POTENCY_MEMOS = (mat._squarefree, mat.min_poly_exponent,
                 companion._potent_part, companion._potent_claims_hold)


def clear_potency_memos():
    for memo in POTENCY_MEMOS:
        memo.cache_clear()


class TestVerifyCommand:
    def test_constructive_gf3(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--field", "3^1",
                              "--n", "2", "--mode", "constructive")
        assert code == 0
        data = json.loads(out)
        assert data["field"] == "3^1/0,1"
        assert data["summary"] == {"total": 9, "decomposable": 9, "failed": 0}
        assert len(data["records"]) == 9
        assert all(r["status"] == "decomposable" for r in data["records"])

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--field", "3", "--n", "2",
                              "--mode", "constructive", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "field 3^1/0,1 n 2 mode constructive",
            "total 9 decomposable 9 failed 0"]

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--field", "3", "--n", "2",
                              "--mode", "constructive", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,n,mode,total,decomposable,failed,version"
        assert lines[1] == '"3^1/0,1",2,constructive,9,9,0,0.1.0'

    def test_out_file_holds_payload(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(capsys, "verify", "--field", "3", "--n", "2",
                              "--mode", "constructive", "--out", str(target))
        assert code == 0
        assert out == ""
        _, plain, _ = invoke(capsys, "verify", "--field", "3", "--n", "2",
                             "--mode", "constructive")
        assert target.read_text() == plain


class TestSetsCommand:
    def test_gf2_budget_two(self, capsys):
        code, out, _ = invoke(capsys, "sets", "--field", "2^1",
                              "--n", "2", "--ext-bound", "2")
        assert code == 0
        data = json.loads(out)
        assert data["potent_traces"] == [1]
        assert [w["value"] for w in data["unity_sums"]] == [0, 1]
        assert data["containments"]["passed"] is True
        assert data["containments"]["trace_violations"] == []
        # spectra reported for every m up to the default cap
        assert sorted(data["pattern_spectra"]) == [str(m) for m in range(2, 9)]

    def test_spectrum_rows_carry_patterns(self, capsys):
        _, out, _ = invoke(capsys, "sets", "--field", "2^1",
                           "--n", "2", "--ext-bound", "2")
        rows = json.loads(out)["pattern_spectra"]["2"]
        assert {"field": "2^1/0,1", "root": 1,
                "pattern": {"m": 2, "weights": [0, 1]}} in rows


    def test_report_unchanged_after_cache_clear(self, capsys):
        # the cold run starts from empty memos in a child process; clearing
        # them here would leave the session's field fixtures non-canonical
        args = ("sets", "--field", "2^2", "--n", "2", "--m-max", "7")
        warm = invoke(capsys, *args)
        cold = cli_process(*args)
        assert (cold.returncode, cold.stdout, cold.stderr) == warm

    def test_enumeration_bound_still_exits_3(self, capsys):
        code, out, err = invoke(capsys, "sets", "--field", "2", "--n", "21",
                                "--ext-bound", "1", "--m-max", "2")
        assert (code, out) == (3, "")
        assert err == ("error: 2^21 companion polynomials exceed the bound "
                       "1048576\n")


class TestDecomposeCommand:
    def test_constructive_witness_gf5(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--field", "5^1",
                              "--poly", "1,3,1")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "decomposable"
        assert data["g"] == [1, 3]
        assert data["witness"]["P"] == [[0, 0], [1, 2]]
        assert data["witness"]["N"] == [[0, 4], [0, 0]]
        assert data["witness"]["potency_exponent"] == 5
        assert data["witness"]["source"] == "constructive"

    def test_not_decomposable_reports_reason(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--field", "2^2",
                              "--poly", "1,0,1")
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "not_decomposable"
        assert "sum to 0" in data["reason"]

    def test_brute_rescues_constructive_failure(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--field", "2^2",
                              "--poly", "1,0,1", "--mode", "brute")
        assert code == 0
        assert json.loads(out)["status"] == "decomposable"

    def test_witness_reverified_by_the_iterative_route(
            self, capsys, exponent_route_rejects):
        # the power route now iterates to the witness's own exponent
        code, _, err = invoke(capsys, "decompose", "--field", "5",
                              "--poly", "1,3,1", "--mode", "brute")
        assert code == 1
        assert "failed re-verification" in err

    @pytest.mark.parametrize("field, poly, mode, exponent", [
        ("11", "1,2,3,4,0,1,2,3,4,1", "constructive", 11),
        ("2", "1,1,0,0,0,0,0,0,0,0,0,0,0,1,1", "commuting", 14),
        # the witness's own exponent passes 2^63 too
        ("31", "3,6,0,0,0,0,0,0,0,0,0,0,0,1", "commuting",
         12208773148722521296),
    ])
    def test_past_the_universal_exponent_wall(self, capsys, field, poly,
                                              mode, exponent):
        # lcm(q^d - 1 : d <= n) passes 2^63 here, and re-verification
        # needs only the witness's own exponent
        code, out, _ = invoke(capsys, "decompose", "--field", field,
                              "--poly", poly, "--mode", mode)
        assert code == 0
        data = json.loads(out)["witness"]
        spec = gf.parse_field(field)
        with pytest.raises(LimitError, match=r"exceeds the cap 2\^63"):
            universal_potency_exponent(data["n"], spec)
        assert data["potency_exponent"] == exponent
        witness = Witness(potent=Mat.from_rows(spec, data["P"]),
                          nilpotent=Mat.from_rows(spec, data["N"]),
                          exponent=data["potency_exponent"],
                          commuting=data["commuting"],
                          source=data["source"])
        clear_potency_memos()
        assert witness.verify(companion_of(parse_poly(spec, poly)).matrix,
                              require_commuting=(mode == "commuting"))

    def test_commuting_degree_13_is_prompt(self, capsys,
                                           mat_product_budget):
        # the route steps around the Frobenius cycle instead of raising C
        # to the power 2^lcm(1..13)
        mat_product_budget(1000)
        code, out, _ = invoke(capsys, "decompose", "--field", "2",
                              "--poly", "1,0,1,0,0,0,0,0,0,0,1,1,1,1",
                              "--mode", "commuting")
        assert code == 0
        data = json.loads(out)
        assert data["witness"]["source"] == "brute_commuting"
        assert data["witness"]["potency_exponent"] == 1534
        code, out, _ = invoke(capsys, "decompose", "--field", "2",
                              "--poly", "0," * 13 + "1",
                              "--mode", "commuting")
        assert (code, json.loads(out)["status"]) == (1, "not_decomposable")

    def test_commuting_degree_13_potent_part_of_degree_13(self, capsys):
        # min_poly(P) has degree 13, past the trial-division cap of factor
        code, out, _ = invoke(capsys, "decompose", "--field", "2",
                              "--poly", "1,1,1,0,0,1,0,0,1,1,0,0,0,1",
                              "--mode", "commuting")
        assert code == 0
        witness = json.loads(out)["witness"]
        P = Mat.from_rows(gf.build_field(2, 1), witness["P"])
        t = witness["potency_exponent"]
        assert t == 8192
        assert P ** t == P
        for r in gf.prime_factors(t - 1):
            assert P ** ((t - 1) // r + 1) != P

    def test_witness_count_flag(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--field", "2",
                              "--poly", "1,1,1", "--mode", "brute",
                              "--count-witnesses")
        assert code == 0
        data = json.loads(out)
        assert data["witness_counts"] == {"total": 4, "commuting": 1}
        _, plain, _ = invoke(capsys, "decompose", "--field", "2",
                             "--poly", "1,1,1", "--mode", "brute")
        assert "witness_counts" not in json.loads(plain)


class TestPotencyMemos:
    @pytest.mark.parametrize("args", [
        ("verify", "--field", "2^2", "--n", "3", "--mode", "brute"),
        ("conjecture", "--field", "2", "--n", "6"),
    ])
    def test_cold_run_equals_warm_rerun(self, capsys, args):
        clear_potency_memos()
        cold = invoke(capsys, *args)
        hits = mat.min_poly_exponent.cache_info().hits
        warm = invoke(capsys, *args)
        assert cold[0] == 0 and warm == cold
        assert mat.min_poly_exponent.cache_info().hits > hits

    def test_brute_verify_product_budget(self, capsys, mat_product_budget):
        # a cold GF(4) n=3 brute run: 1,283 products; 1,408 when the scan
        # and the witness each took min_poly(P), and 2,944 when every route
        # re-derived potency and powered P to the universal exponent
        clear_potency_memos()
        mat_product_budget(1300)
        code, _, _ = invoke(capsys, "verify", "--field", "2^2", "--n", "3",
                            "--mode", "brute")
        assert code == 0


class TestFieldInfoCommand:
    def test_gf4(self, capsys):
        code, out, _ = invoke(capsys, "field-info", "--field", "2^2")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "field": "2^2/1,1,1",
            "p": 2,
            "l": 2,
            "order": 4,
            "modulus": [1, 1, 1],
            "generator": 2,
            "roots_of_unity": {"1": [1], "2": [1], "3": [1, 2, 3]},
            "subfields": ["2^1/0,1", "2^2/1,1,1"],
        }


class TestLemmasCommand:
    def test_small_power_cap_passes(self, capsys):
        code, out, _ = invoke(capsys, "lemmas", "--field", "3^1",
                              "--n", "2", "--m-max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS ") for line in lines)

    def test_power_five_exposes_missing_certificates(self, capsys):
        # extension roots at the fifth power lose their prime-field shift
        code, out, _ = invoke(capsys, "lemmas", "--field", "3^1",
                              "--n", "2", "--m-max", "5")
        assert code == 1
        failing = [l for l in out.strip().splitlines()
                   if l.startswith("FAIL ")]
        assert len(failing) == 1
        assert failing[0].startswith("FAIL spectra_shift_certificates")


class TestRandrangeDraws:
    """lemmas draws its samples through getrandbits the way randrange
    does; a CPython whose randrange draws otherwise fails here."""

    @pytest.mark.parametrize("seed", [1729, 1, 0, -3])
    def test_same_values_and_state_as_randrange(self, seed):
        for bound in (2, 3, 4, 5, 7, 8, 9, 16, 10 ** 6):
            for start in (0, 1):
                ours, theirs = random.Random(seed), random.Random(seed)
                draws = _randrange_draws(ours, bound, start)
                for _ in range(300):
                    assert next(draws) == theirs.randrange(
                        start, start + bound), (bound, start)
                assert ours.random() == theirs.random(), (bound, start)


class TestConjectureCommand:
    def test_gf3_scan_clean(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "--field", "3",
                              "--n", "2")
        assert code == 0
        assert json.loads(out)["non_decomposable"] == []

    def test_gf3_n4_needs_no_search_bound(self, capsys):
        # 3^16 matrices exceed the brute cap, but the commuting route
        # searches none of them
        code, out, _ = invoke(capsys, "conjecture", "--field", "3",
                              "--n", "4", "--format", "text")
        assert code == 0
        assert out.splitlines()[1] == "total 81 decomposable 72"


class TestExitCodes:
    def test_invalid_field_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "--field", "6",
                              "--n", "2", "--mode", "brute")
        assert code == 2
        assert "not a prime" in err

    def test_empty_modulus_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "field-info", "--field", "2^2/")
        assert code == 2
        assert "cannot parse field descriptor" in err

    def test_missing_n_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "--field", "3",
                              "--mode", "constructive")
        assert code == 2
        assert "the following arguments are required: --n" in err

    @pytest.mark.parametrize("command", [
        "verify", "sets", "conjecture", "lemmas"])
    @pytest.mark.parametrize("value", ["0", "-1", "x", None])
    def test_bad_n_is_usage_error(self, capsys, command, value):
        argv = [command, "--field", "3"]
        if value is not None:
            argv += ["--n", value]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"weakper {command}: error: "
            + ("the following arguments are required: --n\n"
               if value is None else
               f"argument --n: must be an integer >= 1, got '{value}'\n"))

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_degree_below_one_is_input_error(self, capsys, degree):
        code, out, err = invoke(capsys, "field-info", "--field",
                                f"2^{degree}")
        assert (code, out) == (2, "")
        assert err == f"error: extension degree must be >= 1, got {degree}\n"

    @pytest.mark.parametrize("argv, message", [
        (("sets", "--field", "2", "--n", "3", "--ext-bound", "20"),
         "compositum GF(2^232792560) exceeds the bound 1048576"),
        (("sets", "--field", "2", "--n", "3", "--ext-bound", "40"),
         "compositum GF(2^5342931457063200) exceeds the bound 1048576"),
        (("lemmas", "--field", "2", "--n", "3", "--ext-bound", "40"),
         "compositum GF(2^5342931457063200) exceeds the bound 1048576"),
        # lcm(1..47) >= 2^64: named by its formula, never computed in full
        (("sets", "--field", "3", "--n", "2", "--ext-bound", "100000"),
         "compositum GF(3^(1*lcm(1..100000))) exceeds the bound 1048576"),
        (("sets", "--field", "2", "--n", str(10 ** 12)),
         f"2^{10 ** 12} companion polynomials exceed the bound 1048576"),
        (("verify", "--field", "2", "--n", str(10 ** 9), "--mode", "brute"),
         f"2^{10 ** 9} companion matrices exceed the bound 1048576"),
        (("conjecture", "--field", "3", "--n", str(10 ** 9)),
         f"3^{10 ** 9} companion matrices exceed the bound 1048576"),
    ])
    def test_oversized_bound_exits_3_at_once(self, capsys, argv, message):
        # q^k is never built: 2^232792560 alone takes over a second
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_non_monic_poly_is_input_error(self, capsys):
        code, _, _ = invoke(capsys, "decompose", "--field", "3",
                            "--poly", "1,2")
        assert code == 2

    def test_enum_cap_is_resource_error(self, capsys):
        code, _, err = invoke(capsys, "verify", "--field", "3", "--n", "2",
                              "--mode", "constructive", "--enum-cap", "4")
        assert code == 3
        assert "exceed" in err

    def test_lemmas_trace_set_honours_enum_cap(self, capsys):
        # 2^7 > 64, so only the containment report enumerates companions
        code, _, err = invoke(capsys, "lemmas", "--field", "2", "--n", "7",
                              "--enum-cap", "100")
        assert code == 3
        assert "exceed the bound 100" in err

    def test_brute_cap_is_resource_error(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--field", "2", "--n", "2",
                            "--mode", "brute", "--brute-cap", "10")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("verify", "--field", "3", "--n", "2", "--enum-cap", "-5"),
        ("verify", "--field", "2", "--n", "2", "--mode", "brute",
         "--brute-cap", "-1"),
        ("decompose", "--field", "2", "--poly", "1,1", "--mode", "brute",
         "--brute-cap", "-3"),
        ("decompose", "--field", "2", "--poly", "1,1", "--brute-cap", "-3"),
        ("sets", "--field", "2", "--n", "2", "--enum-cap", "-1"),
        ("conjecture", "--field", "2", "--n", "2", "--enum-cap", "-1"),
        ("lemmas", "--field", "2", "--n", "2", "--enum-cap", "-1"),
        ("verify", "--field", "3", "--n", "2", "--enum-cap", "many"),
    ])
    def test_invalid_cap_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"must be an integer >= 0, got '{argv[-1]}'" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--field", "3", "--n", "2", "--enum-cap", "0"),
        ("decompose", "--field", "2", "--poly", "1,1", "--mode", "brute",
         "--brute-cap", "0"),
    ])
    def test_zero_cap_is_resource_error(self, capsys, argv):
        code, _, err = invoke(capsys, *argv)
        assert code == 3
        assert "exceed the bound 0" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--field", "3", "--n", "2",
                            "--mode", "brute", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--m-max", "4"), ("--ext-bound", "2"), ("--seed", "7")])
    def test_spectra_flags_belong_to_sets_and_lemmas(self, capsys, flag,
                                                      value):
        code, _, err = invoke(capsys, "verify", "--field", "3", "--n", "2",
                              flag, value)
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", ["sets", "lemmas"])
    @pytest.mark.parametrize("m_max", ["1", "0", "-3"])
    def test_m_max_below_two_is_input_error(self, capsys, command, m_max):
        # no cycle is shorter than 2, so the checks would check nothing
        code, out, err = invoke(capsys, command, "--field", "2", "--n", "2",
                                "--m-max", m_max)
        assert code == 2
        assert out == ""
        assert err.endswith(f"weakper {command}: error: argument --m-max: "
                            f"must be an integer >= 2, got '{m_max}'\n")

    @pytest.mark.parametrize("command", ["sets", "lemmas"])
    @pytest.mark.parametrize("flag, value, low", [
        ("--ext-bound", "0", 1), ("--ext-bound", "-2", 1),
        ("--ext-bound", "x", 1), ("--m-max", "1", 2), ("--m-max", "x", 2)])
    def test_spectra_bound_is_usage_error_before_any_work(
            self, capsys, command, flag, value, low):
        # 2^30 companions exceed the enumeration bound (exit 3), so only a
        # bound argparse checks is reported first
        code, out, err = invoke(capsys, command, "--field", "2", "--n", "30",
                                flag, value)
        assert (code, out) == (2, "")
        assert err.endswith(f"weakper {command}: error: argument {flag}: "
                            f"must be an integer >= {low}, got '{value}'\n")

    def test_seed_belongs_to_lemmas(self, capsys):
        code, _, _ = invoke(capsys, "sets", "--field", "3", "--n", "2",
                            "--seed", "7")
        assert code == 2

    @pytest.mark.parametrize("command, extra, flag, value", [
        ("field-info", (), "--cache", "/x"),
        ("field-info", (), "--enum-cap", "-5"),
        ("field-info", (), "--brute-cap", "0"),
        ("decompose", ("--poly", "1,1,1"), "--cache", "/x"),
        ("decompose", ("--poly", "1,1,1"), "--enum-cap", "-5"),
        ("sets", ("--n", "2"), "--cache", "/x"),
        ("sets", ("--n", "2"), "--brute-cap", "0"),
        ("conjecture", ("--n", "2"), "--cache", "/x"),
        ("lemmas", ("--n", "2"), "--cache", "/x"),
        ("lemmas", ("--n", "2"), "--brute-cap", "0"),
        ("conjecture", ("--n", "2"), "--brute-cap", "0"),
    ])
    def test_caps_belong_to_the_subcommands_that_read_them(
            self, capsys, command, extra, flag, value):
        # argparse rejects the pair before the subcommand runs
        code, _, err = invoke(capsys, command, "--field", "3", *extra,
                              flag, value)
        assert code == 2
        assert f"unrecognized arguments: {flag}" in err

    def test_jobs_flag_is_gone(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--field", "3", "--n", "2",
                            "--mode", "brute", "--jobs", "2")
        assert code == 2


class TestStartUp:
    """Every run is a fresh process, so a module that only some runs need
    is imported where it is used."""
    # dataclasses pulls in inspect; hashlib loads OpenSSL's _hashlib;
    # argparse loads gettext, and only help and usage errors need either;
    # json only reads a report back, tempfile (which loads random) only
    # writes a file, and random only draws the lemmas' samples.  A .pth
    # file may import any module before the probe runs, so the heavy
    # modules it finds are dropped first: a run that needs one imports it
    # again, and the probe reports the heavy modules the run added.
    PROBE = ("import sys\n"
             "heavy = {'dataclasses', 'inspect', 'hashlib', '_hashlib',"
             " 'csv', 'argparse', 'gettext', 'json', 'tempfile',"
             " 'random'}\n"
             "for name in heavy & set(sys.modules):\n"
             "    del sys.modules[name]\n"
             "before = set(sys.modules)\n"
             "from weakper.cli import run\n"
             "code = run(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "print(code, *sorted(heavy & (set(sys.modules) - before)),"
             " file=sys.stderr)\n")

    def loaded_after(self, *argv):
        """Exit code of a fresh run of argv, then the heavy modules it
        loaded; with no argv, only weakper.cli is imported."""
        env = {k: v for k, v in os.environ.items() if k != "WEAKPER_CACHE"}
        proc = subprocess.run([sys.executable, "-c", self.PROBE, *argv],
                              capture_output=True, text=True, check=False,
                              env=env)
        return proc.stderr.split()

    def test_import_loads_none_of_the_heavy_modules(self):
        assert self.loaded_after() == ["0"]

    def test_verify_without_cache_loads_no_hashlib(self):
        assert self.loaded_after("verify", "--field", "3", "--n", "2") == [
            "0"]

    def test_cache_and_csv_load_what_they_use(self, tmp_path):
        # a miss writes the entry
        assert self.loaded_after("verify", "--field", "3", "--n", "2",
                                 "--format", "csv",
                                 "--cache", str(tmp_path)) == [
            "0", "csv", "random", "tempfile"]

    def test_cache_hit_loads_json(self, tmp_path):
        argv = ("verify", "--field", "3", "--n", "2", "--format", "text",
                "--cache", str(tmp_path))
        assert self.loaded_after(*argv) == ["0", "random", "tempfile"]
        # the hit decodes the entry and writes nothing
        assert self.loaded_after(*argv) == ["0", "json"]

    @pytest.mark.parametrize("argv", [
        ("field-info", "--field", "3", "--format", "text"),
        ("decompose", "--field", "5", "--poly", "1,2,3,1", "--mode",
         "brute", "--count-witnesses"),
        ("verify", "--field", "3", "--n", "2", "--mode", "commuting",
         "--enum-cap", "100", "--brute-cap", "100"),
        ("sets", "--field", "2", "--n", "2", "--ext-bound", "2",
         "--m-max", "4"),
        ("conjecture", "--field", "2", "--n", "2", "--format", "csv"),
        ("lemmas", "--field", "2", "--n", "2", "--m-max", "4", "--seed",
         "7", "--format", "text"),
    ])
    def test_well_formed_run_loads_no_argparse(self, argv):
        # nor any other heavy module but those it uses: lemmas draws
        # samples with random, and --format csv writes through csv
        used = {"lemmas": ["random"]}.get(argv[0], [])
        if "csv" in argv:
            used.append("csv")
        assert self.loaded_after(*argv) == ["0", *used]

    @pytest.mark.parametrize("command", [
        ("field-info", "--field", "3"),
        ("lemmas", "--field", "2", "--n", "2", "--m-max", "4")])
    def test_out_loads_tempfile(self, tmp_path, command):
        assert self.loaded_after(*command, "--out",
                                 str(tmp_path / "report.json")) == [
            "0", "random", "tempfile"]

    def test_usage_error_loads_argparse(self):
        # argparse's usage message comes first on stderr, the probe's line
        # last
        loaded = self.loaded_after("verify", "--field", "3", "--n", "0")
        assert loaded[-3:] == ["2", "argparse", "gettext"]

    # notes go to the file named first.  The hook, registered before main()
    # runs, notes how many bytes stdout held when it ran, buffers one more
    # for the final flush, then leaves a cycle that only a garbage
    # collection frees: shutdown's last collection notes it as finalized
    EXIT_PROBE = ("import atexit, gc, os, sys\n"
                  "import weakper.cli\n"
                  "log = os.open(sys.argv.pop(1), os.O_WRONLY | os.O_APPEND)\n"
                  "class Finalized:\n"
                  "    def __del__(self, write=os.write, log=log):\n"
                  "        write(log, b'finalized\\n')\n"
                  "def hook():\n"
                  "    os.write(log, b'atexit %d\\n' % os.fstat(1).st_size)\n"
                  "    sys.stdout.write('#')\n"
                  "    gc.collect()\n"
                  "    garbage = Finalized()\n"
                  "    garbage.cycle = garbage\n"
                  "atexit.register(hook)\n"
                  "if sys.argv.pop(1) == 'main':\n"
                  "    weakper.cli.main()\n"
                  "sys.exit(weakper.cli.run(sys.argv[1:]))\n")

    def exit_notes(self, tmp_path, entry, *argv, stdout=None,
                   stderr=subprocess.DEVNULL):
        """Exit code of a fresh, buffered run of argv through entry ("main"
        or "run"), the bytes written to stdout (a file unless stdout is
        given), and the probe's notes in the order they were made."""
        log = tmp_path / "notes"
        log.write_bytes(b"")
        out = tmp_path / "stdout"
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        with open(out, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", self.EXIT_PROBE, str(log), entry,
                 *argv], stdout=fh if stdout is None else stdout,
                stderr=stderr, env=env, check=False)
        return (proc.returncode, out.stat().st_size,
                log.read_text().splitlines())

    @pytest.mark.parametrize("argv, code", [
        (("field-info", "--field", "7"), 0),
        (("verify", "--field", "2^2", "--n", "2"), 1),
        (("verify", "--field", "4", "--n", "2"), 2),
        (("decompose", "--field", "3", "--poly", "2,1", "--mode", "brute",
          "--brute-cap", "0"), 3),
    ])
    def test_main_skips_finalization(self, tmp_path, argv, code):
        got, size, notes = self.exit_notes(tmp_path, "main", *argv)
        assert got == code
        assert (size > 1) == (code < 2)
        # the hook ran once, after the whole report was written, what it
        # wrote was flushed, and nothing was finalized
        assert notes == [f"atexit {size - 1}"]

    def test_main_exits_141_on_a_closed_stdout(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            got, _, notes = self.exit_notes(
                tmp_path, "main", "verify", "--field", "3", "--n", "2",
                stdout=write_end)
        finally:
            os.close(write_end)
        # by then stdout is os.devnull, which holds nothing
        assert (got, notes) == (EXIT_BROKEN_PIPE, ["atexit 0"])

    def test_run_then_sys_exit_finalizes(self, tmp_path):
        # the tests and the benchmark's tracer call run() in-process; the
        # probe sees finalization where there is one
        got, _, notes = self.exit_notes(
            tmp_path, "run", "verify", "--field", "2^2", "--n", "2")
        assert got == 1
        # stdout is flushed after the hooks, so the hook may see less
        assert [note.split()[0] for note in notes] == ["atexit", "finalized"]

    def test_failed_final_flush_leaves_through_shutdown(self, tmp_path):
        # the error line cannot reach a closed stderr (main() takes the
        # broken pipe for stdout's), so main()'s flush of stderr fails, and
        # shutdown, flushing it again, exits 120
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            got, _, notes = self.exit_notes(
                tmp_path, "main", "verify", "--field", "4", "--n", "2",
                stderr=write_end)
        finally:
            os.close(write_end)
        # the hook still ran only once
        assert (got, notes) == (120, ["atexit 0", "finalized"])

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    def test_escaping_error_leaves_through_shutdown(self, tmp_path):
        # stdout is only redirected to the device, never replaced: the
        # report's flush fails in main() and the error escapes it, so the
        # traceback exits 1, and shutdown's flush fails again: exit 120
        with open("/dev/full", "wb") as full:
            got, _, notes = self.exit_notes(
                tmp_path, "main", "field-info", "--field", "7",
                stdout=full)
        assert (got, notes) == (120, ["atexit 0", "finalized"])

    def test_cache_entry_name_is_pinned(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, "verify", "--field", "3", "--n", "3",
                            "--mode", "brute", "--cache", str(tmp_path))
        assert code == 0
        assert [entry.name for entry in tmp_path.iterdir()] == [
            "effbca9d8196d5b145fd2bd0bff688b84be1658ae13d9fe1ea27f2c8ac872eb3"
            ".json"]

    @pytest.mark.parametrize("argv, name", [
        (("--field", "3^2", "--n", "3"),
         "8efcc22d8ff376874f93353ddc45d2052ad15c8f15602cabcdf66da0d8c6bc5b"),
        (("--field", "2", "--n", "3", "--mode", "commuting"),
         "81a714ed98c66aae4e3e7fa603e884cd70fab3db4e140a9068529f4a387ae3b1"),
        (("--field", "2", "--n", "3", "--mode", "brute", "--enum-cap",
          "1000", "--brute-cap", "600"),
         "1456fb74de4617cd87f61221acabb5fc94a410a4928177e55e253f38c58b366f"),
    ])
    def test_cache_entry_names_of_every_mode_are_pinned(self, capsys,
                                                        tmp_path, argv,
                                                        name):
        code, _, _ = invoke(capsys, "verify", *argv, "--cache",
                            str(tmp_path))
        assert code == 0
        assert [entry.name for entry in tmp_path.iterdir()] == [
            name + ".json"]

    @pytest.mark.parametrize("field", ["2", "3^2", "2^2/1,1,1"])
    @pytest.mark.parametrize("n", [1, 12])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("enum_cap, brute_cap", [
        (DEFAULT_ENUM_BOUND, DEFAULT_BRUTE_CAP), (0, 0), (1000, 600)])
    def test_cache_key_is_hashlib_sha256(self, field, n, mode, enum_cap,
                                         brute_cap):
        spec = gf.parse_field(field)
        fields = ["verify", spec.descriptor(), str(n), mode, str(enum_cap)]
        if mode == "brute":
            fields.append(str(brute_cap))
        blob = "|".join(fields + [TOOL_VERSION]).encode("utf-8")
        assert _verify_cache_key(spec, n, mode, enum_cap, brute_cap) == (
            hashlib.sha256(blob).hexdigest())

    def test_cache_key_falls_back_to_hashlib(self, monkeypatch):
        spec = gf.parse_field("3^2")
        key = _verify_cache_key(spec, 3, "brute", 1000, 600)
        # neither built-in module can be imported, so hashlib must serve
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        calls = []

        def sha256(data):
            calls.append(data)
            return hashlib.new("sha256", data)

        monkeypatch.setattr(hashlib, "sha256", sha256)
        assert _verify_cache_key(spec, 3, "brute", 1000, 600) == key
        assert len(calls) == 1



def valid_value(kind, shift=0):
    """A command-line value of an option kind of cli's grammar, and the
    value argparse makes of it; shift picks another one."""
    if kind is str:
        return f"x{shift},1", f"x{shift},1"
    if isinstance(kind, tuple):
        return kind[shift % len(kind)], kind[shift % len(kind)]
    value = (kind if kind is not int else -3) + 3 + shift
    return str(value), value


def well_formed_corpus():
    """argv of every subcommand: each subset of its optional flags with
    every required one, in table order, reversed and rotated, and each
    valued flag repeated with a second value that must win."""
    for command, _, options in cli._SUBCOMMANDS:
        required = [o for o in options if o[3]]
        optional = [o for o in options if not o[3]]
        for size in range(len(optional) + 1):
            for chosen in itertools.combinations(optional, size):
                picked = required + list(chosen)
                for order in (picked, picked[::-1],
                              picked[1:] + picked[:1]):
                    argv = [command]
                    for flag, kind, _, _, _ in order:
                        argv.append(flag)
                        if kind is not bool:
                            argv.append(valid_value(kind)[0])
                    yield argv
        for flag, kind, _, _, _ in options:
            if kind is not bool:
                argv = [command]
                for option in required:
                    argv += [option[0], valid_value(option[1])[0]]
                argv += [flag, valid_value(kind)[0],
                         flag, valid_value(kind, 1)[0]]
                yield argv


VERIFY_USAGE = (
    "usage: weakper verify [-h] --field FIELD [--out OUT]\n"
    "                      [--format {json,csv,text}] --n N"
    " [--enum-cap ENUM_CAP]\n"
    "                      [--brute-cap BRUTE_CAP] [--cache CACHE]\n"
    "                      [--mode {constructive,brute,commuting}]\n")
DECOMPOSE_USAGE = (
    "usage: weakper decompose [-h] --field FIELD [--out OUT]\n"
    "                         [--format {json,csv,text}]"
    " [--brute-cap BRUTE_CAP]\n"
    "                         --poly POLY"
    " [--mode {constructive,brute,commuting}]\n"
    "                         [--count-witnesses]\n")


class TestDirectParser:
    """run() parses a well-formed command line without argparse; the
    namespace is the one argparse gives, and everything else reaches
    argparse, which answers as it did before the direct parser."""

    def test_matches_argparse(self):
        parser = cli.build_parser()
        corpus = list(well_formed_corpus())
        assert len(corpus) > 500
        commands = set()
        for argv in corpus:
            direct = cli._parse_direct(argv)
            assert direct is not None, argv
            assert vars(direct) == vars(parser.parse_args(argv)), argv
            commands.add(argv[0])
        assert commands == {command for command, _, _ in cli._SUBCOMMANDS}

    def test_last_repeated_value_wins(self):
        args = cli._parse_direct(["verify", "--n", "2", "--field", "3",
                                  "--n", "5", "--format", "csv",
                                  "--format", "text"])
        assert (args.n, args.field, args.format) == (5, "3", "text")

    def test_defaults_are_argparse_defaults(self):
        args = cli._parse_direct(["lemmas", "--field", "3", "--n", "2"])
        assert vars(args) == {
            "command": "lemmas", "field": "3", "out": None,
            "format": "json", "n": 2, "enum_cap": DEFAULT_ENUM_BOUND,
            "ext_bound": None, "m_max": cli.DEFAULT_M_MAX,
            "seed": cli.DEFAULT_SEED}

    # (argv, exit code, stderr), as argparse answered before the direct
    # parser existed, at 80 columns
    REFUSED = [
        (("verify", "--fie", "3", "--n", "2"), 0, ""),
        (("verify", "--field", "3", "--n=2"), 0, ""),
        (("verify", "--field", "3", "--n", "2", "-h"), 0, ""),
        (("verify", "--", "--field", "3", "--n", "2"), 2,
         VERIFY_USAGE + "weakper verify: error: the following arguments "
                        "are required: --field, --n\n"),
        (("lemmas", "--field", "2", "--n", "2", "--m-max", "4", "--seed",
          "-5"), 0, ""),
        (("decompose", "--field", "5", "--poly", "-1,1"), 2,
         DECOMPOSE_USAGE + "weakper decompose: error: argument --poly: "
                           "expected one argument\n"),
        (("verify", "--field", "3", "--n", "2", "--mode", "fast"), 2,
         VERIFY_USAGE + "weakper verify: error: argument --mode: invalid "
                        "choice: 'fast' (choose from 'constructive', "
                        "'brute', 'commuting')\n"),
        (("verify", "--field", "3", "--n", "0"), 2,
         VERIFY_USAGE + "weakper verify: error: argument --n: must be an "
                        "integer >= 1, got '0'\n"),
        (("verify", "--field", "3"), 2,
         VERIFY_USAGE + "weakper verify: error: the following arguments "
                        "are required: --n\n"),
        (("solve", "--field", "3"), 2,
         "usage: weakper [-h] {field-info,decompose,verify,sets,conjecture,"
         "lemmas} ...\nweakper: error: argument command: invalid choice: "
         "'solve' (choose from 'field-info', 'decompose', 'verify', 'sets',"
         " 'conjecture', 'lemmas')\n"),
    ]

    @pytest.mark.parametrize("argv, code, err", REFUSED)
    def test_refused_reach_argparse(self, capsys, monkeypatch, argv, code,
                                    err):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("WEAKPER_CACHE", raising=False)
        assert cli._parse_direct(list(argv)) is None
        got, out, got_err = invoke(capsys, *argv)
        assert (got, got_err) == (code, err)
        if "-h" in argv:
            assert out.startswith("usage: weakper verify [-h]")

    @pytest.mark.parametrize("argv", [
        ["verify", "--field", "3", "--n", 2],
        ["verify", "--field", 3, "--n", "2"],
        [3],
    ])
    def test_non_str_item_reaches_argparse(self, argv):
        assert cli._parse_direct(argv) is None
        # argparse indexes every item as a string
        with pytest.raises(TypeError):
            run(argv)


def reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII and a lone surrogate
TRICKY_TEXT = st.text(st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u20ac",
     "\U0001f600", "\ud800", "a", "/"]) | st.characters(), max_size=8)
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=2 ** 64) | st.integers(max_value=-1)
                | TRICKY_TEXT)
JSON_VALUES = st.recursive(
    JSON_SCALARS | st.lists(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(TRICKY_TEXT, inner)),
    max_leaves=15)


def assert_spliced_as_json(value):
    """_dumps writes value as json.dumps writes it, and so does
    _report_json before and after a report's records, at depth one and
    two."""
    assert search._dumps(value) == reference_json(value)
    report = verify_field(1, gf.parse_field("3"), "constructive")
    payload, want = _report_payload(report), report.to_dict()
    assert _report_json(dict(payload, a=value, z=value), report, 1) == (
        reference_json(dict(want, a=value, z=value)))
    assert _report_json({"a": value, "report": payload, "z": value},
                        report, 2) == (
        reference_json({"a": value, "report": want, "z": value}))


class TestReportWriter:
    """Reports are laid out as json.dumps(indent=2, sort_keys=True) plus a
    newline, by search._dumps, which json.dumps checks here; the records
    spliced into that text leave the rest of the payload as json.dumps
    writes it."""

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES)
    def test_writer_matches_json(self, value):
        assert_spliced_as_json(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"a": {}}, [1, True, 0, False, None],
        [True, False], [2 ** 64, -(2 ** 70), 0], {"b": [1, 2], "a": (3,)},
        "\"\\\x00\u20ac\U0001f600"])
    def test_writer_matches_json_on_edge_cases(self, value):
        assert_spliced_as_json(value)

    # json.dumps writes a float, and an int, float, bool or None key as
    # text; a report holds none of them
    @pytest.mark.parametrize("value", [
        0.5, [1, 2.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 1}},
        {("a",): 1}, {"a": 1, 2: "b"}])
    def test_writer_refuses_values_outside_its_domain(self, value):
        with pytest.raises(TypeError):
            search._dumps(value)

    def test_writer_without_the_c_escaper(self):
        # an interpreter without _json escapes strings by json.encoder's
        # pure-Python loop
        value = {"\ud800": ["\"\\\x00\x7f\u20ac\U0001f600", 7, None]}
        probe = ("import sys\n"
                 "sys.modules['_json'] = None\n"
                 "from weakper import search\n"
                 "assert search.encode_basestring_ascii.__module__"
                 " == 'json.encoder'\n"
                 f"sys.stdout.write(search._dumps({value!r}))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == reference_json(value)


RECORD_FIELDS = ("2", "3", "2^2", "2^3", "3^2", "2^2/1,1,1")


def _layout_cases():
    """Every mode at n = 1..4 with q^n <= 729 over RECORD_FIELDS, less the
    cells a route refuses outright: constructive needs q >= n + 1, and
    brute searches at most DEFAULT_BRUTE_CAP candidates."""
    for field in RECORD_FIELDS:
        q = gf.parse_field(field).order
        for n in range(1, 5):
            if q ** n > 729:
                break
            for mode in MODES:
                if ((mode == "constructive" and q < n + 1)
                        or (mode == "brute"
                            and q ** (n * n) > DEFAULT_BRUTE_CAP)):
                    continue
                yield field, n, mode


def assert_same_text(got, want):
    # pytest's own diff of two reports this large takes minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"texts differ from offset {at}: "
                    f"{got[max(at - 40, 0):at + 40]!r} != "
                    f"{want[max(at - 40, 0):at + 40]!r}")


class TestRecordLayouts:
    """verify and conjecture write their records from one per-n layout;
    report.to_dict() through json is the oracle."""

    @staticmethod
    def assert_written_as_json(report):
        assert_same_text(_report_json(_report_payload(report), report, 1),
                         reference_json(report.to_dict()))

    @pytest.mark.parametrize("field, n, mode", list(_layout_cases()))
    def test_field_report(self, field, n, mode):
        self.assert_written_as_json(
            verify_field(n, gf.parse_field(field), mode))

    @pytest.mark.parametrize("field, mode, failed", [
        ("2^2", "constructive", 4), ("2^3", "constructive", 8),
        ("2", "commuting", 2)])
    def test_reports_with_bare_records(self, field, mode, failed):
        n = 2 if mode == "constructive" else 3
        report = verify_field(n, gf.parse_field(field), mode)
        assert report.failed == failed
        assert {r.witness is None for r in report.records} == {True, False}
        self.assert_written_as_json(report)

    def test_both_commuting_verdicts_are_covered(self):
        report = verify_field(2, gf.parse_field("3"), "constructive")
        assert {r.witness.commuting for r in report.records} == {True, False}
        self.assert_written_as_json(report)

    def test_hand_built_records(self):
        spec = gf.parse_field("3")
        form = companion_of(Poly(spec, (1, 2, 1)))
        P = Mat.identity(spec, 2)
        witness = Witness(potent=P, nilpotent=form.matrix - P,
                          exponent=2 ** 70 + 1, commuting=False,
                          source="hand \"built\"\n\u20ac%s%d")
        records = (CompanionRecord(form, "decomposable", witness),
                   CompanionRecord(form, "not_decomposable", None))
        for kept in ((), records[:1], records[1:], records):
            self.assert_written_as_json(VerifyReport(
                field="3^1/0,1", n=2, mode="constructive", records=kept))

    @pytest.mark.parametrize("field, n, mode", [
        ("2^3", 2, "constructive"), ("2", 1, "brute"),
        ("3^2/1,0,1", 2, "commuting")])
    def test_verify_command(self, capsys, field, n, mode):
        _, out, _ = invoke(capsys, "verify", "--field", field, "--n", str(n),
                           "--mode", mode)
        assert_same_text(out, reference_json(
            verify_field(n, gf.parse_field(field), mode).to_dict()))

    @pytest.mark.parametrize("field, n", [
        ("2", 1), ("2", 3), ("2^2", 2), ("3", 3)])
    def test_conjecture_nests_records_at_depth_two(self, capsys, field, n):
        _, out, _ = invoke(capsys, "conjecture", "--field", field,
                           "--n", str(n))
        scan = conjecture_scan(n, gf.parse_field(field))
        assert_same_text(out, reference_json(scan.serialize()))


class TestGoldenReports:
    """Report bytes pinned by sha256, so that any change to their layout or
    content shows here."""

    @pytest.mark.parametrize("argv, code, digest", [
        (("field-info", "--field", "2^4"), 0,
         "ea704278e95fee9a454e9f304c1182cf73d1e860959c26d7ad6a49cb264114f2"),
        (("decompose", "--field", "2", "--poly", "1,0,1,1,1", "--mode",
          "brute", "--count-witnesses"), 0,
         "c645aaa97bedeaa59cf80cf06086cb7111cc2cf03ddae3386cf21fade910eca4"),
        (("verify", "--field", "3", "--n", "2", "--mode", "constructive"),
         0,
         "53ce7d20f912280ca4ff70e12b79fca82486778f1bc332d6bb1e874953e5cb4e"),
        (("verify", "--field", "2", "--n", "3", "--mode", "brute"), 0,
         "0eb16ef597c08ae79fb9c75b2d97f7f35b173e0e38cd495914243fd8a6a5a947"),
        (("verify", "--field", "2", "--n", "3", "--mode", "commuting"), 0,
         "4c80f45a06764f558e064a565fe911dae1e9566f68dfc32380d284b492ca630d"),
        (("conjecture", "--field", "2", "--n", "3"), 0,
         "20bcf5db6eeba3fd159b1971d0b97c516811aaa2c98323a9eaf9275d3fc944d4"),
        (("sets", "--field", "2", "--n", "2"), 0,
         "af8cb705b90be7ea11148018a98447c22a1e6face876f233f5a645e22af8df43"),
        # the largest record layout, failed records, the n = 1 layout and
        # records nested at depth two
        (("verify", "--field", "3^2", "--n", "3"), 0,
         "062fb3da5b789fb1d4d84c14c0d6944a7d728d784d187597b21dd615086f4ba1"),
        (("verify", "--field", "2^2", "--n", "2"), 1,
         "58df82aabd48a373ef6b4d595df1679686f5441c606ef59196ed94ec35a6836b"),
        (("verify", "--field", "2", "--n", "1", "--mode", "brute"), 0,
         "8adfcc216760f0763932ba357fa6f9f41c7dc31548923b19fabfc2a745209130"),
        (("conjecture", "--field", "2^2", "--n", "3"), 0,
         "9a3600a4394953216de641f1c8da1306a05ce2b9e1ea67dfaed7fbdfb121ed5b"),
        # the largest payloads without records (about 17 and 23 KB)
        (("sets", "--field", "5", "--n", "2"), 0,
         "c57e151c2d006bea7098ecfc87cc463448d42fbe4912ed857028b0e81a6b5dc0"),
        (("sets", "--field", "5", "--n", "3"), 0,
         "0a30162556ca04264bf59a9f651833cf21910d2ca62f00565358ec6b5b9d6233"),
        # the commuting route past the straight-line products, and at
        # n = 13 on a polynomial with repeated factors
        (("conjecture", "--field", "2", "--n", "6"), 0,
         "fab30a8cb5c60fd363d90e6bf97b2451238fc1301b4a97333ebaef5a2e161b81"),
        (("conjecture", "--field", "3", "--n", "5"), 0,
         "f47587606795cf2282977fbc07905116376e857e01084d4d723a13888cec1163"),
        (("conjecture", "--field", "2^2", "--n", "4"), 0,
         "f5969b40ce8be893f9733baf6159a6141ff23ade76d381911653a005ad9ad274"),
        (("decompose", "--field", "2", "--poly",
          "1,0,1,0,0,0,0,0,0,0,1,1,1,1", "--mode", "commuting"), 0,
         "3848b6326ce68375742dbd0d55330df7df32b7182b408de3b669a6a0219876a2"),
    ])
    def test_stdout(self, capsys, argv, code, digest):
        got, out, _ = invoke(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_lemmas_out_file(self, capsys, tmp_path):
        # exit 1: the shift certificate is missing past phi(m) <= 2
        path = tmp_path / "lemmas.json"
        code, _, _ = invoke(capsys, "lemmas", "--field", "2", "--n", "2",
                            "--out", str(path))
        assert code == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9eaeb5fc60c7a02f7066205da3470dea8b7c91a3819ddbee8ebd6d5ab36ad636")

    def test_lemmas_out_file_gf5_n3(self, capsys, tmp_path):
        path = tmp_path / "lemmas.json"
        code, _, _ = invoke(capsys, "lemmas", "--field", "5", "--n", "3",
                            "--out", str(path))
        assert code == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f5b9e0808b2cfd43666b4fed20df9514246fa0b4510c850351ad431a22b685b1")


class TestUnwritableOut:
    """--out to a path that cannot be written is bad input: exit 2 with one
    error line, and nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--field", "2", "--n", "1"),
        ("field-info", "--field", "2"),
        # no PASS/FAIL line follows the failed write
        ("lemmas", "--field", "2", "--n", "1", "--m-max", "2"),
    ])
    @pytest.mark.parametrize("target", ["directory", "under_a_file"])
    def test_exits_2(self, capsys, tmp_path, argv, target):
        (tmp_path / "directory").mkdir()
        (tmp_path / "file").write_text("")
        out = tmp_path / {"directory": "directory",
                          "under_a_file": "file/x.json"}[target]
        code, stdout, err = invoke(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        # no temporary file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "directory", "file"]
        assert not any((tmp_path / "directory").iterdir())


class TestOutTarget:
    """--out replaces a regular file atomically, and writes what is not one
    in place, as a shell redirection would."""

    ARGV = ("verify", "--field", "3", "--n", "2")

    def report(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, *self.ARGV, "--out",
                            str(tmp_path / "plain.json"))
        assert code == 0
        return (tmp_path / "plain.json").read_bytes()

    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        want = self.report(capsys, tmp_path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # opened for reading first, so that the writer need not wait; the
        # report (5 KB) fits in the pipe
        read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert invoke(capsys, *self.ARGV, "--out", str(fifo)) == (
                0, "", "")
            # no writer is left, so the pipe ends where the report does
            got = b"".join(iter(lambda: os.read(read_end, 65536), b""))
        finally:
            os.close(read_end)
        assert got == want
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_symlink_stays_and_its_target_is_replaced(self, capsys,
                                                       tmp_path):
        want = self.report(capsys, tmp_path)
        (tmp_path / "reports").mkdir()
        target = tmp_path / "reports" / "target.json"
        target.write_bytes(b"old")
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("reports", "target.json"))
        assert invoke(capsys, *self.ARGV, "--out", str(link)) == (0, "", "")
        assert os.readlink(link) == os.path.join("reports", "target.json")
        assert target.read_bytes() == want
        # the temporary file went next to the target, and is gone
        assert sorted(p.name for p in target.parent.iterdir()) == [
            "target.json"]


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("verify", "--field", "3", "--n", "2"),
        ("lemmas", "--field", "3", "--n", "2", "--m-max", "4"),
    ])
    # buffered, a short report first fails at the final flush
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_exits_with_its_own_code_and_no_traceback(self, argv,
                                                      unbuffered):
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        # nobody can read what the child writes
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weakper.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, check=False,
                env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE == 141
        assert proc.stderr == b""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_that_leaves_early(self, unbuffered):
        # the 588 KB report does not fit in the pipe: the reader takes one
        # byte and goes, and the rest of the report cannot be written.
        # Unbuffered, a raw write takes what the pipe took and returns
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "weakper.cli", "verify", "--field", "3^2",
             "--n", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert err == b""

    def test_lemmas_out_file_is_written_first(self, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        path = tmp_path / "lemmas.json"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "weakper.cli", "lemmas", "--field",
                 "2", "--n", "2", "--out", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, check=False,
                env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == b""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9eaeb5fc60c7a02f7066205da3470dea8b7c91a3819ddbee8ebd6d5ab36ad636")


class TestProcessMatchesRun:
    """main() adds only the way out to run(): a `python -m weakper.cli`
    child gives the exit code, stdout, stderr and written files that run()
    gives in-process."""

    # the commands of a case run in turn in one directory that holds only
    # the file "blocker", so a cache there cannot be written
    CASES = {
        "field-info json": [("field-info", "--field", "2^2")],
        "field-info text": [("field-info", "--field", "3^2", "--format",
                             "text")],
        "decompose json": [("decompose", "--field", "5", "--poly",
                            "1,2,3,1")],
        "decompose text --count-witnesses": [
            ("decompose", "--field", "2", "--poly", "1,0,1", "--mode",
             "brute", "--count-witnesses", "--format", "text")],
        "decompose exits 3": [("decompose", "--field", "3", "--poly", "2,1",
                               "--mode", "brute", "--brute-cap", "0")],
        "verify csv": [("verify", "--field", "3", "--n", "2", "--format",
                        "csv")],
        "verify --out exits 1": [("verify", "--field", "2^2", "--n", "2",
                                  "--out", "reports/verify.json")],
        "verify --cache miss then hit": [
            ("verify", "--field", "2", "--n", "3", "--mode", "commuting",
             "--cache", "cache"),
            ("verify", "--field", "2", "--n", "3", "--mode", "commuting",
             "--cache", "cache", "--format", "text")],
        "verify unwritable cache": [("verify", "--field", "3", "--n", "2",
                                     "--cache", "blocker")],
        "verify exits 2": [("verify", "--field", "4", "--n", "2")],
        # 588 KB, more than a pipe holds
        "verify GF(9) n=3": [("verify", "--field", "3^2", "--n", "3")],
        "sets text": [("sets", "--field", "2", "--n", "2", "--format",
                       "text")],
        "sets --out csv": [("sets", "--field", "3", "--n", "2", "--out",
                            "sets.csv", "--format", "csv")],
        "conjecture json": [("conjecture", "--field", "2", "--n", "3")],
        "lemmas": [("lemmas", "--field", "3", "--n", "2", "--m-max", "4")],
        "lemmas --out exits 1": [("lemmas", "--field", "3", "--n", "2",
                                  "--m-max", "5", "--out", "lemmas.json")],
        "usage error": [("verify", "--field", "2", "--n", "2",
                         "--enum-cap", "-1")],
    }

    def outcome(self, work, commands, entry):
        """What each command gives through entry, then every file left in
        work, from a fresh work directory."""
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        (work / "blocker").write_text("")
        results = [entry(argv) for argv in commands]
        files = {str(path.relative_to(work)): path.read_bytes()
                 for path in sorted(work.rglob("*")) if path.is_file()}
        return results, files

    @pytest.mark.parametrize("case", CASES)
    def test_same_outcome(self, capsys, monkeypatch, tmp_path, case):
        monkeypatch.delenv("WEAKPER_CACHE", raising=False)
        # the same absolute path both times, so error texts that name a
        # path agree too
        work = tmp_path / "work"
        src = pathlib.Path(search.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

        def in_process(argv):
            monkeypatch.chdir(work)
            code, out, err = invoke(capsys, *argv)
            return code, out.encode("utf-8"), err.encode("utf-8")

        # bytes, so that no newline is translated (csv ends rows in \r\n)
        def child(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "weakper.cli", *argv], cwd=work,
                env=env, capture_output=True, check=False)
            return proc.returncode, proc.stdout, proc.stderr

        commands = self.CASES[case]
        want = self.outcome(work, commands, in_process)
        assert self.outcome(work, commands, child) == want
        # each command printed or wrote something
        results, files = want
        assert all(out or err for _, out, err in results) or len(files) > 1


class TestCache:
    ARGS = ("verify", "--field", "3", "--n", "2", "--mode", "constructive")

    def test_second_run_is_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code_a, out_a, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        code_b, out_b, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        assert (code_a, code_b) == (0, 0)
        assert out_a == out_b
        assert len(list(cache.iterdir())) == 1

    def test_brute_cap_keys_only_brute_entries(self, capsys, tmp_path):
        # only brute mode reads --brute-cap
        for mode, entries in (("commuting", 1), ("brute", 2)):
            cache = tmp_path / mode
            outs = set()
            for cap in ("100", "200"):
                code, out, _ = invoke(capsys, "verify", "--field", "2",
                                      "--n", "2", "--mode", mode,
                                      "--brute-cap", cap,
                                      "--cache", str(cache))
                assert code == 0
                outs.add(out)
            assert len(outs) == 1
            assert len(list(cache.iterdir())) == entries

    def test_cached_bytes_are_served(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        invoke(capsys, *self.ARGS, "--cache", str(cache))
        entry = next(cache.iterdir())
        entry.write_text(entry.read_text().replace(
            '"version": "0.1.0"', '"version": "0.1.0-cached"'))
        _, out, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        assert "0.1.0-cached" in out

    def test_truncated_entry_is_recomputed_and_repaired(self, capsys,
                                                        tmp_path):
        cache = tmp_path / "cache"
        _, cold, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        entry = next(cache.iterdir())
        # cut in half, or nested past the parser's recursion limit
        for text in (cold[:len(cold) // 2], "[" * 100000 + "]" * 100000):
            entry.write_text(text)
            code, out, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
            assert code == 0
            assert out == cold
            assert entry.read_text() == cold

    def test_entry_for_another_request_is_recomputed(self, capsys,
                                                     tmp_path):
        cache = tmp_path / "cache"
        _, cold, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        entry = next(cache.iterdir())
        for key, value in (("field", "5^1/0,1"), ("n", 3), ("n", 2.0),
                           ("mode", "brute")):
            data = json.loads(cold)
            data[key] = value
            entry.write_text(json.dumps(data))
            code, out, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
            assert code == 0
            assert out == cold
            assert entry.read_text() == cold

    def test_split_record_marked_failed_is_recomputed(self, capsys,
                                                      tmp_path):
        args = ("verify", "--field", "2", "--n", "3", "--mode", "brute",
                "--cache", str(tmp_path))
        _, cold, _ = invoke(capsys, *args)
        entry = next(tmp_path.iterdir())
        for status in ("not_decomposable", "unknown"):
            data = json.loads(cold)
            del data["records"][0]["witness"]
            data["records"][0]["status"] = status
            entry.write_text(json.dumps(data))
            code, out, _ = invoke(capsys, *args)
            assert (code, out) == (0, cold)
            assert entry.read_text() == cold

    def test_entry_with_genuine_failures_is_served(self, capsys, tmp_path):
        # GF(2) n=3 has two companions without a commuting split
        args = ("verify", "--field", "2", "--n", "3", "--mode",
                "commuting", "--cache", str(tmp_path))
        _, cold, _ = invoke(capsys, *args)
        assert json.loads(cold)["summary"]["failed"] == 2
        entry = next(tmp_path.iterdir())
        entry.write_text(cold.replace('"version": "0.1.0"',
                                      '"version": "0.1.0-cached"'))
        _, out, _ = invoke(capsys, *args)
        assert "0.1.0-cached" in out

    def test_failed_records_relabelled_decomposable_are_recomputed(
            self, capsys, tmp_path):
        # GF(4) n=2 has four companions the constructive route cannot split
        args = ("verify", "--field", "2^2", "--n", "2", "--cache",
                str(tmp_path), "--format", "text")
        code, cold, _ = invoke(capsys, *args)
        assert (code, cold.splitlines()[1]) == (
            1, "total 16 decomposable 12 failed 4")
        entry = next(tmp_path.iterdir())
        stored = entry.read_text()
        data = json.loads(stored)
        for rec in data["records"]:
            if rec["status"] == "not_decomposable":
                rec["status"] = "decomposable"
        entry.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, *args)
        assert (code, out) == (1, cold)
        assert entry.read_text() == stored

    @pytest.mark.parametrize("summary", [
        {"total": 9, "decomposable": 8, "failed": 1},
        {"total": 9, "decomposable": 9, "failed": False},
        {"total": 9, "decomposable": 9.0, "failed": 0},
        None,
    ], ids=["wrong counts", "bool count", "float count", "missing"])
    def test_summary_disagreeing_with_records_is_recomputed(
            self, capsys, tmp_path, summary):
        cache = tmp_path / "cache"
        _, cold, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        entry = next(cache.iterdir())
        data = json.loads(cold)
        if summary is None:
            del data["summary"]
        else:
            data["summary"] = summary
        entry.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        code, out, _ = invoke(capsys, *self.ARGS, "--cache", str(cache))
        assert (code, out) == (0, cold)
        assert entry.read_text() == cold

    # the per-record mutations of tests/conftest.py, which load_report
    # rejects too, and two that break only the enumeration order
    ENTRY_MUTATIONS = dict(
        RECORD_MUTATIONS,
        **{"two records swapped": lambda data: data["records"].insert(
               1, data["records"].pop(2)),
           "one record dropped": lambda data: data["records"].pop()})

    @pytest.mark.parametrize("mutation", ENTRY_MUTATIONS)
    def test_malformed_entry_is_recomputed_and_repaired(
            self, capsys, tmp_path, mutation):
        args = ("verify", "--field", "2", "--n", "3", "--mode", "commuting",
                "--cache", str(tmp_path))
        _, cold, _ = invoke(capsys, *args)
        entry = next(tmp_path.iterdir())
        data = json.loads(cold)
        self.ENTRY_MUTATIONS[mutation](data)
        entry.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        code, out, _ = invoke(capsys, *args)
        assert (code, out) == (0, cold)
        assert entry.read_text() == cold

    @pytest.mark.parametrize("argv, failed", [
        (("--field", "3^2", "--n", "3", "--mode", "constructive"), 0),
        (("--field", "2", "--n", "3", "--mode", "commuting"), 2),
    ])
    def test_hit_builds_only_the_failed_companions(
            self, capsys, tmp_path, monkeypatch, argv, failed):
        args = ("verify", *argv, "--cache", str(tmp_path))
        _, cold, _ = invoke(capsys, *args)
        built = collections.Counter()

        def counting(name, fn):
            def counted(*a, **kw):
                built[name] += 1
                return fn(*a, **kw)
            return counted

        monkeypatch.setattr(search, "companion_of",
                            counting("companion_of", search.companion_of))
        monkeypatch.setattr(Mat, "__init__", counting("Mat", Mat.__init__))
        monkeypatch.setattr(Mat, "_raw",
                            staticmethod(counting("Mat", Mat._raw)))
        monkeypatch.setattr(Witness, "__new__", staticmethod(
            counting("Witness", Witness.__new__)))
        code, out, _ = invoke(capsys, *args)
        assert (code, out) == (0, cold)
        # a hit runs the route again on each not_decomposable record only
        assert built["companion_of"] == failed
        if not failed:
            assert (built["Mat"], built["Witness"]) == (0, 0)

    def test_env_var_overrides_flag(self, capsys, tmp_path, monkeypatch):
        flag_dir = tmp_path / "flag"
        env_dir = tmp_path / "env"
        monkeypatch.setenv("WEAKPER_CACHE", str(env_dir))
        invoke(capsys, *self.ARGS, "--cache", str(flag_dir))
        assert env_dir.is_dir() and list(env_dir.iterdir())
        assert not flag_dir.exists()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each `weakper ...` line of README's sh blocks, split into argv."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("weakper ")]


class TestReadmeCommands:
    def test_every_readme_command_exits_0(self, capsys):
        commands = readme_commands()
        assert len(commands) == 8
        for argv in commands:
            code, _, err = invoke(capsys, *argv)
            assert code == 0, (argv, err)


def test_module_entry_point(tmp_path):
    proc = cli_process("field-info", "--field", "7")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 7


@pytest.mark.skipif(shutil.which("weakper") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["weakper", "field-info", "--field", "7"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generator"] == 3
