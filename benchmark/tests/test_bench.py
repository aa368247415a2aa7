"""Tests of the benchmark's own code: aggregation, self-time arithmetic,
the correctness gate and the traced child.

    python3 -m unittest discover -s benchmark/tests
"""

import copy
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

BENCH = pathlib.Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import cells  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from weakper.gf import build_field  # noqa: E402
from weakper.search import verify_field  # noqa: E402


class TestAggregation(unittest.TestCase):
    def test_geomean_weights_cells_equally(self):
        self.assertAlmostEqual(run.geomean([0.1, 10.0]), 1.0)
        self.assertAlmostEqual(run.geomean([2.0, 2.0, 2.0]), 2.0)

    def test_cell_metrics(self):
        fast = cells.verify_cell("constructive", "3", 2)     # 9 companions
        slow = cells.verify_cell("constructive", "3^2", 3)   # 729
        m = run.cell_metrics([(fast, 0.25), (slow, 4.0)])
        self.assertAlmostEqual(m["cell_s.geomean"], 1.0)
        self.assertEqual(m["cell_s.slowest"], 4.0)
        self.assertAlmostEqual(m["companions_per_s"], 738 / 4.25)
        self.assertAlmostEqual(m["cells_per_s"], 2 / 4.25)

    def test_scale_uses_the_references_around_each_operation(self):
        ref = run.REFERENCE_S
        scaled = run.scale([1.0, 3.0], [ref, 2 * ref, 4 * ref])
        self.assertAlmostEqual(scaled[0], 1.0 / 1.5)
        self.assertAlmostEqual(scaled[1], 3.0 / 3.0)

    def test_summarize_keeps_quartiles_and_count(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((s["median_s"], s["n"]), (3.0, 5))
        self.assertEqual((s["q1_s"], s["q3_s"]), (1.5, 4.5))
        one = run.summarize([0.7])
        self.assertEqual((one["median_s"], one["q1_s"], one["q3_s"]),
                         (0.7, 0.7, 0.7))


def _doc():
    """A cli.run span over [0, 10] holding a brute scan over [1, 6] that
    spent 0.5 s in Mat.__mul__ and made two is_potent calls, the first
    returning True, plus a char_poly span under cli.run over [7, 9]."""
    names = ["cli.run", "search.brute_scan", "mat.is_potent",
             "mat.char_poly"]
    spans = [
        [0, -1, 0.0, 10.0, 0.0, None],
        [1, 0, 1.0, 6.0, 0.5, None],
        [2, 1, 2.0, 3.0, 0.0, True],
        [2, 1, 3.5, 4.0, 0.0, False],
        [3, 0, 7.0, 9.0, 0.25, None],
    ]
    return {"names": names, "spans": spans,
            "kernels": {"mat.mul": [4, 0.75]},
            "counters": {"gf.elem_ops": 100, "gf.field_eq_calls": 3},
            "distinct": {"mat.potency_exponent": 0}, "dump_s": 0.125}


class TestSelfTime(unittest.TestCase):
    def test_self_time_subtracts_children_and_kernels(self):
        stats, tests, hits = run.self_times(_doc())
        self.assertEqual(stats["cli.run"], [1, 10.0 - 5.0 - 2.0])
        self.assertEqual(stats["search.brute_scan"], [1, 5.0 - 1.5 - 0.5])
        self.assertEqual(stats["mat.is_potent"], [2, 1.5])
        self.assertEqual(stats["mat.char_poly"], [1, 2.0 - 0.25])
        self.assertEqual(stats["mat.mul"], [4, 0.75])
        self.assertEqual((tests, hits), (2, 1))

    def test_layer_metrics_sum_a_round(self):
        m = run.layer_metrics([(10.5, _doc()), (10.5, _doc())])
        self.assertAlmostEqual(m["cli.startup_s"], 2 * (10.5 - 10 - 0.125))
        self.assertAlmostEqual(m["cli.run.self_s"], 6.0)
        self.assertAlmostEqual(m["search.brute_scan.self_s"], 6.0)
        self.assertEqual(m["search.brute_scan.potent_tests"], 4)
        self.assertEqual(m["search.brute_scan.hit_ratio"], 0.5)
        self.assertEqual(m["mat.is_potent.calls"], 4)
        self.assertEqual(m["mat.mul.calls"], 8)
        self.assertEqual(m["gf.elem_ops"], 200)
        self.assertEqual(m["search.load_report.calls"], 0)
        self.assertEqual(m["mat.potency_exponent.distinct_ratio"], 0.0)


class TestGate(unittest.TestCase):
    cell = cells.verify_cell("brute", "2", 3)

    @classmethod
    def setUpClass(cls):
        report = verify_field(3, build_field(2, 1), "brute")
        cls.raw = report.to_dict()

    def problems(self, raw, exit_code=0):
        out = json.dumps(raw, indent=2, sort_keys=True).encode()
        return gate.Gate(seed=1).check(self.cell, exit_code, out)

    def test_intact_report_passes(self):
        self.assertEqual(self.problems(self.raw), [])

    def test_wrong_exit_code_fails(self):
        self.assertTrue(self.problems(self.raw, exit_code=1))

    def test_record_flipped_to_not_decomposable_fails(self):
        raw = copy.deepcopy(self.raw)
        del raw["records"][3]["witness"]
        raw["records"][3]["status"] = "not_decomposable"
        self.assertTrue(self.problems(raw))
        raw["summary"] = {"total": 8, "decomposable": 7, "failed": 1}
        self.assertTrue(self.problems(raw))

    def test_record_flipped_but_keeping_its_witness_fails(self):
        raw = copy.deepcopy(self.raw)
        raw["records"][3]["status"] = "not_decomposable"
        self.assertTrue(self.problems(raw))

    def test_duplicated_record_fails(self):
        raw = copy.deepcopy(self.raw)
        raw["records"][1] = copy.deepcopy(raw["records"][0])
        problems = self.problems(raw)
        self.assertTrue(any("in order" in p for p in problems), problems)

    def test_repeat_must_be_byte_identical(self):
        g = gate.Gate(seed=1)
        out = json.dumps(self.raw).encode()
        self.assertEqual(g.check(self.cell, 0, out), [])
        self.assertEqual(g.check(self.cell, 0, out), [])
        self.assertTrue(g.check(self.cell, 0, out + b" "))

    def test_mod_p_witness_check(self):
        rec = next(r for r in self.raw["records"] if "witness" in r)
        self.assertEqual(gate.witness_problems(rec["g"], rec["witness"], 2),
                         [])
        bad = copy.deepcopy(rec["witness"])
        bad["N"][0][0] ^= 1
        self.assertTrue(gate.witness_problems(rec["g"], bad, 2))

    def test_lemma_lines_pin_the_failing_set(self):
        cell = cells.lemmas_cell("5", 2)
        ok = "".join(f"PASS {name}: x\n" for name in cells.LEMMA_NAMES)
        self.assertEqual(gate.Gate(1).check(cell, 0, ok.encode()), [])
        bad = ok.replace("PASS gcd", "FAIL gcd")
        self.assertTrue(gate.Gate(1).check(cell, 0, bad.encode()))


class TestTracedChild(unittest.TestCase):
    def test_counts_repeat_and_output_is_unchanged(self):
        argv = ["verify", "--field", "2", "--n", "2", "--mode", "brute"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("WEAKPER_CACHE", None)
        plain = subprocess.run([sys.executable, "-m", "weakper.cli"] + argv,
                               env=env, capture_output=True, check=True)
        docs = []
        work = BENCH.parent / ".bench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            spans = pathlib.Path(tmp) / "spans.json"
            for _ in range(2):
                traced = subprocess.run(
                    [sys.executable, str(BENCH / "trace_boot.py"),
                     str(spans)] + argv,
                    env=env, capture_output=True, check=True)
                self.assertEqual(traced.stdout, plain.stdout)
                docs.append(json.loads(spans.read_text()))
        first, second = (run.self_times(d)[0] for d in docs)
        self.assertEqual({k: v[0] for k, v in first.items()},
                         {k: v[0] for k, v in second.items()})
        self.assertEqual(docs[0]["counters"], docs[1]["counters"])
        self.assertGreater(first["search.brute_scan"][0], 0)
        self.assertGreater(docs[0]["counters"]["gf.elem_ops"], 0)


if __name__ == "__main__":
    unittest.main()
