"""Benchmark for the weakper command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--detail PATH]

Each operation is one fresh `python -m weakper.cli ...` process against
this checkout's src, because every CLI user pays interpreter start, the
imports, field-table builds and the square-zero filter on each call.  One
client runs the workload's cells as a closed loop: a seeded shuffle of
the cells per round, one child at a time, rounds repeated until S seconds
have passed (the first round always completes).  Every output goes through
the correctness gate in gate.py.

--trace 0 prints the end-to-end metrics.  Each operation's time is scaled
by a reference child timed around it (see REFERENCE).  Timings are
summarised per cell first (median, quartiles, sample count; kept in the
--detail file) and then combined, because percentiles pooled over cells of
different cost jump between cell classes from seed to seed.

--trace 1 alternates untraced rounds with rounds run under trace_boot.py,
at least two of each, and prints the per-layer metrics: self time per
layer, call counts, and the tracing overhead, all unscaled.  The counts
must repeat exactly between the traced rounds.

`--workload all` runs every workload in turn.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import collections
import json
import math
import os
import pathlib
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time

import cells

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
OP_TIME_LIMIT = 120
TRACED_ROUNDS_MIN = 2

# On a shared host the CPU speed a child sees swings by tens of percent
# over tens of seconds, far more than the changes this benchmark has to
# resolve, and much of it comes and goes within a second.  So a fixed
# pure-Python child is timed before every operation and after the last,
# and each operation is reported scaled to a machine on which the two
# reference runs around it take REFERENCE_S seconds.  Raw wall times stay
# in the --detail file.
REFERENCE = "x = 0\nfor i in range(250000):\n    x += i * i\n"
REFERENCE_S = 0.1

END_TO_END = {
    "cell_s.geomean": "s",
    "cell_s.slowest": "s",
    "companions_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# per-layer metric -> unit; a count must repeat exactly between traced rounds
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.run.self_s": "s",
    "search.brute_scan.self_s": "s",
    "search.brute_scan.potent_tests": "count",
    "search.brute_scan.hit_ratio": "ratio",
    "search.verify_field.self_s": "s",
    "search.load_report.self_s": "s",
    "search.load_report.calls": "count",
    "search.reverify_report.self_s": "s",
    "companion.trace_matched_decomposition.self_s": "s",
    "companion.potent_companion_with_trace.calls": "count",
    "companion.potent_companion_with_trace.distinct_ratio": "ratio",
    "companion.witness_verify.calls": "count",
    "companion.witness_verify.self_s": "s",
    "mat.potency_exponent.calls": "count",
    "mat.potency_exponent.self_s": "s",
    "mat.potency_exponent.distinct_ratio": "ratio",
    "mat.is_potent_iterative.self_s": "s",
    "mat.pow.self_s": "s",
    "mat.min_poly.calls": "count",
    "mat.min_poly.self_s": "s",
    "mat.is_potent.calls": "count",
    "mat.is_potent.self_s": "s",
    "mat.mul.calls": "count",
    "mat.mul.self_s": "s",
    "mat.char_poly.self_s": "s",
    "poly.roots_in_extensions.self_s": "s",
    "gf.embed.self_s": "s",
    "rosets.pattern_spectra.self_s": "s",
    "rosets.unity_sum_set.self_s": "s",
    "rosets.containment_report.self_s": "s",
    "poly.factor.calls": "count",
    "poly.factor.self_s": "s",
    "poly.pow_mod.calls": "count",
    "poly.pow_mod.self_s": "s",
    "poly.gcd.self_s": "s",
    "poly.divmod.calls": "count",
    "poly.divmod.self_s": "s",
    "gf.elem_ops": "count",
    "gf.field_eq_calls": "count",
    "trace.overhead_frac": "ratio",
}
EXACT = {name for name, unit in PER_LAYER.items() if unit != "s"} - {
    "trace.overhead_frac"}


# --- aggregation ------------------------------------------------------------

def summarize(samples):
    """Median, first and third quartile and count of one cell's times."""
    if len(samples) == 1:
        return {"median_s": samples[0], "q1_s": samples[0],
                "q3_s": samples[0], "n": 1}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median_s": statistics.median(samples), "q1_s": q1, "q3_s": q3,
            "n": len(samples)}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cell_metrics(cell_medians):
    """End-to-end metrics from (cell, median invocation seconds) pairs: the
    geometric mean of the medians, weighting every cell equally; the
    slowest cell's median; and companions and invocations per second over
    one pass of the cells at their median times, so that runs ending at
    different points of a round compare."""
    medians = [median for _, median in cell_medians]
    one_pass = sum(medians)
    return {"cell_s.geomean": geomean(medians),
            "cell_s.slowest": max(medians),
            "companions_per_s": sum(c.companions for c, _ in cell_medians)
            / one_pass,
            "cells_per_s": len(medians) / one_pass}


def scale(walls, refs):
    """Each wall time at the reference speed.  refs[i] was timed just
    before walls[i] and refs[i + 1] just after it."""
    return [wall * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
            for i, wall in enumerate(walls)]


def self_times(doc):
    """Per span name: [calls, self seconds], where a span's self time is
    its duration minus its child spans and the kernel time charged to it.
    Kernels appear under their own names with their summed time.  Also
    returns the is_potent calls made directly by a brute scan and how many
    of them returned True."""
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = collections.defaultdict(lambda: [0, 0.0])
    tests = hits = 0
    for i, (name_id, parent, start, end, kernel_s, result) in \
            enumerate(spans):
        name = names[name_id]
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered[i] - kernel_s
        if (name == "mat.is_potent" and parent >= 0
                and names[spans[parent][0]] == "search.brute_scan"):
            tests += 1
            hits += bool(result)
    for name, (calls, seconds) in doc["kernels"].items():
        out[name] = [calls, seconds]
    return dict(out), tests, hits


def layer_metrics(traced_ops):
    """Per-layer metrics of one traced round: (wall seconds, span doc) per
    operation, summed over the round."""
    totals = collections.defaultdict(lambda: [0, 0.0])
    distinct = collections.Counter()
    counters = collections.Counter()
    tests = hits = 0
    startup = 0.0
    for wall, doc in traced_ops:
        stats, t, h = self_times(doc)
        tests += t
        hits += h
        for name, (calls, seconds) in stats.items():
            totals[name][0] += calls
            totals[name][1] += seconds
        run_span = next(s for s in doc["spans"]
                        if doc["names"][s[0]] == "cli.run")
        startup += wall - (run_span[3] - run_span[2]) - doc["dump_s"]
        distinct.update(doc["distinct"])
        counters.update(doc["counters"])
    out = {"cli.startup_s": startup,
           "search.brute_scan.potent_tests": tests,
           "search.brute_scan.hit_ratio": hits / tests if tests else 0.0,
           "gf.elem_ops": counters["gf.elem_ops"],
           "gf.field_eq_calls": counters["gf.field_eq_calls"]}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        calls, seconds = totals.get(layer, (0, 0.0))
        if stat == "calls":
            out[metric] = calls
        elif stat == "self_s":
            out[metric] = seconds
        elif stat == "distinct_ratio":
            out[metric] = distinct[layer] / calls if calls else 0.0
    return out


# --- child processes ---------------------------------------------------------

class Runner:
    """Spawns one child at a time and times it from spawn to reaping."""

    def __init__(self, work, seed):
        import gate  # imports weakper from SRC
        self.work = work
        self.gate = gate.Gate(seed)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("WEAKPER_CACHE", "PYTHONPATH")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.out_path = work / "stdout"
        self.err_path = work / "stderr"
        self.spans_path = work / "spans.json"
        self.child = None
        self.busy = 0.0  # summed wall time of every child so far
        self.attempted = 0
        self.failures = []
        signal.signal(signal.SIGALRM, self._kill_child)

    def _kill_child(self, signum, frame):
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)

    def spawn(self, argv):
        """Run argv to completion: (exit code, wall seconds, peak RSS KiB,
        stdout bytes)."""
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            self.child = os.posix_spawn(argv[0], argv, self.env,
                                        file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT)
            try:
                _, status, usage = os.wait4(self.child, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.child = None
            wall = time.perf_counter() - start
        self.busy += wall
        code = os.waitstatus_to_exitcode(status)
        return code, wall, usage.ru_maxrss, self.out_path.read_bytes()

    def reference(self):
        """Wall seconds of one run of the reference child."""
        code, wall, _, _ = self.spawn([sys.executable, "-c", REFERENCE])
        if code != 0:
            raise SystemExit("reference child failed")
        return wall

    def warm(self):
        code, _, _, _ = self.spawn([sys.executable, "-m", "compileall", "-q",
                                    str(SRC / "weakper")])
        if code != 0:
            raise SystemExit("bytecode warm-up failed")

    def op(self, cell, cache_dir, traced=False):
        """Run one gated operation: (wall, peak RSS KiB, span doc or None,
        problems)."""
        argv = [str(cache_dir) if a == cells.CACHE_DIR else a
                for a in cell.argv]
        if traced:
            self.spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "trace_boot.py"),
                   str(self.spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "weakper.cli"] + argv
        self.attempted += 1
        code, wall, rss, out = self.spawn(cmd)
        problems = self.gate.check(cell, code, out)
        doc = None
        if traced:
            try:
                doc = json.loads(self.spans_path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"no trace: {exc}")
        if problems:
            self.failures.append((cell.key, problems))
        return wall, rss, doc, problems


# --- workloads ---------------------------------------------------------------

def set_up(runner, workload, seed):
    """Build the seeded inputs, warm the bytecode and fill the cache, as
    many times as SETUP_REPEATS.  Returns (raw, scaled) seconds per set-up,
    the timed cells and the last cache directory.  A set-up's time is that
    of building the inputs plus its children's wall time; the gate's checks
    of the fill outputs are the benchmark's own work and do not count."""
    times = []
    cache = None
    for i in range(SETUP_REPEATS):
        refs = [runner.reference()]
        start, busy = time.perf_counter(), runner.busy
        timed, fill = cells.build(workload, seed)
        inputs_s = time.perf_counter() - start
        runner.warm()
        previous, cache = cache, None
        if fill:
            cache = runner.work / f"cache-{i}"
            cache.mkdir()
            for cell in fill:
                runner.op(cell, cache)
        raw = inputs_s + runner.busy - busy
        refs.append(runner.reference())
        times.append((raw, scale([raw], refs)[0]))
        if previous is not None:
            shutil.rmtree(previous)
    return times, timed, cache


def run_round(runner, cells, cache, rng, traced=False):
    """One shuffled pass over the cells."""
    return [(cell, runner.op(cell, cache, traced))
            for cell in rng.sample(cells, len(cells))]


def measure(runner, timed, cache, seed, seconds):
    """The closed loop.  The first round runs every cell once; later rounds
    run the cells that took at least half as long as the slowest one twice,
    so that cell_s.slowest rests on more samples."""
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    ops, refs, round_ = [], [], timed
    while not ops or time.perf_counter() < deadline:
        for cell in rng.sample(round_, len(round_)):
            if len(ops) >= len(timed) and time.perf_counter() >= deadline:
                break
            refs.append(runner.reference())
            ops.append((cell, runner.op(cell, cache)))
        if round_ is timed:
            slowest = max(wall for _, (wall, _, _, _) in ops)
            round_ = timed + [cell for cell, (wall, _, _, _) in ops
                              if wall >= slowest / 2]
    refs.append(runner.reference())
    walls = [wall for _, (wall, _, _, _) in ops]
    scaled, raw = collections.defaultdict(list), collections.defaultdict(list)
    for (cell, _), wall, scaled_wall in zip(ops, walls, scale(walls, refs)):
        scaled[cell.key].append(scaled_wall)
        raw[cell.key].append(wall)
    per_cell = {key: dict(summarize(v), raw_median_s=statistics.median(
        raw[key])) for key, v in scaled.items()}
    metrics = cell_metrics(
        [(cell, per_cell[cell.key]["median_s"]) for cell in timed])
    metrics["peak_rss_mb"] = max(rss for _, (_, rss, _, _) in ops) / 1024
    return metrics, {"cells": per_cell, "reference_s": refs}


def trace(runner, timed, cache, seed, seconds):
    rng = random.Random(seed)
    start = time.perf_counter()
    untraced_s, traced_s, rounds = [], [], []
    while (len(rounds) < TRACED_ROUNDS_MIN
           or time.perf_counter() - start < seconds):
        plain = run_round(runner, timed, cache, rng)
        untraced_s.append(sum(op[0] for _, op in plain))
        traced = run_round(runner, timed, cache, rng, traced=True)
        traced_s.append(sum(op[0] for _, op in traced))
        docs = [(wall, doc) for _, (wall, _, doc, _) in traced if doc]
        rounds.append(layer_metrics(docs))
    metrics = {}
    unstable = {}
    for name in PER_LAYER:
        values = [r[name] for r in rounds if name in r]
        if name in EXACT:
            if len(set(values)) > 1:
                unstable[name] = values
            metrics[name] = values[0]
        elif values:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.mean(traced_s) / statistics.mean(untraced_s) - 1)
    return metrics, {"rounds": rounds, "untraced_s": untraced_s,
                     "traced_s": traced_s, "unstable_counts": unstable}


def run_workload(work, workload, seed, seconds, traced):
    runner = Runner(work, seed)
    setups, timed, cache = set_up(runner, workload, seed)
    step = trace if traced else measure
    metrics, detail = step(runner, timed, cache, seed, seconds)
    if not traced:
        metrics["setup_s"] = statistics.median(s for _, s in setups)
    units = PER_LAYER if traced else END_TO_END
    detail.update(setup_s=setups, failures=runner.failures)
    return ({name: {"value": metrics[name], "unit": units[name]}
             for name in units},
            runner.attempted, len(runner.failures), detail)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(cells.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", type=pathlib.Path,
                    help="also write per-cell and per-round detail here")
    args = ap.parse_args(argv)
    if not (SRC / "weakper" / "cli.py").is_file():
        print(f"error: no weakper sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = (sorted(cells.WORKLOADS) if args.workload == "all"
             else [args.workload])
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    try:
        for name in names:
            metrics, attempted, failed, detail = run_workload(
                work, name, args.seed, args.seconds, bool(args.trace))
            details[name] = detail
            print(f"{name}: seed {args.seed}, {attempted} operations, "
                  f"{failed} failed (failed_frac {failed / attempted:g})")
            for key, m in metrics.items():
                print(f"  {key} {m['value']:.6g} {m['unit']}")
            for key, problems in detail["failures"][:5]:
                print(f"  FAILED {key}: {'; '.join(problems)}",
                      file=sys.stderr)
            for key, values in detail.get("unstable_counts", {}).items():
                print(f"  NOT REPEATED {key}: {values}", file=sys.stderr)
                result["correct"] = False
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update(
                (prefix + key, m) for key, m in metrics.items())
            result["attempted"] += attempted
            result["failed"] += failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result["correct"] = result["correct"] and result["failed"] == 0
    if args.detail:
        args.detail.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "python": sys.version.split()[0],
             "workloads": details}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
