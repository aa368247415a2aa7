"""Correctness gate: every benchmark operation's output is checked here.

An operation fails when its exit code differs from the one pinned for its
cell or when its output fails the checks below.  Reports go through the
program's own load_report and reverify_report, and their records must be
exactly the q^n companions in order.  On prime fields a seeded sample of
witnesses is re-checked with this module's own mod-p arithmetic.  Repeats
of a cell within a run must be byte-identical to its first output, which
is the one checked in full.
"""

import itertools
import json
import random
import re

from weakper.errors import WeakperError
from weakper.search import load_report, reverify_report

from cells import FIELDS, LEMMA_NAMES

WITNESS_SAMPLE = 6


# --- independent mod-p arithmetic -------------------------------------------

def companion_mod_p(low, p):
    """Companion matrix of X^n + a_(n-1) X^(n-1) + ... + a_0 in the
    last-column convention: subdiagonal ones, last column -a_i."""
    n = len(low)
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -low[i] % p
    return rows


def matmul_mod_p(a, b, p):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p
             for j in range(n)] for i in range(n)]


def matpow_mod_p(a, t, p):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    while t:
        if t & 1:
            out = matmul_mod_p(out, a, p)
        a = matmul_mod_p(a, a, p)
        t >>= 1
    return out


def witness_problems(low, witness, p):
    """Check C = P + N, N^2 = 0 and P^t = P over GF(p) for a serialized
    witness of the companion with low coefficients `low`."""
    P, N, t = witness["P"], witness["N"], witness["potency_exponent"]
    n = len(low)
    C = companion_mod_p(low, p)
    problems = []
    if any((P[i][j] + N[i][j]) % p != C[i][j]
           for i in range(n) for j in range(n)):
        problems.append(f"P + N != C for g={list(low)}")
    if any(any(row) for row in matmul_mod_p(N, N, p)):
        problems.append(f"N^2 != 0 for g={list(low)}")
    if not isinstance(t, int) or t < 2 or matpow_mod_p(P, t, p) != P:
        problems.append(f"P^{t} != P for g={list(low)}")
    return problems


# --- per-command checks -----------------------------------------------------

def _field_facts(cell):
    p, l = FIELDS[cell.field]
    return p, l, p ** l


def _report_problems(cell, text, rng):
    """Checks shared by verify and conjecture reports; `text` is the
    report's JSON."""
    p, l, q = _field_facts(cell)
    n = int(cell.option("--n"))
    mode = cell.option("--mode", "commuting")
    try:
        report = load_report(text)
    except WeakperError as exc:
        return [f"load_report rejected the report: {exc}"], None
    raw = json.loads(text)
    problems = []
    if (report.field.split("/")[0], report.n, report.mode) != (
            f"{p}^{l}", n, mode):
        problems.append(f"report is for {report.field} n={report.n} "
                        f"mode={report.mode}")
    if not reverify_report(report):
        problems.append("reverify_report failed")
    order = list(itertools.product(range(q), repeat=n))
    if [r.form.low_coeffs for r in report.records] != order:
        problems.append(f"records are not the {q}^{n} companions in order")
    summary = {"total": report.total, "decomposable": report.decomposable,
               "failed": report.failed}
    if raw.get("summary") != summary:
        problems.append(f"summary {raw.get('summary')} disagrees with "
                        f"the records {summary}")
    if (report.total, report.decomposable) != cell.truth:
        problems.append(f"total/decomposable {report.total}/"
                        f"{report.decomposable}, pinned {cell.truth[0]}/"
                        f"{cell.truth[1]}")
    if l == 1:
        split = [rec for rec in raw["records"] if "witness" in rec]
        for rec in rng.sample(split, min(WITNESS_SAMPLE, len(split))):
            problems += witness_problems(rec["g"], rec["witness"], p)
    return problems, report


def _verify_problems(cell, out, rng):
    if cell.option("--format", "json") == "json":
        return _report_problems(cell, out, rng)[0]
    p, l, _ = _field_facts(cell)
    total, decomposable = cell.truth
    want = (rf"field {p}\^{l}/[0-9,]+ n {cell.option('--n')} "
            rf"mode {cell.option('--mode')}\n"
            rf"total {total} decomposable {decomposable} "
            rf"failed {total - decomposable}\n")
    if not re.fullmatch(want, out):
        return [f"text summary {out!r} does not match {want!r}"]
    return []


def _conjecture_problems(cell, out, rng):
    raw = json.loads(out)
    problems, report = _report_problems(cell, json.dumps(raw["report"]), rng)
    if report is not None:
        missing = [list(r.form.low_coeffs) for r in report.records
                   if r.status == "not_decomposable"]
        if raw["non_decomposable"] != missing:
            problems.append("non_decomposable list disagrees with the report")
    return problems


def _decompose_problems(cell, out, rng):
    p, l, _ = _field_facts(cell)
    raw = json.loads(out)
    low = [int(c) for c in cell.option("--poly").split(",")[:-1]]
    problems = []
    counts = raw.get("witness_counts", {})
    if (counts.get("total"), counts.get("commuting")) != cell.truth:
        problems.append(f"witness counts {counts}, pinned {cell.truth}")
    want_status = "decomposable" if cell.truth[0] else "not_decomposable"
    if raw.get("status") != want_status or raw.get("g") != low:
        problems.append(f"status {raw.get('status')} for g={raw.get('g')}")
    if l == 1 and "witness" in raw:
        problems += witness_problems(low, raw["witness"], p)
    return problems


def _sets_problems(cell, out, rng):
    raw = json.loads(out)
    traces, sums, passed, spectra = cell.truth
    got = (raw["potent_traces"], [u["value"] for u in raw["unity_sums"]],
           raw["containments"]["passed"],
           {m: len(v) for m, v in raw["pattern_spectra"].items()})
    if got != (traces, sums, passed, spectra):
        return [f"sets facts {got}, pinned {cell.truth}"]
    return []


_LEMMA_LINE = re.compile(r"(PASS|FAIL) (\w+): ")


def _lemmas_problems(cell, out, rng):
    lines = [_LEMMA_LINE.match(line) for line in out.splitlines()]
    if None in lines or [m.group(2) for m in lines] != list(LEMMA_NAMES):
        return ["lemma lines are not the seven lemmas in order"]
    fails = tuple(m.group(2) for m in lines if m.group(1) == "FAIL")
    if fails != cell.truth:
        return [f"failing lemmas {fails}, pinned {cell.truth}"]
    return []


CHECKS = {
    "verify": _verify_problems,
    "conjecture": _conjecture_problems,
    "decompose": _decompose_problems,
    "sets": _sets_problems,
    "lemmas": _lemmas_problems,
}


class Gate:
    """Checks operation outputs and keeps the first output of each cell.

    A repeat is compared byte for byte with that first output, so the full
    checks run once per cell and every later output must match it.
    """

    def __init__(self, seed):
        self.seed = seed
        self.first = {}

    def check(self, cell, exit_code, out):
        """The problems of one operation's outcome; empty when it passed."""
        problems = []
        if exit_code != cell.exit_code:
            problems.append(f"exit code {exit_code}, pinned {cell.exit_code}")
        first = self.first.get(cell.key)
        if first is None:
            self.first[cell.key] = out
            rng = random.Random(f"{self.seed}:{cell.key}")
            try:
                problems += CHECKS[cell.command](
                    cell, out.decode("utf-8"), rng)
            except (ValueError, KeyError, TypeError, AttributeError,
                    WeakperError) as exc:
                problems.append(f"malformed output: {exc!r}")
        elif out != first:
            problems.append("output differs from this cell's first output")
        return problems
