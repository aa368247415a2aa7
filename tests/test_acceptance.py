"""Acceptance gate.

One test per shipped criterion; each prints a single PASS/FAIL line to the
real terminal (past pytest capture) and then asserts.  The grids below are
ground truth, not targets, and three criteria check documented boundaries
rather than pretend they are absent:

- Criteria 1 and 2: the trace-matching route picks n distinct field
  elements summing to trace(C), so it cannot reach a companion whose trace
  is no such sum.  The tests compute that gap themselves, by enumerating
  n-subsets; they require the route to fail exactly there (on this grid
  only in characteristic 2 at n = 2, on trace 0), and the brute search to
  split every gap companion with a fully re-verified witness.
- Criterion 5: a prime-field shift certificate for a spectrum element w of
  a pattern on the m-cycle is a theorem when phi(m) <= 2, i.e. m in
  {2, 3, 4, 6}: then F_p[zeta] = F_p + F_p zeta, so w = a + b zeta and
  (w - a)^m = b^m.  The test requires no missing certificate there; at
  m = 5 it requires every miss to be a genuine counterexample, confirmed by
  a determinant and by direct powering, with omega in GF(4) among them.
"""

import itertools
import random
import sys
import time

from weakper.errors import (
    FieldTooSmall,
    SearchSpaceTooLarge,
    TraceNotRealizable,
)
from weakper.gf import build_field
from weakper.mat import (
    Mat,
    char_poly,
    det,
    is_potent,
    is_potent_iterative,
    min_poly,
)
from weakper.companion import (
    enumerate_companions,
    potent_trace_set,
    trace_matched_decomposition,
)
from weakper.rosets import (
    containment_report,
    gcd_divisibility,
    pattern_spectra,
    prime_shift_certificate,
)
from weakper.search import (
    brute_commuting_decompose,
    brute_decompose,
    load_report,
    reverify_report,
    verify_field,
)

from conftest import fixed_point_certificate, root_of_unity_certificate

SEED = 1729

FIELD_BY_ORDER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
                  7: (7, 1), 8: (2, 3), 9: (3, 2)}


def field_of_order(q):
    p, l = FIELD_BY_ORDER[q]
    return build_field(p, l)


def record(num, ok, detail):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, detail


CONSTRUCTIVE_GRID = ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4),
                     (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3))


def constructive_gap(n, spec):
    """Companions the trace-matching route cannot reach: those whose trace
    is not a sum of n distinct field elements.  Computed by enumerating
    n-subsets, independently of the route's own search."""
    reachable = set()
    for subset in itertools.combinations(spec.elements(), n):
        total = 0
        for x in subset:
            total = spec.add(total, x)
        reachable.add(total)
    return [form for form in enumerate_companions(n, spec)
            if form.trace() not in reachable]


def brute_splits(form):
    """Does the brute search split this companion with a witness that
    survives every re-check, the min-poly and the exponent potency route
    included?"""
    witness = brute_decompose(form.matrix)
    return witness is not None and witness.verify(form.matrix)


def test_criterion_01_constructive_route_splits_every_companion():
    started = time.perf_counter()
    mismatched = []
    gap_cells = {}
    gap_traces = set()
    unsplit = []
    for q, n in CONSTRUCTIVE_GRID:
        spec = field_of_order(q)
        report = verify_field(n, spec, "constructive")
        failed = [r.form.low_coeffs for r in report.records
                  if r.status != "decomposable"]
        gap = constructive_gap(n, spec)
        if failed != [form.low_coeffs for form in gap]:
            mismatched.append((q, n, len(failed), len(gap)))
        if gap:
            gap_cells[(q, n)] = len(gap)
        for form in gap:
            gap_traces.add(form.trace())
            if not brute_splits(form):
                unsplit.append((q, n, form.low_coeffs))
    elapsed = time.perf_counter() - started
    char2_n2 = {(q, n) for q, n in CONSTRUCTIVE_GRID
                if q % 2 == 0 and n == 2}
    ok = (not mismatched and set(gap_cells) == char2_n2
          and gap_traces == {0} and not unsplit and elapsed < 60.0)
    record(1, ok,
           f"grid of {len(CONSTRUCTIVE_GRID)} cells in {elapsed:.1f}s; "
           f"constructive failures = n-distinct-sum gap: "
           f"{'yes' if not mismatched else mismatched}; gap (q, n): "
           f"companions {gap_cells or 'none'}, traces {sorted(gap_traces)}; "
           f"gap companions brute fails to split: {unsplit or 'none'}")


def constructive_verdict(form):
    """Decomposability according to the trace-matching route, falling back
    to trace-set membership when the field is too small to run it."""
    try:
        return trace_matched_decomposition(form).verify(form.matrix)
    except TraceNotRealizable:
        return False
    except FieldTooSmall:
        traces = potent_trace_set(form.n, form.spec)
        return form.matrix.trace() in traces


def test_criterion_02_brute_and_constructive_verdicts_agree():
    unbacked = []
    brute_only = []
    expected = []
    grid = [(3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]
    for q, n in grid:
        spec = field_of_order(q)
        # below q = n + 1 the route does not run and the verdict is the
        # trace-set fallback, which must match brute exactly
        if q >= n + 1:
            expected += [(q, n, form.low_coeffs)
                         for form in constructive_gap(n, spec)]
        for form in enumerate_companions(n, spec):
            brute_ok = brute_splits(form)
            constructive_ok = constructive_verdict(form)
            if constructive_ok and not brute_ok:
                unbacked.append((q, n, form.low_coeffs))
            if brute_ok and not constructive_ok:
                brute_only.append((q, n, form.low_coeffs))
    ok = not unbacked and brute_only == expected
    record(2, ok,
           f"on {grid}: constructive without brute: {unbacked or 'none'}; "
           f"brute-only {brute_only[:6] or 'none'}; "
           f"n-distinct-sum gap {expected[:6] or 'none'}")


def test_criterion_03_potency_oracles_agree():
    checked = 0
    mismatches = 0
    for q in (2, 3):
        spec = field_of_order(q)
        for code in range(q ** 4):
            e = tuple((code // q ** i) % q for i in range(4))
            m = Mat(spec, 2, e)
            checked += 1
            if is_potent(m) != is_potent_iterative(m):
                mismatches += 1
    gf4 = field_of_order(4)
    rng = random.Random(SEED)
    for _ in range(1000):
        m = Mat(gf4, 3, tuple(rng.randrange(4) for _ in range(9)))
        checked += 1
        if is_potent(m) != is_potent_iterative(m):
            mismatches += 1
    record(3, mismatches == 0,
           f"{checked} matrices compared, {mismatches} mismatches")


def test_criterion_04_trace_set_sits_inside_unity_sums():
    violations = []
    for q in (2, 3, 4, 5):
        spec = field_of_order(q)
        for n in (1, 2, 3):
            report = containment_report(n, spec, n)
            for t in report.trace_violations:
                violations.append((q, n, t))
    record(4, not violations,
           f"n <= 3, q in (2,3,4,5), depth n: violations {violations or 'none'}")


# m with phi(m) <= 2: there F_p[zeta] = F_p + F_p zeta, so every spectrum
# element is w = a + b zeta with (w - a)^m = b^m in F_p
SHIFT_THEOREM_POWERS = (2, 3, 4, 6)


def field_power(spec, x, k):
    """x^k by repeated multiplication, bypassing the field's pow."""
    out = 1
    for _ in range(k):
        out = spec.mul(out, x)
    return out


def prime_subfield(spec):
    """F_p inside spec, as the fixed points of Frobenius x -> x^p."""
    return {x for x in spec.elements() if field_power(spec, x, spec.p) == x}


def field_int(spec, k):
    """The image of the integer k in spec: 1 + 1 + ... + 1."""
    out = 0
    for _ in range(k % spec.p):
        out = spec.add(out, 1)
    return out


def is_pattern_eigenvalue(w, home, pattern):
    """det(w I - f(P_m)) == 0 over home, with f(P_m) built here as the
    circulant of the pattern's weights reduced mod p."""
    m = pattern.m
    rows = [[0] * m for _ in range(m)]
    for e, weight in enumerate(pattern.dense()):
        for i in range(m):
            rows[i][(i + e) % m] = field_int(home, weight)
    applied = Mat.from_rows(home, [tuple(row) for row in rows])
    return det(Mat.identity(home, m).scale(w) - applied) == 0


def has_no_prime_shift(w, home, m):
    """No a in F_p puts (w - a)^m in F_p, by direct powering."""
    prime = prime_subfield(home)
    return all(field_power(home, home.sub(w, a), m) not in prime
               for a in prime)


def test_criterion_05_spectrum_elements_carry_shift_certificates():
    missing = []
    misses_at_five = {}
    for q in (2, 3, 5):
        spec = field_of_order(q)
        for n in (1, 2, 3):
            for depth in (1, 2, 3):
                for m in SHIFT_THEOREM_POWERS + (5,):
                    spectra = pattern_spectra(m, n, spec, depth)
                    for (root, home), pattern in spectra.items():
                        if prime_shift_certificate(root, home, m) is not None:
                            continue
                        if m == 5:
                            misses_at_five.setdefault((root, home), pattern)
                            continue
                        entry = (m, home.descriptor(), root)
                        if entry not in missing:
                            missing.append(entry)
    confirmed = []
    unconfirmed = []
    for (root, home), pattern in misses_at_five.items():
        entry = (home.descriptor(), root, pattern.dense())
        if (is_pattern_eigenvalue(root, home, pattern)
                and has_no_prime_shift(root, home, 5)):
            confirmed.append(entry)
        else:
            unconfirmed.append(entry)
    gf4 = field_of_order(4)
    # omega and omega^2 = omega + 1, eigenvalues of P_5 + P_5^4
    omegas = set(gf4.elements()) - prime_subfield(gf4)
    omega_found = omegas <= {root for root, home in misses_at_five
                             if home == gf4}
    ok = not missing and not unconfirmed and omega_found
    record(5, ok,
           f"m in {SHIFT_THEOREM_POWERS}: missing certificates "
           f"{sorted(missing)[:8] or 'none'}; m = 5: "
           f"{len(confirmed)} counterexamples confirmed by determinant "
           f"and direct powering {sorted(confirmed)}, unconfirmed "
           f"{unconfirmed or 'none'}; omega in GF(4) among them: "
           f"{omega_found}")


def test_criterion_06_unity_sums_reappear_in_pattern_spectra():
    bad = []
    for q in (2, 3, 5):
        spec = field_of_order(q)
        for n in (1, 2, 3):
            for depth in (1, 2, 3):
                report = containment_report(n, spec, depth)
                if report.membership_violations or report.skipped:
                    bad.append((q, n, depth, report.membership_violations,
                                report.skipped))
    record(6, not bad,
           f"27 grid cells, every sum-set member re-located at its own "
           f"cycle length; anomalies: {bad or 'none'}")


def test_criterion_07_gcd_product_divisibility():
    rng = random.Random(SEED)
    bad = 0
    for _ in range(10 ** 4):
        a = rng.randrange(1, 10 ** 6 + 1)
        b = rng.randrange(1, 10 ** 6 + 1)
        c = rng.randrange(1, 10 ** 6 + 1)
        holds, _ = gcd_divisibility(a, b, c)
        if not holds:
            bad += 1
    record(7, bad == 0, f"10^4 seeded triples <= 10^6, {bad} violations")


def test_criterion_08_commuting_witnesses_pass_both_certificates():
    checked = 0
    failures = []
    for q in (3, 4, 5):
        spec = field_of_order(q)
        for form in enumerate_companions(2, spec):
            if form.poly.coeffs[0] == 0:
                continue  # not invertible
            witness = brute_commuting_decompose(form)
            if witness is None:
                continue  # nothing to certify
            checked += 1
            unity_ok = root_of_unity_certificate(form.matrix,
                                                 witness.exponent)
            _, fixed_ok = fixed_point_certificate(form.matrix,
                                                  witness.potent)
            if not (unity_ok and fixed_ok):
                failures.append((q, form.low_coeffs))
    record(8, checked > 0 and not failures,
           f"{checked} commuting witnesses on invertible companions, "
           f"failures: {failures or 'none'}")


def test_criterion_09_cayley_hamilton_and_min_poly_divisibility():
    def poly_at(f, M):
        acc = Mat.zeros(M.spec, M.n)
        for c in reversed(f.coeffs):
            acc = acc * M + Mat.identity(M.spec, M.n).scale(c)
        return acc

    checked = 0
    bad = 0
    for q in (2, 3):
        spec = field_of_order(q)
        for code in range(q ** 4):
            e = tuple((code // q ** i) % q for i in range(4))
            m = Mat(spec, 2, e)
            checked += 1
            chi, mu = char_poly(m), min_poly(m)
            if not poly_at(chi, m).is_zero() or not (chi % mu).is_zero():
                bad += 1
    rng = random.Random(SEED)
    for q in (4, 5):
        spec = field_of_order(q)
        for n in (3, 4):
            for _ in range(250):
                m = Mat(spec, n,
                        tuple(rng.randrange(q) for _ in range(n * n)))
                checked += 1
                chi, mu = char_poly(m), min_poly(m)
                if not poly_at(chi, m).is_zero() or not (chi % mu).is_zero():
                    bad += 1
    record(9, bad == 0, f"{checked} matrices, {bad} violations")


BRUTE_GRID = ((2, 2), (2, 3), (3, 3), (4, 4))


def brute_reports():
    reports = {}
    skipped = []
    for q, n in BRUTE_GRID:
        try:
            reports[(q, n)] = verify_field(n, field_of_order(q), "brute")
        except SearchSpaceTooLarge:
            skipped.append((q, n))
    return reports, skipped


def test_criterion_10_brute_grid_is_exact_and_reconfirmable():
    reports, skipped = brute_reports()
    problems = []
    for key, report in reports.items():
        reloaded = load_report(report.to_json())
        if not reverify_report(reloaded):
            problems.append((key, "reloaded witnesses failed re-check"))
        if reloaded.to_json() != report.to_json():
            problems.append((key, "serialization not stable"))
    gf2_n2 = reports.get((2, 2))
    outcome = (f"GF(2) n=2 outcome: {gf2_n2.decomposable}/{gf2_n2.total} "
               f"decomposable" if gf2_n2 else "GF(2) n=2 missing")
    ok = not problems and set(skipped) <= {(4, 4)}
    record(10, ok,
           f"{outcome}; skipped (search space): {skipped or 'none'}; "
           f"problems: {problems or 'none'}")


def test_criterion_11_reports_are_byte_identical_across_runs():
    diffs = []
    for q, n in CONSTRUCTIVE_GRID:
        spec = field_of_order(q)
        a = verify_field(n, spec, "constructive").to_json()
        b = verify_field(n, spec, "constructive").to_json()
        if a != b:
            diffs.append(("constructive", q, n))
    for q, n in [(3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]:
        spec = field_of_order(q)
        a = verify_field(n, spec, "brute").to_json()
        b = verify_field(n, spec, "brute").to_json()
        if a != b:
            diffs.append(("brute", q, n))
    first, skipped_a = brute_reports()
    second, skipped_b = brute_reports()
    if skipped_a != skipped_b:
        diffs.append(("skip set unstable", skipped_a, skipped_b))
    for key in first:
        if first[key].to_json() != second[key].to_json():
            diffs.append(("brute grid", key))
    record(11, not diffs, f"doubled every report build; diffs: {diffs or 'none'}")
