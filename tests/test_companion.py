"""Companion matrices, trace-matched decompositions, and trace sets."""

import collections
import functools

import pytest

from conftest import verify_by_mats
from weakper import companion, mat
from weakper.errors import (
    EnumerationTooLarge,
    FieldTooSmall,
    InputError,
    SearchSpaceTooLarge,
    TraceNotRealizable,
)
from weakper.poly import Poly, is_squarefree
from weakper.gf import build_field
from weakper.mat import Mat, char_poly, is_potent, min_poly
from weakper.search import MODES, verify_field
from weakper.companion import (
    Witness,
    companion_of,
    enumerate_companions,
    potent_companion_with_trace,
    potent_trace_set,
    trace_matched_decomposition,
)


class TestCompanionOf:
    def test_frozen_layout(self, gf3):
        form = companion_of(Poly(gf3, (1, 0, 1)))
        assert form.matrix.rows() == ((0, 2), (1, 0))
        assert form.n == 2
        assert form.poly.coeffs == (1, 0, 1)

    def test_char_and_min_poly_recover_input(self, gf5):
        g = Poly(gf5, (2, 4, 0, 1))
        form = companion_of(g)
        assert char_poly(form.matrix) == g
        assert min_poly(form.matrix) == g

    def test_trace_is_negated_subleading_coefficient(self, gf7):
        for a in range(7):
            g = Poly(gf7, (3, a, 1))
            assert companion_of(g).matrix.trace() == gf7._neg(a)

    def test_rejects_non_monic(self, gf3):
        with pytest.raises(InputError, match="needs a monic polynomial"):
            companion_of(Poly(gf3, (1, 2)))

    def test_rejects_constants(self, gf3):
        with pytest.raises(InputError, match="needs degree >= 1"):
            companion_of(Poly(gf3, (1,)))


class TestEnumerateCompanions:
    def test_count_and_order_gf2(self, gf2):
        forms = list(enumerate_companions(2, gf2))
        assert [f.poly.coeffs for f in forms] == [
            (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]

    def test_count_matches_field_power(self, gf3, gf5):
        assert sum(1 for _ in enumerate_companions(2, gf3)) == 9
        assert sum(1 for _ in enumerate_companions(2, gf5)) == 25

    def test_bound_enforced(self, gf2):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_companions(30, gf2))

    def test_bad_dimension(self, gf2):
        with pytest.raises(InputError, match="dimension must be >= 1, got 0"):
            list(enumerate_companions(0, gf2))


class TestPotentCompanionWithTrace:
    def test_frozen_gf3(self, gf3):
        form = potent_companion_with_trace(0, 2, gf3)
        # roots 1 and 2: X^2 - 1
        assert form.poly.coeffs == (2, 0, 1)
        assert form.matrix.trace() == 0

    def test_frozen_gf5_dim4(self, gf5):
        form = potent_companion_with_trace(0, 4, gf5)
        # all four units: X^4 - 1
        assert form.poly.coeffs == (4, 0, 0, 0, 1)

    def test_frozen_gf5_nonzero_trace(self, gf5):
        assert potent_companion_with_trace(2, 2, gf5).poly.coeffs == (0, 3, 1)

    def test_result_is_potent_with_distinct_roots(self, gf5):
        from weakper.mat import is_potent
        for t in range(5):
            form = potent_companion_with_trace(t, 2, gf5)
            assert is_potent(form.matrix)
            assert form.matrix.trace() == t

    def test_char_two_zero_trace_unrealizable(self, gf4):
        # distinct elements of a characteristic-2 field never cancel in pairs
        with pytest.raises(TraceNotRealizable):
            potent_companion_with_trace(0, 2, gf4)

    def test_needs_enough_elements(self, gf2, gf3):
        with pytest.raises(FieldTooSmall):
            potent_companion_with_trace(0, 2, gf2)
        with pytest.raises(FieldTooSmall):
            potent_companion_with_trace(1, 3, gf3)


class TestTraceMatchedDecomposition:
    def test_every_companion_splits_gf3(self, gf3):
        for form in enumerate_companions(2, gf3):
            w = trace_matched_decomposition(form)
            assert w.source == "constructive"
            assert w.verify(form.matrix)

    def test_every_companion_splits_gf5(self, gf5):
        for form in enumerate_companions(2, gf5):
            assert trace_matched_decomposition(form).verify(form.matrix)

    def test_witness_parts(self, gf3):
        form = companion_of(Poly(gf3, (1, 0, 1)))
        w = trace_matched_decomposition(form)
        assert w.potent + w.nilpotent == form.matrix
        assert (w.nilpotent * w.nilpotent).is_zero()
        assert w.potent ** w.exponent == w.potent

    def test_tampered_witness_fails(self, gf3):
        form = companion_of(Poly(gf3, (1, 0, 1)))
        w = trace_matched_decomposition(form)
        bad = w._replace(exponent=w.exponent + 1)
        assert not bad.verify(form.matrix)
        bad = w._replace(nilpotent=Mat.identity(gf3, 2))
        assert not bad.verify(form.matrix)
        bad = w._replace(commuting=not w.commuting)
        assert not bad.verify(form.matrix)

    @pytest.mark.parametrize(
        "field", ["gf2", "gf3", "gf4", "gf5", "gf7", "gf8", "gf9"])
    def test_commuting_flag_is_the_products_verdict(self, request, field,
                                                    mat_product_budget):
        spec = request.getfixturevalue(field)
        forms = []
        for n in range(1, 5):
            if spec.order ** n > 729:
                break
            for form in enumerate_companions(n, spec):
                try:
                    w = trace_matched_decomposition(form)
                except (FieldTooSmall, TraceNotRealizable):
                    continue
                P, N = w.potent, w.nilpotent
                assert w.commuting == (P * N == N * P)
                forms.append(form)
        assert forms
        # the potent parts are memoised by now, so no product is left
        used = mat_product_budget(0)
        for form in forms:
            trace_matched_decomposition(form)
        assert used == [0]

    def test_wrong_matrix_fails(self, gf3):
        w = trace_matched_decomposition(companion_of(Poly(gf3, (1, 0, 1))))
        other = companion_of(Poly(gf3, (2, 0, 1))).matrix
        assert not w.verify(other)

    def test_serialize_round_trip_fields(self, gf3):
        form = companion_of(Poly(gf3, (1, 0, 1)))
        payload = trace_matched_decomposition(form).serialize(form)
        assert payload["field"] == "3^1/0,1"
        assert payload["n"] == 2
        assert payload["companion_coeffs"] == [1, 0]
        assert payload["source"] == "constructive"


class TestPotentPartMemo:
    MEMOS = (companion._potent_part, companion._potent_claims_hold)

    def test_memos_are_bounded_and_hold_a_whole_field(self):
        for memo in self.MEMOS:
            maxsize = memo.cache_info().maxsize
            assert maxsize is not None and maxsize >= 1024

    def test_cached_potent_claims_do_not_carry_over(self, gf5):
        form = companion_of(Poly(gf5, (1, 2, 3, 1)))
        good = trace_matched_decomposition(form)
        assert good.verify(form.matrix)
        P, N, C = good.potent, good.nilpotent, form.matrix
        for exponent in (good.exponent + 1, 1):
            bad = good._replace(exponent=exponent)
            assert not bad.verify(C)
        # equal to the true exponent, yet not an int: Mat.__pow__ rejects it
        bad = good._replace(exponent=float(good.exponent))
        with pytest.raises(InputError):
            bad.verify(C)
        # same P, N not square-zero: P + N' is the matrix checked against
        not_square_zero = Mat.identity(gf5, 3)
        bad = good._replace(nilpotent=not_square_zero)
        assert not bad.verify(P + not_square_zero)
        # same P, square-zero N that does not sum to C
        other = companion_of(Poly(gf5, (4, 0, 3, 1))).matrix - P
        assert (other * other).is_zero() and other != N
        bad = good._replace(nilpotent=other)
        assert not bad.verify(C)
        assert bad.verify(P + other)

    def test_non_potent_part_fails_after_cache_warm(self, gf5):
        form = companion_of(Poly(gf5, (1, 2, 1, 1)))
        good = trace_matched_decomposition(form)
        assert good.verify(form.matrix)
        # x^2 (x + 1) is not squarefree, so its companion is not potent; it
        # has the trace of C, so C - P is square-zero and only potency fails
        P = companion_of(Poly(gf5, (0, 0, 1, 1))).matrix
        C = companion_of(Poly(gf5, (3, 3, 1, 1))).matrix
        bad = Witness(potent=P, nilpotent=C - P, exponent=good.exponent,
                      commuting=(P * (C - P) == (C - P) * P),
                      source="constructive")
        assert ((C - P) * (C - P)).is_zero()
        assert not bad.verify(C)

    @pytest.mark.parametrize("field, n", [("gf5", 4), ("gf9", 3)])
    def test_reports_equal_cold_cache_runs(self, request, field, n):
        spec = request.getfixturevalue(field)
        for memo in self.MEMOS:
            memo.cache_clear()
        cold = verify_field(n, spec, "constructive").to_json()
        hits = [memo.cache_info().hits for memo in self.MEMOS]
        assert verify_field(n, spec, "constructive").to_json() == cold
        assert all(memo.cache_info().hits > before
                   for memo, before in zip(self.MEMOS, hits))

    @pytest.mark.parametrize("field, n, mode", [
        ("gf2", 4, "commuting"), ("gf3", 3, "brute")])
    def test_only_constructive_witnesses_use_the_claims_memo(
            self, request, gf5, field, n, mode):
        # a brute or commuting witness has its own P, so a memo would only
        # hold matrices that never come back; constructive witnesses share
        # one P per trace
        memo = companion._potent_claims_hold
        memo.cache_clear()
        spec = request.getfixturevalue(field)
        assert verify_field(n, spec, mode).decomposable > 0
        assert memo.cache_info().currsize == 0
        assert verify_field(3, gf5, "constructive").decomposable == 125
        info = memo.cache_info()
        assert (info.hits, info.currsize) == (120, 5)


def _tampered(w):
    """w with one claim broken: one N entry changed (alone, and moved into
    P so that the sum still holds), the commuting flag flipped, the
    exponent one off either way, and P and N swapped."""
    P, N = w.potent, w.nilpotent
    entries = list(N.entries)
    entries[-1] = (entries[-1] + 1) % P.spec.order
    changed = Mat(P.spec, P.n, entries)
    return (w._replace(nilpotent=changed),
            w._replace(potent=P + N - changed, nilpotent=changed),
            w._replace(commuting=not w.commuting),
            w._replace(exponent=w.exponent + 1),
            w._replace(exponent=w.exponent - 1),
            w._replace(potent=N, nilpotent=P))


def _agree(w, C):
    """Assert that Witness.verify passes w against C and gives the verdict
    of the Mat-level oracle on w and on each of its tamperings, with and
    without require_commuting."""
    assert w.verify(C) and verify_by_mats(w, C)
    tampered = _tampered(w)
    for variant in (w,) + tampered:
        for require in (False, True):
            assert (variant.verify(C, require_commuting=require)
                    == verify_by_mats(variant, C, require_commuting=require))
    assert not tampered[2].verify(C)  # the flipped commuting flag


class TestCheckerAgreesWithMatOracle:
    """Witness.verify runs on entry tuples; conftest.verify_by_mats is the
    same checker on Mat objects."""

    @pytest.mark.parametrize("field", ["gf2", "gf3", "gf4", "gf5", "gf9"])
    def test_every_witness_of_every_route(self, request, field):
        spec = request.getfixturevalue(field)
        checked = collections.Counter()
        for n in (1, 2, 3):
            for mode in MODES:
                try:
                    report = verify_field(n, spec, mode)
                except (FieldTooSmall, SearchSpaceTooLarge):
                    continue
                for rec in report.records:
                    if rec.witness is not None:
                        _agree(rec.witness, rec.form.matrix)
                        checked[mode] += 1
        assert set(checked) == set(MODES)

    @pytest.mark.parametrize("p, l", [(7, 1), (2, 3), (3, 2), (2, 8)])
    @pytest.mark.parametrize("n", [5, 6])
    def test_constructive_witnesses_past_the_straight_line_cut(
            self, p, l, n, seeded_rng):
        spec = build_field(p, l)
        assert mat._product(n, spec._ops()) is mat._matmul
        checked = 0
        for _ in range(8):
            low = [seeded_rng.randrange(spec.order) for _ in range(n)]
            form = companion_of(Poly(spec, low + [1]))
            try:
                w = trace_matched_decomposition(form)
            except TraceNotRealizable:
                continue
            _agree(w, form.matrix)
            checked += 1
        assert checked

    def test_mismatched_parts_raise_as_before(self, gf3, gf5):
        form = companion_of(Poly(gf5, (1, 2, 3, 1)))
        w = trace_matched_decomposition(form)
        C = form.matrix
        assert (w.exponent - 1) % 5
        cases = [(w._replace(nilpotent=Mat.zeros(gf3, 3)),
                  "matrices live over different fields"),
                 (w._replace(potent=Mat.zeros(gf3, 3)),
                  "matrices live over different fields"),
                 (w._replace(nilpotent=Mat.zeros(gf5, 2)),
                  "dimension mismatch: 3 vs 2"),
                 (w._replace(exponent=float(w.exponent)), None)]
        for bad, message in cases:
            for check in (bad.verify, functools.partial(verify_by_mats, bad)):
                with pytest.raises(InputError, match=message):
                    check(C)
        # a companion over another field, or of another size, is a no
        for other in (Mat.zeros(gf3, 3), Mat.zeros(gf5, 2), None):
            assert not w.verify(other)
            assert not verify_by_mats(w, other)

    def test_builds_no_mat_inside_verify(self, gf9, monkeypatch):
        # Mats built while Witness.verify runs, by where they are built:
        # the potent-part claims (min_poly(P), P^t) on a memo miss, or the
        # checker itself
        built = collections.Counter()
        where = []
        raw, init = Mat._raw, Mat.__init__
        claims = companion._potent_claims_hold
        verify = Witness.verify

        def counted_raw(spec, n, entries):
            if where:
                built[where[-1]] += 1
            return raw(spec, n, entries)

        def counted_init(self, spec, n, entries):
            if where:
                built[where[-1]] += 1
            init(self, spec, n, entries)

        def inside(name, fn):
            def wrapped(*args, **kwargs):
                where.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    where.pop()
            return wrapped

        monkeypatch.setattr(Mat, "_raw", staticmethod(counted_raw))
        monkeypatch.setattr(Mat, "__init__", counted_init)
        monkeypatch.setattr(Witness, "verify", inside("verify", verify))
        monkeypatch.setattr(companion, "_potent_claims_hold",
                            inside("claims", claims))
        claims.cache_clear()
        assert verify_field(3, gf9, "constructive").decomposable == 729
        assert claims.cache_info().misses == 9
        assert built["verify"] == 0 and built["claims"] > 0
        built.clear()
        assert verify_field(3, gf9, "constructive").decomposable == 729
        assert built == {}


@pytest.fixture
def fresh_potent_claims():
    """Empty the potent-claims memo around a test that patches a route."""
    companion._potent_claims_hold.cache_clear()
    yield
    companion._potent_claims_hold.cache_clear()


class TestExponentRoute:
    """Witness.verify's second route: P^t = P with p not dividing t - 1."""

    def test_rejects_a_power_the_min_poly_route_lets_through(
            self, gf2, monkeypatch, fresh_potent_claims):
        # the GF(2) swap matrix S has S^3 = S, and 2 divides 3 - 1.  With
        # the min-poly route patched to call S potent with exponent 3, the
        # sum, square-zero, commuting and power checks all hold, so only
        # p not dividing t - 1 is left to reject it
        swap = companion_of(Poly(gf2, (1, 0, 1))).matrix
        assert swap.rows() == ((0, 1), (1, 0)) and swap ** 3 == swap
        monkeypatch.setattr(companion, "min_poly_exponent", lambda mp: 3)
        w = Witness(potent=swap, nilpotent=Mat.zeros(gf2, 2), exponent=3,
                    commuting=True, source="brute")
        assert not w.verify(swap)

    def test_rejects_a_wrong_exponent_that_returns(self, gf5):
        # t' = 2t - 1 also gives P^t' = P with p not dividing t' - 1, but
        # it is not the least exponent, which the min-poly route requires
        form = companion_of(Poly(gf5, (1, 2, 3, 1)))
        good = trace_matched_decomposition(form)
        wrong = 2 * good.exponent - 1
        assert good.potent ** wrong == good.potent and (wrong - 1) % 5
        assert good.verify(form.matrix)
        assert not good._replace(exponent=wrong).verify(form.matrix)


class TestPotentTraceSet:
    def test_frozen_small_sets(self, gf2, gf3, gf4, gf5):
        assert potent_trace_set(1, gf2) == {0, 1}
        assert potent_trace_set(1, gf5) == {0, 1, 2, 3, 4}
        assert potent_trace_set(2, gf2) == {1}
        assert potent_trace_set(2, gf3) == {0, 1, 2}
        assert potent_trace_set(2, gf4) == {1, 2, 3}
        assert potent_trace_set(3, gf2) == {0, 1}
        assert potent_trace_set(3, gf3) == {0, 1, 2}

    def test_members_match_realizability(self, gf4):
        for t in range(4):
            realizable = True
            try:
                potent_companion_with_trace(t, 2, gf4)
            except TraceNotRealizable:
                realizable = False
            assert (t in potent_trace_set(2, gf4)) == realizable

    def test_bad_dimension(self, gf3):
        with pytest.raises(InputError, match="dimension must be >= 1, got 0"):
            potent_trace_set(0, gf3)

    def test_memo_is_bounded_and_typed(self, gf3):
        assert potent_trace_set(2, gf3) == {0, 1, 2}
        with pytest.raises(InputError,
                           match=r"dimension must be >= 1, got 2\.0"):
            potent_trace_set(2.0, gf3)

    @pytest.mark.parametrize("p,l,n", [
        (2, 1, 4), (2, 1, 5), (2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3),
        (7, 1, 2)])
    def test_matches_potent_companions(self, p, l, n):
        spec = build_field(p, l)
        assert potent_trace_set(n, spec) == {
            form.trace() for form in enumerate_companions(n, spec)
            if is_potent(form.matrix)}

    def test_each_trace_reaches_a_squarefree_g_early(self, gf2,
                                                     monkeypatch):
        # X^2 divides the 2^14 g with a_0 = a_1 = 0; none of them may be
        # tested before a squarefree g of the same trace
        calls = []

        def counting(g):
            calls.append(g)
            return is_squarefree(g)

        monkeypatch.setattr(companion, "is_squarefree", counting)
        assert potent_trace_set(16, gf2) == {0, 1}
        assert len(calls) <= 8

    def test_enumeration_bound_is_checked_on_every_call(self, gf3):
        for _ in range(2):
            with pytest.raises(EnumerationTooLarge):
                potent_trace_set(3, gf3, 26)
