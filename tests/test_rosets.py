"""Weight patterns on cycles, unity sums, shift certificates, containments."""

import math

import pytest

from weakper import rosets
from weakper.errors import (
    BadDimension,
    EnumerationTooLarge,
    FieldTooLarge,
    InputError,
)
from weakper.gf import build_field, embed
from weakper.mat import cycle_permutation_matrix
from weakper.rosets import (
    SRWitness,
    containment_report,
    divisor_count,
    gcd_divisibility,
    pattern_spectra,
    prime_shift_certificate,
    unity_sum_set,
    weight_patterns,
    _first_appearances,
    _pattern_spectra_cached,
    _spectra_by_char_poly,
    _spectra_by_evaluation,
    _splitting_degree,
    _witness_membership,
    _witness_pattern_matrix,
)

BOUND = 1 << 20


class TestWeightPatterns:
    def test_dense_enumeration_m2_n2(self):
        assert [p.dense() for p in weight_patterns(2, 2)] == [
            (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_dense_enumeration_budget_one(self):
        assert [p.dense() for p in weight_patterns(2, 1)] == [(0, 1), (1, 0)]
        assert [p.dense() for p in weight_patterns(3, 1)] == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_weights_stay_in_budget(self):
        for p in weight_patterns(4, 3):
            assert 1 <= p.weight() <= 3

    def test_count_m3_n2(self):
        # compositions of weight 1 or 2 into 3 exponent slots
        assert len(weight_patterns(3, 2)) == 9

    def test_bad_arguments(self):
        with pytest.raises(BadDimension):
            weight_patterns(1, 2)
        with pytest.raises(BadDimension):
            weight_patterns(2, 0)

    def test_apply_all_ones(self, gf3):
        cyc = cycle_permutation_matrix(gf3, 2)
        pat = next(p for p in weight_patterns(2, 2) if p.dense() == (1, 1))
        assert pat.apply(cyc).rows() == ((1, 1), (1, 1))

    def test_apply_cancels_in_char_two(self, gf2):
        cyc = cycle_permutation_matrix(gf2, 2)
        pat = next(p for p in weight_patterns(2, 2) if p.dense() == (2, 0))
        assert pat.apply(cyc).is_zero()


class TestPatternSpectra:
    def test_base_field_spectrum_gf3(self, gf3):
        sp = pattern_spectra(2, 2, gf3, 1)
        assert sorted((v, h.descriptor()) for v, h in sp) == [
            (0, "3^1/0,1"), (1, "3^1/0,1"), (2, "3^1/0,1")]

    def test_extension_spectrum_gf2(self, gf2):
        sp = pattern_spectra(3, 1, gf2, 2)
        assert sorted((v, h.descriptor()) for v, h in sp) == [
            (1, "2^1/0,1"), (2, "2^2/1,1,1"), (3, "2^2/1,1,1")]

    def test_unit_spectrum_gf5(self, gf5):
        sp = pattern_spectra(2, 1, gf5, 1)
        assert sorted((v, h.descriptor()) for v, h in sp) == [
            (1, "5^1/0,1"), (4, "5^1/0,1")]

    def test_first_pattern_provenance(self, gf3):
        # 0 needs two terms; 1 and 2 already appear for the single-term
        # pattern at exponent 1
        sp = pattern_spectra(2, 2, gf3, 1)
        assert sp[(0, gf3)].dense() == (1, 1)
        assert sp[(1, gf3)].dense() == (0, 1)
        assert sp[(2, gf3)].dense() == (0, 1)

    def test_bad_extension_bound(self, gf3):
        with pytest.raises(InputError):
            pattern_spectra(2, 2, gf3, 0)


# (p, l) of GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(9)
ROUTE_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
# (p, l, n) of the six sets/lemmas benchmark points, checked at ext = n
LEMMA_SETS_POINTS = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (5, 1, 2),
                     (5, 1, 3))


def _spectra_oracle(m, n, spec, ext, bound=BOUND):
    """The union of spectra by char_poly and trial-division root chasing."""
    return _first_appearances(_spectra_by_char_poly(
        m, weight_patterns(m, n), spec, ext, bound))


class TestSpectraByEvaluation:
    """The circulant evaluation route against the char_poly route."""

    @pytest.mark.parametrize("p, l", ROUTE_FIELDS)
    def test_matches_char_poly_route(self, p, l):
        spec = build_field(p, l)
        cases = [(m, ext) for m in range(2, 9) for ext in (1, 2)]
        cases += [(m, n) for pp, ll, n in LEMMA_SETS_POINTS
                  if (pp, ll) == (p, l) and n > 2 for m in range(2, 9)]
        for m, ext in cases:
            # a pattern's roots do not depend on the weight budget, so the
            # budget-3 run covers budgets 1 and 2 pattern by pattern
            patterns = weight_patterns(m, 3)
            by_char_poly = list(_spectra_by_char_poly(
                m, patterns, spec, ext, BOUND))
            assert list(_spectra_by_evaluation(
                m, patterns, spec, ext, BOUND)) == by_char_poly, (m, ext)
            for n in (1, 2, 3):
                within = [(pat, roots) for pat, roots in by_char_poly
                          if pat.weight() <= n]
                assert [pat for pat, _ in within] == list(
                    weight_patterns(m, n))
                assert _pattern_spectra_cached.__wrapped__(
                    m, n, spec, ext, BOUND) == _first_appearances(
                        within), (m, n, ext)

    def test_splitting_degree(self):
        assert _splitting_degree(7, 3) == (7, 6)
        assert _splitting_degree(12, 2) == (3, 2)
        assert _splitting_degree(17, 5) == (17, 16)
        # m a power of p: every eigenvalue is f(1)
        assert _splitting_degree(8, 2) == (1, 1)
        assert _splitting_degree(9, 3) == (1, 1)

    @pytest.mark.parametrize("p, l, m", [(2, 1, 8), (2, 2, 4), (3, 1, 9),
                                         (3, 2, 3), (5, 1, 5)])
    def test_m_power_of_p(self, p, l, m):
        spec = build_field(p, l)
        for n in (1, 2, 3):
            got = _pattern_spectra_cached.__wrapped__(m, n, spec, 2, BOUND)
            assert got == _spectra_oracle(m, n, spec, 2)
            # the roots are the pattern weights mod p, all in the base field
            assert {key for key, _ in got} == {
                (w % p, spec) for w in range(1, n + 1)}

    @pytest.mark.parametrize("p, l, m", [(2, 1, 3), (2, 2, 5), (3, 1, 4),
                                         (3, 1, 3), (5, 1, 6)])
    def test_weights_vanishing_mod_p(self, p, l, m):
        spec = build_field(p, l)
        patterns = [pat for pat in weight_patterns(m, p)
                    if all(w % p == 0 for _, w in pat.coeffs)]
        assert patterns
        # f(P_m) is the zero matrix, so its only eigenvalue is 0
        for route in (_spectra_by_evaluation, _spectra_by_char_poly):
            assert [roots for _, roots in route(
                m, patterns, spec, 2, BOUND)] == [((0, spec),)] * len(patterns)

    def test_small_field_bound_forces_char_poly_route(self, gf3,
                                                      monkeypatch):
        # m = 7 over GF(3) needs GF(3^6), of order 729
        expected = _pattern_spectra_cached.__wrapped__(7, 2, gf3, 2, BOUND)
        assert expected == _spectra_oracle(7, 2, gf3, 2)

        def refuse(*args):
            raise AssertionError("evaluation route taken")

        monkeypatch.setattr(rosets, "_spectra_by_evaluation", refuse)
        assert _pattern_spectra_cached.__wrapped__(
            7, 2, gf3, 2, 728) == expected
        with pytest.raises(AssertionError):
            _pattern_spectra_cached.__wrapped__(7, 2, gf3, 2, 729)

    def test_default_bound_takes_evaluation_route(self, gf5, monkeypatch):
        def refuse(*args):
            raise AssertionError("char_poly route taken")

        monkeypatch.setattr(rosets, "_spectra_by_char_poly", refuse)
        assert _pattern_spectra_cached.__wrapped__(7, 2, gf5, 2, BOUND)
        # m = 17 over GF(5) needs GF(5^16), past the default bound
        with pytest.raises(AssertionError):
            _pattern_spectra_cached.__wrapped__(17, 1, gf5, 1, BOUND)

    def test_home_beyond_field_bound_raises_on_both_routes(self, gf4):
        # GF(8) holds the 7th roots of unity, but the cubic ones live in
        # GF(4^3) over GF(4), of order 64
        patterns = weight_patterns(7, 1)
        messages = []
        for route in (_spectra_by_evaluation, _spectra_by_char_poly):
            with pytest.raises(FieldTooLarge) as exc:
                list(route(7, patterns, gf4, 3, 32))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "GF(2^6)" in messages[0]
        with pytest.raises(FieldTooLarge):
            _pattern_spectra_cached.__wrapped__(7, 1, gf4, 3, 32)
        # roots past ext_bound are dropped before their home is built
        assert _pattern_spectra_cached.__wrapped__(
            7, 1, gf4, 2, 32) == _spectra_oracle(7, 1, gf4, 2, 32)

    def test_smallest_oversized_home_raises_first(self, gf8):
        # GF(16) holds the 15th roots of unity, which have degrees 1, 2
        # and 4 over GF(8); both GF(8^2) and GF(8^4) exceed the bound
        patterns = weight_patterns(15, 1)[:1]
        for route in (_spectra_by_evaluation, _spectra_by_char_poly):
            with pytest.raises(FieldTooLarge,
                               match=r"degree-2 factor need GF\(2\^6\)"):
                list(route(15, patterns, gf8, 4, 32))


class TestUnitySumSet:
    def test_gf2_witnesses(self, gf2):
        sums = unity_sum_set(2, gf2, 2)
        assert sorted(sums) == [0, 1]
        assert sums[0].terms == ((2, 1, gf2, 1),)
        assert sums[1].terms == ((1, 1, gf2, 1),)

    def test_gf3_covers_field(self, gf3):
        assert sorted(unity_sum_set(2, gf3, 1)) == [0, 1, 2]

    def test_single_term_budget(self, gf2):
        assert sorted(unity_sum_set(1, gf2, 1)) == [1]

    def test_zero_witness_gf3(self, gf3):
        w = unity_sum_set(2, gf3, 1)[0]
        assert w.terms == ((1, 1, gf3, 1), (1, 2, gf3, 2))
        assert w.weight() == 2
        assert w.order_lcm() == 2

    def test_monotone_in_budget(self, gf3, gf5):
        for spec in (gf3, gf5):
            small = set(unity_sum_set(1, spec, 2))
            assert small <= set(unity_sum_set(2, spec, 2))

    def test_monotone_in_extension_degree(self, gf2, gf3):
        for spec in (gf2, gf3):
            shallow = set(unity_sum_set(2, spec, 1))
            assert shallow <= set(unity_sum_set(2, spec, 2))

    def test_witnesses_replay(self, gf2, gf3, gf4):
        # re-add each witness inside the compositum of its term homes
        for spec in (gf2, gf3, gf4):
            for value, w in unity_sum_set(3, spec, 2).items():
                assert w.value == value
                top = spec.l
                for _, _, home, _ in w.terms:
                    top = math.lcm(top, home.l)
                comp = build_field(spec.p, top, BOUND)
                acc = 0
                for mult, root, home, order in w.terms:
                    assert home.element_order(root) == order
                    image = embed(root, home, comp)
                    for _ in range(mult):
                        acc = comp._add(acc, image)
                assert acc == embed(value, spec, comp)

    def test_trace_set_honours_enum_bound(self, gf2):
        with pytest.raises(EnumerationTooLarge):
            containment_report(2, gf2, 1, 2, enum_bound=3)

    def test_serialize_shape(self, gf3):
        data = unity_sum_set(2, gf3, 1)[0].serialize()
        assert data["value"] == 0
        assert all(len(t) == 4 for t in data["terms"])

    def test_bad_arguments(self, gf3):
        with pytest.raises(BadDimension):
            unity_sum_set(0, gf3, 1)
        with pytest.raises(InputError):
            unity_sum_set(2, gf3, 0)


class TestPrimeShiftCertificate:
    def test_frozen_hits(self, gf2, gf3, gf9):
        assert prime_shift_certificate(4, gf9, 2) == (1, 2)
        assert prime_shift_certificate(4, gf9, 4) == (0, 2)
        assert prime_shift_certificate(1, gf2, 3) == (0, 1)
        assert prime_shift_certificate(2, gf3, 2) == (0, 1)

    def test_counterexamples_at_power_five(self, gf4, gf9):
        # proper-extension elements with no prime-field shift certificate
        assert prime_shift_certificate(4, gf9, 5) is None
        assert prime_shift_certificate(7, gf9, 5) is None
        assert prime_shift_certificate(2, gf4, 5) is None
        assert prime_shift_certificate(3, gf4, 5) is None

    def test_certificates_replay(self, gf4, gf9):
        for spec in (gf4, gf9):
            for x in range(spec.order):
                for m in (2, 3, 4, 5, 6):
                    cert = prime_shift_certificate(x, spec, m)
                    if cert is None:
                        continue
                    a, u = cert
                    assert a < spec.p and u < spec.p
                    assert spec._pow(spec._sub(x, a), m) == u
                    # first shift wins
                    for earlier in range(a):
                        power = spec._pow(spec._sub(x, earlier), m)
                        assert power >= spec.p

    def test_prime_field_always_certified(self, gf5):
        for x in range(5):
            for m in (2, 3, 4, 5):
                assert prime_shift_certificate(x, gf5, m) == (0, gf5._pow(x, m))

    def test_bad_arguments(self, gf3):
        with pytest.raises(BadDimension):
            prime_shift_certificate(1, gf3, 1)
        from weakper.errors import FieldMismatch
        with pytest.raises(FieldMismatch):
            prime_shift_certificate(3, gf3, 2)


class TestDivisorCount:
    def test_frozen(self):
        assert divisor_count(1) == 1
        assert divisor_count(7) == 2
        assert divisor_count(12) == 6
        assert divisor_count(36) == 9

    def test_matches_enumeration(self):
        for m in range(1, 201):
            assert divisor_count(m) == sum(
                1 for i in range(1, m + 1) if m % i == 0)

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            divisor_count(0)


class TestGcdDivisibility:
    def test_frozen(self):
        assert gcd_divisibility(12, 4, 6) == (True, 2)
        assert gcd_divisibility(7, 3, 5) == (True, 1)
        assert gcd_divisibility(100, 10, 20) == (True, 2)

    def test_always_holds_sampled(self, seeded_rng):
        for _ in range(500):
            a = seeded_rng.randrange(1, 10 ** 6)
            b = seeded_rng.randrange(1, 10 ** 6)
            c = seeded_rng.randrange(1, 10 ** 6)
            holds, quotient = gcd_divisibility(a, b, c)
            assert holds
            assert math.gcd(b * c, a) * quotient == \
                math.gcd(b, a) * math.gcd(c, a)

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            gcd_divisibility(0, 1, 1)


class TestWitnessMembership:
    def test_constant_pattern(self, gf2):
        w = SRWitness(value=1, terms=((1, 1, gf2, 1),))
        assert _witness_membership(1, w, 2, gf2, BOUND)
        assert not _witness_membership(0, w, 2, gf2, BOUND)

    def test_discrete_log_path(self, gf2, gf4):
        # omega + omega^2 for a cube root omega lands on the base value 1
        w = SRWitness(value=1, terms=((1, 2, gf4, 3), (1, 3, gf4, 3)))
        applied = _witness_pattern_matrix(w, 3, gf2, BOUND)
        assert applied.rows() == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert _witness_membership(1, w, 3, gf2, BOUND)


class TestContainmentReport:
    @pytest.mark.parametrize("n, q, l, ext", [
        (2, 2, 1, 2),
        (2, 3, 1, 2),
        (2, 2, 2, 2),
        (2, 3, 2, 2),
        (3, 5, 1, 3),
    ])
    def test_desk_grid_passes(self, n, q, l, ext):
        spec = build_field(q, l)
        report = containment_report(n, spec, ext)
        assert report.passed
        assert report.trace_violations == ()
        assert report.membership_violations == ()
        assert report.skipped == ()
        assert report.divisor_agreement

    def test_zero_exempt_for_single_term(self, gf2):
        # a single nonempty root-of-unity sum can never hit 0
        report = containment_report(1, gf2, 1)
        assert report.passed
        assert report.zero_exempt

    def test_trace_set_honours_enum_bound(self, gf2):
        with pytest.raises(EnumerationTooLarge):
            containment_report(2, gf2, 1, 2, enum_bound=3)

    def test_serialize_shape(self, gf3):
        data = containment_report(2, gf3, 2).serialize()
        assert data["field"] == "3^1/0,1"
        assert data["passed"] is True
        assert data["m_max"] == 8
