"""Exhaustive decomposition search, certificates, and report plumbing."""

import itertools
import json
import math

import pytest

from conftest import (
    RECORD_MUTATIONS,
    commuting_split_by_orbit,
    fixed_point_certificate,
    root_of_unity_certificate,
    square_zero_oracle,
)
import weakper
from weakper import errors, search
from weakper.errors import (
    FieldTooSmall,
    InputError,
    SearchSpaceTooLarge,
    TraceNotRealizable,
    WeakperError,
)
from weakper.gf import build_field
from weakper.poly import Poly
from weakper.mat import Mat, is_potent, potency_exponent
from weakper.companion import Witness, companion_of, enumerate_companions
from weakper.search import (
    MODES,
    _independent_rows,
    _square_zero_entries,
    brute_commuting_decompose,
    cached_summary,
    brute_decompose,
    conjecture_scan,
    count_decompositions,
    decompose,
    load_report,
    reverify_report,
    verify_field,
)


class TestBruteDecompose:
    def test_nilpotent_companion_gf2(self, gf2):
        C = companion_of(Poly(gf2, (0, 0, 1))).matrix
        w = brute_decompose(C)
        assert w.potent.is_zero()
        assert w.nilpotent == C
        assert w.source == "brute"
        assert w.verify(C)

    def test_unipotent_companion_gf2(self, gf2):
        C = companion_of(Poly(gf2, (1, 0, 1))).matrix
        w = brute_decompose(C)
        assert w.potent == Mat.identity(gf2, 2)
        assert w.nilpotent.rows() == ((1, 1), (1, 1))
        assert w.commuting
        assert w.verify(C)

    def test_first_witness_is_frozen_gf5(self, gf5):
        # (X-1)^2; the plain scan reaches a non-commuting witness first
        C = companion_of(Poly(gf5, (1, 3, 1))).matrix
        w = brute_decompose(C)
        assert w.potent.rows() == ((0, 4), (0, 2))
        assert w.nilpotent.rows() == ((0, 0), (1, 0))
        assert w.exponent == 5
        assert not w.commuting
        assert w.verify(C)

    def test_search_space_bound(self, gf4):
        # the cap bounds q^(n^2) in every brute search, whatever it
        # enumerates
        C = companion_of(Poly(gf4, (1, 0, 0, 0, 1))).matrix
        for brute in (brute_decompose, count_decompositions):
            with pytest.raises(SearchSpaceTooLarge):
                brute(C, brute_cap=1000)


class TestCountDecompositions:
    def test_frozen_counts_gf2(self, gf2):
        # the swap matrix (X^2+1 minus the all-ones N) has minimal
        # polynomial (X+1)^2, so it does not count as potent; each of
        # these companions keeps exactly one usable N besides it
        counts = {c: count_decompositions(companion_of(Poly(gf2, c)).matrix)
                  for c in [(0, 0, 1), (1, 0, 1), (1, 1, 1)]}
        assert counts[(0, 0, 1)] == {"total": 1, "commuting": 1}
        assert counts[(1, 0, 1)] == {"total": 1, "commuting": 1}
        assert counts[(1, 1, 1)] == {"total": 4, "commuting": 1}

    def test_counts_match_first_witness_search(self, gf3, gf5):
        for spec in (gf3, gf5):
            for form in enumerate_companions_2(spec):
                counts = count_decompositions(form.matrix)
                found = brute_decompose(form.matrix) is not None
                assert (counts["total"] > 0) == found
                commuting_found = (
                    brute_commuting_decompose(form) is not None)
                assert (counts["commuting"] > 0) == commuting_found

    def test_unique_commuting_witness_gf5(self, gf5):
        # commuting N for a nonderogatory C are polynomials in C; only
        # one choice keeps C - N potent here
        C = companion_of(Poly(gf5, (1, 3, 1))).matrix
        assert count_decompositions(C) == {"total": 21, "commuting": 1}


def enumerate_companions_2(spec):
    from weakper.companion import enumerate_companions
    return enumerate_companions(2, spec)


def square_zero_count(q, n):
    """Sum over r <= n/2 of [n r]_q * prod_{i<r} (q^(n-r) - q^i): images W
    of dimension r times the full-rank maps onto W from F^n / W."""
    total = 0
    for r in range(n // 2 + 1):
        gauss = 1
        for i in range(r):
            gauss = gauss * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
        onto = 1
        for i in range(r):
            onto *= q ** (n - r) - q ** i
        total += gauss * onto
    return total


def row_span(spec, rows, m):
    """Every combination of rows, flat tuples of length m."""
    span = set()
    for coeffs in itertools.product(range(spec.order), repeat=len(rows)):
        acc = [0] * m
        for c, row in zip(coeffs, rows):
            for i in range(m):
                acc[i] = spec._add(acc[i], spec._mul(c, row[i]))
        span.add(tuple(acc))
    return span


def first_commuting_witness(C, oracle):
    """The commuting witness whose N comes first among the filter oracle's
    square-zero matrices, or None."""
    spec, n = C.spec, C.n
    for ent in oracle:
        N = Mat._raw(spec, n, ent)
        P = C - N
        if C * N == N * C and is_potent(P):
            return Witness(potent=P, nilpotent=N,
                           exponent=potency_exponent(P), commuting=True,
                           source="brute_commuting")
    return None


ORACLE_CELLS = ([(2, 1, n) for n in range(1, 5)]
                + [(3, 1, n) for n in range(1, 4)]
                + [(2, 2, n) for n in range(1, 4)]
                + [(5, 1, 2)])


class TestSquareZeroEnumeration:
    @pytest.mark.parametrize("p,l,n", ORACLE_CELLS)
    def test_matches_filter_oracle(self, p, l, n):
        spec = build_field(p, l)
        assert _square_zero_entries(spec, n) == square_zero_oracle(spec, n)

    @pytest.mark.parametrize("p,l,n", ORACLE_CELLS)
    def test_commuting_candidates_match_filter_oracle(self, p, l, n):
        spec = build_field(p, l)
        oracle = square_zero_oracle(spec, n)
        for form in enumerate_companions(n, spec):
            assert (brute_commuting_decompose(form)
                    == first_commuting_witness(form.matrix, oracle))

    @pytest.mark.parametrize("p,l", [(2, 1), (3, 1), (2, 2)])
    def test_independent_rows_count_full_rank_matrices(self, p, l):
        # prod_{i<r} (q^m - q^i) r x m matrices have rank r; where there
        # are at most 3^6 r x m matrices, the rank-r ones are also found
        # by the size q^r of their row span
        spec = build_field(p, l)
        q = spec.order
        for m in range(4):
            space = list(itertools.product(range(q), repeat=m))
            for r in range(m + 1):
                rows = _independent_rows(spec, r, m)
                assert len(set(rows)) == len(rows) == math.prod(
                    q ** m - q ** i for i in range(r))
                if q ** (r * m) <= 3 ** 6:
                    assert set(rows) == {
                        g for g in itertools.product(space, repeat=r)
                        if len(row_span(spec, g, m)) == q ** r}

    @pytest.mark.parametrize("p,l,n,count", [
        (2, 1, 3, 22), (3, 1, 3, 105), (2, 2, 3, 316), (5, 1, 3, 745),
        (2, 1, 5, 6976), (3, 1, 4, 7281), (2, 2, 4, 69616)])
    def test_counts_match_closed_form(self, p, l, n, count):
        spec = build_field(p, l)
        entries = _square_zero_entries(spec, n)
        assert square_zero_count(spec.order, n) == count
        assert len(entries) == count
        assert list(entries) == sorted(set(entries))
        zero = (0,) * (n * n)
        assert all((Mat._raw(spec, n, e) * Mat._raw(spec, n, e)).entries
                   == zero for e in entries)


class TestBruteCommutingDecompose:
    def test_frozen_witness_gf5(self, gf5):
        form = companion_of(Poly(gf5, (1, 3, 1)))
        C = form.matrix
        w = brute_commuting_decompose(form)
        assert w.potent == Mat.identity(gf5, 2)
        assert w.nilpotent.rows() == ((4, 4), (1, 1))
        assert w.exponent == 2
        assert w.commuting
        assert w.source == "brute_commuting"
        assert w.verify(C, require_commuting=True)

    def test_commuting_implies_plain(self, gf3):
        for form in [companion_of(Poly(gf3, c + (1,)))
                     for c in [(1, 0), (2, 1), (0, 2)]]:
            w = brute_commuting_decompose(form)
            assert w.verify(form.matrix)
            assert w.verify(form.matrix, require_commuting=True)

    def test_derogatory_matrix_splits(self, gf3):
        # 2*I commutes with every matrix, not only with polynomials in it;
        # the route reads a companion's polynomial, so the orbit oracle
        # carries the theorem for matrices that are not companions
        C = Mat.identity(gf3, 2).scale(2)
        w = commuting_split_by_orbit(C)
        assert w.potent == C
        assert w.nilpotent.is_zero()
        assert w.exponent == 3

    @pytest.mark.parametrize("p,l,n", [
        (2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
    def test_matches_filter_oracle_on_every_matrix(self, p, l, n):
        # derogatory matrices included: the semisimple part of every
        # square matrix, from the Frobenius orbit, is the one commuting
        # split the filter finds
        spec = build_field(p, l)
        oracle = square_zero_oracle(spec, n)
        for ent in itertools.product(range(spec.order), repeat=n * n):
            C = Mat._raw(spec, n, ent)
            assert (first_commuting_witness(C, oracle)
                    == commuting_split_by_orbit(C))

    @pytest.mark.parametrize("p,l,n", [
        (2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
    def test_matches_both_oracles_on_every_companion(self, p, l, n):
        spec = build_field(p, l)
        oracle = square_zero_oracle(spec, n)
        for form in enumerate_companions(n, spec):
            assert (brute_commuting_decompose(form)
                    == first_commuting_witness(form.matrix, oracle)
                    == commuting_split_by_orbit(form.matrix))

    @pytest.mark.parametrize("p,l,n_max", [
        (2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 4), (7, 1, 3), (2, 3, 3),
        (3, 2, 3)])
    def test_matches_orbit_oracle_on_every_companion(self, p, l, n_max):
        # the Newton step and the Frobenius orbit agree on P, N, the
        # exponent and the verdict of every companion up to n_max
        spec = build_field(p, l)
        for n in range(1, n_max + 1):
            for form in enumerate_companions(n, spec):
                assert (brute_commuting_decompose(form)
                        == commuting_split_by_orbit(form.matrix))

    def test_nilpotent_square_has_zero_potent_part(self, gf2, gf3, gf4):
        # min_poly X^2: rad = X, so N = C, P = 0 and min_poly(P) = X
        for spec in (gf2, gf3, gf4):
            form = companion_of(Poly(spec, (0, 0, 1)))
            assert brute_commuting_decompose(form) == Witness(
                potent=Mat.zeros(spec, 2), nilpotent=form.matrix, exponent=2,
                commuting=True, source="brute_commuting")

    @pytest.mark.parametrize("p,l,n", [
        (2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 2), (5, 1, 2),
        (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6), (3, 1, 3), (3, 1, 4),
        (2, 2, 3), (2, 2, 4)])
    def test_count_is_the_cube_free_count(self, p, l, n):
        # a companion splits commutingly iff its polynomial is cube-free,
        # and q^n - q^(n-2) monics of degree n >= 3 are
        spec = build_field(p, l)
        q = spec.order
        count = sum(brute_commuting_decompose(form) is not None
                    for form in enumerate_companions(n, spec))
        assert count == (q ** n - q ** (n - 2) if n >= 3 else q ** n)

    @pytest.mark.parametrize("low,splits", [
        # (X+1)^2 (X^2+X+1) times an irreducible of degree 9
        ((1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1), True),
        # X^13
        ((0,) * 13, False),
    ])
    def test_degree_13_costs_few_products(self, gf2, low, splits,
                                          mat_product_budget):
        # C^(2^lcm(1..13)) would take 360,360 squarings; the Newton step
        # takes at most n - 1 Horner products, and the checker its own
        # min_poly(P) and P^t.  A polynomial that is not cube-free is
        # turned down on its coefficients alone, with no product
        form = companion_of(Poly(gf2, low + (1,)))
        C = form.matrix
        used = mat_product_budget(400)
        w = brute_commuting_decompose(form)
        assert (w is not None) == splits
        assert (used[0] > 0) == splits
        if splits:
            assert w.potent * w.nilpotent == w.nilpotent * w.potent
            assert w.verify(C, require_commuting=True)


def test_export_list_is_pinned():
    # adding or dropping a public name is a decision this list shows
    assert sorted(weakper.__all__) == [
        "CompanionForm", "CompanionRecord", "ConjectureScan",
        "ContainmentReport", "FieldSpec", "InputError", "LimitError", "Mat",
        "Poly", "SRWitness", "TOOL_VERSION", "TraceNotRealizable",
        "VerifyReport", "WeakperError", "WeightPattern", "Witness",
        "brute_commuting_decompose", "brute_decompose", "build_field",
        "char_poly", "companion_of", "conjecture_scan", "containment_report",
        "count_decompositions", "cycle_permutation_matrix", "det",
        "divisor_count", "embed", "enumerate_companions", "factor", "gcd",
        "gcd_divisibility", "is_potent", "is_potent_iterative",
        "is_square_zero", "is_squarefree", "load_report", "min_poly",
        "parse_field", "parse_poly", "pattern_spectra", "potency_exponent",
        "potent_companion_with_trace", "potent_trace_set", "pow_mod",
        "prime_shift_certificate", "reverify_report", "roots_in_extensions",
        "roots_of_unity", "subfield_lattice", "trace_matched_decomposition",
        "unity_sum_set", "verify_field", "weight_patterns"]
    for name in weakper.__all__:
        assert getattr(weakper, name) is not None


def test_error_classes_are_pinned():
    # one class per exit code, and one below it only where an except
    # clause names it or it is also a built-in: keeping or adding an error
    # class is a decision this list shows
    classes = {name: tuple(c.__name__ for c in obj.__bases__)
               for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert sorted(classes.items()) == [
        ("DivisionByZero", ("InputError", "ZeroDivisionError")),
        ("EnumerationTooLarge", ("LimitError",)),
        ("FieldTooSmall", ("InputError",)),
        ("InputError", ("WeakperError",)),
        ("LimitError", ("WeakperError",)),
        ("SearchSpaceTooLarge", ("LimitError",)),
        ("TraceNotRealizable", ("InputError",)),
        ("WeakperError", ("Exception",))]


class TestRootOfUnityCertificate:
    def test_frozen_gf3(self, gf3):
        C = companion_of(Poly(gf3, (2, 0, 1))).matrix
        assert root_of_unity_certificate(C, 3) is True
        assert root_of_unity_certificate(C, 2) is False

    def test_needs_invertible_matrix(self, gf3):
        C = companion_of(Poly(gf3, (0, 0, 1))).matrix
        with pytest.raises(InputError, match="invertible"):
            root_of_unity_certificate(C, 2)

    def test_exponent_must_exceed_one(self, gf3):
        C = companion_of(Poly(gf3, (2, 0, 1))).matrix
        with pytest.raises(InputError):
            root_of_unity_certificate(C, 1)


class TestFixedPointCertificate:
    def test_matrix_itself(self, gf3):
        C = companion_of(Poly(gf3, (2, 0, 1))).matrix
        q, ok = fixed_point_certificate(C, C)
        assert q.coeffs == (0, 1)
        assert ok

    def test_zero_part(self, gf3):
        C = companion_of(Poly(gf3, (2, 0, 1))).matrix
        q, ok = fixed_point_certificate(C, Mat.zeros(gf3, 2))
        assert q.is_zero()
        assert not ok

    def test_noncommuting_rejected(self, gf3):
        C = companion_of(Poly(gf3, (2, 0, 1))).matrix
        P = Mat.from_rows(gf3, [[0, 0], [1, 0]])
        assert C * P != P * C
        with pytest.raises(InputError, match="does not commute"):
            fixed_point_certificate(C, P)

    def test_polynomial_replays(self, gf5):
        from conftest import poly_at_matrix
        C = companion_of(Poly(gf5, (1, 3, 1))).matrix
        for P in (C, C * C, Mat.identity(gf5, 2), C.scale(3)):
            q, _ = fixed_point_certificate(C, P)
            assert poly_at_matrix(q, C) == P


class TestVerifyField:
    def test_constructive_gf3_all_split(self, gf3):
        r = verify_field(2, gf3, "constructive")
        assert (r.total, r.decomposable, r.failed) == (9, 9, 0)
        assert r.field == "3^1/0,1"
        assert all(rec.witness.source == "constructive"
                   for rec in r.records)

    def test_brute_gf4_all_split(self, gf4):
        r = verify_field(2, gf4, "brute")
        assert (r.total, r.decomposable, r.failed) == (16, 16, 0)

    def test_brute_gf2_all_split(self, gf2):
        r = verify_field(2, gf2, "brute")
        assert (r.total, r.decomposable, r.failed) == (4, 4, 0)
        assert verify_field(1, gf2, "brute").decomposable == 2

    def test_constructive_needs_room(self, gf2):
        with pytest.raises(FieldTooSmall):
            verify_field(2, gf2, "constructive")

    def test_mode_validated(self, gf2):
        assert MODES == ("constructive", "brute", "commuting")
        with pytest.raises(InputError):
            verify_field(2, gf2, "bogus")

    def test_search_space_bound(self, gf4):
        with pytest.raises(SearchSpaceTooLarge):
            verify_field(4, gf4, "brute")

    def test_every_witness_verifies(self, gf3, gf5):
        for spec, mode in [(gf3, "constructive"), (gf3, "brute"),
                           (gf3, "commuting"), (gf5, "constructive")]:
            r = verify_field(2, spec, mode)
            for rec in r.records:
                assert rec.status == "decomposable"
                assert rec.witness.verify(
                    rec.form.matrix,
                    require_commuting=(mode == "commuting"))


class TestDecompose:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_verify_field_records(self, gf3, mode):
        report = verify_field(2, gf3, mode)
        for rec in report.records:
            assert decompose(rec.form, mode) == rec.witness

    def test_trace_gap_propagates(self):
        form = companion_of(Poly(build_field(2, 2), (1, 0, 1)))
        with pytest.raises(TraceNotRealizable):
            decompose(form, "constructive")

    def test_mode_validated(self, gf3):
        with pytest.raises(InputError):
            decompose(companion_of(Poly(gf3, (1, 1, 1))), "bogus")

    @pytest.mark.parametrize("mode", MODES)
    def test_reverifies_by_the_iterative_route(
            self, gf5, exponent_route_rejects, mode):
        # a witness the power route, P^t = P at its own exponent t, rejects
        # must not be returned, whichever route built it
        with pytest.raises(WeakperError, match="re-verification"):
            decompose(companion_of(Poly(gf5, (1, 3, 1))), mode)


class TestReports:
    def test_json_round_trip(self, gf3):
        r = verify_field(2, gf3, "constructive")
        rt = load_report(r.to_json())
        assert rt == r
        assert reverify_report(rt)

    def test_byte_identical_reruns(self, gf3, gf4):
        assert (verify_field(2, gf3, "constructive").to_json()
                == verify_field(2, gf3, "constructive").to_json())
        assert (verify_field(2, gf4, "brute").to_json()
                == verify_field(2, gf4, "brute").to_json())

    def test_tampered_witness_detected(self, gf3):
        blob = verify_field(2, gf3, "constructive").to_json()
        data = json.loads(blob)
        cell = data["records"][0]["witness"]["P"][0][0]
        data["records"][0]["witness"]["P"][0][0] = (cell + 1) % 3
        assert not reverify_report(load_report(json.dumps(data)))

    def test_truncated_record_list_detected(self, gf3):
        data = json.loads(verify_field(2, gf3, "constructive").to_json())
        data["records"] = data["records"][:-1]
        assert not reverify_report(load_report(json.dumps(data)))

    def test_duplicated_record_detected(self, gf3):
        data = json.loads(verify_field(2, gf3, "constructive").to_json())
        data["records"][1] = data["records"][0]
        assert not reverify_report(load_report(json.dumps(data)))

    def test_reordered_records_detected(self, gf3):
        data = json.loads(verify_field(2, gf3, "constructive").to_json())
        data["records"].reverse()
        assert not reverify_report(load_report(json.dumps(data)))

    def test_invalid_json_rejected(self):
        with pytest.raises(InputError):
            load_report("{not json")
        with pytest.raises(InputError):
            load_report(b"\xff{")
        with pytest.raises(InputError):
            load_report("[" * 100000 + "]" * 100000)

    @pytest.mark.parametrize("n", [10 ** 9, 10 ** 18])
    def test_header_n_past_the_data_allocates_nothing(self, gf2, n):
        # no record's g has length n, so nothing of size n is built: the
        # records are malformed, and without records nothing is enumerated
        data = json.loads(verify_field(3, gf2, "commuting").to_json())
        data["n"] = n
        with pytest.raises(InputError, match="malformed"):
            load_report(json.dumps(data))
        data["records"] = []
        assert not reverify_report(load_report(json.dumps(data)))

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError):
            load_report(json.dumps({"field": "3^1/0,1"}))

    @pytest.mark.parametrize("mutation", RECORD_MUTATIONS)
    def test_malformed_record_rejected(self, gf2, mutation):
        # the records a verify --cache hit rejects (tests/test_cli.py)
        data = json.loads(verify_field(3, gf2, "commuting").to_json())
        assert reverify_report(load_report(json.dumps(data)))
        RECORD_MUTATIONS[mutation](data)
        with pytest.raises(InputError, match="malformed"):
            load_report(json.dumps(data))

    ORDER_MUTATIONS = {
        "truncated": lambda recs: recs[:-1],
        "duplicated": lambda recs: recs[:1] + recs[:-1],
        "reordered": lambda recs: recs[::-1],
        "one record too long": lambda recs: recs + recs[-1:],
    }

    @pytest.mark.parametrize("reader", ["cached_summary", "reverify_report"])
    @pytest.mark.parametrize("mutation", ORDER_MUTATIONS)
    def test_records_out_of_enumeration_order_rejected(self, gf2, reader,
                                                       mutation):
        # GF(2) n=3 commuting has records of both statuses; the summary is
        # recounted, so only the order of the records is wrong
        def accepts(blob):
            if reader == "cached_summary":
                return cached_summary(blob, gf2, 3, "commuting") is not None
            return reverify_report(load_report(blob))

        data = json.loads(verify_field(3, gf2, "commuting").to_json())
        assert accepts(json.dumps(data).encode())
        data["records"] = self.ORDER_MUTATIONS[mutation](data["records"])
        failed = sum(rec["status"] == "not_decomposable"
                     for rec in data["records"])
        total = len(data["records"])
        data["summary"] = {"total": total, "decomposable": total - failed,
                           "failed": failed}
        assert not accepts(json.dumps(data).encode())

    @pytest.mark.parametrize("key,value", [
        ("mode", 5), ("mode", ["brute"]), ("mode", "nonsense"),
        ("version", 7)], ids=["mode-int", "mode-list", "mode-unknown",
                              "version-int"])
    def test_header_verify_never_writes_rejected(self, gf2, key, value):
        data = json.loads(verify_field(2, gf2, "brute").to_json())
        assert reverify_report(load_report(json.dumps(data)))
        data[key] = value
        with pytest.raises(InputError, match="malformed"):
            load_report(json.dumps(data))


class TestTraceMembershipInvariant:
    def test_decomposable_traces_lie_in_unity_sums(self, gf3, gf4):
        # whenever any route splits C, trace(C) must be reachable as a
        # sum of at most n roots of unity from degree <= n extensions
        from weakper.rosets import unity_sum_set
        for spec in (gf3, gf4):
            sums = unity_sum_set(2, spec, 2)
            report = verify_field(2, spec, "brute")
            for rec in report.records:
                if rec.status == "decomposable":
                    assert rec.form.matrix.trace() in sums


class TestConjectureScan:
    def test_no_counterexamples_gf3(self, gf3):
        scan = conjecture_scan(2, gf3)
        assert scan.non_decomposable == ()
        assert scan.report.mode == "commuting"
        assert scan.report.total == 9

    def test_no_counterexamples_gf2(self, gf2):
        scan = conjecture_scan(2, gf2)
        assert scan.non_decomposable == ()
        assert scan.report.total == 4

    def test_serialize_shape(self, gf2):
        data = conjecture_scan(2, gf2).serialize()
        assert data["non_decomposable"] == []
        assert data["report"]["summary"]["failed"] == 0


class TestRecords:
    """The result records are immutable named tuples."""

    @pytest.fixture(scope="class")
    def records(self, gf2, gf3):
        from weakper.rosets import (
            containment_report, unity_sum_set, weight_patterns)
        report = verify_field(2, gf3, "constructive")
        record = report.records[0]
        return (record.form, record.witness, record, report,
                conjecture_scan(2, gf2),
                next(iter(unity_sum_set(2, gf2, 2).values())),
                weight_patterns(3, 2)[0], containment_report(2, gf2, 2))

    def test_eight_records_are_hashable_and_frozen(self, records):
        assert [type(r).__name__ for r in records] == [
            "CompanionForm", "Witness", "CompanionRecord", "VerifyReport",
            "ConjectureScan", "SRWitness", "WeightPattern",
            "ContainmentReport"]
        for record in records:
            hash(record)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_replaced_witness_still_fails_verification(self, records):
        form, witness, record, report = records[:4]
        bad = witness._replace(exponent=witness.exponent + 1)
        assert witness.verify(form.matrix)
        assert not bad.verify(form.matrix)
        tampered = report._replace(records=(
            record._replace(witness=bad),) + report.records[1:])
        assert reverify_report(report)
        assert not reverify_report(tampered)
        assert tampered.version == report.version == search.TOOL_VERSION
