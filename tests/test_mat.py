"""Dense matrix arithmetic, invariants, and potency predicates."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from weakper.errors import (
    BadDimension,
    DimensionMismatch,
    ExponentOverflow,
    FieldMismatch,
    InputError,
    LimitError,
    MinPolyNotFound,
    WeakperError,
)
from weakper import mat
from weakper.gf import build_field, multiplicative_order
from weakper.mat import (
    Mat,
    char_poly,
    cycle_permutation_matrix,
    det,
    is_potent,
    is_potent_at,
    is_potent_iterative,
    is_square_zero,
    linear_combination,
    min_poly,
    min_poly_exponent,
    potency_exponent,
    universal_potency_exponent,
)
from weakper.poly import Poly, is_irreducible, pow_mod
from weakper.companion import companion_of

from conftest import (
    _irreducible_root_order,
    char_poly_laplace,
    min_poly_scan,
    poly_at_matrix,
    potency_exponent_by_factoring,
    random_matrix,
)


class TestConstruction:
    def test_from_rows_round_trip(self, gf3):
        m = Mat.from_rows(gf3, [[0, 1], [2, 0]])
        assert m.rows() == ((0, 1), (2, 0))
        assert m.entries == (0, 1, 2, 0)
        assert m.entry(1, 0) == 2

    def test_identity_and_zeros(self, gf5):
        assert Mat.identity(gf5, 3).rows() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert Mat.zeros(gf5, 2).is_zero()
        assert Mat.identity(gf5, 2).is_identity()

    def test_ragged_rows_rejected(self, gf3):
        with pytest.raises(DimensionMismatch):
            Mat.from_rows(gf3, [[0, 1], [2]])

    def test_entry_count_checked(self, gf3):
        with pytest.raises(DimensionMismatch):
            Mat(gf3, 2, (0, 1, 2))

    def test_entries_must_lie_in_field(self, gf3):
        with pytest.raises(FieldMismatch):
            Mat(gf3, 2, (0, 1, 2, 5))

    def test_dimension_must_be_positive(self, gf3):
        with pytest.raises(BadDimension):
            Mat.zeros(gf3, 0)
        with pytest.raises(BadDimension):
            Mat.identity(gf3, -1)

    def test_entry_index_range(self, gf3):
        with pytest.raises(BadDimension):
            Mat.identity(gf3, 2).entry(0, 2)


class TestArithmetic:
    def test_add_sub_scale(self, gf5):
        a = Mat.from_rows(gf5, [[1, 2], [3, 4]])
        b = Mat.from_rows(gf5, [[4, 3], [2, 1]])
        assert (a + b).rows() == ((0, 0), (0, 0))
        assert (a - a).is_zero()
        assert a.scale(2).rows() == ((2, 4), (1, 3))
        assert (-a + a).is_zero()

    def test_matrix_product(self, gf3):
        # swap * swap = identity
        s = Mat.from_rows(gf3, [[0, 1], [1, 0]])
        assert (s * s).is_identity()
        a = Mat.from_rows(gf3, [[1, 2], [0, 1]])
        assert (a * s).rows() == ((2, 1), (1, 0))

    def test_mixed_fields_rejected(self, gf2, gf3):
        with pytest.raises(FieldMismatch):
            Mat.identity(gf2, 2) + Mat.identity(gf3, 2)

    def test_mixed_sizes_rejected(self, gf3):
        with pytest.raises(DimensionMismatch):
            Mat.identity(gf3, 2) * Mat.identity(gf3, 3)

    def test_pow(self, gf3):
        s = Mat.from_rows(gf3, [[0, 1], [1, 0]])
        assert (s ** 0).is_identity()
        assert s ** 1 == s
        assert (s ** 2).is_identity()
        assert s ** 5 == s

    def test_negative_exponent_rejected(self, gf3):
        with pytest.raises(InputError):
            Mat.identity(gf3, 2) ** -1

    def test_trace_and_transpose(self, gf5):
        a = Mat.from_rows(gf5, [[1, 2], [3, 4]])
        assert a.trace() == 0
        assert a.transpose().rows() == ((1, 3), (2, 4))

    def test_pow_matches_repeated_products(self, gf4, seeded_rng):
        for n in (1, 2, 3):
            m = random_matrix(seeded_rng, gf4, n)
            power = Mat.identity(gf4, n)
            for k in range(40):
                assert m ** k == power, (m, k)
                power = power * m


class TestProductBudgets:
    """Matrix products counted exactly: machine-independent guards for
    the kernels every route runs."""

    def test_pow_wastes_no_product(self, gf3, mat_product_budget):
        m = Mat.from_rows(gf3, [[1, 2], [0, 1]])
        used = mat_product_budget(100)
        for k in (0, 1):
            m ** k
        assert used == [0]
        for k in range(1, 7):
            before = used[0]
            m ** (2 ** k)
            assert used[0] - before == k
        before = used[0]
        m ** 7
        assert used[0] - before == 4  # squares m^2, m^4 and two products

    def test_min_poly_takes_at_most_n_minus_one_products(
            self, gf2, gf3, gf4, seeded_rng, mat_product_budget):
        used = mat_product_budget(10 ** 6)
        for spec in (gf2, gf3, gf4):
            for n in range(1, 6):
                cases = [Mat.identity(spec, n), Mat.zeros(spec, n)]
                cases += [random_matrix(seeded_rng, spec, n)
                          for _ in range(6)]
                for m in cases:
                    before = used[0]
                    degree = min_poly(m).degree
                    assert used[0] - before == degree - 1 <= n - 1


class TestCyclePermutation:
    def test_three_cycle_over_gf2(self, gf2):
        c = cycle_permutation_matrix(gf2, 3)
        assert c.rows() == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
        assert char_poly(c).coeffs == (1, 0, 0, 1)
        assert (c ** 3).is_identity()
        assert not (c ** 2).is_identity()

    def test_short_cycle_rejected(self, gf2):
        with pytest.raises(BadDimension):
            cycle_permutation_matrix(gf2, 1)


class TestCharPoly:
    def test_companion_reproduces_its_polynomial(self, gf5):
        g = Poly(gf5, (3, 2, 1))
        assert char_poly(companion_of(g).matrix) == g

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_cofactor_expansion_exhaustively(self, p):
        spec = build_field(p, 1)
        q = spec.order
        for code in range(q ** 4):
            e = [(code // q ** i) % q for i in range(4)]
            m = Mat(spec, 2, tuple(e))
            assert char_poly(m) == char_poly_laplace(m)

    def test_agrees_with_cofactor_expansion_sampled(self, gf4, gf5, seeded_rng):
        for spec in (gf4, gf5):
            for n in (3, 4):
                for _ in range(25):
                    m = random_matrix(seeded_rng, spec, n)
                    assert char_poly(m) == char_poly_laplace(m)

    def test_cayley_hamilton(self, gf4, seeded_rng):
        for _ in range(50):
            m = random_matrix(seeded_rng, gf4, 3)
            assert poly_at_matrix(char_poly(m), m).is_zero()


class TestDet:
    def test_frozen_values(self, gf3):
        assert det(Mat.identity(gf3, 3)) == 1
        assert det(Mat.zeros(gf3, 2)) == 0
        assert det(Mat.from_rows(gf3, [[0, 1], [1, 0]])) == 2
        assert det(Mat.from_rows(gf3, [[1, 2], [2, 1]])) == 0

    def test_matches_char_poly_constant_term(self, gf5, seeded_rng):
        # det(M) = (-1)^n * charpoly(0)
        for n in (2, 3, 4):
            sign = 1 if n % 2 == 0 else gf5._neg(1)
            for _ in range(25):
                m = random_matrix(seeded_rng, gf5, n)
                assert det(m) == gf5._mul(sign, char_poly(m).evaluate(0))

    def test_multiplicative(self, gf4, seeded_rng):
        for _ in range(25):
            a = random_matrix(seeded_rng, gf4, 3)
            b = random_matrix(seeded_rng, gf4, 3)
            assert det(a * b) == gf4._mul(det(a), det(b))

    @pytest.mark.parametrize("p,l", [(3, 1), (2, 2), (5, 1)])
    def test_permutation_matrices_have_their_sign(self, p, l):
        # pins the parity det reads off the order of the pivots
        spec = build_field(p, l)
        for perm in itertools.permutations(range(4)):
            m = Mat.from_rows(spec, [[int(j == perm[i]) for j in range(4)]
                                     for i in range(4)])
            cycles, seen = 0, set()
            for start in range(4):
                if start not in seen:
                    cycles += 1
                    i = start
                    while i not in seen:
                        seen.add(i)
                        i = perm[i]
            sign = 1 if (4 - cycles) % 2 == 0 else spec._neg(1)
            assert det(m) == sign, perm


class TestMinPoly:
    def test_scalar_matrix(self, gf5):
        assert min_poly(Mat.identity(gf5, 3).scale(2)).coeffs == (3, 1)

    def test_unreduced_power_raises_internal_error(self, gf3, monkeypatch):
        # a broken product makes I, M, M^2 independent, which Cayley-Hamilton
        # rules out; the check must raise, not be an assert that -O drops.
        # M itself is the first power, so only M^2 comes from a product
        M, broken = (Mat._raw(gf3, 2, tuple(int(i == j) for i in range(4)))
                     for j in (1, 2))
        monkeypatch.setattr(Mat, "__mul__", lambda self, other: broken)
        with pytest.raises(MinPolyNotFound):
            min_poly(M)

    def test_invariant_error_maps_to_exit_one(self):
        # the CLI maps InputError to 2, LimitError to 3, other errors to 1
        assert issubclass(MinPolyNotFound, WeakperError)
        assert not issubclass(MinPolyNotFound, (InputError, LimitError))

    def test_companion_is_nonderogatory(self, gf3):
        for g in (Poly(gf3, (1, 0, 1)), Poly(gf3, (2, 2, 0, 1))):
            assert min_poly(companion_of(g).matrix) == g

    def test_agrees_with_scan_oracle(self, gf2, gf3, seeded_rng):
        for spec in (gf2, gf3):
            for _ in range(30):
                m = random_matrix(seeded_rng, spec, 2)
                assert min_poly(m) == min_poly_scan(m)

    def test_divides_char_poly(self, gf4, seeded_rng):
        for _ in range(30):
            m = random_matrix(seeded_rng, gf4, 3)
            assert char_poly(m) % min_poly(m) == Poly(gf4, (0,))

    def test_annihilates(self, gf5, seeded_rng):
        for _ in range(30):
            m = random_matrix(seeded_rng, gf5, 3)
            assert poly_at_matrix(min_poly(m), m).is_zero()


class TestPotency:
    def test_universal_exponent_frozen(self, gf2, gf3, gf4):
        assert universal_potency_exponent(1, gf2) == 1
        assert universal_potency_exponent(2, gf2) == 3
        assert universal_potency_exponent(2, gf3) == 8
        assert universal_potency_exponent(3, gf4) == 315

    def test_universal_exponent_overflow(self, gf2):
        with pytest.raises(ExponentOverflow):
            universal_potency_exponent(70, gf2)

    def test_is_potent_frozen(self, gf3):
        assert is_potent(Mat.identity(gf3, 2))
        assert is_potent(Mat.zeros(gf3, 2))
        assert is_potent(Mat.from_rows(gf3, [[0, 1], [1, 0]]))
        assert not is_potent(companion_of(Poly(gf3, (0, 0, 1))).matrix)

    def test_potency_means_squarefree_min_poly(self, gf2, gf3):
        # the swap matrix satisfies M^3 = M in characteristic 2, but its
        # minimal polynomial (X+1)^2 is not squarefree; both oracles use
        # the squarefree reading, so it is rejected there and accepted
        # over GF(3) where the minimal polynomial splits cleanly
        swap2 = Mat.from_rows(gf2, [[0, 1], [1, 0]])
        assert swap2 ** 3 == swap2
        assert not is_potent(swap2)
        assert not is_potent_iterative(swap2)
        assert potency_exponent(swap2) is None
        swap3 = Mat.from_rows(gf3, [[0, 1], [1, 0]])
        assert is_potent(swap3)
        assert is_potent_iterative(swap3)

    def test_iterative_check_agrees_exhaustively(self, gf2):
        for code in range(16):
            e = [(code >> i) & 1 for i in range(4)]
            m = Mat(gf2, 2, tuple(e))
            assert is_potent(m) == is_potent_iterative(m)

    def test_iterative_check_agrees_sampled(self, gf4, gf5, seeded_rng):
        for spec in (gf4, gf5):
            for _ in range(40):
                m = random_matrix(seeded_rng, spec, 2)
                assert is_potent(m) == is_potent_iterative(m)

    def test_potency_exponent_frozen(self, gf3, gf5):
        assert potency_exponent(Mat.identity(gf3, 2)) == 2
        assert potency_exponent(Mat.zeros(gf3, 2)) == 2
        assert potency_exponent(Mat.from_rows(gf3, [[0, 1], [1, 0]])) == 3
        assert potency_exponent(companion_of(Poly(gf3, (0, 1, 1))).matrix) == 3
        assert potency_exponent(companion_of(Poly(gf5, (0, 3, 1))).matrix) == 5
        assert potency_exponent(companion_of(Poly(gf3, (0, 0, 1))).matrix) is None

    def test_potency_exponent_matches_factoring_oracle(
            self, gf2, gf3, gf4, gf5, gf7, gf8, gf9, seeded_rng):
        exponents = set()
        for spec in (gf2, gf3, gf4, gf5, gf7, gf8, gf9):
            for n in range(1, 7):
                for _ in range(8):
                    m = random_matrix(seeded_rng, spec, n)
                    expected = potency_exponent_by_factoring(m)
                    assert potency_exponent(m) == expected, m
                    exponents.add(expected)
        # the sample reaches potent and non-potent matrices alike
        assert None in exponents and len(exponents) > 20

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
    def test_potency_exponent_is_least_return(self, p, n):
        # every M^t = M here has t - 1 <= 8, the largest element order in
        # GL(3, 2) and GL(2, 3); M^t = M with p not dividing t - 1 makes
        # min_poly(M), a divisor of X^t - X, squarefree, and a potent M
        # returns with t - 1 prime to p
        spec = build_field(p, 1)
        for entries in itertools.product(range(p), repeat=n * n):
            m = Mat(spec, n, entries)
            power = m * m
            least = 2
            while power != m and least < 10:
                power = power * m
                least += 1
            expected = least if power == m and (least - 1) % p else None
            assert potency_exponent(m) == expected, m

    def test_potency_exponent_replays(self, gf3, gf4, seeded_rng):
        # whenever an exponent comes back, M**k == M and k >= 2
        for spec in (gf3, gf4):
            for _ in range(60):
                m = random_matrix(seeded_rng, spec, 2)
                k = potency_exponent(m)
                if k is None:
                    assert not is_potent(m)
                else:
                    assert k >= 2
                    assert m ** k == m

    def test_exponent_route_never_accepts_a_non_potent_matrix(self):
        # potent iff M^t = M for some t >= 2 with p not dividing t - 1;
        # every M^t = M here has t - 1 <= 8 (see the least-return test)
        for p, n in ((2, 2), (2, 3), (3, 2)):
            spec = build_field(p, 1)
            for entries in itertools.product(range(p), repeat=n * n):
                m = Mat(spec, n, entries)
                accepted = [t for t in range(-1, 12) if is_potent_at(m, t)]
                assert bool(accepted) == is_potent(m), m
                if accepted:
                    assert accepted[0] == potency_exponent(m), m

    def test_exponent_route_rejects_a_float_exponent(self, gf3):
        with pytest.raises(InputError):
            is_potent_at(Mat.identity(gf3, 2), 2.0)

    def test_square_zero(self, gf3):
        assert is_square_zero(Mat.zeros(gf3, 2))
        assert is_square_zero(Mat.from_rows(gf3, [[0, 0], [1, 0]]))
        assert not is_square_zero(Mat.identity(gf3, 2))
        assert not is_square_zero(Mat.from_rows(gf3, [[0, 1], [1, 0]]))


class TestRootOrder:
    def test_order_of_x_modulo_each_small_irreducible(self, gf2, gf3):
        # every irreducible g != X of degree <= 4: the order kernel, the
        # conftest oracle and the first power of X that is 1 mod g agree
        for spec in (gf2, gf3):
            x, one = Poly.x(spec), Poly.one(spec)
            for d in range(1, 5):
                for low in itertools.product(range(spec.order), repeat=d):
                    g = Poly(spec, low + (1,))
                    if g == x or not is_irreducible(g):
                        continue
                    order = multiplicative_order(
                        x, spec.order ** d - 1,
                        lambda f, k: pow_mod(f, k, g), one)
                    assert order == _irreducible_root_order(g)
                    assert order == mat._root_order(g, d)
                    walk, acc = 1, x % g
                    while acc != one:
                        walk, acc = walk + 1, acc * x % g
                    assert order == walk, g


class TestPotencyMemo:
    MEMOS = (mat._squarefree, min_poly_exponent)

    def test_memos_are_bounded(self):
        for memo in self.MEMOS:
            assert memo.cache_info().maxsize is not None

    def test_key_includes_the_field(self, gf3, gf5):
        # X^2 + 2 is (X - 1)(X + 1) over GF(3); over GF(5) it is
        # irreducible with roots of order 8
        assert min_poly_exponent(Poly(gf3, (2, 0, 1))) == 3
        assert min_poly_exponent(Poly(gf5, (2, 0, 1))) == 9

    def test_matrices_sharing_a_min_poly_share_the_entries(self, gf3):
        for memo in self.MEMOS:
            memo.cache_clear()
        a = Mat.from_rows(gf3, [[0, 1], [1, 0]])
        b = Mat.from_rows(gf3, [[1, 1], [0, 2]])
        assert min_poly(a) == min_poly(b)
        assert potency_exponent(a) == potency_exponent(b) == 3
        assert is_potent(a) and is_potent(b)
        squarefree, exponent = (memo.cache_info() for memo in self.MEMOS)
        assert (squarefree.misses, squarefree.hits) == (1, 2)
        assert (exponent.misses, exponent.hits) == (1, 1)

    def test_is_potent_computes_no_exponent(self, gf5, seeded_rng):
        # the exponent costs several times the squarefree test, and a
        # potency verdict never reads it
        min_poly_exponent.cache_clear()
        for _ in range(20):
            is_potent(random_matrix(seeded_rng, gf5, 3))
        assert min_poly_exponent.cache_info().misses == 0

    def test_exponent_past_2_63_is_exact(self, gf2):
        # irreducibles of degree 17, 19 and 31, whose roots have the prime
        # orders 2^17 - 1, 2^19 - 1 and 2^31 - 1: the lcm passes 2^63
        def sparse(*exps):
            return Poly(gf2, [int(i in exps) for i in range(max(exps) + 1)])

        parts = (sparse(17, 3, 0), sparse(19, 5, 2, 1, 0), sparse(31, 3, 0))
        assert all(is_irreducible(f) for f in parts)
        assert min_poly_exponent(parts[0] * parts[1]) == (
            (2 ** 17 - 1) * (2 ** 19 - 1) + 1)
        lcm = (2 ** 17 - 1) * (2 ** 19 - 1) * (2 ** 31 - 1)
        assert lcm > 2 ** 63
        assert min_poly_exponent(parts[0] * parts[1] * parts[2]) == lcm + 1


class TestLinearCombination:
    def test_unique_solution(self, gf3):
        assert linear_combination(((1, 0), (0, 1)), (2, 1), gf3) == (2, 1)

    def test_inconsistent(self, gf3):
        assert linear_combination(((1, 0),), (0, 1), gf3) is None

    def test_free_variables_forced_to_zero(self, gf3):
        # rank-deficient system; the deterministic answer drops vector 2
        assert linear_combination(((1, 0), (2, 0)), (2, 0), gf3) == (2, 0)

    def test_empty_basis(self, gf3):
        assert linear_combination((), (0, 0), gf3) == ()
        assert linear_combination((), (1, 0), gf3) is None

    def test_length_mismatch(self, gf3):
        with pytest.raises(DimensionMismatch):
            linear_combination(((1, 0), (1,)), (0, 0), gf3)

    def test_solution_replays(self, gf5, seeded_rng):
        for _ in range(40):
            vecs = tuple(tuple(seeded_rng.randrange(5) for _ in range(3))
                         for _ in range(seeded_rng.randrange(1, 4)))
            target = tuple(seeded_rng.randrange(5) for _ in range(3))
            sol = linear_combination(vecs, target, gf5)
            if sol is None:
                continue
            acc = [0, 0, 0]
            for c, v in zip(sol, vecs):
                for i in range(3):
                    acc[i] = gf5._add(acc[i], gf5._mul(c, v[i]))
            assert tuple(acc) == target

    def test_none_exactly_when_no_coefficients_reach_the_target(
            self, gf3, seeded_rng):
        # every target of length m, against every k-tuple of vectors when
        # there are at most 3^6 of them and 150 seeded ones otherwise
        def combine(coeffs, vecs, m):
            acc = [0] * m
            for c, v in zip(coeffs, vecs):
                for i in range(m):
                    acc[i] = gf3._add(acc[i], gf3._mul(c, v[i]))
            return tuple(acc)

        for m in range(4):
            space = list(itertools.product(range(3), repeat=m))
            for k in range(4):
                if 3 ** (m * k) <= 3 ** 6:
                    systems = itertools.product(space, repeat=k)
                else:
                    systems = (tuple(seeded_rng.choice(space)
                                     for _ in range(k)) for _ in range(150))
                for vecs in systems:
                    reach = {combine(c, vecs, m)
                             for c in itertools.product(range(3), repeat=k)}
                    for target in space:
                        sol = linear_combination(vecs, target, gf3)
                        if sol is None:
                            assert target not in reach, (vecs, target)
                        else:
                            assert combine(sol, vecs, m) == target


GF9 = build_field(3, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=4, max_size=4),
       st.lists(st.integers(min_value=0, max_value=8), min_size=4, max_size=4))
def test_det_is_multiplicative_gf9(ea, eb):
    a = Mat(GF9, 2, tuple(ea))
    b = Mat(GF9, 2, tuple(eb))
    assert det(a * b) == GF9._mul(det(a), det(b))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=9, max_size=9))
def test_char_poly_matches_oracle_gf9(entries):
    m = Mat(GF9, 3, tuple(entries))
    assert char_poly(m) == char_poly_laplace(m)
