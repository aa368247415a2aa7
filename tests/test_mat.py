"""Dense matrix arithmetic, invariants, and potency predicates."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from weakper.errors import InputError, LimitError, WeakperError
from weakper import mat
from weakper.gf import FieldSpec, build_field, embed, multiplicative_order
from weakper.mat import (
    Mat,
    char_poly,
    cycle_permutation_matrix,
    det,
    is_potent,
    is_potent_at,
    is_potent_iterative,
    is_square_zero,
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
    linear_combination,
    min_poly_by_mats,
    min_poly_scan,
    poly_at_matrix,
    potency_exponent_by_factoring,
    product_by_elements,
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
        assert Mat.identity(gf5, 2) == Mat.from_rows(gf5, [[1, 0], [0, 1]])

    def test_ragged_rows_rejected(self, gf3):
        with pytest.raises(InputError,
                           match="rows do not form a square matrix"):
            Mat.from_rows(gf3, [[0, 1], [2]])

    def test_entry_count_checked(self, gf3):
        with pytest.raises(InputError,
                           match="expected 4 entries for a 2x2 matrix, got 3"):
            Mat(gf3, 2, (0, 1, 2))

    def test_entries_must_lie_in_field(self, gf3):
        with pytest.raises(InputError,
                           match=r"5 is not an element encoding of GF\(3"):
            Mat(gf3, 2, (0, 1, 2, 5))

    def test_dimension_must_be_positive(self, gf3):
        with pytest.raises(InputError,
                           match="matrix dimension must be >= 1, got 0"):
            Mat.zeros(gf3, 0)
        with pytest.raises(InputError,
                           match="matrix dimension must be >= 1, got -1"):
            Mat.identity(gf3, -1)

    def test_entry_index_range(self, gf3):
        with pytest.raises(InputError,
                           match=r"index \(0, 2\) out of range for n=2"):
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
        assert s * s == Mat.identity(gf3, 2)
        a = Mat.from_rows(gf3, [[1, 2], [0, 1]])
        assert (a * s).rows() == ((2, 1), (1, 0))

    def test_mixed_fields_rejected(self, gf2, gf3):
        with pytest.raises(InputError,
                           match="matrices live over different fields"):
            Mat.identity(gf2, 2) + Mat.identity(gf3, 2)

    def test_mixed_sizes_rejected(self, gf3):
        with pytest.raises(InputError, match="dimension mismatch: 2 vs 3"):
            Mat.identity(gf3, 2) * Mat.identity(gf3, 3)

    def test_pow(self, gf3):
        s = Mat.from_rows(gf3, [[0, 1], [1, 0]])
        assert s ** 0 == Mat.identity(gf3, 2)
        assert s ** 1 == s
        assert s ** 2 == Mat.identity(gf3, 2)
        assert s ** 5 == s

    def test_negative_exponent_rejected(self, gf3):
        with pytest.raises(InputError):
            Mat.identity(gf3, 2) ** -1

    def test_trace(self, gf5):
        a = Mat.from_rows(gf5, [[1, 2], [3, 4]])
        assert a.trace() == 0

    def test_pow_matches_repeated_products(self, gf4, seeded_rng):
        for n in (1, 2, 3):
            m = random_matrix(seeded_rng, gf4, n)
            power = Mat.identity(gf4, n)
            for k in range(40):
                assert m ** k == power, (m, k)
                power = power * m


class TestPrimeFieldProduct:
    """Over GF(p), Mat arithmetic and _reduce run on plain integers and
    reduce each entry once: the product is straight-line code for
    n <= 4 and a zero-skipping loop above."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31, 2 ** 31 - 1])
    def test_matches_the_element_loop(self, p, seeded_rng):
        spec = build_field(p, 1, bound=p)
        assert mat._STRAIGHT_LINE_N == 4
        for n in range(1, 7):  # both sides of the straight-line cut
            cases = [Mat.zeros(spec, n), Mat.identity(spec, n)]
            cases += [random_matrix(seeded_rng, spec, n) for _ in range(3)]
            for _ in range(2):
                low = [seeded_rng.randrange(p) for _ in range(n)]
                cases.append(companion_of(Poly(spec, low + [1])).matrix)
                # a last-column factor, square-zero as its last entry is 0
                column = [seeded_rng.randrange(p) for _ in range(n - 1)]
                square_zero = Mat.from_rows(spec, [
                    [0] * (n - 1) + [c] for c in column + [0]])
                assert is_square_zero(square_zero)
                cases.append(square_zero)
            for a in cases:
                for b in cases:
                    assert a * b == product_by_elements(a, b), (a, b)
                    assert a + b == Mat(spec, n, map(
                        spec._add, a.entries, b.entries)), (a, b)
                    assert a - b == Mat(spec, n, map(
                        spec._sub, a.entries, b.entries)), (a, b)

    def test_makes_no_element_product(self, gf5, seeded_rng, monkeypatch):
        calls = []
        for name in ("_add", "_sub", "_neg", "_mul"):
            def counted(spec, *args, name=name, op=getattr(FieldSpec, name)):
                calls.append(name)
                return op(spec, *args)

            monkeypatch.setattr(FieldSpec, name, counted)
        for n in range(1, 7):
            a = random_matrix(seeded_rng, gf5, n)
            b = random_matrix(seeded_rng, gf5, n)
            a * b, a + b, a - b
            min_poly(a), det(a), char_poly(a), mat._poly_at((1, 2, 3), a)
            linear_combination([a.entries, b.entries], (a + b).entries, gf5)
        assert calls == []
        # a field past the table bound still multiplies element by element
        gf256 = build_field(2, 8)
        random_matrix(seeded_rng, gf256, 3) * Mat.identity(gf256, 3)
        assert "_mul" in calls

    def test_one_compiled_product_per_n(self, gf2, gf4, gf5, gf8, gf9,
                                        seeded_rng):
        # the generated source depends on (n, spec._ops().kind) alone:
        # every prime shares one, every field of characteristic 2 within
        # the table bound another, every odd one a third and every field
        # past the bound a fourth, and n > 4 compiles none
        mat._straight_product.cache_clear()
        for spec in (gf2, gf4, gf5, gf8, gf9, build_field(13, 1),
                     build_field(5, 3), build_field(2, 8)):
            for n in range(1, 7):
                random_matrix(seeded_rng, spec, n) * Mat.identity(spec, n)
        info = mat._straight_product.cache_info()
        assert (info.misses, info.hits, info.currsize) == (16, 16, 16)


class TestFieldIdentity:
    """Field specs are canonical objects, so arithmetic and embedding over
    one spec settle compatibility by identity, without FieldSpec.__eq__."""

    def test_one_spec_makes_no_field_comparison(self, gf4, gf5, seeded_rng,
                                                monkeypatch):
        calls = []

        def counted(spec, other, eq=FieldSpec.__eq__):
            calls.append(other)
            return eq(spec, other)

        monkeypatch.setattr(FieldSpec, "__eq__", counted)
        for spec in (gf4, gf5):
            for n in (2, 5):
                a = random_matrix(seeded_rng, spec, n)
                b = random_matrix(seeded_rng, spec, n)
                a * b, a + b, a - b
                assert a == Mat(spec, n, a.entries)
            f = Poly(spec, (1, 2, 0, 1))
            g = Poly(spec, (3, 1))
            f * g, f + g, f - g, divmod(f, g)
            assert f == Poly(spec, f.coeffs)
            assert embed(1, spec, spec) == 1
        assert calls == []
        # an equal spec that is another object is still compared
        twin = FieldSpec(gf5.p, gf5.l, gf5.modulus)
        assert Mat.identity(twin, 2) == Mat.identity(gf5, 2)
        assert calls == [gf5]
        assert (Poly.x(twin) * Poly.x(gf5)).coeffs == (0, 0, 1)
        assert calls == [gf5, gf5]


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

    def test_pow_builds_one_mat(self, gf3, gf7, monkeypatch):
        # the squares and products run on entry tuples; only the result
        # is wrapped
        built = []
        raw = Mat._raw
        monkeypatch.setattr(Mat, "_raw", staticmethod(
            lambda spec, n, entries: built.append(n) or raw(spec, n, entries)))
        for spec, n in ((gf3, 2), (gf7, 5)):
            m = Mat(spec, n, [(i * i + 1) % spec.order for i in range(n * n)])
            for k in (1, 2, 7, 100):
                del built[:]
                power = m ** k
                assert built == [n]
                assert power == functools.reduce(
                    lambda a, _: a * m, range(k - 1), m)

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
        assert c ** 3 == Mat.identity(gf2, 3)
        assert c ** 2 != Mat.identity(gf2, 3)

    def test_short_cycle_rejected(self, gf2):
        with pytest.raises(InputError,
                           match="cycle length must be >= 2, got 1"):
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

    def test_agrees_with_cofactor_expansion_sampled(self, gf4, gf5, gf9,
                                                    seeded_rng):
        # one field per backend kind: integers, xor and add tables, and
        # the element loops past the table bound in both characteristics
        for spec in (gf5, gf4, gf9, build_field(2, 8), build_field(3, 5)):
            for n in (3, 4):
                for _ in range(25):
                    m = random_matrix(seeded_rng, spec, n)
                    assert char_poly(m) == char_poly_laplace(m)

    def test_cayley_hamilton(self, gf4, seeded_rng):
        for _ in range(50):
            m = random_matrix(seeded_rng, gf4, 3)
            assert poly_at_matrix(char_poly(m), m).is_zero()


class TestPolyAt:
    @pytest.mark.parametrize("p,l", [(5, 1), (2, 2), (3, 2), (2, 8)])
    def test_matches_horner_on_mats(self, p, l, seeded_rng):
        # n = 1..6 crosses the straight-line cut; zero and trailing-zero
        # coefficient tuples included
        spec = build_field(p, l)
        for n in range(1, 7):
            m = random_matrix(seeded_rng, spec, n)
            for k in range(5):
                coeffs = tuple(seeded_rng.randrange(spec.order)
                               for _ in range(k)) + (0,) * (k % 2)
                assert mat._poly_at(coeffs, m) == poly_at_matrix(
                    Poly(spec, coeffs), m)

    def test_one_product_per_degree(self, gf5, seeded_rng,
                                    mat_product_budget):
        # trailing zeros cost nothing, and neither does the top coefficient
        m = random_matrix(seeded_rng, gf5, 3)
        used = mat_product_budget(10)
        assert mat._poly_at((0, 0), m).is_zero()
        assert mat._poly_at((4,), m) == Mat.identity(gf5, 3).scale(4)
        assert used[0] == 0
        mat._poly_at((1, 2, 3, 0, 0), m)
        assert used[0] == 2


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
                assert det(m) == gf5._mul(sign, char_poly(m).coeffs[0])

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

    @staticmethod
    def unreducible_power(spec, monkeypatch):
        # a broken product makes I, M, M^2 independent, which Cayley-Hamilton
        # rules out.  M itself is the first power, so only M^2 comes from a
        # product
        M, broken = (Mat._raw(spec, 2, tuple(int(i == j) for i in range(4)))
                     for j in (1, 2))
        monkeypatch.setattr(mat, "_product",
                            lambda n, ops: lambda a, b, t: broken.entries)
        return M

    def test_unreduced_power_raises_internal_error(self, gf3, monkeypatch):
        # the check must raise, not be an assert that -O drops
        M = self.unreducible_power(gf3, monkeypatch)
        with pytest.raises(WeakperError, match=r"power M\^n failed to reduce"):
            min_poly(M)

    def test_invariant_error_maps_to_exit_one(self, gf3, monkeypatch):
        # the CLI maps InputError to 2, LimitError to 3, other errors to 1:
        # the invariant violation is a plain WeakperError, neither kind
        M = self.unreducible_power(gf3, monkeypatch)
        with pytest.raises(WeakperError) as excinfo:
            min_poly(M)
        assert type(excinfo.value) is WeakperError

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
        with pytest.raises(
                LimitError,
                match=r"exponent for n=70, q=2 exceeds the cap 2\^63"):
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
        for memo in self.MEMOS + (mat._straight_product,):
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
        with pytest.raises(InputError,
                           match="vectors must all match the target length"):
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


class TestPotencyKernelsOnTuples:
    """min_poly on entry tuples and min_poly_exponent on coefficient
    tuples against the Mat- and factor-level oracles."""

    FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 8), (3, 5)]

    @pytest.mark.parametrize("p, l", FIELDS)
    def test_min_poly_matches_the_mat_power_oracle(self, p, l, seeded_rng):
        spec = build_field(p, l)
        scalar = spec.order - 1
        for n in range(1, 7):
            nilpotent = Mat(spec, n, [int(j == i + 1) for i in range(n)
                                      for j in range(n)])
            cases = [Mat.identity(spec, n), Mat.zeros(spec, n),
                     Mat.identity(spec, n).scale(scalar), nilpotent,
                     nilpotent + Mat.identity(spec, n)]
            cases += [random_matrix(seeded_rng, spec, n) for _ in range(4)]
            for m in cases:
                want = min_poly_by_mats(m)
                got = min_poly(m)
                assert got == want, m
                assert Poly(spec, got.coeffs).coeffs == got.coeffs

    def test_min_poly_builds_no_mat(self, gf3, gf4, gf7, seeded_rng,
                                    monkeypatch):
        # counted as test_pow_builds_one_mat counts: the powers stay entry
        # tuples from the identity on
        cases = [random_matrix(seeded_rng, spec, n)
                 for spec in (gf3, gf4, gf7, build_field(2, 8))
                 for n in range(1, 7)]
        built = []
        raw = Mat._raw
        monkeypatch.setattr(Mat, "_raw", staticmethod(
            lambda spec, n, entries: built.append(n) or raw(spec, n, entries)))
        for m in cases:
            min_poly(m)
        assert built == []

    @pytest.mark.parametrize("p, l, top", [(2, 1, 4), (3, 1, 4), (2, 2, 3),
                                           (5, 1, 3), (3, 2, 3)])
    def test_min_poly_exponent_matches_factoring(self, p, l, top):
        spec = build_field(p, l)
        mat._squarefree.cache_clear()
        min_poly_exponent.cache_clear()
        for d in range(1, top + 1):
            for low in itertools.product(range(spec.order), repeat=d):
                g = Poly(spec, low + (1,))
                assert min_poly_exponent(g) == potency_exponent_by_factoring(
                    companion_of(g).matrix), g
                # the same polynomial up to a unit has the same exponent
                assert min_poly_exponent(g.scale(spec.order - 1)) == (
                    min_poly_exponent(g))

    def test_cold_exponent_divides_no_poly(self, gf4, monkeypatch):
        # X (X + 1) (X + 2) strips X first; (X + 1)(X^2 + X + 2) has a
        # degree-2 part: both run on coefficient tuples
        divisions = [0]
        divmod_ = Poly.__divmod__

        def counted(a, b):
            divisions[0] += 1
            return divmod_(a, b)

        cases = (Poly(gf4, (0, 2, 3, 1)), Poly(gf4, (2, 3, 0, 1)))
        want = [potency_exponent_by_factoring(companion_of(g).matrix)
                for g in cases]
        mat._squarefree.cache_clear()
        min_poly_exponent.cache_clear()
        monkeypatch.setattr(Poly, "__divmod__", counted)
        assert [min_poly_exponent(g) for g in cases] == want
        assert divisions == [0]
