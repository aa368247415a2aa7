"""Polynomial arithmetic, factoring, distinct-degree parts, and root
resolution in extensions."""

import itertools

import pytest
from hypothesis import given, strategies as st

from weakper.errors import DivisionByZero, InputError, LimitError
from weakper import poly
from weakper.gf import FieldSpec, build_field, embed, horner
from weakper.mat import char_poly, cycle_permutation_matrix
from weakper.poly import (
    Poly,
    distinct_degree_parts,
    factor,
    gcd,
    is_irreducible,
    is_squarefree,
    parse_poly,
    pow_mod,
    roots_in_extensions,
)

from conftest import (
    distinct_degree_parts_by_polys,
    gcd_by_polys,
    is_squarefree_by_polys,
    pow_mod_by_polys,
)

GF2 = build_field(2, 1)
GF3 = build_field(3, 1)
GF5 = build_field(5, 1)


def small_poly(spec, max_degree=4):
    return st.lists(
        st.integers(0, spec.order - 1), min_size=0, max_size=max_degree + 1
    ).map(lambda cs: Poly(spec, tuple(cs)))


def test_canonical_coefficients(gf3):
    assert Poly(gf3, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(gf3, ()).is_zero()
    assert Poly(gf3, (0,)).degree == -1
    assert Poly(gf3, (2,)).degree == 0
    with pytest.raises(InputError):
        Poly(gf3, (3,))


def test_str_rendering(gf3):
    assert str(Poly(gf3, (1, 1, 2))) == "2*X^2 + X + 1"
    assert str(Poly.zero(gf3)) == "0"
    assert str(Poly.x(gf3)) == "X"
    assert str(Poly.constant(gf3, 2)) == "2"


def test_parse_poly(gf5):
    f = parse_poly(gf5, "1,3,1")
    assert f.coeffs == (1, 3, 1)
    assert parse_poly(gf5, "1,0").coeffs == (1,)
    with pytest.raises(InputError):
        parse_poly(gf5, "1,,2")
    with pytest.raises(InputError):
        parse_poly(gf5, "7,1")
    with pytest.raises(InputError):
        parse_poly(gf5, "")


def test_divmod_frozen(gf3):
    f = Poly(gf3, (1, 2, 0, 1))  # X^3 + 2X + 1
    g = Poly(gf3, (1, 0, 1))  # X^2 + 1
    q, r = divmod(f, g)
    assert q == Poly.x(gf3)
    assert r == Poly(gf3, (1, 1))
    with pytest.raises(DivisionByZero):
        divmod(f, Poly.zero(gf3))


@given(small_poly(GF5), small_poly(GF5))
def test_division_identity(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_evaluate(gf3):
    f = Poly(gf3, (1, 2, 1))  # (X+1)^2
    assert [horner(gf3, f.coeffs, x) for x in gf3.elements()] == [1, 1, 0]


def test_derivative(gf3):
    assert Poly(gf3, (1, 1, 0, 1)).derivative() == Poly.constant(gf3, 1)
    assert Poly(gf3, (0, 0, 0, 1)).derivative().is_zero()  # 3X^2 = 0


def test_gcd_frozen(gf5):
    f = Poly(gf5, (4, 0, 1))  # X^2 - 1
    g = Poly(gf5, (1, 3, 1))  # X^2 - 2X + 1 = (X-1)^2
    assert gcd(f, g) == Poly(gf5, (4, 1))  # X - 1
    assert gcd(f, Poly.zero(gf5)) == f.monic()
    with pytest.raises(InputError, match=r"gcd\(0, 0\) is undefined"):
        gcd(Poly.zero(gf5), Poly.zero(gf5))


@given(small_poly(GF3), small_poly(GF3))
def test_gcd_divides_both(f, g):
    if f.is_zero() and g.is_zero():
        return
    d = gcd(f, g)
    assert d.is_monic
    if not f.is_zero():
        assert (f % d).is_zero()
    if not g.is_zero():
        assert (g % d).is_zero()


def test_pow_mod(gf3):
    m = Poly(gf3, (1, 0, 1))  # X^2 + 1
    assert pow_mod(Poly.x(gf3), 8, m) == Poly.constant(gf3, 1)
    for e in range(10):
        direct = Poly.constant(gf3, 1)
        for _ in range(e):
            direct = direct * Poly.x(gf3)
        assert pow_mod(Poly.x(gf3), e, m) == direct % m
    with pytest.raises(InputError, match="modulus must have degree >= 1"):
        pow_mod(Poly.x(gf3), 2, Poly.constant(gf3, 1))


def test_pow_mod_at_exponent_zero(gf2, gf3, gf4):
    for spec in (gf2, gf3, gf4):
        for f in (Poly.zero(spec), Poly.one(spec), Poly.x(spec),
                  Poly(spec, (1, 1, 0, 1))):
            for m in (Poly(spec, (1, 1)), Poly(spec, (0, 0, 1)),
                      Poly(spec, (1, 1, 0, 1))):
                assert pow_mod(f, 0, m) == Poly.one(spec) % m


def test_monic_division_inverts_nothing(gf7, monkeypatch):
    # calls[0] counts the inverses of elements other than 1
    calls = [0]
    inv = FieldSpec._inv

    def counted(spec, x):
        calls[0] += x != 1
        return inv(spec, x)

    monkeypatch.setattr(FieldSpec, "_inv", counted)
    f = Poly(gf7, (3, 1, 4, 1, 5, 6))
    q, r = divmod(f, Poly(gf7, (2, 6, 1)))
    assert q * Poly(gf7, (2, 6, 1)) + r == f
    assert calls == [0]
    divmod(f, Poly(gf7, (2, 6, 3)))
    assert calls == [1]


def test_pow_mod_product_budget(gf3, monkeypatch):
    # polynomial products counted exactly at the coefficient product core,
    # as mat_product_budget counts matrix products: no product with 1, no
    # squaring past the top bit
    used = [0]
    product = poly._mul

    def counted(a, b, ops):
        used[0] += 1
        return product(a, b, ops)

    monkeypatch.setattr(poly, "_mul", counted)
    x = Poly.x(gf3)
    m = Poly(gf3, (1, 2, 0, 0, 0, 1))  # X^5 + 2X + 1
    for e in (0, 1):
        pow_mod(x, e, m)
    assert used == [0]
    for k in range(1, 8):
        before = used[0]
        pow_mod(x, 2 ** k, m)
        assert used[0] - before == k
    before = used[0]
    pow_mod(x, 7, m)
    assert used[0] - before == 4  # squares X^2, X^4 and two products


def random_poly(rng, spec, degree):
    return Poly(spec, [rng.randrange(spec.order) for _ in range(degree)]
                + [rng.randrange(1, spec.order)])


@pytest.mark.parametrize("p", [2, 3, 5, 13, 2 ** 31 - 1])
def test_prime_field_arithmetic_matches_the_element_loop(p, seeded_rng):
    # +, - and * coefficient by coefficient through the FieldSpec element
    # calls; division with remainder is unique, so q*g + r == f with
    # deg r < deg g pins divmod
    spec = build_field(p, 1, bound=p)
    for _ in range(30):
        f = random_poly(seeded_rng, spec, seeded_rng.randrange(9))
        g = random_poly(seeded_rng, spec, seeded_rng.randrange(5))
        a, b = f.coeffs, g.coeffs
        size = max(len(a), len(b))
        a, b = a + (0,) * (size - len(a)), b + (0,) * (size - len(b))
        assert f + g == Poly(spec, map(spec._add, a, b))
        assert f - g == Poly(spec, map(spec._sub, a, b))
        assert -f == Poly(spec, map(spec._neg, f.coeffs))
        product = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
        for (i, x), (j, y) in itertools.product(enumerate(f.coeffs),
                                                enumerate(g.coeffs)):
            product[i + j] = spec._add(product[i + j], spec._mul(x, y))
        assert f * g == Poly(spec, product)
        c = seeded_rng.randrange(1, p)
        assert f.scale(c) == Poly(spec, [spec._mul(x, c) for x in f.coeffs])
        assert f.derivative() == Poly(spec, [
            spec._mul(x, i % p) for i, x in enumerate(f.coeffs) if i])
        q, r = divmod(f, g)
        assert q * g + r == f and r.degree < g.degree
        assert spec._inv(c) * c % p == 1


def test_prime_field_makes_no_element_call(gf5, seeded_rng, monkeypatch):
    calls = []
    for name in ("_add", "_sub", "_neg", "_mul"):
        def counted(spec, *args, name=name, op=getattr(FieldSpec, name)):
            calls.append(name)
            return op(spec, *args)

        monkeypatch.setattr(FieldSpec, name, counted)
    for _ in range(40):
        f = random_poly(seeded_rng, gf5, seeded_rng.randrange(1, 9))
        g = random_poly(seeded_rng, gf5, seeded_rng.randrange(1, 6))
        divmod(f, g), gcd(f, g), is_squarefree(f)
        pow_mod(f, seeded_rng.randrange(1, 200), g)
    assert calls == []
    # a field past the table bound keeps its element loops
    gf256 = build_field(2, 8)
    divmod(Poly(gf256, (1, 2, 3, 1)), Poly(gf256, (2, 3)))
    assert "_mul" in calls


def test_is_squarefree(gf2, gf3):
    assert is_squarefree(Poly(gf3, (1, 0, 1)))  # irreducible
    assert not is_squarefree(Poly(gf3, (1, 2, 1)))  # (X+1)^2
    assert not is_squarefree(Poly(gf3, (0, 0, 1)))  # X^2
    assert not is_squarefree(Poly(gf2, (1, 0, 1)))  # (X+1)^2, zero derivative
    assert not is_squarefree(Poly(gf3, (1, 0, 0, 1)))  # (X+1)^3
    assert is_squarefree(Poly(gf3, (2,)))
    assert is_squarefree(Poly(gf3, (0, 1, 1)))  # X(X+1)
    with pytest.raises(InputError, match="squarefreeness of 0 is undefined"):
        is_squarefree(Poly.zero(gf3))


def test_factor_frozen(gf2, gf3, gf5):
    f = Poly(gf5, (4, 0, 0, 0, 1))  # X^4 - 1
    assert factor(f) == (
        (Poly(gf5, (1, 1)), 1),
        (Poly(gf5, (2, 1)), 1),
        (Poly(gf5, (3, 1)), 1),
        (Poly(gf5, (4, 1)), 1),
    )
    assert factor(Poly(gf3, (0, 0, 0, 0, 0, 0, 1))) == ((Poly.x(gf3), 6),)
    assert factor(Poly(gf2, (1, 0, 1, 0, 1))) == ((Poly(gf2, (1, 1, 1)), 2),)
    assert factor(Poly(gf3, (0, 1, 2, 1))) == (
        (Poly.x(gf3), 1),
        (Poly(gf3, (1, 1)), 2),
    )
    with pytest.raises(InputError, match="cannot factor the zero polynomial"):
        factor(Poly.zero(gf3))
    with pytest.raises(LimitError,
                       match="degree 13 exceeds the factoring cap 12"):
        factor(Poly(gf2, (1,) + (0,) * 12 + (1,)))  # degree 13


@given(small_poly(GF2, 6), small_poly(GF2, 6))
def test_factor_multiplies_back(f, g):
    prod = f * g
    if prod.is_zero() or prod.degree < 1:
        return
    rebuilt = Poly.constant(GF2, prod.lead)
    for base, mult in factor(prod):
        assert base.is_monic and mult >= 1
        for _ in range(mult):
            rebuilt = rebuilt * base
    assert rebuilt == prod


def test_is_irreducible_edges(gf2, gf4, gf5):
    # X^2 + X + 1 is irreducible over GF(2) but splits over GF(4)
    assert is_irreducible(Poly(gf2, (1, 1, 1)))
    assert not is_irreducible(Poly(gf4, (1, 1, 1)))
    assert is_irreducible(Poly(gf4, (2, 1, 1)))
    # X^2 + 1 = (X + 2)(X + 3) over GF(5) is all one part, of degree 1;
    # the part of a non-monic irreducible is its monic multiple
    assert list(distinct_degree_parts(Poly(gf5, (1, 0, 1)))) == [
        (1, Poly(gf5, (1, 0, 1)))]
    assert not is_irreducible(Poly(gf5, (1, 0, 1)))
    assert is_irreducible(Poly(gf5, (2, 2, 2)))
    assert not is_irreducible(Poly(gf2, (1,)))
    with pytest.raises(InputError, match="irreducibility of 0 is undefined"):
        is_irreducible(Poly.zero(gf2))


def test_roots_in_extensions_frozen(gf2, gf3, gf9):
    gf4 = build_field(2, 2)
    res = roots_in_extensions(Poly(gf3, (1, 0, 1)), 2)
    assert res == ((3, gf9), (6, gf9))
    res = roots_in_extensions(Poly(gf2, (1, 0, 0, 1)), 2)  # X^3 + 1
    assert res == ((1, gf2), (2, gf4), (3, gf4))
    res = roots_in_extensions(Poly(gf2, (1, 1, 1)), 1)
    assert res == ()


def test_roots_count_with_multiplicity(gf3):
    # (X+1)^2 * X has roots {2, 0} after multiplicity stripping
    f = Poly(gf3, (0, 1, 2, 1))
    res = roots_in_extensions(f, 1)
    assert res == ((0, gf3), (2, gf3))


def test_roots_stop_after_max_degree(gf2, monkeypatch):
    # X^17 - 1 = (X + 1) times two irreducible octics over GF(2): the roots
    # up to GF(4) take the Frobenius steps to X^2 and X^4 and no more
    steps = []
    frobenius = poly.pow_mod

    def counted(base, e, mod):
        steps.append(e)
        return frobenius(base, e, mod)

    monkeypatch.setattr(poly, "pow_mod", counted)
    chi = char_poly(cycle_permutation_matrix(gf2, 17))
    assert chi.degree == 17
    assert roots_in_extensions(chi, 2) == ((1, gf2),)
    assert len(steps) <= 2


@given(small_poly(GF3, 4))
def test_roots_replay(f):
    if f.is_zero() or f.degree < 1:
        return
    res = roots_in_extensions(f, 2)
    for root, home in res:
        coeffs = [embed(c, GF3, home) for c in f.coeffs]
        acc = 0
        for c in reversed(coeffs):
            acc = home.add(home.mul(acc, root), c)
        assert acc == 0


def test_monic_and_scale(gf5):
    f = Poly(gf5, (2, 4))
    assert f.monic() == Poly(gf5, (3, 1))
    assert f.scale(4) == Poly(gf5, (3, 1))
    with pytest.raises(InputError,
                       match="cannot normalize the zero polynomial"):
        Poly.zero(gf5).monic()


# (field, top degree of "every monic"): the table and integer backends, and
# two fields past the table bound, on the element backend, sampled instead
CORE_FIELDS = [((2, 1), 4), ((3, 1), 4), ((2, 2), 3), ((5, 1), 3),
               ((7, 1), 3), ((3, 2), 3)]
ELEMENT_FIELDS = [(2, 8), (3, 5)]


def field_id(value):
    return f"{value[0]}^{value[1]}" if isinstance(value, tuple) else None


def monics(spec, top):
    for d in range(top + 1):
        for low in itertools.product(range(spec.order), repeat=d):
            yield Poly(spec, low + (1,))


def exponents(spec, f):
    q = spec.order
    return (0, 1, q, q ** f.degree - 1, 10 ** 20 + 7)


class TestCoresAgreeWithPolyOracles:
    """The coefficient-tuple cores and the Poly functions that wrap them
    against the Poly-level bodies they replaced (conftest)."""

    def check_pow_mod(self, base, e, mod):
        want = pow_mod_by_polys(base, e, mod)
        assert pow_mod(base, e, mod) == want, (base, e, mod)
        spec = mod.spec
        assert poly._pow_mod(base.coeffs, e, mod.monic().coeffs,
                             spec._ops()) == want.coeffs

    def check_gcd(self, f, g):
        want = gcd_by_polys(f, g)
        assert gcd(f, g) == want, (f, g)
        assert poly._gcd(f.coeffs, g.coeffs, f.spec) == want.coeffs
        assert want.is_monic()

    def check_unary(self, f):
        spec = f.spec
        assert is_squarefree(f) == is_squarefree_by_polys(f), f
        parts = distinct_degree_parts_by_polys(f)
        assert list(distinct_degree_parts(f)) == parts, f
        assert list(poly._distinct_degree_parts(f.monic().coeffs, spec)) == [
            (d, h.coeffs) for d, h in parts]
        x = Poly.x(spec)
        for g in (f.derivative(), x, x + Poly.one(spec), Poly.zero(spec)):
            if not (f.is_zero() and g.is_zero()):
                self.check_gcd(f, g)
                self.check_gcd(g, f)

    def check_division(self, f, m):
        q, r = divmod(f, m)
        assert q * m + r == f and r.degree < m.degree
        if m.is_monic():
            assert poly._divmod_monic(f.coeffs, m.coeffs, m.spec._ops()) == (
                q.coeffs, r.coeffs)

    @pytest.mark.parametrize("field, top", CORE_FIELDS, ids=field_id)
    def test_every_small_monic(self, field, top, seeded_rng):
        spec = build_field(*field)
        x = Poly.x(spec)
        for f in monics(spec, top):
            self.check_unary(f)
            if f.degree >= 1:
                for e in exponents(spec, f):
                    self.check_pow_mod(x, e, f)
                self.check_pow_mod(random_poly(seeded_rng, spec, 2 * f.degree),
                                   spec.order + 1, f)
                self.check_division(random_poly(seeded_rng, spec, 5), f)

    @pytest.mark.parametrize("field", [f for f, _ in CORE_FIELDS]
                             + ELEMENT_FIELDS, ids=field_id)
    def test_random_pairs_with_any_lead(self, field, seeded_rng):
        spec = build_field(*field)
        if field in ELEMENT_FIELDS:
            assert spec._ops().kind == "element"
        for _ in range(25):
            f = random_poly(seeded_rng, spec, seeded_rng.randrange(7))
            m = random_poly(seeded_rng, spec, seeded_rng.randrange(1, 4))
            self.check_unary(f)
            self.check_unary(m)
            self.check_gcd(f, m)
            self.check_gcd(f * m, m * m)
            self.check_division(f, m)
            for e in exponents(spec, m):
                self.check_pow_mod(f, e, m)

    @pytest.mark.parametrize("field", ELEMENT_FIELDS, ids=field_id)
    def test_sampled_monics_on_the_element_backend(self, field, seeded_rng):
        spec = build_field(*field)
        x = Poly.x(spec)
        for _ in range(15):
            f = Poly(spec, [seeded_rng.randrange(spec.order)
                            for _ in range(seeded_rng.randrange(4))] + [1])
            self.check_unary(f)
            if f.degree >= 1:
                for e in exponents(spec, f):
                    self.check_pow_mod(x, e, f)

    @pytest.mark.parametrize("field", [f for f, _ in CORE_FIELDS]
                             + ELEMENT_FIELDS, ids=field_id)
    def test_zero_and_constants(self, field):
        spec = build_field(*field)
        zero, one, x = Poly.zero(spec), Poly.one(spec), Poly.x(spec)
        c = Poly.constant(spec, spec.order - 1)
        m = Poly(spec, (1, 1, 1)).scale(spec.order - 1)
        for fn in (gcd, gcd_by_polys):
            with pytest.raises(InputError, match=r"gcd\(0, 0\) is undefined"):
                fn(zero, zero)
        for f in (one, c):
            self.check_unary(f)
            self.check_gcd(f, m)
        for e in (0, 1, 5):
            self.check_pow_mod(zero, e, m)
            self.check_pow_mod(c, e, m)
            self.check_pow_mod(x, e, x)
        for fn in (pow_mod, pow_mod_by_polys):
            for mod in (zero, one, c):
                with pytest.raises(InputError,
                                   match="modulus must have degree >= 1"):
                    fn(x, 2, mod)
            for e in (-1, 2.0):
                with pytest.raises(InputError):
                    fn(x, e, m)
        for fn in (is_squarefree, is_squarefree_by_polys):
            with pytest.raises(InputError,
                               match="squarefreeness of 0 is undefined"):
                fn(zero)
        with pytest.raises(InputError,
                           match="the zero polynomial has no factorization"):
            list(distinct_degree_parts(zero))
        assert poly._mul((), m.coeffs, spec._ops()) == ()
        assert (m * zero).is_zero() and (zero * m).is_zero()

    def test_product_core_is_the_convolution(self, seeded_rng):
        for field in [f for f, _ in CORE_FIELDS] + ELEMENT_FIELDS:
            spec = build_field(*field)
            for _ in range(10):
                a = random_poly(seeded_rng, spec, seeded_rng.randrange(6))
                b = random_poly(seeded_rng, spec, seeded_rng.randrange(6))
                out = [0] * (a.degree + b.degree + 1)
                for i, ai in enumerate(a.coeffs):
                    for j, bj in enumerate(b.coeffs):
                        out[i + j] = spec._add(out[i + j], spec._mul(ai, bj))
                assert poly._mul(a.coeffs, b.coeffs, spec._ops()) == tuple(out)
                assert a * b == Poly(spec, out)


class TestWrappersBuildOnePoly:
    def count_polys(self, monkeypatch):
        built = []
        raw, init = Poly._raw, Poly.__init__
        monkeypatch.setattr(Poly, "_raw", staticmethod(
            lambda spec, coeffs: built.append(coeffs) or raw(spec, coeffs)))

        def counted_init(self, spec, coeffs):
            built.append(coeffs)
            init(self, spec, coeffs)

        monkeypatch.setattr(Poly, "__init__", counted_init)
        return built

    @pytest.mark.parametrize("field", [(2, 2), (7, 1), (2, 8)], ids=field_id)
    def test_pow_mod_and_gcd_build_one_poly(self, field, monkeypatch):
        spec = build_field(*field)
        lead = spec.order - 1
        f = Poly(spec, (1, 2 % spec.order, 1, lead))
        x = Poly.x(spec)
        monic, other = Poly(spec, (1, 0, 1, 1)), Poly(spec, (1, 1, lead))
        built = self.count_polys(monkeypatch)
        for mod in (monic, other):
            for e in (0, 1, spec.order, 10 ** 20 + 7):
                del built[:]
                pow_mod(f, e, mod)
                assert len(built) == 1, (mod, e)
        for a, b in ((f, other), (f * other, other * other), (f, x),
                     (Poly.zero(spec), other)):
            del built[:]
            gcd(a, b)
            assert len(built) == 1, (a, b)
