"""Polynomial arithmetic, factoring, distinct-degree parts, and root
resolution in extensions."""

import itertools

import pytest
from hypothesis import given, strategies as st

from weakper.errors import (
    DegreeOutOfRange,
    DivisionByZero,
    InputError,
    ZeroPolynomial,
)
from weakper import poly
from weakper.gf import FieldSpec, build_field, embed
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
    assert [f.evaluate(x) for x in gf3.elements()] == [1, 1, 0]


def test_derivative(gf3):
    assert Poly(gf3, (1, 1, 0, 1)).derivative() == Poly.constant(gf3, 1)
    assert Poly(gf3, (0, 0, 0, 1)).derivative().is_zero()  # 3X^2 = 0


def test_gcd_frozen(gf5):
    f = Poly(gf5, (4, 0, 1))  # X^2 - 1
    g = Poly(gf5, (1, 3, 1))  # X^2 - 2X + 1 = (X-1)^2
    assert gcd(f, g) == Poly(gf5, (4, 1))  # X - 1
    assert gcd(f, Poly.zero(gf5)) == f.monic()
    with pytest.raises(ZeroPolynomial):
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
    with pytest.raises(ZeroPolynomial):
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
    # polynomial products counted exactly, as mat_product_budget counts
    # matrix products: no product with 1, no squaring past the top bit
    used = [0]
    product = Poly.__mul__

    def counted(a, b):
        used[0] += 1
        return product(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
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
    with pytest.raises(ZeroPolynomial):
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
    with pytest.raises(ZeroPolynomial):
        factor(Poly.zero(gf3))
    with pytest.raises(DegreeOutOfRange):
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
    with pytest.raises(ZeroPolynomial):
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
    with pytest.raises(ZeroPolynomial):
        Poly.zero(gf5).monic()
