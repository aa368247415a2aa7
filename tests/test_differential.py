"""Differential checks against sympy over prime fields: characteristic
polynomials, factorisations, distinct-degree parts, squarefreeness and
irreducibility."""

import pytest

sympy = pytest.importorskip("sympy")

from weakper.gf import build_field  # noqa: E402
from weakper.mat import Mat, char_poly  # noqa: E402
from weakper.poly import (  # noqa: E402
    Poly,
    distinct_degree_parts,
    factor,
    is_irreducible,
    is_squarefree,
)

PRIMES = (2, 3, 5, 7)
X = sympy.Symbol("x")


def _ascending_mod_p(coeffs_descending, p):
    out = [int(c) % p for c in reversed(coeffs_descending)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _random_poly(rng, spec, degree):
    coeffs = [rng.randrange(spec.p) for _ in range(degree)]
    return Poly(spec, coeffs + [rng.randrange(1, spec.p)])


def _sympy_factors(f):
    """sympy's (monic factor coefficients ascending, multiplicity) list."""
    p = f.spec.p
    sym = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p)
    _, pairs = sym.factor_list()
    out = []
    for g, mult in pairs:
        coeffs = _ascending_mod_p(g.all_coeffs(), p)
        inv_lead = pow(coeffs[-1], -1, p)
        out.append((tuple(c * inv_lead % p for c in coeffs), mult))
    return sorted(out, key=lambda gm: (len(gm[0]), gm[0]))


def _samples(rng, spec):
    """Random polynomials of degree 1..6, plus g^2 * h with repeated
    factors."""
    out = [_random_poly(rng, spec, d) for d in range(1, 7) for _ in range(3)]
    for _ in range(6):
        g = _random_poly(rng, spec, rng.randrange(1, 3))
        h = _random_poly(rng, spec, rng.randrange(0, 3))
        out.append(g * g * h)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_char_poly_matches_sympy(p, seeded_rng):
    spec = build_field(p, 1)
    for n in range(1, 6):
        for _ in range(6):
            entries = [seeded_rng.randrange(p) for _ in range(n * n)]
            rows = [tuple(entries[i * n:(i + 1) * n]) for i in range(n)]
            ours = char_poly(Mat.from_rows(spec, rows))
            theirs = sympy.Matrix(n, n, entries).charpoly(X).all_coeffs()
            assert ours.coeffs == _ascending_mod_p(theirs, p), rows


@pytest.mark.parametrize("p", PRIMES)
def test_factor_matches_sympy(p, seeded_rng):
    spec = build_field(p, 1)
    for f in _samples(seeded_rng, spec):
        ours = [(g.coeffs, mult) for g, mult in factor(f)]
        assert ours == _sympy_factors(f), f


@pytest.mark.parametrize("p", PRIMES)
def test_distinct_degree_parts_match_sympy(p, seeded_rng):
    spec = build_field(p, 1)
    for f in _samples(seeded_rng, spec):
        expected = {}
        for coeffs, _ in _sympy_factors(f):
            d = len(coeffs) - 1
            expected[d] = expected.get(d, Poly.one(spec)) * Poly(spec, coeffs)
        parts = list(distinct_degree_parts(f))
        assert {d: h for d, h in parts if h.degree > 0} == expected, f
        # one part per degree from 1 on, empty ones included, and the
        # irreducible rest last, possibly past a gap
        degrees = [d for d, _ in parts]
        assert degrees[:-1] == list(range(1, len(parts))), f
        assert degrees[-1] >= len(parts), f


@pytest.mark.parametrize("p", PRIMES)
def test_is_squarefree_matches_sympy(p, seeded_rng):
    spec = build_field(p, 1)
    for f in _samples(seeded_rng, spec):
        expected = all(mult == 1 for _, mult in _sympy_factors(f))
        assert is_squarefree(f) == expected, f


@pytest.mark.parametrize("p", PRIMES)
def test_is_irreducible_matches_sympy(p, seeded_rng):
    spec = build_field(p, 1)
    for d in range(1, 9):
        for _ in range(4):
            f = _random_poly(seeded_rng, spec, d)
            sym = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p)
            assert is_irreducible(f) == sym.is_irreducible, f
