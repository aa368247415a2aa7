"""Square matrices over a FieldSpec, with the exact-arithmetic kernels the
rest of the package builds on: division-free characteristic polynomials,
minimal polynomials via Krylov elimination, and potency tests.  _reduce
is the one elimination loop: min_poly, det, linear_combination and the
square-zero enumerator's rank test in search all reduce through it.

A matrix M counts as potent when its minimal polynomial is squarefree.
That gives M^(k+1) = M for k = lcm(q^d - 1 : d <= n), but it is stricter
than the ring-theoretic reading "M^(k+1) = M for some k >= 1": over GF(2)
the swap matrix has M^3 = M, yet its minimal polynomial (X + 1)^2 is not
squarefree, so it is not potent here.  Three routes test the squarefree
reading.  The min-poly route (is_potent, potency_exponent) reads it and
the exponent off min_poly(M), each memoised per minimal polynomial.
The exponent route (is_potent_at) proves it from M^t = M with p not
dividing t - 1; Witness.verify runs both.  The universal route
(is_potent_iterative) powers M to k + 1 and is kept to cross-check the
min-poly route.  Matrix powers and root orders run through gf's power
and multiplicative_order kernels.
"""

import functools
import math
import operator

from .errors import (
    BadDimension,
    DimensionMismatch,
    ExponentOverflow,
    FieldMismatch,
    InputError,
    MinPolyNotFound,
)
from .gf import multiplicative_order, power
from .poly import Poly, distinct_degree_parts, is_squarefree, pow_mod

EXPONENT_CAP = 1 << 63
# bound of the two potency memos, one entry per minimal polynomial.  A
# brute scan over n x n matrices meets at most q + q^2 + ... + q^n of them,
# 84 for GF(4) n=3; a commuting run meets one squarefree part per companion.
_POTENCY_CACHE_SIZE = 4096


class Mat:
    """An n x n matrix stored as a row-major entry tuple."""

    __slots__ = ("spec", "n", "entries")

    def __init__(self, spec, n, entries):
        if not isinstance(n, int) or n < 1:
            raise BadDimension(f"matrix dimension must be >= 1, got {n!r}")
        entries = tuple(entries)
        if len(entries) != n * n:
            raise DimensionMismatch(
                f"expected {n * n} entries for a {n}x{n} matrix, "
                f"got {len(entries)}")
        for e in entries:
            spec.check(e)
        self.spec = spec
        self.n = n
        self.entries = entries

    @staticmethod
    def _raw(spec, n, entries):
        m = object.__new__(Mat)
        m.spec = spec
        m.n = n
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, spec, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("rows do not form a square matrix")
        return cls(spec, n, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, spec, n):
        if not isinstance(n, int) or n < 1:
            raise BadDimension(f"matrix dimension must be >= 1, got {n!r}")
        return cls._raw(spec, n,
                        tuple(1 if i == j else 0
                              for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, spec, n):
        if not isinstance(n, int) or n < 1:
            raise BadDimension(f"matrix dimension must be >= 1, got {n!r}")
        return cls._raw(spec, n, (0,) * (n * n))

    def _compatible(self, other):
        if self.spec != other.spec:
            raise FieldMismatch("matrices live over different fields")
        if self.n != other.n:
            raise DimensionMismatch(
                f"dimension mismatch: {self.n} vs {other.n}")

    def entry(self, i, j):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise BadDimension(f"index ({i}, {j}) out of range for n={self.n}")
        return self.entries[i * self.n + j]

    def rows(self):
        n = self.n
        return tuple(self.entries[i * n:(i + 1) * n] for i in range(n))

    def serialize(self):
        return [list(r) for r in self.rows()]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.spec == other.spec and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.spec, self.n, self.entries))

    def __repr__(self):
        return f"Mat({self.spec.descriptor()}, {self.serialize()})"

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compatible(other)
        add = self.spec._add
        return Mat._raw(self.spec, self.n,
                        tuple(add(a, b)
                              for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        neg = self.spec._neg
        return Mat._raw(self.spec, self.n,
                        tuple(neg(a) for a in self.entries))

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compatible(other)
        sub = self.spec._sub
        return Mat._raw(self.spec, self.n,
                        tuple(sub(a, b)
                              for a, b in zip(self.entries, other.entries)))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        self._compatible(other)
        spec, n = self.spec, self.n
        a, b = self.entries, other.entries
        mul, add = spec._mul, spec._add
        out = [0] * (n * n)
        for i in range(n):
            ai = i * n
            for k in range(n):
                c = a[ai + k]
                if c:
                    bk = k * n
                    for j in range(n):
                        if b[bk + j]:
                            out[ai + j] = add(out[ai + j], mul(c, b[bk + j]))
        return Mat._raw(spec, n, tuple(out))

    def scale(self, c):
        self.spec.check(c)
        mul = self.spec._mul
        return Mat._raw(self.spec, self.n,
                        tuple(mul(c, a) for a in self.entries))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise InputError(
                f"matrix exponent must be a non-negative integer, got {k!r}")
        if not k:
            return Mat.identity(self.spec, self.n)
        return power(self, k, operator.mul)

    def trace(self):
        add = self.spec._add
        acc = 0
        for i in range(self.n):
            acc = add(acc, self.entries[i * self.n + i])
        return acc

    def transpose(self):
        n = self.n
        return Mat._raw(self.spec, n,
                        tuple(self.entries[j * n + i]
                              for i in range(n) for j in range(n)))

    def is_zero(self):
        return not any(self.entries)

    def is_identity(self):
        return self == Mat.identity(self.spec, self.n)


def cycle_permutation_matrix(spec, m):
    """The m-cycle permutation matrix: e_i -> e_(i+1 mod m), m >= 2."""
    if not isinstance(m, int) or m < 2:
        raise BadDimension(f"cycle length must be >= 2, got {m!r}")
    return Mat._raw(spec, m,
                    tuple(1 if j == (i + 1) % m else 0
                          for i in range(m) for j in range(m)))


def char_poly(M):
    """Characteristic polynomial det(XI - M), monic of degree n.

    Division-free Toeplitz recurrence over trailing principal submatrices,
    so it works verbatim over any finite field.
    """
    spec, n = M.spec, M.n
    neg, mul, add = spec._neg, spec._mul, spec._add
    ent = M.entries
    v = [1]
    for i in range(n - 1, -1, -1):
        m = n - i
        a = ent[i * n + i]
        row = ent[i * n + i + 1:(i + 1) * n]
        col = [ent[r * n + i] for r in range(i + 1, n)]
        sub = [ent[r * n + i + 1:(r + 1) * n] for r in range(i + 1, n)]
        t = [1, neg(a)]
        w = col
        for _ in range(2, m + 1):
            dot = 0
            for rc, wc in zip(row, w):
                if rc and wc:
                    dot = add(dot, mul(rc, wc))
            t.append(neg(dot))
            nxt = []
            for r in sub:
                acc = 0
                for rc, wc in zip(r, w):
                    if rc and wc:
                        acc = add(acc, mul(rc, wc))
                nxt.append(acc)
            w = nxt
        out = [0] * (m + 1)
        for idx in range(m + 1):
            acc = 0
            for j in range(max(0, idx - len(t) + 1), min(idx + 1, len(v))):
                tc = t[idx - j]
                vc = v[j]
                if tc and vc:
                    acc = add(acc, mul(tc, vc))
            out[idx] = acc
        v = out
    return Poly._raw(spec, tuple(reversed(v)))


def _reduce(basis, vec, combo, spec):
    """The one elimination loop: clear vec, in place, at the pivot of each
    basis row (row, pivot, row_combo), where row holds 1, subtracting the
    same multiples of each row_combo from combo.  Returns the first index
    where vec is still nonzero, or None when vec reduced to 0.

    Each basis row was reduced against the rows before it, so it is 0 at
    their pivots, and vec ends 0 at every pivot: it reduces to 0 exactly
    when it lies in the span of the rows.
    """
    sub, mul = spec._sub, spec._mul
    for row, pivot, row_combo in basis:
        c = vec[pivot]
        if c:
            for idx, v in enumerate(row):
                if v:
                    vec[idx] = sub(vec[idx], mul(c, v))
            for idx, v in enumerate(row_combo):
                if v:
                    combo[idx] = sub(combo[idx], mul(c, v))
    return next((idx for idx, v in enumerate(vec) if v), None)


def _basis_row(vec, pivot, combo, spec):
    """The basis row of a vector _reduce left nonzero at pivot: vec and
    combo scaled so that vec holds 1 there."""
    scale = spec._inv(vec[pivot])
    if scale != 1:
        mul = spec._mul
        vec = [mul(scale, v) for v in vec]
        combo = [mul(scale, v) for v in combo]
    return vec, pivot, combo


def det(M):
    """Determinant: the rows reduced in order are, up to the column order
    their pivots give, upper triangular, so det is the product of their
    leading entries, negated when the pivot order has an odd number of
    inversions."""
    spec, n = M.spec, M.n
    basis = []
    out = 1
    for i in range(n):
        vec = list(M.entries[i * n:(i + 1) * n])
        pivot = _reduce(basis, vec, [], spec)
        if pivot is None:
            return 0
        out = spec._mul(out, vec[pivot])
        basis.append(_basis_row(vec, pivot, [], spec))
    pivots = [pivot for _, pivot, _ in basis]
    inversions = sum(a > b for j, a in enumerate(pivots)
                     for b in pivots[j + 1:])
    return spec._neg(out) if inversions % 2 else out


def min_poly(M):
    """Monic minimal polynomial: the powers I, M, M^2, ... reduced through
    _reduce, each tracking its combination of powers, until one reduces
    to 0."""
    spec, n = M.spec, M.n
    basis = []
    acc = Mat.identity(spec, n)
    k = 0
    while True:
        vec = list(acc.entries)
        combo = [0] * k + [1]
        pivot = _reduce(basis, vec, combo, spec)
        if pivot is None:
            return Poly(spec, combo)
        if k >= n:
            raise MinPolyNotFound(
                "power M^n failed to reduce against lower powers")
        basis.append(_basis_row(vec, pivot, combo, spec))
        acc = acc * M if k else M
        k += 1


def universal_potency_exponent(n, spec):
    """The k with M^(k+1) = M for every potent n x n matrix over spec:
    lcm of q^d - 1 over d = 1..n."""
    if not isinstance(n, int) or n < 1:
        raise BadDimension(f"dimension must be >= 1, got {n!r}")
    q = spec.order
    k = 1
    for d in range(1, n + 1):
        k = math.lcm(k, q ** d - 1)
        if k >= EXPONENT_CAP:
            raise ExponentOverflow(
                f"universal potency exponent for n={n}, q={q} exceeds "
                f"the cap 2^63")
    return k


def is_potent(M):
    """True when the minimal polynomial of M is squarefree (see the module
    docstring for how this differs from M^(k+1) = M for some k >= 1)."""
    return _squarefree(min_poly(M))


def is_potent_iterative(M):
    """Same predicate as is_potent (squarefree minimal polynomial), decided
    by testing M^(k+1) = M at the universal exponent k: X^(k+1) - X is
    squarefree, so this holds exactly when is_potent does.  Kept as an
    independent route."""
    k = universal_potency_exponent(M.n, M.spec)
    return M ** (k + 1) == M


def is_potent_at(M, t):
    """True when t >= 2, p does not divide t - 1 and M^t = M, which proves
    M potent: min_poly(M) then divides X^t - X = X (X^(t-1) - 1),
    and X^(t-1) - 1 is squarefree because its derivative (t - 1) X^(t-2)
    is nonzero and prime to it.  False says only that t is not such an
    exponent of M; potency_exponent(M) always is one, since t - 1 is then
    an lcm of divisors of numbers q^d - 1."""
    return t >= 2 and (t - 1) % M.spec.p != 0 and M ** t == M


def is_square_zero(M):
    return (M * M).is_zero()


def _root_order(h, d):
    """Multiplicative order of X modulo h, a product of distinct
    irreducibles of degree d other than X.

    GF(q)[X]/(h) is a product of copies of GF(q^d), so that order is the
    lcm of the orders of the roots of h, and it divides q^d - 1.
    """
    spec = h.spec
    return multiplicative_order(Poly.x(spec), spec.order ** d - 1,
                                lambda x, k: pow_mod(x, k, h), Poly.one(spec))


# squarefreeness of a minimal polynomial, memoised apart from its exponent:
# is_potent reads only this, and the exponent costs several times more
_squarefree = functools.lru_cache(maxsize=_POTENCY_CACHE_SIZE)(is_squarefree)


@functools.lru_cache(maxsize=_POTENCY_CACHE_SIZE)
def min_poly_exponent(mp):
    """The potency exponent of every matrix with minimal polynomial mp:
    None when mp is not squarefree, else 1 + the lcm of the orders of its
    roots other than 0, taken one distinct-degree part at a time.  The
    empty lcm is 1, so mp = X gets 2.

    Both facts are pure in mp, and Poly equality includes the field, so
    they are memoised.  The exponent is not capped: Python ints are
    unbounded, and is_potent_at re-verifies it by powering.
    """
    if not _squarefree(mp):
        return None
    if mp.coeffs[0] == 0:
        mp = mp // Poly.x(mp.spec)  # squarefree, so X divides it once
    k = 1
    for d, h in distinct_degree_parts(mp):
        if h.degree > 0:
            k = math.lcm(k, _root_order(h, d))
    return k + 1


def potency_exponent(M):
    """The least t > 1 with M^t = M, or None when M is not potent; see
    min_poly_exponent."""
    return min_poly_exponent(min_poly(M))


def linear_combination(vectors, target, spec):
    """Coefficients c with sum(c[i] * vectors[i]) = target, or None.

    Each vector is reduced through _reduce in turn, then the target; a
    vector that depends on earlier ones gets coefficient 0, so the answer
    is deterministic.  vectors and target are flat tuples of equal length.
    """
    k = len(vectors)
    if any(len(v) != len(target) for v in vectors):
        raise DimensionMismatch("vectors must all match the target length")
    basis = []
    for j, v in enumerate(vectors):
        vec, combo = list(v), [0] * k
        combo[j] = 1
        pivot = _reduce(basis, vec, combo, spec)
        if pivot is not None:
            basis.append(_basis_row(vec, pivot, combo, spec))
    # what is left of the target is target + sum(combo[i] * vectors[i])
    combo = [0] * k
    if _reduce(basis, list(target), combo, spec) is not None:
        return None
    return tuple(map(spec._neg, combo))
