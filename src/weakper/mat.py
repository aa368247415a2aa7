"""Square matrices over a FieldSpec, with the exact-arithmetic kernels the
rest of the package builds on: division-free characteristic polynomials,
minimal polynomials via Krylov elimination, and potency tests.

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
min-poly route.
"""

import functools
import math

from .errors import (
    BadDimension,
    DimensionMismatch,
    ExponentOverflow,
    FieldMismatch,
    InputError,
    MinPolyNotFound,
)
from .gf import prime_factors
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
        # square up to the lowest set bit, then multiply in the higher
        # ones; no product with the identity, no squaring past the top bit
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

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


def det(M):
    """Determinant by Gaussian elimination with exact field arithmetic."""
    spec, n = M.spec, M.n
    rows = [list(M.entries[i * n:(i + 1) * n]) for i in range(n)]
    out = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            out = spec._neg(out)
        lead = rows[col][col]
        out = spec._mul(out, lead)
        inv = spec._inv(lead)
        for r in range(col + 1, n):
            if rows[r][col]:
                f = spec._mul(rows[r][col], inv)
                rows[r][col] = 0
                for c in range(col + 1, n):
                    if rows[col][c]:
                        rows[r][c] = spec._sub(rows[r][c],
                                               spec._mul(f, rows[col][c]))
    return out


def min_poly(M):
    """Monic minimal polynomial via Krylov-style elimination on the matrix
    powers I, M, M^2, ... with combination tracking."""
    spec, n = M.spec, M.n
    sub, mul, inv = spec._sub, spec._mul, spec._inv
    basis = []  # (reduced_vector, pivot_index, combination)
    acc = Mat.identity(spec, n)
    k = 0
    while True:
        vec = list(acc.entries)
        combo = [0] * k + [1]
        for bvec, pivot, bcombo in basis:
            c = vec[pivot]
            if c:
                for idx, bv in enumerate(bvec):
                    if bv:
                        vec[idx] = sub(vec[idx], mul(c, bv))
                for idx, bc in enumerate(bcombo):
                    if bc:
                        combo[idx] = sub(combo[idx], mul(c, bc))
        pivot = next((idx for idx, val in enumerate(vec) if val), None)
        if pivot is None:
            return Poly(spec, combo)
        if k >= n:
            raise MinPolyNotFound(
                "power M^n failed to reduce against lower powers")
        scale = inv(vec[pivot])
        if scale != 1:
            vec = [mul(scale, val) for val in vec]
            combo = [mul(scale, val) for val in combo]
        basis.append((vec, pivot, combo))
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
    t = spec.order ** d - 1
    x = Poly.x(spec)
    one = Poly.one(spec)
    for r in prime_factors(t):
        while t % r == 0 and pow_mod(x, t // r, h) == one:
            t //= r
    return t


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

    Gaussian elimination over spec; free variables are set to 0, so the
    answer is deterministic.  vectors and target are flat tuples of equal
    length.
    """
    k = len(vectors)
    m = len(target)
    if any(len(v) != m for v in vectors):
        raise DimensionMismatch("vectors must all match the target length")
    if k == 0:
        return () if not any(target) else None
    sub, mul, inv = spec._sub, spec._mul, spec._inv
    rows = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(k):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        scale = inv(rows[r][c])
        if scale != 1:
            rows[r] = [mul(scale, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ref = rows[r]
                rows[i] = [sub(rows[i][j], mul(f, ref[j]))
                           for j in range(k + 1)]
        pivots.append((r, c))
        r += 1
    for i in range(r, m):
        if rows[i][k]:
            return None
    sol = [0] * k
    for ri, ci in pivots:
        sol[ci] = rows[ri][k]
    return tuple(sol)
