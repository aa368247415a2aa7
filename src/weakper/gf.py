"""Finite fields GF(p^l) with integer-encoded elements.

A field is realized as GF(p)[X] modulo the lexicographically smallest monic
irreducible of degree l (coefficient tuples compared in ascending order, low
degree first).  An element is the integer sum(digit[i] * p**i), so encodings
run from 0 to p^l - 1 and the encoding order is total and deterministic.

Prime fields use the sentinel modulus X, stored as (0, 1).

The arithmetic kernels the other layers share live here, each written once:
power (square-and-multiply, for field elements, polynomials mod m and
matrices alike), multiplicative_order, unity_powers (the powers of a
primitive d-th root of unity) and horner.
"""

import functools
import itertools
import math

from .errors import (
    BadDegree,
    DegreeOutOfRange,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NoRootFound,
    NotASubfield,
    NotPrime,
)

DEFAULT_FIELD_BOUND = 1 << 20

# exp/log multiplication tables are built lazily for extension fields up to
# this order; dense addition tables for odd characteristic up to the smaller
# bound.  Larger fields fall back to digit arithmetic.  A splitting field
# such as GF(3^6) sees too few additions to repay a q^2-entry table.  The
# exp/log build costs about 2 * p^ceil(l/2) digit-arithmetic products plus
# q cheap lookup steps: about 5 ms for GF(5^6) and 35 ms for GF(2^16) with
# Python 3.11 on a shared 2-vCPU Xeon.
_MUL_TABLE_BOUND = 1 << 16
_ADD_TABLE_BOUND = 1 << 7
# bound of the canonical-field and embedding memos: the largest sets and
# lemmas commands tried touch at most 7 fields and 6 embeddings
_FIELD_CACHE_SIZE = 64


def factorize(n):
    """Yield (prime, exponent) for each prime dividing n >= 1, ascending,
    by trial division: the package's one such loop.  The pairs come one at
    a time, so a caller that needs only the smallest prime stops there."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            yield f, e
        f += 1 if f == 2 else 2
    if n > 1:
        yield n, 1


def is_prime(n):
    return isinstance(n, int) and n >= 2 and next(factorize(n)) == (n, 1)


def prime_factors(n):
    """Distinct prime factors of n >= 1, ascending."""
    return tuple(f for f, _ in factorize(n))


def power_exceeds(q, k, bound):
    """q^k > bound for integers q >= 2, k >= 0, without building q^k when
    q^k >= 2^(k (bitlen q - 1)) already reaches 2^(bitlen bound) > bound."""
    if k * (q.bit_length() - 1) >= bound.bit_length():
        return True
    return q ** k > bound


def power(x, k, mul):
    """x^k for k >= 1, by square-and-multiply through mul.

    Squares up to the lowest set bit of k, then multiplies in the higher
    ones: no product with the identity, no squaring past the top bit.  The
    caller handles k = 0, which has no identity to return here.
    """
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    result = x
    k >>= 1
    while k:
        x = mul(x, x)
        if k & 1:
            result = mul(result, x)
        k >>= 1
    return result


def multiplicative_order(x, t, pow_, one):
    """Order of x in a group whose exponent divides t >= 1: every prime r
    is stripped from t while pow_(x, t / r) is still the identity one."""
    for r in prime_factors(t):
        while t % r == 0 and pow_(x, t // r) == one:
            t //= r
    return t


def unity_powers(spec, d):
    """(1, z, ..., z^(d-1)) for z = g^((q - 1) / d), g spec's generator: the
    d-th roots of unity in spec, for d dividing q - 1, in the order of
    their discrete logs against z."""
    zeta = spec._pow(spec.generator(), (spec.order - 1) // d)
    out = [1]
    for _ in range(d - 1):
        out.append(spec._mul(out[-1], zeta))
    return tuple(out)


def horner(spec, coeffs, x):
    """Value at x of the polynomial with ascending coefficients coeffs."""
    acc = 0
    for c in reversed(coeffs):
        acc = spec._add(spec._mul(acc, x), c)
    return acc


def _smallest_irreducible(p, l):
    if l == 1:
        return (0, 1)
    # poly imports this module, so the import waits for the first call
    from .poly import Poly, is_irreducible
    base = _canonical_field(p, 1)
    for low in itertools.product(range(p), repeat=l):
        if low[0] == 0:
            continue
        cand = low + (1,)
        if is_irreducible(Poly._raw(base, cand)):
            return cand
    raise NoRootFound(f"no irreducible of degree {l} over GF({p})")


class FieldSpec:
    """A concrete finite field: prime, extension degree, and modulus.

    Public arithmetic (add, mul, ...) validates operands; the underscore
    variants assume valid encodings and are the hot path for the rest of
    the package.
    """

    __slots__ = ("p", "l", "order", "modulus", "_hash", "_exp", "_log",
                 "_add_table", "_gen")

    def __init__(self, p, l, modulus):
        self.p = p
        self.l = l
        self.order = p ** l
        self.modulus = tuple(modulus)
        self._hash = hash((p, l, self.modulus))
        self._exp = None
        self._log = None
        self._add_table = None
        self._gen = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.l, self.modulus) == (other.p, other.l,
                                                  other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec({self.descriptor()})"

    def descriptor(self):
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.l}/{coeffs}"

    def check(self, x):
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise FieldMismatch(
                f"{x!r} is not an element encoding of GF({self.p}^{self.l})")
        return x

    def elements(self):
        """All elements in ascending encoding order."""
        return range(self.order)

    # unchecked arithmetic

    def _add(self, x, y):
        if self.p == 2:
            return x ^ y
        if self.l == 1:
            return (x + y) % self.p
        table = self._add_table
        if table is None and self.order <= _ADD_TABLE_BOUND:
            table = self._build_add_table()
        if table is not None:
            return table[x * self.order + y]
        p = self.p
        out = 0
        shift = 1
        while x or y:
            out += ((x + y) % p) * shift
            x //= p
            y //= p
            shift *= p
        return out

    def _neg(self, x):
        if self.p == 2:
            return x
        if self.l == 1:
            return -x % self.p
        p = self.p
        out = 0
        shift = 1
        while x:
            out += (-x % p) * shift
            x //= p
            shift *= p
        return out

    def _sub(self, x, y):
        if self.p == 2:
            return x ^ y
        return self._add(x, self._neg(y))

    def _mul(self, x, y):
        if self.l == 1:
            return x * y % self.p
        if x == 0 or y == 0:
            return 0
        exp = self._exp
        if exp is None and self.order <= _MUL_TABLE_BOUND:
            self._build_mul_tables()
            exp = self._exp
        if exp is not None:
            return exp[self._log[x] + self._log[y]]
        return self._raw_mul(x, y)

    def _raw_mul(self, x, y):
        p, l = self.p, self.l
        xd = []
        while x:
            xd.append(x % p)
            x //= p
        yd = []
        while y:
            yd.append(y % p)
            y //= p
        prod = [0] * (len(xd) + len(yd) - 1)
        for i, xi in enumerate(xd):
            if xi:
                for j, yj in enumerate(yd):
                    prod[i + j] += xi * yj
        mod = self.modulus
        for k in range(len(prod) - 1, l - 1, -1):
            c = prod[k] % p
            if c:
                off = k - l
                for j in range(l):
                    prod[off + j] -= c * mod[j]
            prod[k] = 0
        out = 0
        for d in reversed(prod[:l]):
            out = out * p + d % p
        return out

    def _pow(self, x, k):
        if k < 0:
            x = self._inv(x)
            k = -k
        return power(x, k, self._mul) if k else 1

    def _inv(self, x):
        if x == 0:
            raise DivisionByZero(
                f"cannot invert 0 in GF({self.p}^{self.l})")
        if x == 1:  # every element of GF(2), and every monic divisor's lead
            return 1
        exp = self._exp
        if exp is not None:
            n = self.order - 1
            return exp[(n - self._log[x]) % n]
        return power(x, self.order - 2, self._mul)

    def _build_add_table(self):
        q, p, l = self.order, self.p, self.l
        digs = []
        for x in range(q):
            v = x
            d = []
            for _ in range(l):
                d.append(v % p)
                v //= p
            digs.append(d)
        table = [0] * (q * q)
        for x in range(q):
            dx = digs[x]
            row = x * q
            for y in range(x, q):
                dy = digs[y]
                s = 0
                for i in range(l - 1, -1, -1):
                    s = s * p + (dx[i] + dy[i]) % p
                table[row + y] = s
                table[y * q + x] = s
        self._add_table = table
        return table

    def _build_mul_tables(self):
        # walk g^0 .. g^(q-2) with x -> x*g done by lookup: split x into
        # its low h digits and the rest, look up both halves' products with
        # g written one radix-(2p - 1) place per base-p digit, so that they
        # add without carries, and read the sum back to base p one half of
        # its places at a time
        q, p, l = self.order, self.p, self.l
        g = self.generator()
        h = (l + 1) // 2
        split = p ** h
        radix = 2 * p - 1

        def spread(x):
            out = 0
            scale = 1
            while x:
                out += x % p * scale
                x //= p
                scale *= radix
            return out

        def gather(places, scale):
            out = [0]
            for _ in range(places):
                out = [v + d % p * scale for d in range(radix) for v in out]
                scale *= p
            return out

        lo_tab = [spread(self._raw_mul(lo, g)) for lo in range(split)]
        hi_tab = [spread(self._raw_mul(hi * split, g))
                  for hi in range(p ** (l - h))]
        cut = radix ** h
        back_lo = gather(h, 1)
        back_hi = gather(l - h, split)
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            s = lo_tab[acc % split] + hi_tab[acc // split]
            acc = back_lo[s % cut] + back_hi[s // cut]
        # a g of smaller order returns to 1 early and rewrites log[1]
        if acc != 1 or log[1] != 0:
            raise NoRootFound("generator order check failed")
        self._exp = exp + exp
        self._log = log

    def _find_generator(self):
        q = self.order
        if q == 2:
            return 1
        n = q - 1
        targets = [n // r for r in prime_factors(n)]
        # table-free: the exp/log build asks for the generator
        for g in range(2, q):
            if all(power(g, t, self._raw_mul) != 1 for t in targets):
                return g
        raise NoRootFound(f"no generator found in GF({self.p}^{self.l})")

    # validating public arithmetic

    def add(self, x, y):
        return self._add(self.check(x), self.check(y))

    def sub(self, x, y):
        return self._sub(self.check(x), self.check(y))

    def neg(self, x):
        return self._neg(self.check(x))

    def mul(self, x, y):
        return self._mul(self.check(x), self.check(y))

    def inv(self, x):
        return self._inv(self.check(x))

    def div(self, x, y):
        return self._mul(self.check(x), self._inv(self.check(y)))

    def pow(self, x, k):
        self.check(x)
        if not isinstance(k, int):
            raise InputError(f"exponent must be an integer, got {k!r}")
        return self._pow(x, k)

    def generator(self):
        """Element of smallest encoding with multiplicative order p^l - 1."""
        if self._gen is None:
            self._gen = 1 if self.order == 2 else self._find_generator()
        return self._gen

    def element_order(self, x):
        self.check(x)
        if x == 0:
            raise DivisionByZero("the zero element has no multiplicative order")
        return multiplicative_order(x, self.order - 1, self._pow, 1)


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _canonical_field(p, l):
    return FieldSpec(p, l, _smallest_irreducible(p, l))


def build_field(p, l, bound=DEFAULT_FIELD_BOUND):
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p!r} is not a prime")
    if not isinstance(l, int) or l < 1:
        raise BadDegree(f"extension degree must be >= 1, got {l!r}")
    if power_exceeds(p, l, bound):
        raise DegreeOutOfRange(
            f"field order {p}^{l} exceeds the bound {bound}")
    return _canonical_field(p, l)


def parse_field(text, bound=DEFAULT_FIELD_BOUND):
    """Parse a descriptor: "p", "p^l", or "p^l/c0,c1,...,cl".

    An explicit modulus must match the canonical one; only canonical fields
    are constructed.
    """
    if not isinstance(text, str) or not text.strip():
        raise InputError(f"cannot parse field descriptor {text!r}")
    body, slash, mod_text = text.strip().partition("/")
    base, caret, deg = body.partition("^")
    if (caret and not deg) or (slash and not mod_text):
        raise InputError(f"cannot parse field descriptor {text!r}")
    try:
        p = int(base)
        l = int(deg) if deg else 1
    except ValueError:
        raise InputError(f"cannot parse field descriptor {text!r}") from None
    spec = build_field(p, l, bound)
    if mod_text:
        try:
            coeffs = tuple(int(c) for c in mod_text.split(","))
        except ValueError:
            raise InputError(
                f"cannot parse modulus coefficients {mod_text!r}") from None
        if coeffs != spec.modulus:
            raise FieldMismatch(
                f"modulus {mod_text} is not the canonical modulus "
                f"{','.join(map(str, spec.modulus))} of GF({p}^{l})")
    return spec


def roots_of_unity(spec, i):
    """All x in spec with x^i = 1; its size is gcd(i, p^l - 1)."""
    if not isinstance(i, int) or i < 1:
        raise InputError(f"unity order must be a positive integer, got {i!r}")
    return frozenset(unity_powers(spec, math.gcd(i, spec.order - 1)))


def subfield_lattice(spec):
    """Canonical GF(p^d) for every divisor d of l, ascending by degree."""
    return tuple(_canonical_field(spec.p, d)
                 for d in range(1, spec.l + 1) if spec.l % d == 0)


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _embedding_powers(sub, sup):
    """Powers 1, b, ..., b^(sub.l - 1) of the smallest root b of sub's
    modulus inside sup."""
    # roots of an irreducible of degree d live in sup's unique subfield of
    # order p^d, so only those elements need scanning
    candidates = [0] + sorted(roots_of_unity(sup, sub.order - 1))
    root = next((y for y in candidates if horner(sup, sub.modulus, y) == 0),
                None)
    if root is None:
        raise NoRootFound(
            f"modulus of GF({sub.p}^{sub.l}) has no root in "
            f"GF({sup.p}^{sup.l})")
    powers = [1]
    for _ in range(sub.l - 1):
        powers.append(sup._mul(powers[-1], root))
    return tuple(powers)


def embed(x, sub, sup):
    """Image of x under the canonical embedding of sub into sup.

    The embedding sends the class of X in sub to the smallest-encoding root
    of sub's modulus in sup, so it is deterministic and preserves + and *.
    """
    sub.check(x)
    if sub.p != sup.p or sup.l % sub.l != 0:
        raise NotASubfield(
            f"GF({sub.p}^{sub.l}) does not embed into GF({sup.p}^{sup.l})")
    if sub == sup:
        return x
    if sub.l == 1:
        return x
    powers = _embedding_powers(sub, sup)
    out = 0
    val = x
    p = sub.p
    for b in powers:
        d = val % p
        if d:
            out = sup._add(out, sup._mul(b, d))
        val //= p
    return out
