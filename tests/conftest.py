"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms:
char_poly_laplace expands the characteristic determinant by cofactors over
polynomial entries, min_poly_scan finds the minimal polynomial by
enumerating monic candidates in encoding order, square_zero_oracle
filters all q^(n^2) matrices for N^2 = 0, and exp_log_chain builds the
exp/log tables by one generic multiplication per entry; add_by_digits
adds two elements digit by digit.
potency_exponent_by_factoring takes the exponent from the trial-division
factorization instead of the distinct-degree parts.  product_by_elements
multiplies matrices by the naive triple loop through the field's element
operations.  element_loops switches every field to the element backend,
so Mat, Poly, companion_of and the searches take the element loops that
fields past the table bound keep.  verify_by_mats re-checks a witness on
Mat objects, one Mat per sum and product, as Witness.verify did before it
ran on entry tuples.  gcd_by_polys, pow_mod_by_polys,
is_squarefree_by_polys, distinct_degree_parts_by_polys and
min_poly_by_mats are the Poly- and Mat-level bodies of gcd, pow_mod,
is_squarefree, distinct_degree_parts and min_poly from before those ran
on coefficient and entry tuples: one Poly or Mat per remainder, product
and power.  commuting_split_by_orbit finds the semisimple part of a
commuting split by matrix powers round the Frobenius orbit, as
brute_commuting_decompose did before its Newton step.
linear_combination, root_of_unity_certificate and fixed_point_certificate
are the references the certificate criteria and the backend tests call.
"""

import functools
import itertools
import math
import random
from unittest import mock

import pytest

from weakper import companion, mat
from weakper.companion import Witness
from weakper.errors import InputError, WeakperError
from weakper.gf import (
    ElementOps,
    FieldSpec,
    build_field,
    power,
    prime_factors,
)
from weakper.mat import (
    Mat,
    _basis_row,
    _reduce,
    char_poly,
    is_square_zero,
    min_poly,
    potency_exponent,
)
from weakper.poly import Poly, factor, is_squarefree, pow_mod

SEED = 1729


@pytest.fixture(scope="session")
def gf2():
    return build_field(2, 1)


@pytest.fixture(scope="session")
def gf3():
    return build_field(3, 1)


@pytest.fixture(scope="session")
def gf4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return build_field(5, 1)


@pytest.fixture(scope="session")
def gf7():
    return build_field(7, 1)


@pytest.fixture(scope="session")
def gf8():
    return build_field(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return build_field(3, 2)


def poly_at_matrix(f, M):
    """Evaluate a polynomial at a matrix by Horner's rule."""
    spec, n = M.spec, M.n
    acc = Mat.zeros(spec, n)
    for c in reversed(f.coeffs):
        acc = acc * M + Mat.identity(spec, n).scale(c)
    return acc


def _poly_det(entries, size):
    if size == 1:
        return entries[0][0]
    total = None
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = entries[0][j] * _poly_det(minor, size - 1)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def char_poly_laplace(M):
    """det(X*I - M) by cofactor expansion over polynomial entries."""
    spec, n = M.spec, M.n
    x = Poly.x(spec)
    entries = [
        [
            (x - Poly.constant(spec, M.entry(i, j))) if i == j
            else -Poly.constant(spec, M.entry(i, j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(entries, n)


def min_poly_scan(M):
    """Smallest-degree monic annihilator, found by scanning candidates in
    encoding order; unique at the minimal degree."""
    spec, n = M.spec, M.n
    zero = Mat.zeros(spec, n)
    for d in range(1, n + 1):
        for low in itertools.product(range(spec.order), repeat=d):
            f = Poly(spec, low + (1,))
            if poly_at_matrix(f, M) == zero:
                return f
    raise AssertionError("Cayley-Hamilton guarantees an annihilator")


def _irreducible_root_order(g):
    """Multiplicative order of the roots of an irreducible g != X: the
    order of X in GF(q)[X]/(g), a divisor of q^deg(g) - 1."""
    spec = g.spec
    t = spec.order ** g.degree - 1
    x = Poly.x(spec)
    one = Poly.one(spec)
    for r in prime_factors(t):
        while t % r == 0 and pow_mod(x, t // r, g) == one:
            t //= r
    return t


def potency_exponent_by_factoring(M):
    """1 + lcm of the root orders of the irreducible factors other than X
    of a squarefree min_poly(M), one factor at a time; None when min_poly
    is not squarefree."""
    mp = min_poly(M)
    if not is_squarefree(mp):
        return None
    k = 1
    for g, _ in factor(mp):
        if g != Poly.x(M.spec):
            k = math.lcm(k, _irreducible_root_order(g))
    return k + 1


@functools.lru_cache(maxsize=16)
def square_zero_oracle(spec, n):
    """Entry tuples of every n x n matrix N with N^2 = 0, in encoding
    order, by filtering the full q^(n^2) candidate space."""
    q = spec.order
    mul, add = spec._mul, spec._add
    out = []
    for ent in itertools.product(range(q), repeat=n * n):
        ok = True
        for i in range(n):
            if not ok:
                break
            for j in range(n):
                acc = 0
                for k in range(n):
                    a = ent[i * n + k]
                    if a:
                        b = ent[k * n + j]
                        if b:
                            acc = add(acc, mul(a, b))
                if acc:
                    ok = False
                    break
        if ok:
            out.append(ent)
    return tuple(out)


def exp_log_chain(spec):
    """exp and log tables of an extension field from the chain
    g^0, ..., g^(q-2), one digit-arithmetic multiplication per entry."""
    q = spec.order
    g = spec._find_generator()
    exp = [1] * (2 * (q - 1))
    log = [0] * q
    acc = 1
    for i in range(q - 1):
        exp[i] = acc
        exp[i + q - 1] = acc
        log[acc] = i
        acc = spec._raw_mul(acc, g)
    return exp, log


def add_by_digits(spec, x, y):
    """x + y in GF(p^l) by adding base-p digits mod p, one at a time."""
    p = spec.p
    out, place = 0, 1
    for _ in range(spec.l):
        out += (x % p + y % p) % p * place
        x, y, place = x // p, y // p, place * p
    return out


def product_by_elements(A, B):
    """A * B by the naive triple loop, one spec._mul and spec._add per
    term."""
    spec, n = A.spec, A.n
    mul, add = spec._mul, spec._add
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = add(acc, mul(A.entries[i * n + k], B.entries[k * n + j]))
            out.append(acc)
    return Mat(spec, n, out)


def verify_by_mats(witness, companion_matrix, require_commuting=False):
    """Witness.verify on Mat objects: P + N, N * N, P * N and N * P each
    build a Mat through Mat's operators, and the potent-part claims are
    checked afresh, with no memo.  The oracle the entry-tuple checker is
    held to."""
    P, N = witness.potent, witness.nilpotent
    if P + N != companion_matrix:
        return False
    if not is_square_zero(N):
        return False
    if not companion._potent_claims_hold.__wrapped__(P, witness.exponent):
        return False
    if (P * N == N * P) != witness.commuting:
        return False
    if require_commuting and not witness.commuting:
        return False
    return True


def gcd_by_polys(f, g):
    """Monic gcd by Euclid on Poly objects, each remainder by a divisor of
    any lead."""
    f._same_field(g)
    if f.is_zero() and g.is_zero():
        raise InputError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod_by_polys(base, e, mod):
    """base**e modulo mod by square-and-multiply on Poly objects, each
    product reduced by Poly's %."""
    base._same_field(mod)
    if not isinstance(e, int) or e < 0:
        raise InputError(f"exponent must be a non-negative integer, got {e!r}")
    if mod.degree < 1:
        raise InputError("modulus must have degree >= 1")
    if not e:
        return Poly.one(base.spec)
    return power(base % mod, e, lambda a, b: a * b % mod)


def is_squarefree_by_polys(f):
    """gcd(f, f') == 1 on Poly objects; constants are squarefree and a
    nonconstant f with f' = 0 is not."""
    if f.is_zero():
        raise InputError("squarefreeness of 0 is undefined")
    if f.degree == 0:
        return True
    d = f.derivative()
    if d.is_zero():
        return False
    return gcd_by_polys(f, d).degree == 0


def distinct_degree_parts_by_polys(f):
    """The list of distinct_degree_parts(f), each step's q-th power,
    gcd and division on Poly objects."""
    if f.is_zero():
        raise InputError("the zero polynomial has no factorization")
    spec = f.spec
    work = f.monic()
    x = Poly.x(spec)
    h = x
    d = 0
    out = []
    while 2 * (d + 1) <= work.degree:
        d += 1
        h = pow_mod_by_polys(h, spec.order, work)
        part = gcd_by_polys(work, h - x)
        out.append((d, part))
        if part.degree > 0:
            strip = part
            while strip.degree > 0:
                work = work // strip
                strip = gcd_by_polys(work, strip)
            h = h % work
    if work.degree >= 1:
        out.append((work.degree, work))
    return out


def min_poly_by_mats(M):
    """The powers I, M, M^2, ... as Mat objects, each one product of Mats,
    reduced through mat._reduce until one reduces to 0."""
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
            raise WeakperError(
                "power M^n failed to reduce against lower powers")
        basis.append(_basis_row(vec, pivot, combo, spec))
        acc = acc * M if k else M
        k += 1


def commuting_split_by_orbit(C):
    """brute_commuting_decompose by matrix powers: q^n >= n is at least
    the nilpotency index, so A = C^(q^n) = s^(q^n) for the semisimple part
    s of C.  The q-th power is an automorphism of the algebra of s of
    order d, the lcm of the degrees of the factors of min_poly(s), at most
    Landau's g(n); the steps B <- B^q from A return to A after d of them,
    and s is the step j with n + j = 0 mod d.  The split is P = s,
    N = C - s when N^2 = 0, else None."""
    q, n = C.spec.order, C.n
    orbit = [C ** (q ** n)]
    bound = math.lcm(*range(1, n + 1))  # d divides it
    while len(orbit) <= bound:
        B = orbit[-1] ** q
        if B == orbit[0]:
            break
        orbit.append(B)
    assert len(orbit) <= bound, "C^(q^n) never returned to itself"
    P = orbit[-n % len(orbit)]
    exponent = potency_exponent(P)
    assert exponent is not None, "the semisimple part is not potent"
    N = C - P
    if not is_square_zero(N):
        return None
    return Witness(potent=P, nilpotent=N, exponent=exponent, commuting=True,
                   source="brute_commuting")


def linear_combination(vectors, target, spec):
    """Coefficients c with sum(c[i] * vectors[i]) = target, or None.

    Each vector is reduced through mat._reduce in turn, then the target; a
    vector that depends on earlier ones gets coefficient 0, so the answer
    is deterministic.  vectors and target are flat tuples of equal length.
    """
    k = len(vectors)
    if any(len(v) != len(target) for v in vectors):
        raise InputError("vectors must all match the target length")
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
    return tuple(spec._ops().negate(combo))


def root_of_unity_certificate(C, t):
    """True iff char_poly(C) divides (X^(t-1) - 1)^2; C must be invertible
    and t the potency exponent of a commuting decomposition, t > 1."""
    if not isinstance(t, int) or t < 2:
        raise InputError(f"certificate exponent must be > 1, got {t!r}")
    chi = char_poly(C)
    if chi.coeffs[0] == 0:
        raise InputError("certificate requires an invertible matrix "
                         "(nonzero constant term)")
    spec = C.spec
    s = pow_mod(Poly.x(spec), t - 1, chi) - Poly.one(spec)
    return ((s * s) % chi).is_zero()


def fixed_point_certificate(C, P):
    """Express P as a polynomial q in C and test char_poly(C) | (q(X)-X)^2.

    P must commute with C; for a companion C the commutant is exactly the
    polynomials in C, so the Krylov system is solvable.  Returns
    (q, bool).
    """
    if C * P != P * C:
        raise InputError("P does not commute with C")
    spec = C.spec
    powers = [(C ** i).entries for i in range(C.n)]
    coeffs = linear_combination(powers, P.entries, spec)
    assert coeffs is not None, "P commutes with C but is no polynomial in C"
    q_poly = Poly(spec, coeffs)
    chi = char_poly(C)
    s = (q_poly - Poly.x(spec)) % chi
    return q_poly, ((s * s) % chi).is_zero()


def element_loops():
    """A context within which FieldSpec._ops gives every field, GF(p)
    included, the element backend, so each operation makes one FieldSpec
    call per term, as over a field past the table bound: the reference the
    integer and table backends are checked against."""
    return mock.patch.object(FieldSpec, "_ops", lambda spec: ElementOps(spec))


def random_matrix(rng, spec, n):
    return Mat.from_rows(
        spec,
        [tuple(rng.randrange(spec.order) for _ in range(n)) for _ in range(n)],
    )


@pytest.fixture
def seeded_rng():
    return random.Random(SEED)


@pytest.fixture
def exponent_route_rejects(monkeypatch):
    """The exponent potency route (P^t = P with p not dividing t - 1)
    rejects every witness for one test; the potent-claims memo is cleared
    around it so no verdict leaks."""
    monkeypatch.setattr(companion, "is_potent_at", lambda M, t: False)
    companion._potent_claims_hold.cache_clear()
    yield
    companion._potent_claims_hold.cache_clear()


@pytest.fixture
def mat_product_budget(monkeypatch):
    """Fail a test the moment it multiplies more than `budget` matrices;
    call the fixture with the budget.  Products are counted at
    mat._product, the selector Mat.__mul__, Mat.__pow__ and
    Witness.verify take them from, in every module that binds it."""
    def install(budget):
        used = [0]
        select = mat._product

        def counted_select(n, ops):
            product = select(n, ops)

            def counted(a, b, t):
                used[0] += 1
                assert used[0] <= budget, f"more than {budget} matrix products"
                return product(a, b, t)
            return counted

        for module in (mat, companion):
            assert module._product is select
            monkeypatch.setattr(module, "_product", counted_select)
        return used
    return install


# --- malformed records ------------------------------------------------------
# Each mutation edits, in place, the decoded JSON of the GF(2) n=3
# commuting-mode verify report, whose records 0 and 7 are not_decomposable
# and records 1..6 carry a witness.  Each one leaves a record that is not
# well formed, so load_report must reject the report and verify --cache must
# treat the entry as a miss.

def _witness(data):
    return data["records"][1]["witness"]


def _set_p00(value_of):
    def mutate(data):
        P = _witness(data)["P"]
        P[0][0] = value_of(P[0][0])
    return mutate


def _coeff_as_bool(data):
    # record 1 is g = [0, 0, 1]
    data["records"][1]["g"][2] = True
    _witness(data)["companion_coeffs"][2] = True


def _shrink_p(data):
    w = _witness(data)
    w["P"] = [row[:2] for row in w["P"][:2]]


def _move_row_from_n_to_p(data):
    w = _witness(data)
    w["P"].append(w["N"].pop())


def _witness_on_failed_record(data):
    bare = data["records"][0]
    bare["witness"] = dict(_witness(data), companion_coeffs=list(bare["g"]))


def _relabel_failed_record(data):
    data["records"][0]["status"] = "decomposable"


def _set_witness_key(key, value):
    def mutate(data):
        _witness(data)[key] = value
    return mutate


RECORD_MUTATIONS = {
    "bool entry": _set_p00(bool),
    "float entry": _set_p00(float),
    "str entry": _set_p00(str),
    "entry equal to q": _set_p00(lambda v: 2),
    "bool coefficient": _coeff_as_bool,
    "2x2 P at n=3": _shrink_p,
    "4x3 P and 2x3 N": _move_row_from_n_to_p,
    "witness on a not_decomposable record": _witness_on_failed_record,
    "decomposable record without witness": _relabel_failed_record,
    "companion_coeffs of another record": _set_witness_key(
        "companion_coeffs", [0, 1, 0]),
    "field of another witness": _set_witness_key("field", "3^1/0,1"),
    "n of another witness": _set_witness_key("n", 2),
    "float n": _set_witness_key("n", 3.0),
    "float potency_exponent": _set_witness_key("potency_exponent", 2.0),
    "str potency_exponent": _set_witness_key("potency_exponent", "2"),
}
