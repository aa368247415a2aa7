"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms:
char_poly_laplace expands the characteristic determinant by cofactors over
polynomial entries, min_poly_scan finds the minimal polynomial by
enumerating monic candidates in encoding order, square_zero_oracle
filters all q^(n^2) matrices for N^2 = 0, and exp_log_chain builds the
exp/log tables by one generic multiplication per entry.
potency_exponent_by_factoring takes the exponent from the trial-division
factorization instead of the distinct-degree parts.
"""

import functools
import itertools
import math
import random

import pytest

from weakper import companion
from weakper.gf import build_field, prime_factors
from weakper.mat import Mat, min_poly
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
    call the fixture with the budget."""
    def install(budget):
        used = [0]
        product = Mat.__mul__

        def counted(a, b):
            used[0] += 1
            assert used[0] <= budget, f"more than {budget} matrix products"
            return product(a, b)

        monkeypatch.setattr(Mat, "__mul__", counted)
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
