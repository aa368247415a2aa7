"""Workload definitions: which CLI invocations each workload replays, and
the ground truth each invocation's output is checked against.

A cell is one fixed `weakper` invocation.  Its pinned facts are counts and
verdicts, never digests, so a version bump that leaves the mathematics
alone does not break them.  The counts were produced by weakper 0.1.0 and
agree with the README's ground truth (GF(4) and GF(8) at n = 2 lose 4 of 16
and 8 of 64 companions to the constructive route; 6 of 8 GF(2) cubics have
a commuting split).
"""

import dataclasses
import json
import pathlib
import random

CACHE_DIR = "{cache}"  # replaced by the cache directory set-up fills

LEMMA_NAMES = (
    "trace_set_in_unity_sums",
    "unity_sums_in_spectra",
    "divisor_count_agreement",
    "spectra_shift_certificates",
    "gcd_product_divisibility",
    "same_trace_difference_square_zero",
    "potency_route_agreement",
)

# field argument -> (p, l)
FIELDS = {"2": (2, 1), "3": (3, 1), "5": (5, 1), "7": (7, 1),
          "2^2": (2, 2), "2^3": (2, 3), "3^2": (3, 2)}

# (mode, field, n) -> (total, decomposable)
VERIFY_COUNTS = {
    ("constructive", "3", 2): (9, 9),
    ("constructive", "2^2", 2): (16, 12),
    ("constructive", "2^2", 3): (64, 64),
    ("constructive", "5", 2): (25, 25),
    ("constructive", "5", 3): (125, 125),
    ("constructive", "5", 4): (625, 625),
    ("constructive", "7", 2): (49, 49),
    ("constructive", "7", 3): (343, 343),
    ("constructive", "2^3", 2): (64, 56),
    ("constructive", "2^3", 3): (512, 512),
    ("constructive", "3^2", 2): (81, 81),
    ("constructive", "3^2", 3): (729, 729),
    ("brute", "2", 3): (8, 8),
    ("commuting", "2", 3): (8, 6),
    ("brute", "2", 4): (16, 16),
    ("commuting", "2", 4): (16, 12),
    ("brute", "3", 3): (27, 27),
    ("commuting", "3", 3): (27, 24),
    ("brute", "2^2", 3): (64, 64),
    ("commuting", "2^2", 3): (64, 60),
}

# (field, n) -> facts of the `sets` report: potent traces, unity-sum
# values, whether the containments passed, and the spectrum size per m
SETS_FACTS = {
    ("2", 2): ([1], [0, 1], True,
               {"2": 2, "3": 4, "4": 2, "5": 4, "6": 4, "7": 2, "8": 2}),
    ("3", 2): ([0, 1, 2], [0, 1, 2], True,
               {"2": 3, "3": 2, "4": 9, "5": 4, "6": 3, "7": 2, "8": 9}),
    ("2^2", 2): ([1, 2, 3], [0, 1, 2, 3], True,
                 {"2": 2, "3": 4, "4": 2, "5": 16, "6": 4, "7": 2, "8": 2}),
    ("2", 3): ([0, 1], [0, 1], True,
               {"2": 2, "3": 4, "4": 2, "5": 4, "6": 4, "7": 8, "8": 2}),
    ("5", 2): ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], True,
               {"2": 5, "3": 9, "4": 5, "5": 2, "6": 19, "7": 2, "8": 25}),
    ("5", 3): ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], True,
               {"2": 5, "3": 19, "4": 5, "5": 3, "6": 25, "7": 11, "8": 25}),
}

# (field, n) -> lemmas that fail by design at the default --m-max 8: the
# fifth- and seventh-power shift certificates (README "Ground truth")
LEMMA_FAILS = {
    ("2", 2): {"spectra_shift_certificates"},
    ("3", 2): {"spectra_shift_certificates"},
    ("2^2", 2): {"spectra_shift_certificates"},
    ("2", 3): {"spectra_shift_certificates"},
    ("5", 2): set(),
    ("5", 3): {"spectra_shift_certificates"},
}

# "field n" -> {"a0,...,a(n-1)": [total, commuting]}: exhaustive witness
# counts of every companion the decompose cells can draw
WITNESS_COUNTS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "witness_counts.json")
    .read_text())


@dataclasses.dataclass(frozen=True)
class Cell:
    """One CLI invocation with its pinned outcome.

    argv excludes the program name; exit_code is what the invocation must
    return (1 on the red-by-design cells); companions is the number of
    companion matrices it decides or serves; truth holds the facts the
    gate checks, keyed by command.
    """
    argv: tuple
    exit_code: int
    companions: int
    truth: tuple

    @property
    def command(self):
        return self.argv[0]

    @property
    def field(self):
        return self.argv[self.argv.index("--field") + 1]

    def option(self, name, default=None):
        return (self.argv[self.argv.index(name) + 1]
                if name in self.argv else default)

    @property
    def key(self):
        return " ".join(self.argv)


def _order(field):
    p, l = FIELDS[field]
    return p ** l


def verify_cell(mode, field, n, extra=()):
    total, decomposable = VERIFY_COUNTS[(mode, field, n)]
    failed_constructive = mode == "constructive" and decomposable < total
    return Cell(
        argv=("verify", "--field", field, "--n", str(n), "--mode", mode)
        + tuple(extra),
        exit_code=1 if failed_constructive else 0,
        companions=total,
        truth=(total, decomposable),
    )


def conjecture_cell(field, n):
    total, decomposable = VERIFY_COUNTS[("commuting", field, n)]
    return Cell(argv=("conjecture", "--field", field, "--n", str(n)),
                exit_code=0, companions=total, truth=(total, decomposable))


def decompose_cell(field, n, rng):
    pool = WITNESS_COUNTS[f"{field} {n}"]
    low = rng.choice(sorted(pool))
    total, commuting = pool[low]
    return Cell(
        argv=("decompose", "--field", field, "--poly", low + ",1",
              "--mode", "brute", "--count-witnesses"),
        exit_code=0 if total else 1,
        companions=1,
        truth=(total, commuting),
    )


def sets_cell(field, n):
    return Cell(argv=("sets", "--field", field, "--n", str(n)), exit_code=0,
                companions=_order(field) ** n, truth=SETS_FACTS[(field, n)])


def lemmas_cell(field, n):
    fails = LEMMA_FAILS[(field, n)]
    return Cell(argv=("lemmas", "--field", field, "--n", str(n)),
                exit_code=1 if fails else 0,
                companions=_order(field) ** n, truth=tuple(sorted(fails)))


CONSTRUCTIVE_GRID = (("3", 2), ("2^2", 2), ("2^2", 3), ("5", 2), ("5", 3),
                     ("5", 4), ("7", 2), ("7", 3), ("2^3", 2), ("2^3", 3),
                     ("3^2", 2), ("3^2", 3))

CACHED_VERIFY = (("constructive", "3", 2), ("constructive", "2^2", 2),
                 ("constructive", "5", 3), ("constructive", "3^2", 3),
                 ("brute", "2", 3), ("commuting", "2", 3), ("brute", "3", 3))

LEMMA_POINTS = (("2", 2), ("3", 2), ("2^2", 2), ("2", 3), ("5", 2), ("5", 3))


def constructive_grid(rng):
    return [verify_cell("constructive", f, n) for f, n in CONSTRUCTIVE_GRID]


def exhaustive_search(rng):
    return [
        verify_cell("brute", "2", 3),
        verify_cell("commuting", "2", 3),
        verify_cell("brute", "2", 4),
        conjecture_cell("2", 4),
        verify_cell("brute", "3", 3),
        verify_cell("commuting", "3", 3),
        verify_cell("brute", "2^2", 3),
        conjecture_cell("2^2", 3),
        decompose_cell("2", 4, rng),
        decompose_cell("3", 3, rng),
        decompose_cell("2^2", 3, rng),
    ]


def cache_fill(rng):
    """The cold invocations set-up runs to fill the cache."""
    return [verify_cell(m, f, n, ("--cache", CACHE_DIR))
            for m, f, n in CACHED_VERIFY]


def cache_replay(rng):
    """The fill invocations again, whose JSON must match the cold output
    byte for byte, plus their text rendering."""
    return cache_fill(rng) + [
        verify_cell(m, f, n, ("--cache", CACHE_DIR, "--format", "text"))
        for m, f, n in CACHED_VERIFY]


def lemma_sets(rng):
    return [make(f, n) for f, n in LEMMA_POINTS
            for make in (sets_cell, lemmas_cell)]


# name -> (timed cells, set-up cells, why it was chosen)
WORKLOADS = {
    "constructive-grid": (
        constructive_grid, None,
        "verify --mode constructive over the 12 acceptance cells: "
        "potency_exponent, factor, pow_mod and Witness.verify dominate; "
        "no square-zero filter runs"),
    "exhaustive-search": (
        exhaustive_search, None,
        "brute/commuting verify, conjecture and decompose --count-witnesses "
        "on GF(2) n=3,4, GF(3) n=3, GF(4) n=3: the q^(n^2) square-zero "
        "filter and per-candidate is_potent dominate"),
    "cache-replay": (
        cache_replay, cache_fill,
        "verify --cache served from a cache set-up fills, as json and text: "
        "load_report plus emit instead of compute; a compute gain should "
        "not move it"),
    "lemma-sets": (
        lemma_sets, None,
        "sets and lemmas at six grid points: the only workload that runs "
        "rosets, roots_in_extensions, embed and the extension-field tables"),
}


def build(workload, seed):
    """(timed cells, set-up cells) of a workload; the seed picks the
    decompose polynomials."""
    timed, fill, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return timed(rng), (fill(rng) if fill else [])
