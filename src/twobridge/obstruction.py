"""Cosmetic surgery obstructions for two-bridge knots.

Three obstructions are combined into one verdict per knot, tried in
order of increasing cost:

  1. second derivative of the Alexander polynomial at 1 is nonzero
     (rules out all cosmetic surgery pairs);
  2. knot signature is nonzero (rules them out through the concordance
     invariant of the alternating knot);
  3. the boundary-slope weight difference sum_{N<0} W - sum_{N>0} W is
     nonzero (rules out cosmetic pairs yielding homology 3-spheres).

All three values are always computed and reported; the verdict names
the first tier that fires.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from fractions import Fraction

from .alexander import _band, _delta_second, _even_diagonal, _signature
from .errors import DomainError
from .rational import Record, SchubertForm, crossing_number, preferred_form
from .slopes import _quotients, _weight_sides


class Verdict(enum.Enum):
    NO_COSMETIC_BOYER_LINES = "NoCosmetic_BoyerLines"
    NO_COSMETIC_NIWU_TAU = "NoCosmetic_NiWuTau"
    NO_HOMOLOGY_SPHERE_COSMETIC_SL2C = "NoHomologySphereCosmetic_SL2C"
    INCONCLUSIVE = "Inconclusive"


class ObstructionReport(Record):
    """Everything the obstruction pipeline knows about one knot."""

    knot: SchubertForm
    mirrored: bool
    name: str | None
    crossing_number: int
    delta_second: int
    sigma: int
    casson_difference: Fraction
    verdict: Verdict
    caveats: tuple[str, ...]


class NiWuPair(Record):
    """Candidate slope pair p/q1, -p/q1 passing the homological constraints
    q1^2 = -1 (mod p) that any purely cosmetic pair must satisfy."""

    p: int
    q1: int

    def __post_init__(self):
        if self.p < 1 or self.q1 < 1:
            raise DomainError(f"need positive p and q1, got {self.p}/{self.q1}")
        if math.gcd(self.p, self.q1) != 1 or (self.q1 * self.q1 + 1) % self.p != 0:
            raise DomainError(f"{self.q1}^2 != -1 mod {self.p}")

    @property
    def q2(self) -> int:
        return -self.q1


def classify(delta_second: int, sigma: int, casson_difference: Fraction) -> Verdict:
    """Verdict tiering; the tiers are tried exactly in this order."""
    if delta_second != 0:
        return Verdict.NO_COSMETIC_BOYER_LINES
    if sigma != 0:
        return Verdict.NO_COSMETIC_NIWU_TAU
    if casson_difference != 0:
        return Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C
    return Verdict.INCONCLUSIVE


# The caveats of a report follow from its verdict.
CAVEATS = {
    Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C: (
        "rules out only surgery pairs yielding homology 3-spheres",
    ),
    Verdict.INCONCLUSIVE: ("no obstruction fired; cosmetic surgeries are not excluded",),
}


def obstruct(s: SchubertForm) -> ObstructionReport:
    """Run all three obstructions on one knot and report the verdict."""
    canonical, mirrored = preferred_form(s)
    alpha, beta = canonical.alpha, canonical.beta
    return _report(_values(alpha, beta, _quotients(alpha, beta), mirrored, knot_name(canonical),
                           crossing_number(canonical)))


def _values(alpha: int, beta: int, quotients: list[int], mirrored: bool, name: str | None,
            crossings: int) -> tuple:
    """The kernel: the values of the report on S(alpha, beta), a preferred
    form whose Euclid quotients are quotients, as the plain tuple

        (alpha, beta, mirrored, name, crossings, delta_second, sigma,
         twice_difference, verdict)

    where twice_difference = 2 * casson_difference is an integer and the
    caveats are CAVEATS.get(verdict, ()).  One band loop over the Seifert
    diagonal of the even walk gives Delta''(1), the signature and the
    longitude's sign sum; one pass over the quotients gives the two
    weight sums (see slopes._weight_sides).  Nothing is shared between
    knots.
    """
    unit, odd, second, sigma, _, longitude, vanishing = _band(_even_diagonal(alpha, beta))
    delta_second = _delta_second(unit, odd, second)
    sigma = _signature(sigma, vanishing)
    negative, positive = _weight_sides(alpha, beta, quotients, longitude)
    twice = negative - positive
    return (alpha, beta, mirrored, name, crossings, delta_second, sigma, twice,
            classify(delta_second, sigma, twice))


def _report(values: tuple) -> ObstructionReport:
    """The ObstructionReport holding the values of _values."""
    alpha, beta, mirrored, name, crossings, delta_second, sigma, twice, verdict = values
    return ObstructionReport(SchubertForm(alpha, beta), mirrored, name, crossings, delta_second,
                             sigma, Fraction(twice, 2), verdict, CAVEATS.get(verdict, ()))


def niwu_candidate_slopes(p: int, q_max: int) -> list[NiWuPair]:
    """All q in [1, q_max] coprime to p with q^2 = -1 (mod p), paired with -q."""
    if p < 1:
        raise DomainError(f"p must be a positive integer, got {p}")
    return [
        NiWuPair(p, q)
        for q in range(1, q_max + 1)
        if math.gcd(p, q) == 1 and (q * q + 1) % p == 0
    ]


def class_key(alpha: int, beta: int) -> int:
    """Smallest beta among the four forms presenting this knot or its mirror."""
    inv = pow(beta, -1, alpha)
    return min(beta % alpha, inv, (-beta) % alpha, (-inv) % alpha)


# Display names for small knots, keyed by (alpha, class_key).  Unnamed
# knots fall back to their Schubert form.
_NAME_FIXTURES = [
    ("3_1", 3, 1),
    ("4_1", 5, 2),
    ("5_1", 5, 1),
    ("5_2", 7, 3),
    ("6_1", 9, 7),
    ("6_2", 11, 4),
    ("6_3", 13, 5),
    ("7_1", 7, 1),
    ("7_2", 11, 5),
    ("7_3", 13, 4),
    ("7_4", 15, 4),
    ("7_5", 17, 7),
    ("7_6", 19, 7),
    ("7_7", 21, 8),
    ("8_1", 13, 11),
    ("8_3", 17, 4),
    ("8_8", 25, 9),
    ("8_9", 25, 7),
    ("8_12", 29, 12),
    ("8_13", 29, 11),
    ("9_1", 9, 1),
    ("9_14", 37, 14),
    ("9_19", 41, 16),
    ("9_27", 49, 19),
]

KNOT_NAMES = {(alpha, class_key(alpha, beta)): name for name, alpha, beta in _NAME_FIXTURES}

NAMED_FORMS = {name: SchubertForm(alpha, beta) for name, alpha, beta in _NAME_FIXTURES}


def knot_name(s: SchubertForm) -> str | None:
    return KNOT_NAMES.get((s.alpha, class_key(s.alpha, s.beta)))


# census(N) reports about 2^(N-2)/3 knots, and the time per knot grows
# slowly with N: `obstruct --census N --jsonl` takes 0.45 s of CPU time
# at N = 18 (26.4 MB peak RSS) and 1.8 s at N = 20 (87,722 knots,
# 56.6 MB), the fastest of a few runs as a child process on a shared
# 2-CPU x86_64 container with Python 3.11.  Each knot's quotients and
# inverse come from the tail walk (see _class_values), and no state is
# shared between knots, so memory is one output line per knot.
CENSUS_MAX_CROSSINGS = 20


def _class_representatives(max_crossings: int) -> Iterator[tuple[int, int, int, list[int], int]]:
    """(alpha, class_key, crossing number, tail, q') for every knot class
    of crossing number <= max_crossings, one at a time.

    Depth-first over simple continued fraction tails [a1, ..., ak] of
    beta/alpha (positive terms, the last >= 2), each carrying its
    convergent by the continuant recurrence.  Every beta in (0, alpha)
    has exactly one such tail, the class key lies below alpha/2 (so
    a1 >= 2), and the term sum is the crossing number of all four
    presentations of the knot; so a tail of sum <= max_crossings is kept
    exactly when alpha is odd and beta is its class key.  The previous
    convergent's denominator q' satisfies beta q' = (-1)^(k-1) mod alpha,
    so the four presentations are beta, alpha - beta, q' and alpha - q',
    and beta (below alpha/2) is the class key when it is at most q' and
    alpha - q'.

    The walk is in preorder over one path list, the tail, with the
    numerators and denominators of its convergents alongside: a tail
    below the bound takes the first child, a term 1, and one at the bound
    is popped and its parent's last term raised by one, which is the
    parent's next sibling.  The yielded list is the knot's tail only
    until the walk resumes.
    """
    tail = [2]
    ps, qs = [0, 1], [1, 2]  # p_j and q_j for j = 0, ..., k
    total = 2
    while True:
        p, q, q_prev = ps[-1], qs[-1], qs[-2]
        if q % 2 == 1 and tail[-1] >= 2 and p <= q_prev and p <= q - q_prev:
            yield q, p, total, tail, q_prev
        if total < max_crossings:
            tail.append(1)
            ps.append(p + ps[-2])
            qs.append(q + q_prev)
            total += 1
        else:
            total -= tail.pop()
            ps.pop()
            qs.pop()
            if not tail:
                return
            tail[-1] += 1
            ps[-1] += ps[-2]
            qs[-1] += qs[-2]
            total += 1


def census(max_crossings: int) -> list[ObstructionReport]:
    """One report per equivalence class of two-bridge knots (mirrors merged)
    with at most max_crossings crossings, sorted by (alpha, canonical beta).

    The classes come from _class_representatives, so the work grows with
    the number of knots reported, not with the range of alpha.
    max_crossings above CENSUS_MAX_CROSSINGS is refused.
    """
    return [_report(v) for v in sorted(_unsorted_census(max_crossings))]


def _unsorted_census(max_crossings: int) -> Iterator[tuple]:
    """The values (see _values) of the reports of census(max_crossings),
    one knot at a time in the order of the tail walk, so a caller can
    keep less than the reports.  The bound is checked at the call, before
    any work."""
    if max_crossings < 3:
        raise DomainError(f"max_crossings must be >= 3, got {max_crossings}")
    if max_crossings > CENSUS_MAX_CROSSINGS:
        raise DomainError(
            f"census is limited to {CENSUS_MAX_CROSSINGS} crossings, got {max_crossings}"
        )
    return (_class_values(*knot) for knot in _class_representatives(max_crossings))


def _class_values(alpha: int, key: int, crossings: int, tail: list[int], q_prev: int) -> tuple:
    """_values for the knot class S(alpha, key), key its class key with
    alpha/key = [a1; a2, ..., ak] for the tail, and q' the previous
    convergent's denominator (see _class_representatives): the preferred
    form of preferred_form on integers, and its Euclid quotients from the
    tail.  The key is the least of the four presentations, so for an even
    key no inverse is smaller and the quotients are the tail's.  An odd
    key presents the mirror of the even alpha - key, of quotients
    (1, a1 - 1, a2, ..., ak); its inverse alpha - key^-1 replaces it when
    even and smaller.  As key q' = (-1)^(k-1) mod alpha, that inverse is
    q', of quotients (ak, ..., a1) since alpha/q' is the reversed tail,
    for even k, and alpha - q', of quotients (1, ak - 1, ..., a1), for
    odd k.
    """
    if key % 2 == 0:
        beta, mirrored, quotients = key, False, tail
    else:
        beta, mirrored = alpha - key, True
        even_length = len(tail) % 2 == 0
        inverse = q_prev if even_length else alpha - q_prev
        if inverse % 2 == 0 and inverse < beta:
            beta = inverse
            quotients = tail[::-1] if even_length else [1, tail[-1] - 1, *tail[-2::-1]]
        else:
            quotients = [1, tail[0] - 1, *tail[1:]]
    return _values(alpha, beta, quotients, mirrored, KNOT_NAMES.get((alpha, key)), crossings)
