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
from dataclasses import dataclass
from fractions import Fraction

from .alexander import (
    alexander_second_derivative,
    conway_even_form,
    seifert_from_conway,
    signature,
)
from .casson import cosmetic_difference
from .errors import DomainError
from .rational import SchubertForm, crossing_number, preferred_form
from .slopes import _slope_weights


class Verdict(enum.Enum):
    NO_COSMETIC_BOYER_LINES = "NoCosmetic_BoyerLines"
    NO_COSMETIC_NIWU_TAU = "NoCosmetic_NiWuTau"
    NO_HOMOLOGY_SPHERE_COSMETIC_SL2C = "NoHomologySphereCosmetic_SL2C"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ObstructionReport:
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


@dataclass(frozen=True)
class NiWuPair:
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


def obstruct(s: SchubertForm) -> ObstructionReport:
    """Run all three obstructions on one knot and report the verdict."""
    return _obstruct(s, {})


def _obstruct(s: SchubertForm, memo: dict) -> ObstructionReport:
    """obstruct, with the slope walk reading and filling memo (see
    slopes._slope_weights), which a census shares across its knots."""
    canonical, mirrored = preferred_form(s)
    conway = conway_even_form(canonical)
    matrix = seifert_from_conway(conway)
    delta_second = alexander_second_derivative(matrix)
    sigma = signature(matrix)
    diff = cosmetic_difference(_slope_weights(canonical, conway.entries, memo))
    verdict = classify(delta_second, sigma, diff)
    caveats: tuple[str, ...] = ()
    if verdict is Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C:
        caveats = ("rules out only surgery pairs yielding homology 3-spheres",)
    elif verdict is Verdict.INCONCLUSIVE:
        caveats = ("no obstruction fired; cosmetic surgeries are not excluded",)
    return ObstructionReport(
        knot=canonical,
        mirrored=mirrored,
        name=knot_name(canonical),
        crossing_number=crossing_number(canonical),
        delta_second=delta_second,
        sigma=sigma,
        casson_difference=diff,
        verdict=verdict,
        caveats=caveats,
    )


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
# slowly with N: `obstruct --census N --jsonl` takes 0.6 s of CPU time
# at N = 16 (22.5 MB peak RSS), 2.4 s at N = 18 (43 MB) and 10.6 s at
# N = 20 (87,722 knots, 74 MB) on a 2-CPU x86_64 container with Python
# 3.11.  Memory is the slope memo, at most slopes.MEMO_CAP states (it
# was cleared 13 times at N = 20), plus one output line per knot.
CENSUS_MAX_CROSSINGS = 20


def _class_representatives(max_crossings: int) -> Iterator[SchubertForm]:
    """S(alpha, class_key) for every knot class of crossing number <= max_crossings,
    one at a time.

    Depth-first over simple continued fraction tails [a1, ..., ak] of
    beta/alpha (positive terms, the last >= 2), each carrying its
    convergent by the continuant recurrence.  Every beta in (0, alpha)
    has exactly one such tail, the class key lies below alpha/2 (so
    a1 >= 2), and the term sum is the crossing number of all four
    presentations of the knot; so a tail of sum <= max_crossings is kept
    exactly when alpha is odd and beta is its class key.
    """
    # (p_prev, q_prev, p, q, term sum, last term) after the tail [a1]
    stack = [(0, 1, 1, a1, a1, a1) for a1 in range(2, max_crossings + 1)]
    while stack:
        p_prev, q_prev, p, q, total, last = stack.pop()
        if last >= 2 and q % 2 == 1 and class_key(q, p) == p:
            yield SchubertForm(q, p)
        for a in range(1, max_crossings - total + 1):
            stack.append((p, q, a * p + p_prev, a * q + q_prev, total + a, a))


def census(max_crossings: int) -> list[ObstructionReport]:
    """One report per equivalence class of two-bridge knots (mirrors merged)
    with at most max_crossings crossings, sorted by (alpha, canonical beta).

    The classes come from _class_representatives, so the work grows with
    the number of knots reported, not with the range of alpha.
    max_crossings above CENSUS_MAX_CROSSINGS is refused.
    """
    reports = list(_unsorted_census(max_crossings))
    reports.sort(key=lambda r: (r.knot.alpha, r.knot.beta))
    return reports


def _unsorted_census(max_crossings: int) -> Iterator[ObstructionReport]:
    """The reports of census(max_crossings), one at a time in the order of
    the tail walk, so a caller can keep less than the reports.  The bound
    is checked at the call, before any work.  All knots share one slope
    memo, which slopes.MEMO_CAP bounds."""
    if max_crossings < 3:
        raise DomainError(f"max_crossings must be >= 3, got {max_crossings}")
    if max_crossings > CENSUS_MAX_CROSSINGS:
        raise DomainError(
            f"census is limited to {CENSUS_MAX_CROSSINGS} crossings, got {max_crossings}"
        )
    memo: dict = {}
    return (_obstruct(form, memo) for form in _class_representatives(max_crossings))
