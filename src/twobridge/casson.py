"""Total Culler-Shalen seminorm and the surgery formula for the
SL(2,C) Casson invariant of two-bridge knot surgeries.

For a surgery slope p/q on S(alpha, beta) with boundary slopes N_i of
weight W_i, the seminorm is

    ||p/q||_T = (-|p| + sum_i W_i * |p - q N_i|) / 2

and, when p/q is not a strict boundary slope and no p'-th root of unity
(p' = p for odd p, p/2 for even p) is a root of the Alexander
polynomial,

    lambda(K(p/q)) = ||p/q||_T / 2            for even p,
    lambda(K(p/q)) = ||p/q||_T / 2 - (alpha-1)/4   for odd p.

The difference lambda(K(1/q)) - lambda(K(-1/q)) collapses to the
q-independent quantity (sum_{N<0} W - sum_{N>0} W) / 2, which is the
obstruction driving the homology-sphere cosmetic surgery verdicts.

The root-of-unity condition needs the Alexander polynomial only
sometimes.  A root of unity of prime-power order r^k is never a root of
Delta (Fox): Phi_(r^k)(1) = r while Delta(1) = 1.  Any other order d
that can divide Delta has phi(d) <= deg Delta = 2g, so its primes are at
most 2g + 1.  Trial division of p' by those primes lists the few
candidate orders; Delta is built only when one exists, and is then
folded mod t^d - 1 and divided exactly by each candidate Phi_d.  The
cost depends on the genus and not on p.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .alexander import SeifertMatrix, _band, _even_diagonal, alexander_poly
from .errors import DomainError, MeridianError
from .rational import Record, SchubertForm, _ascii_int, preferred_form
from .slopes import SlopeSystem, SlopeWeights, _slope_weights

# Either carries .weights, the (slope, total weight) pairs; nothing else is read.
SlopeData = SlopeSystem | SlopeWeights


class SurgerySlope(Record):
    """A surgery slope p/q; q = 0 is allowed only for the meridian 1/0."""

    p: int
    q: int

    def __post_init__(self):
        if self.q == 0:
            if self.p != 1:
                raise DomainError(f"the only slope with q = 0 is the meridian 1/0, got {self}")
        elif self.q < 0:
            raise DomainError(f"q must be positive, got {self}")
        elif math.gcd(abs(self.p), self.q) != 1:
            raise DomainError(f"slope {self} is not reduced")

    @property
    def is_meridian(self) -> bool:
        return self.q == 0

    @classmethod
    def parse(cls, text: str) -> "SurgerySlope":
        p_str, slash, q_str = text.strip().partition("/")
        try:
            p, q = _ascii_int(p_str), _ascii_int(q_str) if slash else 1
        except ValueError:
            raise DomainError(f"cannot parse surgery slope {text!r} (want p/q or p)") from None
        return cls(p, q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class LambdaValue(Record):
    """A Casson invariant value, the total seminorm it was computed from,
    and the status of the formula's hypotheses."""

    value: Fraction
    seminorm: Fraction
    hypotheses_ok: bool
    caveats: tuple[str, ...]

    def __post_init__(self):
        if not self.hypotheses_ok and not self.caveats:
            raise DomainError("failed hypotheses must come with at least one caveat")


def slope_distance(r: SurgerySlope, N: int) -> int:
    """Minimal geometric intersection number |p - q*N| of p/q with N/1."""
    if r.is_meridian:
        raise MeridianError("slope distance from the meridian is not used here")
    return abs(r.p - r.q * N)


def total_seminorm(sys: SlopeData, r: SurgerySlope) -> Fraction:
    """Total Culler-Shalen seminorm (-|p| + sum W_i |p - q N_i|) / 2."""
    if r.is_meridian:
        raise MeridianError("the seminorm formula does not apply to the meridian")
    total = sum(w * slope_distance(r, slope) for slope, w in sys.weights)
    return Fraction(-abs(r.p) + total, 2)


def root_of_unity_check(M: SeifertMatrix, p_prime: int) -> bool:
    """True iff no p'-th root of unity is a root of the Alexander
    polynomial of the knot with Seifert matrix M.

    A p'-th root of unity of order d is a root exactly when the
    cyclotomic polynomial Phi_d divides the integer polynomial
    f = t^g * Delta.  Only the orders `_candidate_orders` lists can do
    that, so when there are none the polynomial is never built; otherwise
    the candidates are tried in increasing phi(d) by exact division of
    f mod t^d - 1 by the monic Phi_d over the integers, stopping at the
    first that divides.
    """
    if p_prime < 1:
        raise DomainError(f"p' must be >= 1, got {p_prime}")
    orders = _candidate_orders(p_prime, 2 * M.genus)
    if not orders:
        return True
    delta = alexander_poly(M)
    f = [delta.coefficient(k) for k in range(-M.genus, M.genus + 1)]
    return not any(_divides(_cyclotomic(d, primes), _fold(f, d)) for d, primes in orders)


def _fold(f: list[int], d: int) -> list[int]:
    """f mod t^d - 1 (constant first): coefficient i added into slot i mod d.

    Phi_d divides t^d - 1, so it divides f exactly when it divides the
    fold, and dividing d coefficients instead of deg f + 1 makes each
    trial O(d * phi(d)).
    """
    if len(f) <= d:
        return f
    return [sum(f[r::d]) for r in range(d)]


def _candidate_orders(p_prime: int, degree: int) -> list[tuple[int, list[int]]]:
    """(d, distinct primes of d) for the divisors d of p' that are not
    prime powers (1 counts as one) and have phi(d) <= degree, in
    increasing (phi(d), d).

    Every prime r of such a d has r - 1 | phi(d), so r <= degree + 1:
    trial division of p' by 2..degree + 1 finds all of them, and the
    divisors are grown from those prime powers while phi stays within
    the degree.
    """
    powers = []  # (r, largest exponent of r in p') for the small primes r of p'
    n = p_prime
    for r in range(2, degree + 2):
        if n == 1:
            break
        if n % r == 0:
            e = 0
            while n % r == 0:
                n //= r
                e += 1
            powers.append((r, e))
    divisors = [(1, 1, [])]  # (phi(d), d, distinct primes of d)
    for r, e in powers:
        grown = []
        for phi, d, primes in divisors:
            phi, d = phi * (r - 1), d * r
            for _ in range(e):
                if phi > degree:
                    break
                grown.append((phi, d, primes + [r]))
                phi, d = phi * r, d * r
        divisors += grown
    return [(d, primes) for _phi, d, primes in sorted(divisors) if len(primes) >= 2]


def _cyclotomic(d: int, primes: list[int]) -> list[int]:
    """Coefficients (constant first) of the d-th cyclotomic polynomial.

    Phi_d(t) = prod over sets S of the primes of d of
    (t^(d / prod S) - 1)^((-1)^|S|): the Moebius product over the
    squarefree divisors.  Multiplying by the numerator binomials first
    keeps every division by a denominator binomial exact.
    """
    numerators, denominators = [], []
    for mask in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        (denominators if len(chosen) % 2 else numerators).append(d // math.prod(chosen))
    poly = [1]
    for e in numerators:  # times t^e - 1
        poly = [(poly[i - e] if i >= e else 0) - (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + e)]
    for e in denominators:  # exactly divided by t^e - 1
        quotient = []
        for i in range(len(poly) - e):
            quotient.append((quotient[i - e] if i >= e else 0) - poly[i])
        poly = quotient
    return poly


def _divides(g: list[int], f: list[int]) -> bool:
    """Whether the monic integer polynomial g divides f exactly."""
    rem = list(f)
    m = len(g) - 1
    for shift in range(len(f) - 1 - m, -1, -1):
        c = rem[shift + m]
        if c:
            for i, gc in enumerate(g):
                if gc:
                    rem[shift + i] -= c * gc
    return not any(rem[:m])


def lambda_surgery(s: SchubertForm, r: SurgerySlope) -> LambdaValue:
    """SL(2,C) Casson invariant of p/q surgery via the seminorm formula.

    The value is always computed from the parity formula; hypotheses_ok
    reports whether the formula's assumptions could be verified: the
    root-of-unity condition on the Alexander polynomial, and p/q not
    coinciding with a boundary slope (the proxy available here for "not
    a strict boundary slope").
    """
    if r.is_meridian:
        raise MeridianError("the surgery formula does not apply to the trivial surgery")
    canonical, mirrored = preferred_form(s)
    # Canonicalizing an odd beta presents the mirror image, which negates
    # every boundary slope; negating the surgery slope compensates, so the
    # value always describes the input knot.
    r_eff = SurgerySlope(-r.p, r.q) if mirrored else r
    diagonal = _even_diagonal(canonical.alpha, canonical.beta)
    weights = _slope_weights(canonical, _band(diagonal)[3])
    seminorm = total_seminorm(weights, r_eff)
    if r.p % 2 == 0:
        value = seminorm / 2
    else:
        value = seminorm / 2 - Fraction(canonical.alpha - 1, 4)

    caveats: list[str] = []
    ok = True
    if r.p == 0:
        ok = False
        caveats.append("longitudinal slope p = 0: the root-of-unity condition degenerates")
    else:
        p_prime = abs(r.p) if r.p % 2 else abs(r.p) // 2
        if not root_of_unity_check(SeifertMatrix(tuple(diagonal)), p_prime):
            ok = False
            caveats.append(
                f"a {p_prime}-th root of unity is a root of the Alexander polynomial"
            )
    if r.q == 1 and r.p % 2 == 0:
        caveats.append("even integer slope: strictness of boundary slopes unverified")
        if any(slope == r_eff.p for slope, _ in weights.weights):
            ok = False
            caveats.append(f"{r} is a boundary slope of this knot")
    return LambdaValue(value, seminorm, ok, tuple(caveats))


def lambda_difference(sys: SlopeData, p: int, q: int) -> Fraction:
    """lambda(K(p/q)) - lambda(K(-p/q)) = sum_i W_i(|p - qN_i| - |-p - qN_i|)/4."""
    if p < 1 or p % 2 == 0:
        raise DomainError(f"p must be a positive odd integer, got {p}")
    if q < 1 or math.gcd(p, q) != 1:
        raise DomainError(f"q must be positive and coprime to p, got {p}/{q}")
    total = sum(w * (abs(p - q * slope) - abs(-p - q * slope)) for slope, w in sys.weights)
    return Fraction(total, 4)


def cosmetic_difference(sys: SlopeData) -> Fraction:
    """(sum_{N<0} W - sum_{N>0} W) / 2, the q-independent value of
    lambda_difference at p = 1.  Nonzero means no purely cosmetic
    surgery pair of the knot yields homology 3-spheres."""
    negative = sum(w for slope, w in sys.weights if slope < 0)
    positive = sum(w for slope, w in sys.weights if slope > 0)
    return Fraction(negative - positive, 2)
