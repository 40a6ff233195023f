"""Exact rational arithmetic, continued fractions, and two-bridge normal forms.

The universal value type is `fractions.Fraction` (arbitrary-precision,
always reduced, positive denominator), so nothing in this package ever
touches floating point.  A two-bridge knot is handled through two normal
forms: the Schubert form S(alpha, beta) and the even Conway form
C[e1, ..., e2g], tied together by continued fraction expansions of
beta/alpha.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EvaluationError

def _as_int(value, what: str) -> int:
    """Exact integer coercion; floats and other inexact types are refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _ascii_int(text: str) -> int:
    """int(text), with int's surrounding whitespace and optional sign, but
    ASCII digits only: int alone also takes digit separators ("1_0") and
    the digits of other scripts.  ValueError otherwise, as int raises."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


@dataclass(frozen=True)
class ContinuedFraction:
    """A continued fraction [c, b1, ..., bn] with integer part c.

    The value is c + 1/(b1 + 1/(b2 + ... + 1/bn)); an empty tail means
    the value is just c.  Terms may be negative; evaluation fails only
    when some tail evaluates to zero under a reciprocal.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("continued fraction needs at least an integer part")
        if type(self.terms) is not tuple or set(map(type, self.terms)) != {int}:
            object.__setattr__(
                self, "terms", tuple(_as_int(t, "continued fraction term") for t in self.terms)
            )

    @property
    def integer_part(self) -> int:
        return self.terms[0]

    @property
    def tail(self) -> tuple[int, ...]:
        return self.terms[1:]

    def is_simple(self) -> bool:
        """All tail terms positive and the last one at least 2."""
        tail = self.tail
        return all(t > 0 for t in tail) and (not tail or tail[-1] >= 2)

    def all_even(self) -> bool:
        return all(t % 2 == 0 for t in self.terms)

    def __str__(self) -> str:
        return "[" + ",".join(str(t) for t in self.terms) + "]"


@dataclass(frozen=True)
class SchubertForm:
    """Schubert normal form S(alpha, beta) of a two-bridge knot.

    alpha must be odd (even alpha gives a two-component link) and coprime
    to beta with 0 < beta < alpha.
    """

    alpha: int
    beta: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_int(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_int(self.beta, "beta"))
        if self.alpha < 3 or self.alpha % 2 == 0:
            raise DomainError(f"alpha must be an odd integer >= 3, got {self.alpha}")
        if not 0 < self.beta < self.alpha:
            raise DomainError(f"beta must satisfy 0 < beta < alpha, got {self.beta}")
        if math.gcd(self.alpha, self.beta) != 1:
            raise DomainError(f"S({self.alpha},{self.beta}) is not reduced")

    @property
    def fraction(self) -> Fraction:
        """The classifying fraction beta/alpha in (0, 1)."""
        return Fraction(self.beta, self.alpha)

    def __str__(self) -> str:
        return f"S({self.alpha},{self.beta})"


@dataclass(frozen=True)
class ConwayForm:
    """Even Conway form C[e1, ..., e2g]: 2g nonzero even twist entries."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(_as_int(e, "Conway entry") for e in self.entries)
        )
        if len(self.entries) == 0 or len(self.entries) % 2 != 0:
            raise DomainError("Conway form needs a positive even number of entries")
        for e in self.entries:
            if e == 0 or e % 2 != 0:
                raise DomainError(f"Conway entries must be nonzero even integers, got {e}")

    @property
    def genus(self) -> int:
        return len(self.entries) // 2

    def __str__(self) -> str:
        return "C[" + ",".join(str(e) for e in self.entries) + "]"


class Equivalence(enum.Enum):
    """Outcome of comparing two Schubert forms as knots."""

    SAME = "same"
    MIRROR = "mirror"
    DISTINCT = "distinct"


def cf_eval(cf: ContinuedFraction) -> Fraction:
    """Evaluate a continued fraction to its exact rational value.

    Works right to left on an integer numerator/denominator pair, so the
    cost is a handful of integer operations per term.  Raises
    EvaluationError when some tail evaluates to 0 and a reciprocal of it
    would be needed.
    """
    num, den = None, None  # value of the tail processed so far, as num/den
    for term in reversed(cf.tail):
        if num is None:
            num, den = term, 1
        else:
            if num == 0:
                raise EvaluationError(f"zero tail under a reciprocal in {cf}")
            num, den = term * num + den, num
    c = cf.integer_part
    if num is None:
        return Fraction(c)
    if num == 0:
        raise EvaluationError(f"zero tail under a reciprocal in {cf}")
    # gcd(c*num + den, num) = gcd(den, num) = 1 by induction
    value = Fraction(c * num + den, num)
    return value


def simple_cf(r: Fraction) -> ContinuedFraction:
    """Simple continued fraction of r in (0,1): all tail terms positive, last >= 2.

    This is the plain Euclidean expansion; for a reduced fraction in (0,1)
    the final quotient is automatically >= 2, which makes the expansion the
    unique one of this shape.
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise DomainError(f"simple_cf needs 0 < r < 1, got {r}")
    terms = [0]
    num, den = r.denominator, r.numerator
    while den:
        q, rem = divmod(num, den)
        terms.append(q)
        num, den = den, rem
    assert terms[-1] >= 2, "Euclidean expansion of a reduced fraction ends >= 2"
    return ContinuedFraction(tuple(terms))


def canonicalize(s: SchubertForm) -> tuple[SchubertForm, bool]:
    """Normalize to the even-beta representative, mirroring if necessary.

    Returns (form, mirrored).  When beta is odd the returned form S(alpha,
    alpha-beta) presents the mirror image of the input; every vanishing
    test downstream is mirror-invariant, and the flag keeps the
    orientation bookkeeping honest.
    """
    if s.beta % 2 == 0:
        return s, False
    return SchubertForm(s.alpha, s.alpha - s.beta), True


def preferred_form(s: SchubertForm) -> tuple[SchubertForm, bool]:
    """Canonicalize, then settle on the smaller even representative.

    beta and beta^(-1) mod alpha present the same knot with the same
    chirality; when both are even the smaller one is used everywhere
    (tables, reports, enumeration), which keeps output deterministic
    across the four ways of writing one knot.
    """
    canonical, mirrored = canonicalize(s)
    inv = pow(canonical.beta, -1, canonical.alpha)
    if inv % 2 == 0 and inv < canonical.beta:
        canonical = SchubertForm(canonical.alpha, inv)
    return canonical, mirrored


def equivalent(s1: SchubertForm, s2: SchubertForm) -> Equivalence:
    """Classify two Schubert forms as the same knot, mirror images, or distinct.

    S(a,b) = S(a,b') iff b' = b^(+-1) mod a; the mirror is b' = -b^(+-1).
    An amphichiral knot (like the figure-eight) satisfies both; it is
    reported as SAME.
    """
    if s1.alpha != s2.alpha:
        return Equivalence.DISTINCT
    a = s1.alpha
    b1_inv = pow(s1.beta, -1, a)
    if s2.beta % a in (s1.beta % a, b1_inv):
        return Equivalence.SAME
    if (-s2.beta) % a in (s1.beta % a, b1_inv):
        return Equivalence.MIRROR
    return Equivalence.DISTINCT


def kx_family(x: int) -> SchubertForm:
    """The slice family S((8x^2-1)^2, 32x^3-8x^2-8x+2), x >= 1.

    x = 1 gives S(49,18), the even-beta mirror representative of 9_27.
    """
    if x < 1:
        raise DomainError(f"family parameter must be >= 1, got {x}")
    alpha = (8 * x * x - 1) ** 2
    beta = 32 * x**3 - 8 * x * x - 8 * x + 2
    return SchubertForm(alpha, beta)


def kx_simple_cf(x: int) -> ContinuedFraction:
    """Simple continued fraction [0,2x,1,1,2x-2,1,2x-1,1,1,2x-1] of the x family.

    Valid for x >= 2 only: at x = 1 the term 2x-2 vanishes and the
    expansion degenerates to [0,2,1,2,1,1,2].
    """
    if x <= 1:
        raise DomainError(f"template needs x >= 2 (term 2x-2 vanishes at x=1), got {x}")
    return ContinuedFraction(
        (0, 2 * x, 1, 1, 2 * x - 2, 1, 2 * x - 1, 1, 1, 2 * x - 1)
    )


def crossing_number(s: SchubertForm) -> int:
    """Minimal crossing number: term sum of the canonical form's simple CF.

    The alternating diagram read off the simple continued fraction of the
    even-beta representative realizes the minimal crossing number.
    """
    canonical, _ = canonicalize(s)
    total, num, den = 0, canonical.alpha, canonical.beta
    while den:  # the Euclidean quotients of alpha/beta are that tail
        q, rem = divmod(num, den)
        total += q
        num, den = den, rem
    return total
