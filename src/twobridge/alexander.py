"""Seifert matrices, Alexander polynomials, and signatures of two-bridge knots.

Everything runs over exact integers and rationals.  The even Conway form
C[e1, ..., e2g] of a knot encodes a genus-g Seifert surface as a chain of
twisted bands; its Seifert matrix has diagonal (-1)^(i+1) * e_i / 2 with
unit entries on the even rows, and the Alexander polynomial is
det(M - t M^T) normalized by a unit times t^(-g) to be symmetric with
value 1 at t = 1.

That matrix is tridiagonal and its units never change, so it is stored
as its diagonal alone and no matrix is ever built.  One band loop
(_band) runs once over that diagonal and carries three-term recurrences
for the leading minors of M - t M^T (kept mod z^3, which gives
Delta''(1)) and of M + M^T (the signature and the knot determinant),
plus the sign sum of the diagonal, which is the longitude's sign sum in
the boundary-slope data.  The coefficients of the Alexander polynomial
(_coefficients) come from one evaluation of the first recurrence at a
packed integer, within MAX_ALEXANDER_WORK; alexander_poly and the CLI
both read them there, the CLI with the values of one _band pass and no
LaurentPolynomial, ConwayForm or SeifertMatrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle
from operator import mul

from .errors import DomainError, InternalError, NormalizationError, SingularError
from .rational import ConwayForm, Record, SchubertForm, _as_int


class LaurentPolynomial:
    """Laurent polynomial with integer coefficients, stored sparsely.

    Immutable; zero coefficients are never stored.  A normalized
    Alexander polynomial additionally satisfies coefficient(k) ==
    coefficient(-k) and value 1 at t = 1, but the class itself does not
    force that.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=None):
        coeffs = {}
        if coefficients:
            for k, v in dict(coefficients).items():
                if v != 0:
                    coeffs[int(k)] = int(v)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "LaurentPolynomial":
        return cls({exponent: coeff})

    def coefficient(self, k: int) -> int:
        return self._coeffs.get(k, 0)

    def items(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    def exponents(self) -> list[int]:
        return sorted(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_symmetric(self) -> bool:
        return all(self.coefficient(-k) == c for k, c in self._coeffs.items())

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: c for e, c in self._coeffs.items()})

    def evaluate(self, x):
        """Exact value at x (int or Fraction); x must be nonzero if any exponent is negative."""
        total = Fraction(0)
        for k, c in self._coeffs.items():
            total += c * Fraction(x) ** k
        return total if total.denominator != 1 else total.numerator

    def __eq__(self, other):
        return isinstance(other, LaurentPolynomial) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self):
        return LaurentPolynomial({k: -c for k, c in self._coeffs.items()})

    def __add__(self, other):
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(other)
        out = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("only nonnegative powers are supported")
        result = LaurentPolynomial.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __str__(self):
        return _poly_str(self.items())

    def __repr__(self):
        return f"LaurentPolynomial({dict(self.items())})"


def _poly_str(items) -> str:
    """Text of a polynomial from its (exponent, nonzero coefficient) pairs
    in ascending exponent order, as LaurentPolynomial prints it."""
    parts = []
    for k, c in items:
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            body = "t" if k == 1 else f"t^{k}"
            if mag != 1:
                body = f"{mag}{body}"
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text[:1] == "+" else text or "0"


class SeifertMatrix(Record):
    """Seifert matrix of the chain of twisted bands of an even Conway form.

    The matrix has even size 2g and a nonzero integer diagonal; its
    0-based odd rows r carry unit entries in columns r - 1 and r + 1, and
    every other entry vanishes.  Those units never change, so only the
    diagonal is stored.  M - M^T is tridiagonal with zero diagonal and
    off-diagonal entries of absolute value 1, so det(M - M^T) = 1 holds
    by construction.
    """

    diagonal: tuple[int, ...]

    def __post_init__(self):
        diagonal = tuple(_as_int(d, "Seifert matrix entry") for d in self.diagonal)
        if not diagonal or len(diagonal) % 2 != 0:
            raise DomainError("Seifert matrix must have even size >= 2")
        if 0 in diagonal:
            raise DomainError("Seifert matrix diagonal entries must be nonzero")
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def size(self) -> int:
        return len(self.diagonal)

    @property
    def genus(self) -> int:
        return self.size // 2


def _band(diagonal) -> tuple[int, int, int, int, int, int, int]:
    """One pass over a Seifert diagonal a_1, ..., a_n, returning
    (F(0), [z]F, [z^2]F, sigma, det, longitude, vanishing):

      * F = F_n mod z^3, from F_k = -a_k z F_(k-1) + F_(k-2) with
        F_(-1) = 0, F_0 = 1 (see alexander_second_derivative);
      * the leading minors D_k = 2 a_k D_(k-1) - D_(k-2) of M + M^T, the
        symmetric tridiagonal matrix with diagonal 2 a_k and unit
        off-diagonal: sigma is the sum of sign(D_(k-1) D_k) (Jacobi's
        rule), det is D_n, and vanishing is the first k with D_k = 0, or
        0 when none vanishes (sigma means nothing then);
      * longitude, the sum of sign(a_k).  As a_k = (-1)^(k+1) e_k / 2 for
        the even Conway entries e_k, a_k > 0 exactly when e_k matches the
        pattern +,-,+,-,...: this is the sign sum n+ - n- of the all-even
        expansion, the longitude of the boundary-slope data.
    """
    c0, c1, c2, p0, p1, p2 = 1, 0, 0, 0, 0, 0  # F_k and F_(k-1), constant first
    minor, before = 1, 0  # D_k and D_(k-1)
    sigma = longitude = vanishing = 0
    for k, a in enumerate(diagonal, start=1):
        c0, c1, c2, p0, p1, p2 = p0, p1 - a * c0, p2 - a * c1, c0, c1, c2
        positive = minor > 0
        minor, before = 2 * a * minor - before, minor
        if not minor and not vanishing:
            vanishing = k
        sigma += 1 if (minor > 0) == positive else -1
        longitude += 1 if a > 0 else -1
    return c0, c1, c2, sigma, minor, longitude, vanishing


def _delta_second(unit: int, odd: int, second: int) -> int:
    """Delta''(1) from F mod z^3 as _band gives it; NormalizationError
    unless F(0) = +-1 and [z]F = 0."""
    if abs(unit) != 1:
        raise NormalizationError(f"determinant evaluates to {unit} at t=1, not a unit")
    if odd:
        raise NormalizationError("no unit multiple of t^-g makes the determinant symmetric")
    return 2 * unit * second


def _signature(sigma: int, vanishing: int) -> int:
    """The signature as _band gives it; SingularError on a vanishing minor."""
    if vanishing:
        raise SingularError(f"leading minor {vanishing} of M + M^T vanishes")
    return sigma


def _seifert_diagonal(entries: tuple[int, ...]) -> list[int]:
    """Diagonal of the Seifert matrix of C[e1, ..., e2g]: entry i is
    (-1)^(i+1) * e_i / 2 (1-based)."""
    return [e // 2 if i % 2 == 0 else -(e // 2) for i, e in enumerate(entries)]


def seifert_from_conway(c: ConwayForm) -> SeifertMatrix:
    """Seifert matrix of the even Conway form C[e1, ..., e2g] (see
    _seifert_diagonal)."""
    return SeifertMatrix(tuple(_seifert_diagonal(c.entries)))


def alexander_poly(M: SeifertMatrix) -> LaurentPolynomial:
    """Normalized Alexander polynomial det(M - t M^T) * (unit * t^-g),
    from the coefficients of _coefficients."""
    coeffs = _coefficients(M.diagonal, _band(M.diagonal)[4])
    return LaurentPolynomial({k: c for k, c in enumerate(coeffs, -M.genus)})


# _coefficients refuses a polynomial past this many units of g^2 w m:
# genus g, lane width w bits, m 64-bit words in the largest diagonal
# entry (2g steps on ints of up to 2g w bits, each with a multiply by an
# entry).  One unit takes 0.43-0.63 ns with one-word entries (2.4 s at
# 2^32, g = 1,300) and 0.08 ns with 4,000-digit ones (x86_64, Python
# 3.11).  S(10001,10000) at MAX_GENUS is 2^28.6 (0.16 s); the
# benchmark's knots stay under 2^21.
MAX_ALEXANDER_WORK = 1 << 31


def _coefficients(diagonal, det: int) -> list[int]:
    """Coefficients of the normalized Alexander polynomial of the Seifert
    matrix with this diagonal, t^-g first, given det = det(M + M^T).

    M - t M^T is tridiagonal with diagonal a_k (1 - t) and, between rows
    k-1 and k, one entry 1 and one entry -t, so its leading minors follow
    the three-term recurrence
        D_k = a_k (1 - t) D_(k-1) + t D_(k-2).
    The recurrence runs once, at the integer t = T = 2^w (Kronecker
    substitution): each step is a shift, a small multiply and two adds on
    one Python int, so the O(g^2) coefficient work stays inside the
    integer arithmetic, and the value is exact whatever the size of the
    intermediate minors.  The coefficients of D_2g are read back from
    w-bit lanes, which hold them because a two-bridge knot is alternating
    and so is its Alexander polynomial (Crowell, Murasugi): the sum of
    their absolute values is |Delta(-1)| = |det(M + M^T)|, the last
    leading minor of M + M^T (from _band), and w leaves room for that and
    a sign bit.  DomainError before the loop past MAX_ALEXANDER_WORK.
    The unit sign is fixed by requiring value 1 at t = 1; anything else
    signals an invalid Seifert matrix and raises NormalizationError.  A
    coefficient sum that is not the determinant means the lanes did not
    hold the polynomial: InternalError.
    """
    lane = (abs(det).bit_length() + 8) // 8  # bytes per coefficient, sign bit included
    w = 8 * lane
    n = len(diagonal)
    work = (n // 2) ** 2 * w * (max(map(abs, diagonal), default=0).bit_length() // 64 + 1)
    if work > MAX_ALEXANDER_WORK:
        raise DomainError(
            f"Alexander polynomials are limited to {MAX_ALEXANDER_WORK} units of"
            f" genus^2 * lane bits * entry words; this knot needs {work}"
        )
    prev, cur = 0, 1  # D_(-1) and D_0 at T
    for a in diagonal:
        x = a * cur
        prev, cur = cur, ((prev - x) << w) + x
    if not cur:
        raise NormalizationError("det(M - t M^T) vanishes identically")
    # each lane offset by 2^(w-1), so every lane of the sum is nonnegative
    biased = cur + int.from_bytes((bytes(lane - 1) + b"\x80") * (n + 1), "little")
    try:
        data = biased.to_bytes(lane * (n + 1), "little")
    except OverflowError:
        raise InternalError(f"det(M - t M^T) does not fit {w}-bit coefficient lanes") from None
    half = 1 << (w - 1)
    coeffs = [int.from_bytes(data[i:i + lane], "little") - half for i in range(0, len(data), lane)]
    at_one = sum(coeffs)
    if abs(at_one) != 1:
        raise NormalizationError(f"determinant evaluates to {at_one} at t=1, not a unit")
    if sum(map(abs, coeffs)) != abs(det):
        raise InternalError("Alexander coefficients do not sum in absolute value to det(M + M^T)")
    return coeffs if at_one == 1 else [-c for c in coeffs]


def alexander_second_derivative(M: SeifertMatrix) -> int:
    """Delta''(1) of the normalized Alexander polynomial, without building it.

    Put D_k = t^(k/2) F_k in the recurrence of `alexander_poly`; then
        F_k = -a_k z F_(k-1) + F_(k-2),   z = t^(1/2) - t^(-1/2),
    and Delta = F(0) F_2g with F(0) = +-1.  As z(1) = 0, z'(1) = 1 and
    z''(1) = -1, Delta''(1) = F(0) (2 [z^2]F_2g - [z]F_2g), so F is kept
    mod z^3: three integers per step of _band, O(g) steps.  A valid matrix
    gives [z]F_2g = 0 (Delta is symmetric) and F(0) = 1; anything else
    raises NormalizationError, as `alexander_poly` does.
    """
    unit, odd, second, *_ = _band(M.diagonal)
    return _delta_second(unit, odd, second)


# Largest genus, in bands of two even Conway entries, that any command
# walks.  `alexander` is O(g^2 w) bit operations, w the bit length of
# alpha: on S(2g+1, 2g) its polynomial takes 9 ms at g = 1,000, 0.10 s
# at 4,000, 0.15 s at 5,000 and about 1.8 s at 16,000 (x86_64, Python
# 3.11).  Exit codes are part of the interface, so the limit does not
# follow that cost down.
MAX_GENUS = 5000


def conway_even_form(s: SchubertForm) -> ConwayForm:
    """Even Conway form: tail of the unique all-even expansion of beta/alpha,
    read back from the Seifert diagonal of _even_diagonal."""
    if s.beta % 2 != 0:
        raise DomainError(f"conway_even_form needs the canonical even-beta form, got {s}")
    return ConwayForm(tuple(map(mul, _even_diagonal(s.alpha, s.beta), cycle((2, -2)))))


def _even_diagonal(alpha: int, beta: int) -> list[int]:
    """Seifert diagonal of the even Conway form C[e1, ..., e2g] of
    S(alpha, beta), beta even: entry i is (-1)^(i+1) * e_i / 2 (1-based,
    as _seifert_diagonal), emitted as the walk finds e_i.

    At every step exactly one of floor and ceiling of the residual target
    is even, so the expansion is forced term by term; the residual
    denominator strictly decreases, and for an even beta over an odd
    alpha the walk can only terminate at an even integer.  The walk
    keeps the target times (-1)^(i+1) as n/d with d > 0: the even one of
    its floor q and ceiling q + 1 is then 2 half for the diagonal entry
    half, and the next target is 1 / (2 half - n/d).  The number of
    steps is twice the genus, which nothing else bounds, so the walk
    stops with DomainError once the form is longer than MAX_GENUS bands.
    """
    diagonal = []
    limit = 2 * MAX_GENUS
    num, den = alpha, beta
    while True:
        q, rem = divmod(num, den)
        if rem == 0:
            if q % 2 != 0:
                raise InternalError(
                    f"all-even expansion of S({alpha},{beta}) ended on odd term {q}"
                )
            diagonal.append(q // 2)
            break
        if q % 2 == 0:  # the floor: 2 half - n/d = -rem/d
            half = q // 2
            num, den = -den, rem
        else:  # the ceiling: 2 half - n/d = (d - rem)/d
            half = (q + 1) // 2
            num, den = den, den - rem
        assert half, "residual targets always exceed 1 in absolute value"
        diagonal.append(half)
        if len(diagonal) >= limit:
            raise DomainError(f"genus is limited to {MAX_GENUS}; this knot's genus is larger")
    if len(diagonal) % 2 != 0:
        raise InternalError(f"all-even expansion of S({alpha},{beta}) has odd length")
    return diagonal


def second_derivative_at_one(d: LaurentPolynomial) -> int:
    """d''(1) = sum of coefficient(k) * k * (k-1); an even integer for symmetric d."""
    return sum(c * k * (k - 1) for k, c in d.items())


def kx_alexander_closed(x: int) -> LaurentPolynomial:
    """Closed-form Alexander polynomial of the C[2x,2,-2x,2x,2,-2x] family."""
    if x < 1:
        raise DomainError(f"family parameter must be >= 1, got {x}")
    x2, x4 = x * x, x**4
    return LaurentPolynomial(
        {
            -3: -x4,
            3: -x4,
            -2: 6 * x4 - x2,
            2: 6 * x4 - x2,
            -1: -(15 * x4 - 4 * x2),
            1: -(15 * x4 - 4 * x2),
            0: 20 * x4 - 6 * x2 + 1,
        }
    )


def genus3_closed_form(A: int, B: int, C: int, D: int, E: int, F: int) -> LaurentPolynomial:
    """Published degree-6 expansion of det(M - t M^T) for diagonal (A,...,F).

    Reproduced verbatim for cross-checking.  It agrees with the
    determinant whenever A+C = D+F = 0 (which covers the slice family)
    but not in general; the determinant, as the recurrence in
    `alexander_poly` computes it, is the authority, and the tests pin the
    mismatch rather than patching the formula.
    """
    one_minus_t = LaurentPolynomial({0: 1, 1: -1})
    t = LaurentPolynomial.monomial(1, 1)
    middle = (A + C) * D * E * F - A * B * C * (D + F) + A * B * E * F
    return (
        A * B * C * D * E * F * one_minus_t**6
        + middle * t * one_minus_t**4
        + (A * B + E * F) * t**2 * one_minus_t**2
        + t**3
    )


def signature(M: SeifertMatrix) -> int:
    """Knot signature: the signature of M + M^T, by Jacobi's rule.

    M + M^T is tridiagonal with diagonal 2 * M.diagonal and unit
    off-diagonal, so the signature is the sum of sign(D_(k-1) * D_k)
    over the leading minors that _band runs.  Every diagonal entry of
    M + M^T is at least 2 in absolute value, so |D_k| grows strictly, no
    minor vanishes, and the result is an even integer.  A vanishing minor
    means an invalid matrix: SingularError.
    """
    _, _, _, sigma, _, _, vanishing = _band(M.diagonal)
    return _signature(sigma, vanishing)


def knot_determinant(c: ConwayForm) -> int:
    """|det(M + M^T)| for the Conway form's Seifert matrix: the last
    leading minor of M + M^T, from _band."""
    return abs(_band(_seifert_diagonal(c.entries))[4])
