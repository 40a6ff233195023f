"""Independent reference arithmetic for checking twobridge replies.

Nothing here imports twobridge.  Every function is written from the
mathematics, by a different route where the package has a choice:

  * the Alexander polynomial comes from the three-term recurrence of the
    tridiagonal matrix M - t M^T, not from a dense determinant;
  * the signature comes from the signs of the Conway entries, since the
    leading minors of M + M^T grow strictly in absolute value;
  * boundary slopes and weights come from a memoised walk over the
    floor/ceiling choices, not from listing every expansion;
  * the root-of-unity test divides by cyclotomic polynomials, not by a
    Sylvester resultant;
  * census counts come from the Ernst-Sumners closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

VERDICTS = (
    "NoCosmetic_BoyerLines",
    "NoCosmetic_NiWuTau",
    "NoHomologySphereCosmetic_SL2C",
    "Inconclusive",
)


def tier_verdict(delta_second: int, sigma: int, casson_difference: Fraction) -> str:
    """The first obstruction tier that fires, in the paper's order."""
    if delta_second != 0:
        return VERDICTS[0]
    if sigma != 0:
        return VERDICTS[1]
    if casson_difference != 0:
        return VERDICTS[2]
    return VERDICTS[3]


def ernst_sumners(n: int) -> int:
    """Number of two-bridge knots with crossing number n, mirrors merged
    (Ernst-Sumners, Math. Proc. Camb. Phil. Soc. 1987)."""
    if n < 3:
        return 0
    if n % 2 == 0:
        value = 2 ** (n - 3) + 2 ** ((n - 4) // 2) - (1 if n % 4 == 2 else 0)
    else:
        value = 2 ** (n - 3) + 2 ** ((n - 3) // 2) + (1 if n % 4 == 3 else 0)
    return value // 3


def tail_to_schubert(tail: list[int]) -> tuple[int, int]:
    """(alpha, beta) with beta/alpha = [0; tail] for a positive tail."""
    num, den = tail[-1], 1
    for term in reversed(tail[:-1]):
        num, den = term * num + den, num
    return num, den


def simple_tail(alpha: int, beta: int) -> list[int]:
    """Euclidean expansion of beta/alpha in (0, 1), integer part dropped."""
    terms = []
    num, den = alpha, beta
    while den:
        q, num, den = num // den, den, num % den
        terms.append(q)
    return terms


def preferred(alpha: int, beta: int) -> tuple[int, bool]:
    """Smaller even representative beta of S(alpha, beta), and whether it
    presents the mirror image (true exactly when the input beta is odd)."""
    mirrored = beta % 2 == 1
    if mirrored:
        beta = alpha - beta
    inv = pow(beta, -1, alpha)
    if inv % 2 == 0 and inv < beta:
        beta = inv
    return beta, mirrored


def class_members(alpha: int, beta: int) -> set[int]:
    """The four betas presenting S(alpha, beta) or its mirror."""
    inv = pow(beta, -1, alpha)
    return {beta % alpha, inv, (-beta) % alpha, (-inv) % alpha}


def conway_entries(alpha: int, beta: int) -> list[int]:
    """Even Conway entries of alpha/beta (beta even): the only expansion of
    alpha/beta whose terms are all even."""
    entries = []
    num, den = alpha, beta
    while True:
        floor = num // den
        if floor * den == num:
            entries.append(floor)
            return entries
        term = floor if floor % 2 == 0 else floor + 1
        entries.append(term)
        num, den = den, num - term * den
        if den < 0:
            num, den = -num, -den


def alexander_coeffs(entries: list[int]) -> list[int]:
    """Coefficients c_0..c_2g of t^g * Delta(t), normalised to Delta(1) = 1.

    M - t M^T is tridiagonal with diagonal d_k (1 - t), d_k = (-1)^(k+1)
    e_k / 2, and every off-diagonal pair multiplies to -t, so its leading
    minors satisfy D_k = d_k (1 - t) D_(k-1) + t D_(k-2).  D_k(1) = D_(k-2)(1)
    makes D_2g(1) = 1, so no sign fix is needed.
    """
    prev, cur = [0], [1]
    for k, e in enumerate(entries, start=1):
        d = e // 2 if k % 2 else -(e // 2)
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += d * c
            nxt[i + 1] -= d * c
        for i, c in enumerate(prev):
            nxt[i + 1] += c
        prev, cur = cur, nxt
    while cur and cur[-1] == 0:
        cur.pop()
    return cur


def signature_from_entries(entries: list[int]) -> int:
    """Signature of M + M^T: sum of (-1)^(k+1) sign(e_k)."""
    return sum((1 if e > 0 else -1) * (1 if k % 2 else -1) for k, e in enumerate(entries, start=1))


def _sign_step(term: int, odd_position: bool) -> int:
    """+1 when the term's sign matches the alternating pattern +,-,+,..."""
    return 1 if (term > 0) == odd_position else -1


def slope_weights(alpha: int, beta: int) -> dict[int, int]:
    """{boundary slope: total weight} of S(alpha, beta), beta even.

    The walk over floor/ceiling choices is memoised on (residual, position
    parity), so its cost follows the number of distinct residuals rather
    than the number of expansions.
    """
    memo: dict[tuple[int, int, bool], dict[int, int]] = {}

    def walk(num: int, den: int, odd: bool) -> dict[int, int]:
        key = (num, den, odd)
        if key in memo:
            return memo[key]
        q, rem = divmod(num, den)
        dist: dict[int, int] = {}
        if rem == 0:
            if abs(q) >= 2:
                dist[_sign_step(q, odd)] = abs(q) - 1
        else:
            for a in (q, q + 1):
                if abs(a) < 2:
                    continue
                nn, nd = den, num - a * den
                if nd < 0:
                    nn, nd = -nn, -nd
                step, w = _sign_step(a, odd), abs(a) - 1
                for d, sw in walk(nn, nd, not odd).items():
                    dist[d + step] = dist.get(d + step, 0) + sw * w
        memo[key] = dist
        return dist

    total: dict[int, int] = {}
    for num, den in ((alpha, beta), (-alpha, alpha - beta)):  # integer part 0, 1
        for d, w in walk(num, den, True).items():
            total[d] = total.get(d, 0) + w
    d0 = sum(_sign_step(e, k % 2 == 1) for k, e in enumerate(conway_entries(alpha, beta), start=1))
    return {2 * (d - d0): w for d, w in total.items()}


def expansion_count(alpha: int, beta: int) -> int:
    """Number of boundary-slope expansions of S(alpha, beta), beta even:
    the same walk as `slope_weights`, counting instead of weighing."""
    memo: dict[tuple[int, int], int] = {}

    def walk(num: int, den: int) -> int:
        if (num, den) not in memo:
            q, rem = divmod(num, den)
            if rem == 0:
                memo[num, den] = 1 if abs(q) >= 2 else 0
            else:
                memo[num, den] = sum(
                    walk(den, num - a * den) if num - a * den > 0 else walk(-den, a * den - num)
                    for a in (q, q + 1) if abs(a) >= 2
                )
        return memo[num, den]

    return walk(alpha, beta) + walk(-alpha, alpha - beta)


def seminorm(dist: dict[int, int], p: int, q: int) -> Fraction:
    """Total Culler-Shalen seminorm (-|p| + sum W |p - q N|) / 2."""
    return Fraction(-abs(p) + sum(w * abs(p - q * n) for n, w in dist.items()), 2)


def cosmetic_difference(dist: dict[int, int]) -> Fraction:
    """(sum_{N<0} W - sum_{N>0} W) / 2."""
    return Fraction(sum(w for n, w in dist.items() if n < 0) - sum(w for n, w in dist.items() if n > 0), 2)


_CYCLOTOMIC: dict[int, list[int]] = {}


def cyclotomic(d: int) -> list[int]:
    """Coefficients (constant first) of the d-th cyclotomic polynomial."""
    if d not in _CYCLOTOMIC:
        poly = [-1] + [0] * (d - 1) + [1]  # t^d - 1
        for e in range(1, d):
            if d % e == 0:
                poly, rem = divmod_monic(poly, cyclotomic(e))
                if any(rem):
                    raise ArithmeticError(f"Phi_{e} does not divide t^{d} - 1")
        _CYCLOTOMIC[d] = poly
    return _CYCLOTOMIC[d]


def divmod_monic(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by the monic integer polynomial g."""
    rem = list(f)
    deg_g = len(g) - 1
    quot = [0] * max(len(f) - deg_g, 1)
    for shift in range(len(f) - 1 - deg_g, -1, -1):
        c = rem[shift + deg_g]
        if c:
            quot[shift] = c
            for i, gc in enumerate(g):
                rem[shift + i] -= c * gc
    return quot, rem[:deg_g]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def no_root_of_unity(coeffs: list[int], p_prime: int) -> bool:
    """True iff no p'-th root of unity is a root of the polynomial.

    A p'-th root of unity of order d is a root exactly when the cyclotomic
    polynomial Phi_d divides the polynomial, and only d with phi(d) at
    most its degree can.
    """
    degree = len(coeffs) - 1
    for d in range(1, p_prime + 1):
        if p_prime % d == 0 and euler_phi(d) <= degree:
            _, rem = divmod_monic(coeffs, cyclotomic(d))
            if not any(rem):
                return False
    return True


def parse_rational(value) -> Fraction:
    """Exact value of a JSON number field: an int or the string 'p/q'."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)
