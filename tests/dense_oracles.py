"""Dense reference routes for the Alexander layer, the root-of-unity
check, the census and the boundary-slope listing.

The package computes the Alexander polynomial, the signature and the
root-of-unity condition by recurrences over the diagonal of the Seifert
matrix.  These are the general-purpose routes they replaced, kept here
only so the tests can compare the two: the full Seifert matrix built
entry by entry from its definition, fraction-free (Bareiss) elimination
over integer polynomials, symmetric congruence diagonalization over the
rationals, and the Sylvester resultant.  They work on any square matrix,
with no use of the tridiagonal shape.  Two earlier forms of the fast
routes stay as well: the minor recurrence over every coefficient of each
minor, and the root-of-unity check that takes the polynomial and walks
every divisor of p' up to a degree bound.  The census scan tests every
(alpha, beta) up to a Fibonacci bound, where the package walks simple
continued fraction tails.  The expansion search on signed residuals,
with its own floor/ceiling candidates and |a| >= 2 filters, lists what
the package lists by the parity- and sign-folded step of its weight walk.
The slope weights come from the memoised walk over that step, one term
at a time, which the two-state recurrence over the Euclid quotients
replaced.  The boundary-slope records are built as they were before the
listing carried them: a duplicate set, a sort, an exact evaluation of
each expansion and a count of its signs and weight.  The census kernel
is kept as it was before the tail walk handed each knot its quotients
and inverse: pow for the inverse, Euclid's algorithm for the quotients,
the even Conway walk and the Seifert diagonal as two loops, and the two
packed roots read one after the other.  Its signature is Jacobi's count
over the leading minors of M + M^T (jacobi_minors), which the package
replaced by the sign sum of the diagonal, and its Delta''(1) is read off
the whole polynomial of the full minor recurrence.

The Alexander references share no code with the module they check:

    grep -nE "^ *(from|import) twobridge.alexander" tests/dense_oracles.py

prints nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from twobridge import (
    BoundarySlopeRecord,
    ContinuedFraction,
    DomainError,
    InternalError,
    LaurentPolynomial,
    SchubertForm,
    SingularError,
    SlopeSystem,
    cf_eval,
    crossing_number,
    pattern_counts,
    simple_cf,
    weight,
)
from twobridge.casson import _cyclotomic, _divides
from twobridge.obstruction import KNOT_NAMES, class_key, classify
from twobridge.slopes import _check_weights, _entries, _roots, _sort_key, _step

# -- dense integer-polynomial helpers (little-endian coefficient lists) --


def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _psub(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _ptrim(out)


def _pdiv_exact(a, b):
    """Divide polynomial a by b, asserting the remainder is zero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        q, r = divmod(rem[-1], b[-1])
        if r != 0:
            raise InternalError("inexact polynomial division in determinant")
        shift = len(rem) - len(b)
        out[shift] = q
        for i, bi in enumerate(b):
            rem[shift + i] -= q * bi
        _ptrim(rem)
        if not rem:
            break
    if rem:
        raise InternalError("inexact polynomial division in determinant")
    return _ptrim(out)


def poly_det(m):
    """Exact determinant of a square matrix of integer polynomials, by
    fraction-free Bareiss elimination with row swaps on zero pivots."""
    n = len(m)
    a = [[list(x) for x in row] for row in m]
    sign = 1
    prev_pivot = [1]
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return []
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _psub(_pmul(a[i][j], a[k][k]), _pmul(a[i][k], a[k][j]))
                a[i][j] = _pdiv_exact(num, prev_pivot)
            a[i][k] = []
        prev_pivot = a[k][k]
    det = a[n - 1][n - 1]
    return [sign * c for c in det]


def int_det(m) -> int:
    """Exact determinant of an integer matrix via the polynomial helpers."""
    poly = poly_det([[[x] if x else [] for x in row] for row in m])
    return poly[0] if poly else 0


def symmetric_signature(rows: list[list[Fraction]]) -> int:
    """Signature of a nonsingular symmetric rational matrix by congruence
    diagonalization."""
    s = [row[:] for row in rows]
    n = len(s)
    signature_value = 0
    for k in range(n):
        if s[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if s[i][i] != 0), None)
            if swap is not None:
                for row in s:
                    row[k], row[swap] = row[swap], row[k]
                s[k], s[swap] = s[swap], s[k]
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if s[i][j] != 0),
                    None,
                )
                if pair is None:
                    raise SingularError("symmetric matrix is singular")
                i, j = pair
                for row in s:
                    row[i] += row[j]
                for col in range(n):
                    s[i][col] += s[j][col]
                if i != k:
                    for row in s:
                        row[k], row[i] = row[i], row[k]
                    s[k], s[i] = s[i], s[k]
        pivot = s[k][k]
        signature_value += 1 if pivot > 0 else -1
        # Schur complement update of the trailing block; row and column k
        # are consumed and never read again, so they can stay stale.
        for i in range(k + 1, n):
            if s[i][k] != 0:
                factor = s[i][k] / pivot
                for j in range(k + 1, n):
                    s[i][j] -= factor * s[k][j]
    return signature_value


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials (constant coefficient first)
    as the determinant of their Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):  # n rows of f's coefficients
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):  # m rows of g's coefficients
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return int_det(rows)


def dense_seifert(conway) -> tuple[tuple[int, ...], ...]:
    """The 2g x 2g Seifert matrix of the band chain of C[e1, ..., e2g],
    entry by entry (1-based i, j): M_ii = (-1)^(i+1) e_i / 2, M_ij = 1 for
    even i and |i - j| = 1, and 0 everywhere else."""
    e = conway.entries
    n = len(e)

    def entry(i, j):
        if i == j:
            return (-1) ** (i + 1) * e[i - 1] // 2
        return 1 if i % 2 == 0 and abs(i - j) == 1 else 0

    return tuple(tuple(entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))


def dense_alexander(entries) -> LaurentPolynomial:
    """det(M - t M^T) by Bareiss, scaled by the unit and power of t that
    make it symmetric with value 1 at t = 1."""
    n = len(entries)
    det = poly_det(
        [[_ptrim([entries[i][j], -entries[j][i]]) for j in range(n)] for i in range(n)]
    )
    at_one = sum(det)
    assert abs(at_one) == 1, det
    return LaurentPolynomial({k - n // 2: at_one * c for k, c in enumerate(det)})


def full_recurrence_alexander(diagonal) -> LaurentPolynomial:
    """det(M - t M^T) by D_k = a_k (1 - t) D_(k-1) + t D_(k-2) over every
    coefficient of each minor, scaled to value 1 at t = 1 and centred."""
    prev, cur = [], [1]
    for a in diagonal:
        nxt = [a * (x - y) + z for x, y, z in zip(cur + [0], [0] + cur, [0] + prev + [0])]
        prev, cur = cur, nxt
    at_one = sum(cur)
    assert abs(at_one) == 1, cur
    return LaurentPolynomial({k - len(diagonal) // 2: at_one * c for k, c in enumerate(cur)})


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def polynomial_root_of_unity_check(delta: LaurentPolynomial, p_prime: int) -> bool:
    """True iff no p'-th root of unity is a root of delta, by walking every
    divisor d of p' that the degree allows.

    Phi_d can divide f = t^g * delta only if phi(d) <= deg f, and
    phi(d) >= sqrt(d / 2), so the divisors d <= 2 * (deg f)^2 of p' are
    tried, each by exact division by Phi_d.
    """
    if p_prime < 1:
        raise DomainError(f"p' must be >= 1, got {p_prime}")
    if delta.is_zero():
        return False
    exps = delta.exponents()
    f = [delta.coefficient(k) for k in range(exps[0], exps[-1] + 1)]
    degree = len(f) - 1
    for d in range(1, min(p_prime, 2 * degree * degree) + 1):
        if p_prime % d:
            continue
        primes = _prime_factors(d)
        totient = d
        for p in primes:
            totient = totient // p * (p - 1)
        if totient <= degree and _divides(_cyclotomic(d, primes), f):
            return False
    return True


def jacobi_minors(diagonal) -> list[int]:
    """The leading minors 1, D_1, ..., D_n of M + M^T for the Seifert
    matrix with this diagonal: D_k = 2 a_k D_(k-1) - D_(k-2), D_(-1) = 0."""
    minors, before = [1], 0
    for a in diagonal:
        minors.append(2 * a * minors[-1] - before)
        before = minors[-2]
    return minors


def jacobi_signature(diagonal) -> int:
    """Signature of M + M^T by Jacobi's rule, the sum of sign(D_(k-1) D_k)
    over jacobi_minors; SingularError on a vanishing minor."""
    minors = jacobi_minors(diagonal)
    if 0 in minors:
        raise SingularError("a leading minor of M + M^T vanishes")
    return sum(1 if x * y > 0 else -1 for x, y in zip(minors, minors[1:]))


def dense_signature(entries) -> int:
    """Signature of M + M^T by congruence diagonalization."""
    n = len(entries)
    return symmetric_signature(
        [[Fraction(entries[i][j] + entries[j][i]) for j in range(n)] for i in range(n)]
    )


def scan_census_classes(max_crossings: int) -> set[tuple[int, int, int]]:
    """(alpha, class key, crossing number) of every knot class with at most
    max_crossings crossings, by testing every odd alpha up to Fib(N+1)
    (the largest continuant of positive terms summing to N) and every
    beta below it."""
    a, b = 1, 1
    for _ in range(max_crossings):
        a, b = b, a + b
    classes = set()
    for alpha in range(3, a + 1, 2):
        for beta in range(1, alpha):
            if math.gcd(alpha, beta) != 1 or class_key(alpha, beta) != beta:
                continue
            c = crossing_number(SchubertForm(alpha, beta))
            if c <= max_crossings:
                classes.add((alpha, beta, c))
    return classes


def _expansions(target_num: int, target_den: int, first: int,
                out: list[tuple[int, ...]], depth_limit: int) -> None:
    """DFS over expansions of target = num/den with all terms |a| >= 2.

    At each node the next term a must satisfy |target - a| < 1 (so that
    the rest, whose value always exceeds 1 in absolute value, can supply
    the reciprocal), which leaves floor and ceiling as the only
    candidates; an exact integer target terminates the branch.  The
    denominator of the target strictly decreases, so the search ends.
    Iterative with an explicit stack: expansions of large knots can run
    to thousands of terms.
    """
    stack = [((first,), target_num, target_den)]
    while stack:
        prefix, num, den = stack.pop()
        if len(prefix) > depth_limit:
            raise InternalError("expansion depth exceeded the term-sum bound")
        q, rem = divmod(num, den)
        if rem == 0:
            if abs(q) >= 2:
                out.append(prefix + (q,))
            continue
        for a in (q, q + 1):  # floor and ceiling
            if abs(a) < 2:
                continue
            new_num, new_den = den, num - a * den
            if new_den < 0:
                new_num, new_den = -new_num, -new_den
            stack.append((prefix + (a,), new_num, new_den))


def reference_expansions(s: SchubertForm) -> list[tuple[int, ...]]:
    """The term lists of every boundary-slope expansion of a canonical
    (even-beta) form, in the order enumerate_bscf lists them."""
    depth_limit = sum(simple_cf(s.fraction).tail) + 2
    term_lists: list[tuple[int, ...]] = []
    for c in (0, 1):
        # residual target 1/(beta/alpha - c)
        num, den = s.alpha, s.beta - c * s.alpha
        if den < 0:
            num, den = -num, -den
        _expansions(num, den, c, term_lists, depth_limit)
    term_lists.sort(key=_sort_key)
    return term_lists


def reference_enumerate_bscf(s: SchubertForm) -> SlopeSystem:
    """enumerate_bscf as it was before the listing carried the records:
    term lists from the signed-residual search, a set for duplicates, a
    sort, an exact evaluation of each expansion, and pattern_counts and
    weight per record."""
    if s.beta % 2 != 0:
        raise DomainError(f"enumerate_bscf needs the canonical even-beta form, got {s}")
    depth_limit = sum(simple_cf(s.fraction).tail) + 2
    term_lists: list[tuple[int, ...]] = []
    for c in (0, 1):
        num, den = s.alpha, s.beta - c * s.alpha
        if den < 0:
            num, den = -num, -den
        _expansions(num, den, c, term_lists, depth_limit)
    if len(set(term_lists)) != len(term_lists):
        raise InternalError(f"duplicate expansions found for {s}")
    term_lists.sort(key=_sort_key)

    cfs = [ContinuedFraction(t) for t in term_lists]
    value = s.fraction
    for cf in cfs:
        if cf_eval(cf) != value:
            raise InternalError(f"expansion {cf} does not evaluate to {value}")

    even_indices = [i for i, cf in enumerate(cfs) if cf.all_even()]
    if len(even_indices) != 1:
        raise InternalError(
            f"expected exactly one all-even expansion for {s}, found {len(even_indices)}"
        )
    longitude_index = even_indices[0]
    n0_plus, n0_minus = pattern_counts(cfs[longitude_index])

    built = []
    for cf in cfs:
        n_plus, n_minus = pattern_counts(cf)
        built.append(
            BoundarySlopeRecord(
                cf=cf,
                n_plus=n_plus,
                n_minus=n_minus,
                slope=2 * ((n_plus - n_minus) - (n0_plus - n0_minus)),
                weight=weight(cf),
            )
        )
    records = tuple(built)
    if records[longitude_index].slope != 0:
        raise InternalError(f"longitude of {s} has nonzero slope")
    return SlopeSystem(knot=s, records=records, longitude_index=longitude_index)


def _fill(stack: list[tuple[int, int]], memo: dict[tuple[int, int], dict[int, int]]) -> None:
    """Put the distribution of every key on the stack, and of every state
    below it, into memo.

    Walks the states of slopes._step, memoised: memo[(n, d)] maps the sum
    of the sign steps n+ - n- over the rest of an expansion from the
    target n/d at an odd position to the total weight of the expansions
    with that sum (-n/d at an even position has the same map, the other
    two cases its reflection {-total: w}).  Iterative with an explicit
    stack, because expansions can run to thousands of terms.
    """
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        q, children = _step(*key)
        if not children:
            stack.pop()
            memo[key] = {1: q - 1}
            continue
        pending = [child for child, _, _ in children if child not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        dist: dict[int, int] = {}
        for child, a, sign in children:  # every term a is positive at an odd position
            for total, w in memo[child].items():
                dist[1 + sign * total] = dist.get(1 + sign * total, 0) + w * (a - 1)
        memo[key] = dist


def reference_slope_weights(alpha: int, beta: int, longitude: int,
                            memo: dict | None = None) -> tuple[tuple[int, int], ...]:
    """The sorted (slope, total weight) pairs of S(alpha, beta), beta even,
    from the walk of _fill under its two roots (integer parts 0 and 1),
    given the longitude's sign sum.  A sum t from the root of integer part
    0 (1) has slope 2(t - longitude) (2(-t - longitude)).  A memo may be
    shared between knots."""
    memo = {} if memo is None else memo
    totals: dict[int, int] = {}
    # residual targets alpha/beta and -alpha/(alpha - beta), the
    # reflection of its key
    for root, root_sign in (((alpha, beta), 1), ((alpha, alpha - beta), -1)):
        q, children = _step(*root)
        if not children:  # a last term q: one empty sum below it
            children = [(None, q, 1)]
        _fill([child for child, _, _ in children if child is not None], memo)
        for child, a, sign in children:
            for total, w in (memo[child] if child else {0: 1}).items():
                slope = 2 * (root_sign * (1 + sign * total) - longitude)
                totals[slope] = totals.get(slope, 0) + w * (a - 1)
    _check_weights(alpha, beta, sum(totals.values()), totals.get(0, 0))
    return tuple(sorted(totals.items()))


def weight_sides(weights) -> tuple[int, int]:
    """(sum_{N<0} W, sum_{N>0} W) of (slope, weight) pairs."""
    return (sum(w for slope, w in weights if slope < 0),
            sum(w for slope, w in weights if slope > 0))


# -- the census kernel before the tail walk gave each knot its quotients --


def reference_quotients(alpha: int, beta: int) -> list[int]:
    """The Euclid quotients a_1, ..., a_k of alpha/beta = [a_1; a_2, ..., a_k]."""
    out = []
    while beta:
        q, rem = divmod(alpha, beta)
        out.append(q)
        alpha, beta = beta, rem
    return out


def reference_even_entries(alpha: int, beta: int) -> tuple[int, ...]:
    """Entries of the even Conway form of S(alpha, beta), beta even: at each
    step the even one of floor and ceiling of the residual target."""
    entries = []
    num, den = alpha, beta
    while True:
        q, rem = divmod(num, den)
        if rem == 0:
            if q % 2 != 0:
                raise InternalError(f"all-even expansion of S({alpha},{beta}) ended on odd term")
            entries.append(q)
            break
        a = q if q % 2 == 0 else q + 1
        entries.append(a)
        num, den = den, num - a * den
        if den < 0:
            num, den = -num, -den
    if len(entries) % 2 != 0:
        raise InternalError(f"all-even expansion of S({alpha},{beta}) has odd length")
    return tuple(entries)


def reference_weight_sides(alpha: int, beta: int, longitude: int) -> tuple[int, int]:
    """(sum_{N<0} W, sum_{N>0} W) of S(alpha, beta), beta even, reading the
    two roots of slopes._roots one after the other: narrow packed lanes by
    masks mod 2^w - 1, anything else lane by lane."""
    lows, w, roots = _roots(alpha, reference_quotients(alpha, beta))
    negative = total = at_longitude = 0
    if 0 < w <= 64:
        ones = (1 << w) - 1
        for low, root in zip(lows, roots):
            part = root % ones
            total += part
            cut = longitude - low
            if cut * w > root.bit_length():
                negative += part
            elif cut >= 0:
                cut *= w
                negative += (root & ((1 << cut) - 1)) % ones
                at_longitude += (root >> cut) & ones
    else:
        for low, root in zip(lows, roots):
            cut = longitude - low
            for t, v in _entries(root, w):
                total += v
                if t < cut:
                    negative += v
                elif t == cut:
                    at_longitude += v
    _check_weights(alpha, beta, total, at_longitude)
    return negative, total - negative - at_longitude


def reference_class_values(alpha: int, key: int, crossings: int) -> tuple:
    """The values of obstruction._values for the knot class S(alpha, key),
    key its class key: the preferred form with the inverse from pow, then
    the even walk and the diagonal, Jacobi's signature, Delta''(1) of the
    full recurrence's polynomial, and the two-root read."""
    if key % 2 == 0:
        beta, mirrored = key, False
    else:
        beta, mirrored = alpha - key, True
        inverse = alpha - pow(key, -1, alpha)
        if inverse % 2 == 0 and inverse < beta:
            beta = inverse
    diagonal = [(-1) ** i * e // 2 for i, e in enumerate(reference_even_entries(alpha, beta))]
    delta_second = sum(c * k * (k - 1) for k, c in full_recurrence_alexander(diagonal).items())
    sigma = jacobi_signature(diagonal)
    longitude = sum(1 if a > 0 else -1 for a in diagonal)
    negative, positive = reference_weight_sides(alpha, beta, longitude)
    twice = negative - positive
    return (alpha, beta, mirrored, KNOT_NAMES.get((alpha, key)), crossings, delta_second, sigma,
            twice, classify(delta_second, sigma, twice))
