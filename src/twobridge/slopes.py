"""Boundary slopes of two-bridge knots.

Every boundary slope of S(alpha, beta) comes from a continued fraction
expansion of beta/alpha whose tail terms all have absolute value >= 2
(a "boundary slope continued fraction").  Two independent enumerators
and one aggregate live here:

  * enumerate_bscf: exhaustive depth-first search over all such
    expansions, the primary listing;
  * mmr_substitution_enumerate: rewriting of the simple continued
    fraction by local substitutions at non-adjacent positions, kept as a
    cross-check (the two must agree set-wise);
  * slope_weights: the {slope: total weight} distribution alone, from
    the same search memoised on its residual targets, so its cost
    follows the number of distinct residuals rather than the number of
    expansions (which grows exponentially in crossing number).

Each expansion carries sign-pattern counts (n+, n-) against the
alternating pattern +,-,+,-,..., a weight prod(|term|-1), and a slope
2((n+ - n-) - (n0+ - n0-)) measured against the unique all-even
expansion, which is the longitude (slope 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .alexander import conway_even_form
from .errors import DomainError, InternalError
from .rational import ContinuedFraction, SchubertForm, cf_eval, simple_cf


@dataclass(frozen=True)
class BoundarySlopeRecord:
    """One boundary-slope continued fraction with its derived data."""

    cf: ContinuedFraction
    n_plus: int
    n_minus: int
    slope: int
    weight: int


@dataclass(frozen=True)
class SlopeSystem:
    """The complete boundary-slope data of one two-bridge knot."""

    knot: SchubertForm
    records: tuple[BoundarySlopeRecord, ...]
    longitude_index: int

    @property
    def longitude(self) -> BoundarySlopeRecord:
        return self.records[self.longitude_index]

    @property
    def weights(self) -> tuple[tuple[int, int], ...]:
        """Total weight per boundary slope, as slope_weights gives it."""
        totals: dict[int, int] = {}
        for rec in self.records:
            totals[rec.slope] = totals.get(rec.slope, 0) + rec.weight
        return tuple(sorted(totals.items()))


@dataclass(frozen=True)
class SlopeWeights:
    """The {boundary slope: total weight} distribution of one two-bridge knot."""

    knot: SchubertForm
    weights: tuple[tuple[int, int], ...]  # (slope, total weight), sorted by slope


def pattern_counts(cf: ContinuedFraction) -> tuple[int, int]:
    """Count tail terms matching / not matching the pattern +,-,+,-,...

    Position j (1-based over the tail) expects sign + for odd j and - for
    even j; n_plus counts matches, n_minus mismatches.
    """
    n_plus = n_minus = 0
    for j, term in enumerate(cf.tail, start=1):
        if term == 0:
            raise DomainError(f"zero tail term in {cf}")
        expected_positive = j % 2 == 1
        if (term > 0) == expected_positive:
            n_plus += 1
        else:
            n_minus += 1
    return n_plus, n_minus


def weight(cf: ContinuedFraction) -> int:
    """Weight prod(|term| - 1) over the tail terms."""
    w = 1
    for term in cf.tail:
        if abs(term) < 2:
            raise DomainError(f"boundary slope CF needs |terms| >= 2, got {term} in {cf}")
        w *= abs(term) - 1
    return w


def slope_of(cf: ContinuedFraction, longitude: ContinuedFraction) -> int:
    """Boundary slope 2((n+ - n-) - (n0+ - n0-)) relative to the longitude."""
    n_plus, n_minus = pattern_counts(cf)
    n0_plus, n0_minus = pattern_counts(longitude)
    return 2 * ((n_plus - n_minus) - (n0_plus - n0_minus))


def _sort_key(terms: tuple[int, ...]) -> tuple:
    # Orders expansions the way the case tables do: by magnitude first,
    # positive before negative at equal magnitude, prefixes first.
    return tuple((abs(t), t < 0) for t in terms)


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


def enumerate_bscf(s: SchubertForm) -> SlopeSystem:
    """All boundary-slope continued fractions of a canonical (even-beta) form.

    The integer part can only be 0 or 1 because the value beta/alpha lies
    in (0,1) and the tail contributes less than 1 in absolute value.
    Exactly one expansion must come out all even; it is the longitude and
    anchors the slopes of the rest.
    """
    if s.beta % 2 != 0:
        raise DomainError(f"enumerate_bscf needs the canonical even-beta form, got {s}")
    depth_limit = sum(simple_cf(s.fraction).tail) + 2
    term_lists: list[tuple[int, ...]] = []
    for c in (0, 1):
        # residual target 1/(beta/alpha - c)
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
                slope=2 * ((n_plus - n_minus) - (n0_plus - n0_minus)),  # as in slope_of
                weight=weight(cf),
            )
        )
    records = tuple(built)
    if records[longitude_index].slope != 0:
        raise InternalError(f"longitude of {s} has nonzero slope")
    return SlopeSystem(knot=s, records=records, longitude_index=longitude_index)


def _sign_step(term: int, odd_position: bool) -> int:
    """+1 when the term's sign matches the pattern +,-,+,-,... at its position."""
    return 1 if (term > 0) == odd_position else -1


def slope_weights(s: SchubertForm) -> SlopeWeights:
    """Total weight per boundary slope of a canonical (even-beta) form.

    See _slope_weights, which this calls with the entries of the even
    Conway form of s and a fresh memo.
    """
    if s.beta % 2 != 0:
        raise DomainError(f"slope_weights needs the canonical even-beta form, got {s}")
    return _slope_weights(s, conway_even_form(s).entries, {})


# A memo shared by many walks (one census) is cleared before a walk once
# it holds this many states, about 16 MB (some 500 bytes a state).  A
# census up to 18 crossings never reaches it (32,365 states at N = 18).
MEMO_CAP = 32768


def _slope_weights(s: SchubertForm, entries: tuple[int, ...],
                   memo: dict[tuple[int, int], dict[int, int]]) -> SlopeWeights:
    """Total weight per boundary slope of a canonical (even-beta) form s,
    given the entries of its even Conway form.

    Walks the floor/ceiling search of _expansions, memoised on residual
    targets: each state maps the sum of the sign steps n+ - n- over the
    rest of an expansion to the total weight of the expansions with that
    sum.  Negating the target negates every term, and flipping the parity
    of the next tail position flips the pattern; either one negates every
    sign step and keeps the weights.  So memo[(n, d)] holds the
    distribution of the target n/d > 1 at an odd position alone: -n/d at
    an even position has the same one, the other two cases have its
    reflection {-total: w}, and every term of that walk is positive.
    Floor q (when q >= 2) leaves the positive target d/rem at an even
    position, ceiling q + 1 the negative target -d/(d - rem).

    A state's distribution depends on its key alone, so one memo can
    serve many knots and any entry may be dropped; the memo is cleared
    before the walk once it holds MEMO_CAP states.  The two roots, one
    per integer part 0 and 1, are read and dropped: no other census knot
    starts there, and few walks pass through them.  The longitude's sum,
    read off the even Conway form, anchors the slopes.  Iterative with an
    explicit stack, because expansions can run to thousands of terms.
    The weights sum to alpha and the longitude puts weight on slope 0;
    both are checked.
    """
    if len(memo) >= MEMO_CAP:
        memo.clear()
    # residual targets 1/(beta/alpha - c) for integer parts c = 0, 1:
    # alpha/beta, and -alpha/(alpha - beta), the reflection of its key
    roots = [(s.alpha, s.beta), (s.alpha, s.alpha - s.beta)]
    stack = list(roots)
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        n, d = key
        q, rem = divmod(n, d)
        if rem == 0:
            stack.pop()
            memo[key] = {1: q - 1}  # q >= 2, as every target exceeds 1
            continue
        # (child, term, sign of the child's sums): the ceiling's child is
        # reflected twice, the floor's once, and the floor needs q >= 2
        children = [((d, d - rem), q + 1, 1)] + ([((d, rem), q, -1)] if q >= 2 else [])
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

    longitude = sum(_sign_step(e, j % 2 == 1) for j, e in enumerate(entries, start=1))
    totals: dict[int, int] = {}
    for root, sign in zip(roots, (1, -1)):
        for total, w in memo.pop(root).items():
            slope = 2 * (sign * total - longitude)
            totals[slope] = totals.get(slope, 0) + w
    if sum(totals.values()) != s.alpha:
        raise InternalError(f"slope weights of {s} sum to {sum(totals.values())}, not alpha")
    if not totals.get(0):
        raise InternalError(f"no weight at the longitude slope 0 for {s}")
    return SlopeWeights(knot=s, weights=tuple(sorted(totals.items())))


def apply_substitutions(simple: ContinuedFraction, positions: set[int]) -> ContinuedFraction:
    """Apply the local substitutions at the given non-adjacent tail positions.

    Position j (1-based over the tail) rewrites the term b at j according
    to its parity:

      even b = 2m:  ..., left, 2m, right, ...
                 -> ..., left+1, (-2,2)^(m-1), -2, right+1, ...
      odd  b = 2m+1: ..., left, 2m+1, right, rest...
                 -> ..., left+1, (-2,2)^m, -right-1, -rest...

    Multiple positions compose right to left; processed that way, every
    rule always sees the original positive term at its own position, and
    the sign propagation of the odd rule's tail negation lands where the
    worked case tables put it.
    """
    terms = list(simple.terms)
    n = len(terms) - 1
    positions = set(positions)
    for j in positions:
        if not 1 <= j <= n:
            raise DomainError(f"substitution position {j} outside 1..{n}")
        if j + 1 in positions:
            raise DomainError(f"substitution positions {j},{j+1} are adjacent")
    for j in sorted(positions, reverse=True):
        b = terms[j]
        assert b > 0, "right-to-left processing keeps pending positions positive"
        terms[j - 1] += 1
        if b % 2 == 0:
            block = [-2, 2] * (b // 2 - 1) + [-2]
            if j + 1 <= len(terms) - 1:
                terms[j + 1] += 1
        else:
            block = [-2, 2] * (b // 2)
            if j + 1 <= len(terms) - 1:
                terms[j + 1] = -terms[j + 1] - 1
                for k in range(j + 2, len(terms)):
                    terms[k] = -terms[k]
        terms[j:j + 1] = block
    return ContinuedFraction(tuple(terms))


def mmr_substitution_enumerate(simple: ContinuedFraction) -> list[ContinuedFraction]:
    """Enumerate boundary-slope CFs by substitution sets on the simple CF.

    Tries every subset of pairwise non-adjacent tail positions and keeps
    the results whose tails consist of terms of absolute value >= 2 (a
    tail term equal to 1 survives only when a neighboring substitution
    bumps it).  Agrees set-wise with enumerate_bscf; that equality is the
    pinned acceptance property.
    """
    if not simple.is_simple():
        raise DomainError(f"{simple} is not a simple continued fraction")
    n = len(simple.tail)
    results = {}
    for bits in itertools.product((0, 1), repeat=n):
        positions = {j for j, b in enumerate(bits, start=1) if b}
        if any(j + 1 in positions for j in positions):
            continue
        cf = apply_substitutions(simple, positions)
        if all(abs(t) >= 2 for t in cf.tail):
            results[cf.terms] = cf
    return [results[t] for t in sorted(results, key=_sort_key)]
