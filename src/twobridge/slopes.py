"""Boundary slopes of two-bridge knots.

Every boundary slope of S(alpha, beta) comes from a continued fraction
expansion of beta/alpha whose tail terms all have absolute value >= 2
(a "boundary slope continued fraction").  Two searches share one
floor/ceiling step (_step), and a third route checks them:

  * enumerate_bscf: depth-first listing of all such expansions, linear
    in the terms it lists, which MAX_EXPANSION_TERMS bounds;
  * slope_weights: the {slope: total weight} distribution alone, from
    the same search memoised on its residual targets, so its cost
    follows the number of distinct residuals rather than the number of
    expansions (which grows exponentially in crossing number);
  * mmr_substitution_enumerate: rewriting of the simple continued
    fraction by local substitutions at non-adjacent positions, the
    independent cross-check (it must agree set-wise with enumerate_bscf).

Each expansion carries sign-pattern counts (n+, n-) against the
alternating pattern +,-,+,-,..., a weight prod(|term|-1), and a slope
2((n+ - n-) - (n0+ - n0-)) measured against the unique all-even
expansion, which is the longitude (slope 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .alexander import _band, _seifert_diagonal, conway_even_form
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


def _step(n: int, d: int) -> tuple[int, list[tuple[tuple[int, int], int, int]]]:
    """The floor/ceiling step from the target n/d > 1 at an odd tail position.

    Returns q = n // d, the last term when d divides n (no children), and
    the children (key, term, sign of the child's sums) of the ceiling
    q + 1 and, when q >= 2, the floor q: they leave -d/(d - rem) and
    d/rem at an even position.  Negating a target or flipping its parity
    negates every sign step, so a key is the positive target at an odd
    position: the ceiling's sums keep their sign, the floor's flip.  The
    denominator strictly decreases, so every search ends.
    """
    q, rem = divmod(n, d)
    if rem == 0:
        return q, []
    ceiling = ((d, d - rem), q + 1, 1)
    return q, ([ceiling, ((d, rem), q, -1)] if q >= 2 else [ceiling])


# enumerate_bscf lists at most this many terms over all expansions of a
# knot, integer parts included: length times number bounds time and
# memory.  `slopes --json` takes 1.2 s and 87 MB on the 406,815 terms of
# S(36395631,26336126); the slowest refusal, a 4,300-digit S(n+1,n), 2.9 s
# (2-CPU x86_64, Python 3.11).
MAX_EXPANSION_TERMS = 500_000


def _expansions(s: SchubertForm, depth_limit: int) -> list[tuple[int, ...]]:
    """Term lists of every expansion of beta/alpha with tail terms |a| >= 2.

    Walks the states of _step depth-first from the roots of
    _root_children with the target's sign, which the ceiling flips; a
    term is that sign times the folded term.  One path is cut back on
    each pop, so the work is linear in the terms listed; DomainError as
    soon as they must pass MAX_EXPANSION_TERMS.
    """
    out: list[tuple[int, ...]] = []
    listed = 0
    path: list[int] = []
    # (key, sign of the target, path length before the term, term):
    # integer part 0 leaves alpha/beta, 1 leaves -alpha/(alpha - beta)
    stack = [((s.alpha, s.alpha - s.beta), -1, 0, 1), ((s.alpha, s.beta), 1, 0, 0)]
    while stack:
        (n, d), sign, depth, term = stack.pop()
        del path[depth:]
        path.append(term)
        if depth >= depth_limit:
            raise InternalError("expansion depth exceeded the term-sum bound")
        if listed + depth + 2 > MAX_EXPANSION_TERMS:  # expansions from here have >= depth + 2 terms
            raise DomainError(
                f"boundary-slope expansions are limited to {MAX_EXPANSION_TERMS} terms"
                " in total; this knot's have more"
            )
        q, children = _step(n, d)
        if not children:
            path.append(sign * q)
            out.append(tuple(path))
            listed += depth + 2
            continue
        for child, a, sums_sign in children:
            stack.append((child, -sign * sums_sign, depth + 1, sign * a))
    return out


def enumerate_bscf(s: SchubertForm) -> SlopeSystem:
    """All boundary-slope continued fractions of a canonical (even-beta) form.

    The integer part can only be 0 or 1 because the value beta/alpha lies
    in (0,1) and the tail contributes less than 1 in absolute value.
    Exactly one expansion must come out all even; it is the longitude and
    anchors the slopes of the rest.
    """
    if s.beta % 2 != 0:
        raise DomainError(f"enumerate_bscf needs the canonical even-beta form, got {s}")
    term_lists = _expansions(s, sum(simple_cf(s.fraction).tail) + 2)
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


def slope_weights(s: SchubertForm) -> SlopeWeights:
    """Total weight per boundary slope of a canonical (even-beta) form.

    See _slope_weights, which this calls with the longitude's sign sum
    from the band loop over the even Conway form of s and a fresh memo.
    """
    if s.beta % 2 != 0:
        raise DomainError(f"slope_weights needs the canonical even-beta form, got {s}")
    longitude = _band(_seifert_diagonal(conway_even_form(s).entries))[5]
    return _slope_weights(s, longitude, {})


# A memo shared by many walks (one census) is cleared before a walk once
# it holds this many states, about 16 MB (some 500 bytes a state).  A
# census up to 17 crossings never reaches it (20,543 states at N = 17);
# N = 18 reaches it once, near its end.
MEMO_CAP = 32768


def _fill(stack: list[tuple[int, int]], memo: dict[tuple[int, int], dict[int, int]]) -> None:
    """Put the distribution of every key on the stack, and of every state
    below it, into memo.

    Walks the states of _step, memoised: memo[(n, d)] maps the sum of the
    sign steps n+ - n- over the rest of an expansion from the target n/d
    at an odd position to the total weight of the expansions with that
    sum (-n/d at an even position has the same map, the other two cases
    its reflection {-total: w}).  Iterative with an explicit stack,
    because expansions can run to thousands of terms.
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


# The distribution below a last term: one empty sum of weight 1.
_END = {0: 1}


def _root_children(alpha: int, beta: int, memo: dict[tuple[int, int], dict[int, int]]
                   ) -> tuple[list[tuple[dict[int, int], int, int]], ...]:
    """The memo fill for S(alpha, beta), beta even: the children (child's
    distribution, term, sign of the child's sums) of its two roots, one
    per integer part 0 and 1, with every state below them in memo.

    The roots' own distributions are never stored: no other census knot
    starts there, and few walks pass through them, so each read merges
    the children itself (a last term q reads as the child _END).  A
    state's distribution depends on its key alone, so one memo can serve
    many knots and any entry may be dropped; the memo is cleared before
    the fill once it holds MEMO_CAP states.
    """
    if len(memo) >= MEMO_CAP:
        memo.clear()
    out = []
    # residual targets 1/(beta/alpha - c) for integer parts c = 0, 1:
    # alpha/beta, and -alpha/(alpha - beta), the reflection of its key
    for root in ((alpha, beta), (alpha, alpha - beta)):
        q, children = _step(*root)
        if not children:
            out.append([(_END, q, 1)])
            continue
        _fill([child for child, _, _ in children if child not in memo], memo)
        out.append([(memo[child], a, sign) for child, a, sign in children])
    return tuple(out)


def _check_weights(alpha: int, beta: int, total: int, at_longitude: int) -> None:
    """The weights sum to alpha and the longitude puts weight on slope 0."""
    if total != alpha:
        raise InternalError(f"slope weights of S({alpha},{beta}) sum to {total}, not alpha")
    if not at_longitude:
        raise InternalError(f"no weight at the longitude slope 0 for S({alpha},{beta})")


def _slope_weights(s: SchubertForm, longitude: int,
                   memo: dict[tuple[int, int], dict[int, int]]) -> SlopeWeights:
    """Total weight per boundary slope of a canonical (even-beta) form s,
    given the longitude's sign sum (see alexander._band), which anchors
    the slopes: the fill of _root_children, read as the sorted
    {slope: total weight} distribution.  A sign sum t from the root of
    integer part 0 (1) has slope 2(t - longitude) (2(-t - longitude)).
    Both checks of _check_weights are made.
    """
    totals: dict[int, int] = {}
    for children, root_sign in zip(_root_children(s.alpha, s.beta, memo), (1, -1)):
        for dist, a, sign in children:
            for total, w in dist.items():
                slope = 2 * (root_sign * (1 + sign * total) - longitude)
                totals[slope] = totals.get(slope, 0) + w * (a - 1)
    _check_weights(s.alpha, s.beta, sum(totals.values()), totals.get(0, 0))
    return SlopeWeights(knot=s, weights=tuple(sorted(totals.items())))


def _weight_sides(alpha: int, beta: int, longitude: int,
                  memo: dict[tuple[int, int], dict[int, int]]) -> tuple[int, int]:
    """(sum_{N<0} W, sum_{N>0} W) for S(alpha, beta), beta even: the fill
    of _root_children read as two sums, with the checks of
    _check_weights.  Only the comparison of a root's sign sum with the
    longitude counts (see _slope_weights).
    """
    negative = positive = at_longitude = 0
    for children, root_sign in zip(_root_children(alpha, beta, memo), (1, -1)):
        for dist, a, sign in children:
            # root_sign * (1 + sign * total) against longitude
            sign *= root_sign
            bound = longitude - root_sign
            below = above = at = 0
            for total, w in dist.items():
                total *= sign
                if total < bound:
                    below += w
                elif total > bound:
                    above += w
                else:
                    at += w
            negative += below * (a - 1)
            positive += above * (a - 1)
            at_longitude += at * (a - 1)
    _check_weights(alpha, beta, negative + positive + at_longitude, at_longitude)
    return negative, positive


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
