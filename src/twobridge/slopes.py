"""Boundary slopes of two-bridge knots.

Every boundary slope of S(alpha, beta) comes from a continued fraction
expansion of beta/alpha whose tail terms all have absolute value >= 2
(a "boundary slope continued fraction").  Three routes compute them:

  * enumerate_bscf: depth-first listing of all such expansions by the
    floor/ceiling step _step, linear in the terms it lists, which
    MAX_EXPANSION_TERMS bounds;
  * slope_weights: the {slope: total weight} distribution alone, from a
    two-state recurrence over the Euclid quotients of alpha/beta (see
    _roots), so its cost follows the number of quotients and of distinct
    sign sums rather than the number of expansions (which grows
    exponentially in crossing number) or the size of the terms;
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

from .alexander import _band, _even_diagonal
from .errors import DomainError, InternalError
from .rational import ContinuedFraction, Record, SchubertForm, cf_eval, simple_cf


class BoundarySlopeRecord(Record):
    """One boundary-slope continued fraction with its derived data."""

    cf: ContinuedFraction
    n_plus: int
    n_minus: int
    slope: int
    weight: int


class SlopeSystem(Record):
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


class SlopeWeights(Record):
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
# memory.  `slopes --json` takes 0.65 s and 63 MB as a process on the
# 406,815 terms of S(36395631,26336126) (2-CPU x86_64, Python 3.11).  A forced run that
# would pass it is refused where it starts: a 4,300-digit S(n+1,n) in
# about 5 ms.
MAX_EXPANSION_TERMS = 500_000


def _expansions(s: SchubertForm, depth_limit: int) -> list[tuple[tuple[int, ...], int, int, bool]]:
    """(terms, n+, weight, all even) of every expansion of beta/alpha with
    tail terms |a| >= 2, in increasing _sort_key of the terms.

    Walks the states of _step depth-first from the two roots, alpha/beta
    and -alpha/(alpha - beta) (integer parts 0 and 1), with the target's
    sign, which the ceiling flips; a term is that sign times the folded
    term.  Per term of its one path the walk carries n+, the weight, the
    evenness and the convergents (p, q), cut back with the path on each
    pop, so the work is linear in the terms listed; DomainError as soon
    as they must pass MAX_EXPANSION_TERMS, at the start of a forced run
    at the latest.  InternalError unless each convergent is beta/alpha
    and each cut puts a later term in _sort_key where it cuts, which
    makes the listing strictly increasing.
    """
    out = []
    listed = 0
    path: list[int] = []
    # per term of the path: (n+, weight, all even, p, q, p and q before)
    carried: list[tuple] = []
    # (key, sign of the target, path length before the term, term):
    # integer part 0 leaves alpha/beta, 1 leaves -alpha/(alpha - beta)
    stack = [((s.alpha, s.alpha - s.beta), -1, 0, 1), ((s.alpha, s.beta), 1, 0, 0)]
    while stack:
        (n, d), sign, depth, term = stack.pop()
        if depth < len(path):
            cut = path[depth]
            if (abs(term), term < 0) <= (abs(cut), cut < 0):
                raise InternalError(f"expansions of {s} are not listed in increasing order")
            del path[depth:], carried[depth:]
        if depth >= depth_limit:
            raise InternalError("expansion depth exceeded the term-sum bound")
        # expansions from here have >= depth + 2 terms, and a target with
        # q = 1 (d < n < 2d) starts a forced run of ceil(d / (n - d)) - 1
        # ceilings, so those from it have that many more
        room = MAX_EXPANSION_TERMS - listed - depth - 2
        if room < 0 or (n < 2 * d and d > (n - d) * (room + 1)):
            raise DomainError(
                f"boundary-slope expansions are limited to {MAX_EXPANSION_TERMS} terms"
                " in total; this knot's have more"
            )
        q, children = _step(n, d)
        terms = (term,) if children else (term, sign * q)
        for t in terms:
            j = len(path)  # the term's position in the tail
            if j:
                n_plus, w, even, p0, q0, p1, q1 = carried[-1]
                carried.append((n_plus + ((t > 0) == (j % 2 == 1)), w * (abs(t) - 1),
                                even and t % 2 == 0, t * p0 + p1, t * q0 + q1, p0, q0))
            else:
                carried.append((0, 1, t % 2 == 0, t, 1, 1, 0))
            path.append(t)
        if not children:
            n_plus, w, even, p0, q0, _, _ = carried[-1]
            if (p0, q0) not in ((s.beta, s.alpha), (-s.beta, -s.alpha)):
                raise InternalError(f"expansion {path} does not evaluate to {s.beta}/{s.alpha}")
            out.append((tuple(path), n_plus, w, even))
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
    listed = _expansions(s, sum(simple_cf(s.fraction).tail) + 2)
    even_indices = [i for i, item in enumerate(listed) if item[3]]
    if len(even_indices) != 1:
        raise InternalError(
            f"expected exactly one all-even expansion for {s}, found {len(even_indices)}"
        )
    longitude_index = even_indices[0]
    terms, n0_plus, _, _ = listed[longitude_index]
    base = 2 * n0_plus - len(terms)  # n0+ - n0- - 1
    # (cf, n+, n-, slope as in slope_of, weight), by position
    records = tuple(
        BoundarySlopeRecord(ContinuedFraction(terms), n_plus, len(terms) - 1 - n_plus,
                            2 * (2 * n_plus - len(terms) - base), w)
        for terms, n_plus, w, _ in listed
    )
    if records[longitude_index].slope != 0:
        raise InternalError(f"longitude of {s} has nonzero slope")
    return SlopeSystem(s, records, longitude_index)


def slope_weights(s: SchubertForm) -> SlopeWeights:
    """Total weight per boundary slope of a canonical (even-beta) form.

    See _slope_weights, which this calls with the longitude's sign sum
    from the band loop over the Seifert diagonal of the even Conway form
    of s.
    """
    if s.beta % 2 != 0:
        raise DomainError(f"slope_weights needs the canonical even-beta form, got {s}")
    longitude = _band(_even_diagonal(s.alpha, s.beta))[3]
    return _slope_weights(s, longitude)


def _quotients(alpha: int, beta: int) -> list[int]:
    """The Euclid quotients a_1, ..., a_k of alpha/beta = [a_1; a_2, ..., a_k]."""
    out = []
    while beta:
        q, rem = divmod(alpha, beta)
        out.append(q)
        alpha, beta = beta, rem
    return out


# The packed route runs while a distribution, 2 * frame + 1 lanes of w
# bits, takes at most this many bits.  Each level then costs a few
# shifts, adds and small multiplies of ints this size, and there are at
# most about sqrt(PACKED_BITS) levels (alpha >= Fib(k) makes w grow with
# k), so the route is bounded with no count of its own.  At the bound the
# two routes are within 2x of each other: packed is 1.7-2x slower on
# C[4,...,4] (few sums per level, wide frame) and 2x faster on random
# small-entry knots (2-CPU x86_64, Python 3.11).  Every census knot and
# every benchmark input takes this route; a census knot needs well under
# a thousand bits.
PACKED_BITS = 1 << 20

# The sparse route counts the entries of the distributions it builds,
# each weighted by the 64-bit words of alpha (a weight's size), and
# raises DomainError before a level that would pass this many, or whose
# entries held at once (the three kept states and the new level) could
# pass a quarter of it.  The first count bounds time, the second memory:
# C[4]^2000 builds 2,001,000 entries of 66 words (132 M) in 3.2 s at
# 24 MB peak RSS, and C[4]^10000 is refused after 0.75 s.  Knots whose
# sums rarely collide (random genus 12-16 with 20-30 digit entries,
# millions of slopes) are refused within 1.1 s at 225 MB; at genus 10
# they finish in 0.4 s at 80 MB (2-CPU x86_64, Python 3.11).
MAX_SLOPE_WORK = 1 << 27


def _roots(alpha: int, a: list[int]) -> tuple[tuple[int, int], int, tuple]:
    """The weight distributions of the two roots of S(alpha, beta), beta
    even, as ((low_0, low_1), w, (root_0, root_1)), from the Euclid
    quotients a = a_1, ..., a_k of alpha/beta (see _quotients).

    A sign sum t of an expansion from a root is n+ - n- over its tail; it
    has slope 2(t - longitude).  Let P_{j,c}(x) be the sum of W x^t over
    the expansions from the target [a_j + c; a_(j+1), ..., a_k].  The
    first term of such an expansion is the floor a_j + c, of weight
    a_j + c - 1, which leaves -[a_(j+1); ...] at an even position and so
    reflects the sums; or the ceiling, of weight a_j + c, after which the
    walk is forced through a_(j+1) - 1 ceilings of term 2 (weight 1, sum
    step +1) down to [a_(j+2) + 1; ...].  These are the local rewrites
    of the simple continued fraction at non-adjacent positions (the MMR
    rule, see apply_substitutions).  So

        P_{j,c}(x) = (a_j + c - 1) x P_{j+1,0}(1/x)
                     + (a_j + c) x^(a_(j+1)) P_{j+2,1}(x),

    with P_{k+1,c} = 1 and P_{k+2,1} = 0, and the knot's distribution is
    P_{1,0}(x) + x^(1 - a_1) P_{2,1}(1/x).  Only P_j(x) at odd j and
    P_j(1/x) at even j are ever read, so with Q_j those, one right-to-left
    pass of

        Q_{j,c} = (a_j + c - 1) x^s Q_{j+1,0} + (a_j + c) x^(s a_(j+1)) Q_{j+2,1},

    s = +1 at odd j and -1 at even j, keeps the last three states;
    root_0 = Q_{1,0} and root_1 = Q_{2,1}, whose sums are offset by
    1 - a_1.

    Two evaluations of the same pass:
      * packed (w > 0), when the lanes fit PACKED_BITS: each Q is one int
        at x = 2^w, lane i holding the weight of sum low + i for the
        root's low, so x^s is a shift (Kronecker packing, as in
        alexander_poly);
      * sparse (w = 0): {sum: weight} dicts, root sums offset by low; the
        only route for big terms, within MAX_SLOPE_WORK.
    """
    # every sum of every Q lies in [-frame, frame]: by the recurrence, the
    # sums of Q_j are at most 1 + a_(j+1) + ... + a_k in absolute value,
    # and a_1 enters only as a weight and the offset
    frame = 1 + sum(a) - a[0]
    # The weights of the expansions from a target n/d sum to n, and every
    # target the pass reads has n <= alpha (every such state's sum is at
    # most alpha on all 36,468 even forms with alpha < 600; Q_{1,1} is
    # computed but never read), so every lane of those states, and any
    # sum of their lanes, stays below 2^(w-2): no lane carries into the
    # next, and a set of lanes is summed mod 2^w - 1 (see _weight_sides).
    # Whole bytes, for to_bytes.
    w = 8 * ((alpha.bit_length() + 9) // 8)
    if (2 * frame + 1) * w <= PACKED_BITS:
        return (-frame, 1 - a[0] - frame), w, _packed(a, w, frame)
    return (0, 1 - a[0]), 0, _sparse(a, alpha.bit_length() // 64 + 1)


def _packed(a: list[int], w: int, frame: int) -> tuple[int, int]:
    """(Q_{1,0}, Q_{2,1}) of _roots at x = 2^w, the sum t in lane t + frame."""
    q0 = q1 = 1 << (frame * w)  # Q_{k+1,0} = Q_{k+1,1} = 1
    q1_next = 0  # Q_{k+2,1}
    after = 0  # a_(j+1)
    up = len(a) % 2  # s = +1 at odd j
    for aj in reversed(a):
        # x^-1 is a right shift, exact because every sum stays in the frame
        if up:
            floor, ceiling = q0 << w, q1_next << after * w
        else:
            floor, ceiling = q0 >> w, q1_next >> after * w
        up = not up
        both = floor + ceiling
        q1_next, q1 = q1, aj * both + ceiling  # (a_j + c - 1) floor + (a_j + c) ceiling at c = 1
        q0 = q1 - both
        after = aj
    return q0, q1_next


def _sparse(a: list[int], words: int) -> tuple[dict[int, int], dict[int, int]]:
    """(Q_{1,0}, Q_{2,1}) of _roots as {sum: weight}; each level's entries
    count words toward MAX_SLOPE_WORK, checked before the level is built."""
    q0, q1, q1_next = {0: 1}, {0: 1}, {}
    after = work = 0
    s = 1 if len(a) % 2 else -1
    for aj in reversed(a):
        bound = len(q0) + len(q1_next)  # the sums of the new level
        held = 3 * bound + len(q1)  # q0, q1, q1_next and the new level
        if work + bound * words > MAX_SLOPE_WORK or held * words > MAX_SLOPE_WORK // 4:
            raise DomainError(
                f"slope weights are limited to {MAX_SLOPE_WORK} distribution entries"
                " times 64-bit words of alpha (a quarter of that held at once);"
                " this knot needs more"
            )
        n0, n1 = {}, {}
        for t, v in q0.items():  # the floor, at a sum step s
            t += s
            if aj > 1:
                n0[t] = (aj - 1) * v
            n1[t] = aj * v
        shift = s * after
        for t, v in q1_next.items():  # the ceiling and its forced run
            t += shift
            n0[t] = n0.get(t, 0) + aj * v
            n1[t] = n1.get(t, 0) + (aj + 1) * v
        work += len(n1) * words
        q1_next, q0, q1 = q1, n0, n1
        after = aj
        s = -s
    return q0, q1_next


def _entries(root, w: int):
    """(offset, weight) of every nonzero weight of a root of _roots."""
    if not w:
        return root.items()
    lane = w // 8
    data = root.to_bytes((root.bit_length() + 7) // 8 // lane * lane + lane, "little")
    return ((i // lane, v) for i in range(0, len(data), lane)
            if (v := int.from_bytes(data[i:i + lane], "little")))


def _check_weights(alpha: int, beta: int, total: int, at_longitude: int) -> None:
    """The weights sum to alpha and the longitude puts weight on slope 0."""
    if total != alpha:
        raise InternalError(f"slope weights of S({alpha},{beta}) sum to {total}, not alpha")
    if not at_longitude:
        raise InternalError(f"no weight at the longitude slope 0 for S({alpha},{beta})")


def _slope_weights(s: SchubertForm, longitude: int) -> SlopeWeights:
    """Total weight per boundary slope of a canonical (even-beta) form s,
    given the longitude's sign sum (see alexander._band), which anchors
    the slopes: the roots of _roots read as the sorted {slope: total
    weight} distribution.  Both checks of _check_weights are made.
    """
    lows, w, roots = _roots(s.alpha, _quotients(s.alpha, s.beta))
    totals: dict[int, int] = {}
    for low, root in zip(lows, roots):
        for t, v in _entries(root, w):
            slope = 2 * (low + t - longitude)
            totals[slope] = totals.get(slope, 0) + v
    _check_weights(s.alpha, s.beta, sum(totals.values()), totals.get(0, 0))
    return SlopeWeights(s, tuple(sorted(totals.items())))


def _weight_sides(alpha: int, beta: int, a: list[int], longitude: int) -> tuple[int, int]:
    """(sum_{N<0} W, sum_{N>0} W) for S(alpha, beta), beta even, whose
    Euclid quotients are a: the roots of _roots read as two sums, with
    the checks of _check_weights.  Only the comparison of a sum with the
    longitude counts.  Packed roots of narrow lanes are merged into one
    int, root_0 shifted up by the a_1 - 1 lanes between the two lows,
    and read by lane masks: 2^w = 1 mod 2^w - 1, so an int mod 2^w - 1
    is the sum of its lanes, which _roots keeps below 2^w - 1 even for a
    sum of the two roots.  That division is linear only for a divisor of
    a few words, and the merge only for a shift within PACKED_BITS, so
    wider lanes, or a larger a_1, are read lane by lane.
    """
    lows, w, roots = _roots(alpha, a)
    negative = at_longitude = 0
    shift = (lows[0] - lows[1]) * w
    if 0 < w <= 64 and shift <= PACKED_BITS:
        ones = (1 << w) - 1
        merged = (roots[0] << shift) + roots[1]
        total = merged % ones
        cut = (longitude - lows[1]) * w  # the longitude's lane, in bits
        if cut > merged.bit_length():
            negative = total
        elif cut >= 0:
            negative = (merged & ((1 << cut) - 1)) % ones
            at_longitude = (merged >> cut) & ones
    else:
        total = 0
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
