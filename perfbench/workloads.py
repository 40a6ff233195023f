"""Seeded inputs for the four workloads.

Each workload is a deck of CLI calls.  The query workloads draw their
knots (and slopes) in strata of the property that sets their cost, and
play the deck in blocks holding one call of every stratum in a seeded
order, so any prefix of the deck has the same mix of sizes whatever the
seed.  That keeps the medians and tails steady across seeds while the
knots themselves change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import oracle

CENSUS_N = 14

# Small-knot names with one Schubert form of each (knot tables); the
# checker only asks that the reply's form present the same knot.
NAMED = {
    "3_1": (3, 1), "4_1": (5, 2), "5_1": (5, 1), "5_2": (7, 3), "6_1": (9, 7),
    "6_2": (11, 4), "6_3": (13, 5), "7_1": (7, 1), "7_2": (11, 5), "7_3": (13, 4),
    "7_4": (15, 4), "7_5": (17, 7), "7_6": (19, 7), "7_7": (21, 8), "8_1": (13, 11),
    "8_3": (17, 4), "8_8": (25, 9), "8_9": (25, 7), "8_12": (29, 12), "8_13": (29, 11),
    "9_1": (9, 1), "9_14": (37, 14), "9_19": (41, 16), "9_27": (49, 19),
}


@dataclass
class Call:
    argv: list[str]
    alpha: int = 0
    beta: int = 0           # the presentation passed in; 0 for a knot given by name
    crossings: int = 0      # tail sum of the generator's own simple CF; 0 if unknown
    p: int = 0
    q: int = 1


@dataclass
class Workload:
    command: str
    deck: list[Call]
    sizes: dict = field(default_factory=dict)
    census_n: int = 0
    warmup: list[str] = field(default_factory=list)  # untimed first call; defaults to the deck's first

    def __post_init__(self):
        self.warmup = self.warmup or self.deck[0].argv


def _presentation(rng: random.Random, alpha: int, beta: int) -> int:
    """One of the four betas presenting this knot or its mirror."""
    inv = pow(beta, -1, alpha)
    return rng.choice((beta, alpha - beta, inv, alpha - inv))


def _knot_sizes(alpha: int, beta: int) -> tuple[int, int]:
    """(genus, boundary-slope expansion count) of S(alpha, beta)."""
    even_beta, _ = oracle.preferred(alpha, beta)
    genus = len(oracle.conway_entries(alpha, even_beta)) // 2
    return genus, oracle.expansion_count(alpha, even_beta)


def _range(values) -> list:
    values = list(values)
    return [min(values), max(values)] if values else []


def _interleave(rng: random.Random, strata: list[list[Call]]) -> list[Call]:
    """Blocks of one call per stratum, each block in a seeded order."""
    deck = []
    for b in range(max(len(s) for s in strata)):
        block = [s[b % len(s)] for s in strata]
        rng.shuffle(block)
        deck.extend(block)
    return deck


def _log_edges(lo: int, hi: int, count: int) -> list[int]:
    """count + 1 edges spaced evenly in log scale from lo to hi."""
    return [round(lo * (hi / lo) ** (k / count)) for k in range(count + 1)]


def _strata_by(rng, edges, per_stratum, sample, measure):
    """Fill each [edges[i], edges[i+1]) bucket of `measure` with per_stratum
    items; sample(rng, i) aims at an unfilled bucket i, and a hit in any
    bucket that still has room is kept."""
    strata = [[] for _ in range(len(edges) - 1)]
    while True:
        open_ = [i for i, s in enumerate(strata) if len(s) < per_stratum]
        if not open_:
            return strata
        item = sample(rng, rng.choice(open_))
        if item is None:
            continue
        value = measure(item)
        for i in open_:
            if edges[i] <= value < edges[i + 1]:
                strata[i].append(item)


def _census(rng, smoke):
    n = 7 if smoke else CENSUS_N
    call = Call(["obstruct", "--census", str(n), "--jsonl"])
    knots = sum(oracle.ernst_sumners(k) for k in range(3, n + 1))
    return Workload("obstruct", [call], {"census_n": n, "knots": knots, "crossing_number": [3, n]},
                    census_n=n, warmup=["obstruct", "--census", "7", "--jsonl"])


def _many_expansions(rng, smoke):
    """17 log-spaced strata of expansion count from 130 to 1e4, 24 knots each
    (below 130 the 28-36 crossing tails are too rare to fill a stratum fast).
    24 per stratum keeps the deck's median latency within a few percent
    from seed to seed; an odd count puts the median inside a stratum."""
    lo_c, hi_c = (10, 14) if smoke else (28, 36)
    edges = [10, 30, 100] if smoke else _log_edges(130, 10_000, 17)

    def sample(rng, stratum):
        # 1-terms multiply expansions, so aim their share at the stratum
        ones = 0.3 * 100 ** (stratum / (len(edges) - 2))
        target, tail = rng.randint(lo_c, hi_c), []
        while target - sum(tail) > 3:
            tail.append(rng.choices((1, 2, 3), weights=(ones, 1, 1))[0])
        if target > sum(tail):
            tail.append(target - sum(tail))
        alpha, beta = oracle.tail_to_schubert(tail)
        if tail[-1] < 2 or alpha % 2 == 0:
            return None
        return (alpha, beta, target, oracle.expansion_count(alpha, oracle.preferred(alpha, beta)[0]))

    strata = _strata_by(rng, edges, 2 if smoke else 24, sample, lambda item: item[3])
    knots = [k for s in strata for k in s]
    calls = [[_knot_call(rng, "obstruct", *k[:3]) for k in s] for s in strata]
    sizes = {"crossing_number": _range(k[2] for k in knots),
             "genus": _range(_knot_sizes(k[0], k[1])[0] for k in knots),
             "expansions": _range(k[3] for k in knots), "knots": len(knots)}
    return Workload("obstruct", _interleave(rng, calls), sizes)


def _knot_call(rng, command, alpha, beta, crossings):
    beta = _presentation(rng, alpha, beta)
    return Call([command, f"S({alpha},{beta})", "--json"], alpha, beta, crossings)


def _high_genus(rng, smoke):
    """33 log-spaced strata of genus from 16 to 180, 9 knots each, so a run
    calls each knot about once.  Cost grows about as genus cubed, so
    narrow strata keep the calls around a percentile close in cost; an
    odd count puts the median inside a stratum, not at an edge."""
    edges = [4, 8, 12] if smoke else _log_edges(16, 180, 33)
    lo_t, hi_t = (5, 20) if smoke else (15, 120)

    def sample(rng, _stratum):
        tail = [rng.randint(lo_t, hi_t) for _ in range(rng.randint(2, 5))]
        alpha, beta = oracle.tail_to_schubert(tail)
        if alpha % 2 == 0:
            return None
        even_beta, _ = oracle.preferred(alpha, beta)
        genus = len(oracle.conway_entries(alpha, even_beta)) // 2
        return (alpha, beta, sum(tail), genus)

    strata = _strata_by(rng, edges, 2 if smoke else 9, sample, lambda item: item[3])
    knots = [k for s in strata for k in s]
    calls = [[_knot_call(rng, "alexander", *k[:3]) for k in s] for s in strata]
    sizes = {"crossing_number": _range(k[2] for k in knots), "genus": _range(k[3] for k in knots),
             "knots": len(knots)}
    return Workload("alexander", _interleave(rng, calls), sizes)


def _small_knot(rng, max_crossings):
    while True:
        tail, target = [], rng.randint(3, max_crossings)
        while sum(tail) < target:
            tail.append(rng.randint(1, target))
        if sum(tail) == target and tail[-1] >= 2:
            alpha, beta = oracle.tail_to_schubert(tail)
            if alpha % 2 == 1:
                return alpha, beta, target


# Knot classes of the surgery workload: (kind, genus), where ("named", 2)
# means a named knot of genus 2 or more.  The root-of-unity check works on
# a Sylvester matrix of size 2g + p', so at small p' the genus sets the
# cost as much as the slope does.
GOLDEN = (5 ** 0.5 - 1) / 2

SURGERY_CLASSES = (("named", 1), ("named", 2), ("kx", 3),
                   ("S", 1), ("S", 2), ("S", 3), ("S", 4), ("S", 5))


def _surgery(rng, smoke):
    """Slopes stratified by |p| band and parity (p' = |p| or |p|/2 sets the
    cost of the root-of-unity check); knots drawn per call from a class
    of SURGERY_CLASSES.

    The bands narrow towards small |p|, so most calls are cheap and the
    slowest tenth falls in the two top odd bands.  Above 60 the bands are
    10 wide, so the calls around the 90th percentile differ little in p'.  Within a band the
    magnitudes follow a golden-ratio sequence from a seeded start, so
    every prefix of the deck covers the band evenly, and the lowest even
    band reaches p = 0 in about a third of its calls.
    Each stratum visits the knot classes in rounds, every round a seeded
    order of all of them, so every seed and every prefix of the deck has
    nearly the same mix of genus and knot kind.
    """
    bands = [(0, 6), (6, 13)] if smoke else [(0, 5), (5, 10), (10, 20), (20, 30), (30, 45),
                                              (45, 60), (60, 70), (70, 80), (80, 90), (90, 101)]
    blocks = 2 if smoke else 24
    strata = [[p for p in range(lo, hi) if p % 2 == parity] for lo, hi in bands for parity in (0, 1)]
    calls: list[list[Call]] = []
    for choices in strata:
        start = rng.random()
        classes = []
        while len(classes) < blocks:
            classes.extend(rng.sample(SURGERY_CLASSES, len(SURGERY_CLASSES)))
        row = []
        for b in range(blocks):
            p = choices[int((start + b * GOLDEN) % 1 * len(choices))] * rng.choice((1, -1))
            q = 1 if p == 0 else rng.choice([q for q in range(1, 5) if math.gcd(abs(p), q) == 1])
            row.append(_casson_call(rng, p, q, *classes[b]))
        calls.append(row)
    deck = _interleave(rng, calls)
    p_primes = [abs(c.p) if c.p % 2 else abs(c.p) // 2 for c in deck if c.p]
    genera, expansions, crossings = [], [], []
    for c in deck:
        alpha, beta = (c.alpha, c.beta) if c.beta else NAMED[c.argv[1]]
        genus, count = _knot_sizes(alpha, beta)
        genera.append(genus)
        expansions.append(count)
        if c.crossings:
            crossings.append(c.crossings)
    sizes = {"crossing_number": _range(crossings), "genus": _range(genera),
             "expansions": _range(expansions), "p_prime": _range(p_primes),
             "p": _range(c.p for c in deck), "calls_in_deck": len(deck)}
    return Workload("casson", deck, sizes)


def _genus(alpha: int, beta: int) -> int:
    return len(oracle.conway_entries(alpha, oracle.preferred(alpha, beta)[0])) // 2


def _casson_call(rng, p, q, kind, genus):
    slope = f"{p}/{q}"
    if kind == "named":
        names = [n for n in sorted(NAMED) if (_genus(*NAMED[n]) >= 2) == (genus >= 2)]
        name = rng.choice(names)
        alpha, _ = NAMED[name]
        return Call(["casson", name, slope, "--json"], alpha, 0, 0, p, q)
    if kind == "kx":  # every kx knot has genus 3
        x = rng.randint(1, 3)
        alpha, beta = (8 * x * x - 1) ** 2, 32 * x**3 - 8 * x * x - 8 * x + 2
        return Call(["casson", "--kx", str(x), slope, "--json"], alpha, beta,
                    sum(oracle.simple_tail(alpha, beta)), p, q)
    while True:
        alpha, beta, crossings = _small_knot(rng, 12)
        if _genus(alpha, beta) == genus:
            break
    beta = _presentation(rng, alpha, beta)
    return Call(["casson", f"S({alpha},{beta})", slope, "--json"], alpha, beta, crossings, p, q)


BUILDERS = {
    "census": _census,
    "many_expansions": _many_expansions,
    "high_genus": _high_genus,
    "surgery": _surgery,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, smoke)
