import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import twobridge.slopes as slopes
from dense_oracles import (
    reference_enumerate_bscf,
    reference_expansions,
    reference_slope_weights,
    weight_sides,
)
from twobridge import (
    ContinuedFraction,
    DomainError,
    InternalError,
    SchubertForm,
    apply_substitutions,
    cf_eval,
    conway_even_form,
    enumerate_bscf,
    kx_family,
    kx_simple_cf,
    mmr_substitution_enumerate,
    pattern_counts,
    seifert_from_conway,
    simple_cf,
    slope_of,
    slope_weights,
    weight,
)
from twobridge.alexander import _band, _even_diagonal
from twobridge.cli import parse_knot_spec
from twobridge.obstruction import _class_representatives
from twobridge.rational import preferred_form

# The ten expansions of 18/49 with their sign counts, slopes, and weights.
# The entry for [1,-2,2,3,-3,2] is (3,2)/+2: that is what the alternating
# pattern rule gives on this term list, it is the unique value consistent
# with the additive structure of the other nine rows, and it is confirmed
# by the 30/49 presentation of the same knot producing the identical
# (slope, weight) multiset.
CASES_927 = [
    ((0, 2, 2, -2, 2, 2, -2), 3, 3, 0, 1),
    ((0, 2, 2, -2, 3, -3), 1, 4, -6, 4),
    ((0, 3, -3, -2, 3), 2, 2, 0, 8),
    ((0, 3, -4, 2, 2), 3, 1, 4, 6),
    ((0, 3, -4, 3, -2), 4, 0, 8, 12),
    ((1, -2, 2, 2, 2, -3), 1, 4, -6, 2),
    ((1, -2, 2, 3, -2, -2), 2, 3, -2, 2),
    ((1, -2, 2, 3, -3, 2), 3, 2, 2, 4),
    ((1, -2, 3, -2, 2, 2, -2), 2, 4, -4, 2),
    ((1, -2, 3, -2, 3, -3), 0, 5, -10, 8),
]


class TestPatternCounts:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ((0, 2, 2, -2, 2, 2, -2), (3, 3)),
            ((0, 3, -4, 3, -2), (4, 0)),
            ((1, -2, 3, -2, 3, -3), (0, 5)),
        ],
    )
    def test_pinned(self, terms, expected):
        assert pattern_counts(ContinuedFraction(terms)) == expected

    def test_counts_cover_all_tail_terms(self):
        for terms, n_plus, n_minus, _, _ in CASES_927:
            counts = pattern_counts(ContinuedFraction(terms))
            assert counts == (n_plus, n_minus)
            assert sum(counts) == len(terms) - 1

    def test_zero_term_rejected(self):
        with pytest.raises(DomainError):
            pattern_counts(ContinuedFraction((0, 2, 0, 2)))


class TestWeight:
    @pytest.mark.parametrize(
        "terms,expected",
        [
            ((0, 3, -4, 3, -2), 12),
            ((0, 2, 2, -2, 2, 2, -2), 1),
            ((1, -2, 3, -2, 3, -3), 8),
        ],
    )
    def test_pinned(self, terms, expected):
        assert weight(ContinuedFraction(terms)) == expected

    def test_rejects_small_terms(self):
        with pytest.raises(DomainError):
            weight(ContinuedFraction((0, 2, 1, 2)))


class TestSlopeOf:
    def test_pinned(self):
        longitude = ContinuedFraction((0, 2, 2, -2, 2, 2, -2))
        assert slope_of(ContinuedFraction((0, 3, -4, 3, -2)), longitude) == 8
        assert slope_of(longitude, longitude) == 0
        assert slope_of(ContinuedFraction((1, -2, 3, -2, 3, -3)), longitude) == -10


class TestEnumerate:
    def test_927_table(self):
        system = enumerate_bscf(SchubertForm(49, 18))
        got = [
            (r.cf.terms, r.n_plus, r.n_minus, r.slope, r.weight)
            for r in system.records
        ]
        assert got == CASES_927
        assert system.longitude_index == 0
        assert system.longitude.slope == 0

    def test_927_slope_weight_invariance_across_presentations(self):
        # 18 and 30 are inverse mod 49: same knot, entirely different
        # expansions, identical boundary slope data.
        by_18 = Counter((r.slope, r.weight) for r in enumerate_bscf(SchubertForm(49, 18)).records)
        by_30 = Counter((r.slope, r.weight) for r in enumerate_bscf(SchubertForm(49, 30)).records)
        assert by_18 == by_30

    def test_figure_eight(self):
        system = enumerate_bscf(SchubertForm(5, 2))
        assert sorted(r.slope for r in system.records) == [-4, 0, 4]
        assert {r.cf.terms for r in system.records} == {(0, 2, 2), (0, 3, -2), (1, -2, 3)}
        assert system.longitude.cf.terms == (0, 2, 2)

    def test_kx2_has_25_records(self):
        assert len(enumerate_bscf(kx_family(2)).records) == 25

    def test_requires_even_beta(self):
        with pytest.raises(DomainError):
            enumerate_bscf(SchubertForm(49, 19))

    def test_value_preservation_and_longitude_uniqueness(self):
        for alpha in range(3, 60, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                s = SchubertForm(alpha, beta)
                system = enumerate_bscf(s)
                value = s.fraction
                evens = 0
                for r in system.records:
                    assert cf_eval(r.cf) == value
                    assert all(abs(t) >= 2 for t in r.cf.tail)
                    assert r.slope % 2 == 0
                    assert r.weight >= 1
                    evens += r.cf.all_even()
                assert evens == 1

    def test_weights_sum_to_alpha(self):
        # the weights partition alpha: a completeness check of both the
        # expansion search and the weight rule at once
        for alpha in range(3, 120, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                system = enumerate_bscf(SchubertForm(alpha, beta))
                assert sum(r.weight for r in system.records) == alpha
        for x in range(1, 6):
            s = kx_family(x)
            assert sum(r.weight for r in enumerate_bscf(s).records) == s.alpha

    def test_matches_reference_lister(self):
        # the listing and the weight walk share one folded step, so the
        # signed-residual search it replaced stays as an independent route
        forms = [
            SchubertForm(alpha, beta)
            for alpha in range(3, 300, 2)
            for beta in range(2, alpha, 2)
            if math.gcd(alpha, beta) == 1
        ]
        forms += [kx_family(x) for x in range(1, 11)]
        for s in forms:
            assert [r.cf.terms for r in enumerate_bscf(s).records] == reference_expansions(s), s

    def test_matches_the_record_building_it_replaced(self):
        # the listing carries n+, the weight and the convergent along its
        # path; the old route sorted, deduplicated, evaluated and counted
        # each record on its own
        for alpha in range(3, 200, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) == 1:
                    s = SchubertForm(alpha, beta)
                    assert enumerate_bscf(s) == reference_enumerate_bscf(s), s

    def test_a_listing_out_of_order_is_an_internal_error(self, monkeypatch):
        # children popped ceiling first list the expansions in decreasing order
        step = slopes._step
        monkeypatch.setattr(slopes, "_step", lambda n, d: (step(n, d)[0], step(n, d)[1][::-1]))
        with pytest.raises(InternalError, match="not listed in increasing order"):
            enumerate_bscf(SchubertForm(49, 18))

    def test_a_wrong_last_term_is_an_internal_error(self, monkeypatch):
        step = slopes._step

        def off_by_two(n, d):
            q, children = step(n, d)
            return (q if children else q + 2), children

        monkeypatch.setattr(slopes, "_step", off_by_two)
        with pytest.raises(InternalError, match="does not evaluate to 18/49"):
            enumerate_bscf(SchubertForm(49, 18))

    def test_term_limit_is_exact(self, monkeypatch):
        # 9_27's ten expansions hold 59 terms, integer parts included
        s = SchubertForm(49, 18)
        assert sum(len(t) for t in reference_expansions(s)) == 59
        monkeypatch.setattr(slopes, "MAX_EXPANSION_TERMS", 59)
        assert len(enumerate_bscf(s).records) == 10
        monkeypatch.setattr(slopes, "MAX_EXPANSION_TERMS", 58)
        with pytest.raises(DomainError, match="limited to 58 terms"):
            enumerate_bscf(s)

    def test_term_limit_is_exact_on_a_forced_run(self, monkeypatch):
        # 4000/4001 = [0; 1, 4000]: the expansions from integer part 0 run
        # through 3,999 forced ceilings, refused where the run starts
        s = SchubertForm(4001, 4000)
        total = sum(len(t) for t in reference_expansions(s))
        monkeypatch.setattr(slopes, "MAX_EXPANSION_TERMS", total)
        assert sum(len(r.cf.terms) for r in enumerate_bscf(s).records) == total
        monkeypatch.setattr(slopes, "MAX_EXPANSION_TERMS", total - 1)
        with pytest.raises(DomainError, match=f"limited to {total - 1} terms"):
            enumerate_bscf(s)

    def test_a_forced_run_past_the_limit_is_refused_at_its_start(self):
        # S(n+1, n) with n of 4,300 digits: one forced run of n - 1 ceilings
        n = 2 * 10**4299
        start = time.perf_counter()
        with pytest.raises(DomainError, match="limited to 500000 terms"):
            slopes._expansions(SchubertForm(n + 1, n), n + 2)
        assert time.perf_counter() - start < 0.5

    def test_runaway_walk_is_an_internal_error(self):
        # the term-sum bound is a fault detector: passing it is a bug
        # (exit 3), never an input error; the longest expansion of
        # 4000/4001 has 4,001 terms, 4,000 before its last
        with pytest.raises(InternalError, match="term-sum bound"):
            slopes._expansions(SchubertForm(4001, 4000), 3999)
        listed = slopes._expansions(SchubertForm(4001, 4000), 4000)  # (terms, n+, weight, even)
        assert max(len(terms) for terms, *_ in listed) == 4001


class TestSlopeWeights:
    def test_927_distribution(self):
        # the ten records of CASES_927 folded by slope
        assert slope_weights(SchubertForm(49, 18)).weights == (
            (-10, 8), (-6, 6), (-4, 2), (-2, 2), (0, 9), (2, 4), (4, 6), (8, 12),
        )
        assert slope_weights(SchubertForm(49, 30)).weights == slope_weights(
            SchubertForm(49, 18)
        ).weights

    def test_long_expansion_is_iterative(self):
        # the expansions of 4000/4001 run to 4,001 terms, far past the
        # interpreter's recursion limit
        assert slope_weights(SchubertForm(4001, 4000)).weights == ((-8002, 4000), (0, 1))

    def test_requires_even_beta(self):
        with pytest.raises(DomainError):
            slope_weights(SchubertForm(49, 19))

    def test_matches_enumeration_exhaustively(self):
        forms = [
            SchubertForm(alpha, beta)
            for alpha in range(3, 300, 2)
            for beta in range(2, alpha, 2)
            if math.gcd(alpha, beta) == 1
        ]
        forms += [kx_family(x) for x in range(1, 11)]
        for s in forms:
            got = slope_weights(s).weights
            assert got == enumerate_bscf(s).weights, s
            assert sum(w for _, w in got) == s.alpha


    def test_band_longitude_is_the_all_even_record(self):
        # the sign sum of the Seifert diagonal, which the band loop carries
        # and the slope reads take as the longitude, is n+ - n- of the one
        # all-even expansion that enumerate_bscf lists
        from twobridge.alexander import _band

        for alpha in range(3, 300, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                s = SchubertForm(alpha, beta)
                longitude = enumerate_bscf(s).longitude
                diagonal = seifert_from_conway(conway_even_form(s)).diagonal
                assert _band(diagonal)[3] == longitude.n_plus - longitude.n_minus, s



def _even_forms(limit: int) -> list[tuple[int, int]]:
    return [
        (alpha, beta)
        for alpha in range(3, limit, 2)
        for beta in range(2, alpha, 2)
        if math.gcd(alpha, beta) == 1
    ]


def _longitude(alpha: int, beta: int) -> int:
    return _band(_even_diagonal(alpha, beta))[3]


def _lane_width(alpha: int, beta: int) -> int:
    """The lane width w of slopes._roots for S(alpha, beta); 0 on the sparse route."""
    return slopes._roots(alpha, slopes._quotients(alpha, beta))[1]


def _sides(alpha: int, beta: int, longitude: int) -> tuple[int, int]:
    return slopes._weight_sides(alpha, beta, slopes._quotients(alpha, beta), longitude)


def _big_entry_form(rng: random.Random, genus: int, low: int, high: int) -> tuple[int, int]:
    """(alpha, even beta) of C[e1, ..., e2g] with even |e_i| in [2 low, 2 high]."""
    entries = [rng.choice((-2, 2)) * rng.randint(low, high) for _ in range(2 * genus)]
    s = parse_knot_spec("C[" + ",".join(map(str, entries)) + "]")
    canonical, _ = preferred_form(s)
    return canonical.alpha, canonical.beta


class TestWeightRoutes:
    # the packed and the sparse evaluation of the two-state recurrence of
    # slopes._roots against the one-term-at-a-time memo walk it replaced

    def _check(self, forms, expected):
        for (alpha, beta, longitude), (weights, sides) in zip(forms, expected):
            got = slopes._slope_weights(SchubertForm(alpha, beta), longitude).weights
            assert got == weights, (alpha, beta)
            assert _sides(alpha, beta, longitude) == sides, (alpha, beta)

    def test_packed_sparse_and_reference_agree_exhaustively(self, monkeypatch):
        forms = [(alpha, beta, _longitude(alpha, beta)) for alpha, beta in _even_forms(400)]
        memo: dict = {}
        expected = []
        for alpha, beta, longitude in forms:
            weights = reference_slope_weights(alpha, beta, longitude, memo)
            expected.append((weights, weight_sides(weights)))
        assert all(_lane_width(alpha, beta) for alpha, beta, _ in forms)  # all packed
        self._check(forms, expected)
        monkeypatch.setattr(slopes, "PACKED_BITS", 0)
        assert not any(_lane_width(alpha, beta) for alpha, beta, _ in forms)
        self._check(forms, expected)

    def test_sparse_matches_the_reference_on_big_entries(self, monkeypatch):
        # 2- to 3-digit Conway entries up to genus 8: simple continued
        # fraction terms in the hundreds, which the reference walks one
        # term at a time
        rng = random.Random(8)
        forms = []
        for genus in range(1, 9):
            for _ in range(3):
                alpha, beta = _big_entry_form(rng, genus, 5, 300 if genus <= 4 else 40)
                forms.append((alpha, beta, _longitude(alpha, beta)))
        expected = []
        for alpha, beta, longitude in forms:
            weights = reference_slope_weights(alpha, beta, longitude)
            expected.append((weights, weight_sides(weights)))
        self._check(forms, expected)  # each on its own route
        monkeypatch.setattr(slopes, "PACKED_BITS", 0)
        self._check(forms, expected)

    def test_census_and_deck_sizes_are_packed(self):
        # every census knot, and 36-crossing knots of small terms, fit the
        # packed route's bit budget
        for alpha, key, _, _, _ in _class_representatives(14):
            canonical, _ = preferred_form(SchubertForm(alpha, key))
            assert _lane_width(canonical.alpha, canonical.beta)
        for s in (SchubertForm(9227465, 3524578), kx_family(10)):
            assert _lane_width(s.alpha, s.beta)

    def test_big_terms_take_the_sparse_route(self):
        # S(10^4000 + 1, 2) = [a_1; 2] with a_1 = 5 * 10^3999: a_1 is only a
        # weight and the second root's offset; its weights in closed form
        alpha = 10**4000 + 1
        a1 = (alpha - 1) // 2
        assert slope_weights(SchubertForm(alpha, 2)).weights == ((-2 * a1, 2), (0, a1 - 1), (4, a1))
        # packed in lanes of 13,296 bits, read one by one
        assert _lane_width(alpha, 2) == 13296
        assert _sides(alpha, 2, _longitude(alpha, 2)) == (2, a1)
        for a1 in range(2, 60, 2):  # the same closed form from the reference walk
            alpha = 2 * a1 + 1
            weights = reference_slope_weights(alpha, 2, _longitude(alpha, 2))
            assert weights == ((-2 * a1, 2), (0, a1 - 1), (4, a1))
        # a term of 100 digits past the first takes the sparse route
        alpha, beta = 2 * 10**100 + 1, 10**100
        assert not _lane_width(alpha, beta)
        assert _sides(alpha, beta, _longitude(alpha, beta)) == weight_sides(
            slope_weights(SchubertForm(alpha, beta)).weights
        )

    def test_narrow_lanes_are_read_merged_or_lane_by_lane(self):
        # S(alpha, 2) = [a_1; 2] in lanes of at most 64 bits: the roots'
        # lows are a_1 - 1 lanes apart, a merge at 2,001 and lane by lane
        # at 2^40 + 1, where the shift would pass PACKED_BITS
        for alpha in (2001, 2**40 + 1):
            a1 = (alpha - 1) // 2
            assert 0 < _lane_width(alpha, 2) <= 64
            assert _sides(alpha, 2, _longitude(alpha, 2)) == (2, a1)

    def test_longitude_outside_the_roots_is_an_internal_error(self):
        # below the merged root's lowest lane or above its highest, the
        # longitude has no weight; no shift by a negative count
        alpha, beta = 49, 18
        lows, w, _ = slopes._roots(alpha, slopes._quotients(alpha, beta))
        assert 0 < w <= 64
        for longitude in (min(lows) - 1, -10**6, _longitude(alpha, beta) + 10**6):
            with pytest.raises(InternalError, match="no weight at the longitude"):
                _sides(alpha, beta, longitude)

    def test_sparse_work_limit(self, monkeypatch):
        # the sparse route refuses before a level that would pass
        # MAX_SLOPE_WORK entries times words of alpha
        monkeypatch.setattr(slopes, "PACKED_BITS", 0)
        s = kx_family(3)
        expected = slope_weights(s).weights
        monkeypatch.setattr(slopes, "MAX_SLOPE_WORK", 40)
        with pytest.raises(DomainError, match="limited to 40 distribution entries"):
            slope_weights(s)
        monkeypatch.setattr(slopes, "MAX_SLOPE_WORK", 4000)
        assert slope_weights(s).weights == expected


class TestSubstitutions:
    @pytest.mark.parametrize(
        "positions,expected",
        [
            ({3, 6}, (0, 2, 2, -2, 2, 2, -2)),
            ({2, 4, 6}, (0, 3, -4, 3, -2)),
            ({1, 3, 5}, (1, -2, 3, -2, 3, -3)),
        ],
    )
    def test_pinned_position_sets(self, positions, expected):
        simple = simple_cf(Fraction(18, 49))
        assert apply_substitutions(simple, positions).terms == expected

    def test_rejects_adjacent_positions(self):
        with pytest.raises(DomainError):
            apply_substitutions(simple_cf(Fraction(18, 49)), {2, 3})

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            apply_substitutions(simple_cf(Fraction(18, 49)), {7})

    def test_matches_exhaustive_enumeration_927(self):
        got = mmr_substitution_enumerate(simple_cf(Fraction(18, 49)))
        assert [cf.terms for cf in got] == [c[0] for c in CASES_927]

    def test_matches_exhaustive_enumeration_figure_eight(self):
        got = {cf.terms for cf in mmr_substitution_enumerate(simple_cf(Fraction(2, 5)))}
        assert got == {(0, 2, 2), (0, 3, -2), (1, -2, 3)}

    @pytest.mark.parametrize("x", [2, 3, 4])
    def test_matches_exhaustive_enumeration_kx(self, x):
        got = {cf.terms for cf in mmr_substitution_enumerate(kx_simple_cf(x))}
        expected = {r.cf.terms for r in enumerate_bscf(kx_family(x)).records}
        assert got == expected

    def test_requires_simple_cf(self):
        with pytest.raises(DomainError):
            mmr_substitution_enumerate(ContinuedFraction((0, 2, -2)))
