import math
from fractions import Fraction

import pytest

from twobridge import (
    CENSUS_MAX_CROSSINGS,
    DomainError,
    Equivalence,
    ObstructionReport,
    SchubertForm,
    Verdict,
    alexander_second_derivative,
    census,
    classify,
    conway_even_form,
    cosmetic_difference,
    crossing_number,
    equivalent,
    knot_name,
    kx_family,
    niwu_candidate_slopes,
    obstruct,
    preferred_form,
    seifert_from_conway,
    signature,
    slope_weights,
)
from twobridge.obstruction import _class_representatives, _class_values, class_key
from dense_oracles import reference_class_values, reference_quotients, scan_census_classes

# Schubert forms of the thirteen knots with vanishing signature among
# two-bridge knots of at most nine crossings.
SIGMA_ZERO_FORMS = {
    "4_1": SchubertForm(5, 2),
    "6_1": SchubertForm(9, 7),
    "6_3": SchubertForm(13, 5),
    "7_7": SchubertForm(21, 8),
    "8_1": SchubertForm(13, 11),
    "8_3": SchubertForm(17, 4),
    "8_8": SchubertForm(25, 9),
    "8_9": SchubertForm(25, 7),
    "8_12": SchubertForm(29, 12),
    "8_13": SchubertForm(29, 11),
    "9_14": SchubertForm(37, 14),
    "9_19": SchubertForm(41, 16),
    "9_27": SchubertForm(49, 19),
}


class TestClassify:
    def test_tiers(self):
        assert classify(2, 2, Fraction(1)) == Verdict.NO_COSMETIC_BOYER_LINES
        assert classify(0, 2, Fraction(1)) == Verdict.NO_COSMETIC_NIWU_TAU
        assert classify(0, 0, Fraction(-2)) == Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C
        assert classify(0, 0, Fraction(0)) == Verdict.INCONCLUSIVE

    def test_first_tier_wins(self):
        assert classify(-6, 4, Fraction(5)) == Verdict.NO_COSMETIC_BOYER_LINES


class TestObstruct:
    def test_eight_twelve(self):
        r = obstruct(SchubertForm(29, 12))
        assert r.name == "8_12"
        assert r.delta_second == -6
        assert r.verdict == Verdict.NO_COSMETIC_BOYER_LINES

    def test_nine_twenty_seven(self):
        r = obstruct(SchubertForm(49, 19))
        assert r.knot == SchubertForm(49, 18)
        assert r.mirrored
        assert r.name == "9_27"
        assert r.crossing_number == 9
        assert r.delta_second == 0
        assert r.sigma == 0
        assert r.casson_difference == -2
        assert r.verdict == Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C
        assert r.caveats

    def test_kx3(self):
        r = obstruct(kx_family(3))
        assert r.casson_difference == 38
        assert r.verdict == Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C

    def test_whole_slice_family_resolves_at_third_tier(self):
        for x in range(1, 11):
            r = obstruct(kx_family(x))
            assert r.delta_second == 0
            assert r.sigma == 0
            assert r.casson_difference != 0
            assert r.verdict == Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C

    def test_trefoil(self):
        r = obstruct(SchubertForm(3, 1))
        assert r.name == "3_1"
        assert r.delta_second == 2
        assert r.verdict == Verdict.NO_COSMETIC_BOYER_LINES

    def test_report_invariants(self):
        for alpha in range(3, 40, 2):
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1:
                    continue
                r = obstruct(SchubertForm(alpha, beta))
                assert r.verdict == classify(r.delta_second, r.sigma, r.casson_difference)
                assert r.sigma % 2 == 0
                assert r.delta_second % 2 == 0

    def test_mirror_robustness(self):
        for alpha in range(3, 60, 2):
            for beta in range(1, alpha):
                if math.gcd(alpha, beta) != 1:
                    continue
                a = obstruct(SchubertForm(alpha, beta))
                b = obstruct(SchubertForm(alpha, alpha - beta))
                assert a.delta_second == b.delta_second
                assert a.sigma == b.sigma
                assert abs(a.casson_difference) == abs(b.casson_difference)
                assert a.verdict == b.verdict
                assert a.crossing_number == b.crossing_number


class TestNiWu:
    def test_mod_five(self):
        assert [p.q1 for p in niwu_candidate_slopes(5, 10)] == [2, 3, 7, 8]

    def test_mod_one_every_q(self):
        pairs = niwu_candidate_slopes(1, 3)
        assert [p.q1 for p in pairs] == [1, 2, 3]
        assert pairs[0].q2 == -1

    def test_mod_three_empty(self):
        assert niwu_candidate_slopes(3, 10) == []

    def test_validation(self):
        with pytest.raises(DomainError):
            niwu_candidate_slopes(0, 5)


class TestCensus:
    def test_census_four(self):
        reports = census(4)
        assert [r.name for r in reports] == ["3_1", "4_1"]
        assert reports[0].verdict == Verdict.NO_COSMETIC_BOYER_LINES
        assert reports[0].delta_second == 2

    def test_census_counts_by_crossing(self):
        # numbers of two-bridge knot classes: 1, 2, 5, 12, 24, 50 cumulative
        assert len(census(3)) == 1
        assert len(census(5)) == 4
        assert len(census(7)) == 14
        assert len(census(9)) == 50

    def test_census_nine_sigma_zero_is_the_13_row_table(self):
        reports = [r for r in census(9) if r.sigma == 0]
        assert len(reports) == 13
        matched = set()
        for r in reports:
            hits = [
                name
                for name, form in SIGMA_ZERO_FORMS.items()
                if equivalent(r.knot, form) in (Equivalence.SAME, Equivalence.MIRROR)
            ]
            assert len(hits) == 1, r
            matched.add(hits[0])
            assert r.name == hits[0]
        assert matched == set(SIGMA_ZERO_FORMS)

    def test_census_nine_only_927_reaches_third_tier(self):
        reports = census(9)
        third = [r for r in reports if r.delta_second == 0 and r.sigma == 0]
        assert len(third) == 1
        assert third[0].name == "9_27"
        assert third[0].verdict == Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C
        for r in reports:
            assert r.verdict != Verdict.INCONCLUSIVE

    def test_census_deterministic_and_sorted(self):
        a = census(7)
        b = census(7)
        assert a == b
        keys = [(r.knot.alpha, r.knot.beta) for r in a]
        assert keys == sorted(keys)

    def test_census_counts_match_ernst_sumners(self):
        # knots with crossing number n, mirrors merged (Ernst-Sumners,
        # Math. Proc. Camb. Phil. Soc. 1987)
        def ernst_sumners(n):
            if n % 2 == 0:
                return (2 ** (n - 3) + 2 ** ((n - 4) // 2) - (n % 4 == 2)) // 3
            return (2 ** (n - 3) + 2 ** ((n - 3) // 2) + (n % 4 == 3)) // 3

        expected = [ernst_sumners(n) for n in range(3, 14)]
        assert expected == [1, 1, 2, 3, 7, 12, 24, 45, 91, 176, 352]
        reports = census(13)
        assert [sum(r.crossing_number == n for r in reports) for n in range(3, 14)] == expected

    def test_tail_walk_matches_the_scan(self):
        # the classes the tail walk emits, with the crossing number the
        # package computes for each, against the old scan over every
        # (alpha, beta) up to Fib(N+1)
        scanned = scan_census_classes(13)
        for n in range(3, 14):
            classes = [(alpha, key, crossings)
                       for alpha, key, crossings, _, _ in _class_representatives(n)]
            got = {
                (alpha, class_key(alpha, key), crossing_number(SchubertForm(alpha, key)))
                for alpha, key, _ in classes
            }
            assert len(got) == len(classes)
            assert got == {c for c in scanned if c[2] <= n}
            # the walk yields the class key and, as its tail sum, the
            # crossing number
            assert got == set(classes)

    def test_census_matches_the_public_layers(self):
        # the census kernel (integer tail walk, one band loop, one pass
        # over the quotients the walk gives, read as two sums) against reports
        # composed from the public layers, over the classes of the scan
        expected = []
        for alpha, key, _ in scan_census_classes(13):
            canonical, mirrored = preferred_form(SchubertForm(alpha, key))
            matrix = seifert_from_conway(conway_even_form(canonical))
            delta_second = alexander_second_derivative(matrix)
            sigma = signature(matrix)
            diff = cosmetic_difference(slope_weights(canonical))
            verdict = classify(delta_second, sigma, diff)
            caveats = {
                Verdict.NO_HOMOLOGY_SPHERE_COSMETIC_SL2C: (
                    "rules out only surgery pairs yielding homology 3-spheres",
                ),
                Verdict.INCONCLUSIVE: ("no obstruction fired; cosmetic surgeries are not excluded",),
            }.get(verdict, ())
            expected.append(
                ObstructionReport(
                    knot=canonical,
                    mirrored=mirrored,
                    name=knot_name(canonical),
                    crossing_number=crossing_number(canonical),
                    delta_second=delta_second,
                    sigma=sigma,
                    casson_difference=diff,
                    verdict=verdict,
                    caveats=caveats,
                )
            )
        expected.sort(key=lambda r: (r.knot.alpha, r.knot.beta))
        assert len(expected) == 1 + 1 + 2 + 3 + 7 + 12 + 24 + 45 + 91 + 176 + 352
        assert census(13) == expected

    def test_census_matches_obstruct_on_each_knot(self):
        # the census kernel on the class keys of the tail walk against
        # obstruct on each knot alone; nothing is shared between knots
        for n in range(3, 14):
            fresh = sorted(
                (obstruct(SchubertForm(alpha, key))
                 for alpha, key, _, _, _ in _class_representatives(n)),
                key=lambda r: (r.knot.alpha, r.knot.beta),
            )
            assert census(n) == fresh, n

    def test_census_kernel_matches_the_reference_kernel(self):
        # each knot's quotients and inverse from the tail walk against
        # Euclid's algorithm, pow, the three loops and the two-root read
        count = 0
        for alpha, key, crossings, tail, q_prev in _class_representatives(16):
            assert tail == reference_quotients(alpha, key)
            assert key * q_prev % alpha == (1 if len(tail) % 2 else alpha - 1)
            assert (_class_values(alpha, key, crossings, tail, q_prev)
                    == reference_class_values(alpha, key, crossings)), (alpha, key)
            count += 1
        assert count == len(census(16))

    def test_census_validation(self):
        with pytest.raises(DomainError):
            census(2)
        with pytest.raises(DomainError, match=f"limited to {CENSUS_MAX_CROSSINGS} crossings"):
            census(CENSUS_MAX_CROSSINGS + 1)


class TestNames:
    def test_lookup_from_any_presentation(self):
        assert knot_name(SchubertForm(49, 18)) == "9_27"
        assert knot_name(SchubertForm(49, 31)) == "9_27"
        assert knot_name(SchubertForm(5, 3)) == "4_1"
        assert knot_name(SchubertForm(101, 2)) is None
