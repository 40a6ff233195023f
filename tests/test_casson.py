import functools
import math
from fractions import Fraction

import pytest

from twobridge import (
    BoundarySlopeRecord,
    ContinuedFraction,
    ConwayForm,
    DomainError,
    LaurentPolynomial,
    MeridianError,
    SchubertForm,
    SeifertMatrix,
    SlopeSystem,
    SurgerySlope,
    alexander_poly,
    conway_even_form,
    cosmetic_difference,
    enumerate_bscf,
    kx_family,
    lambda_difference,
    lambda_surgery,
    root_of_unity_check,
    seifert_from_conway,
    slope_distance,
    total_seminorm,
)
from twobridge.casson import _candidate_orders
from dense_oracles import polynomial_root_of_unity_check, sylvester_resultant


def _synthetic_system(slope_weights):
    """SlopeSystem with prescribed (slope, weight) data; CFs are dummies."""
    cf = ContinuedFraction((0, 2, 2))
    records = tuple(
        BoundarySlopeRecord(cf=cf, n_plus=0, n_minus=0, slope=n, weight=w)
        for n, w in slope_weights
    )
    return SlopeSystem(knot=SchubertForm(5, 2), records=records, longitude_index=0)


class TestSlopeDistance:
    def test_pinned(self):
        assert slope_distance(SurgerySlope(1, 1), 8) == 7
        assert slope_distance(SurgerySlope(1, 2), -4) == 9
        assert slope_distance(SurgerySlope(0, 1), -6) == 6

    def test_meridian_rejected(self):
        with pytest.raises(MeridianError):
            slope_distance(SurgerySlope(1, 0), 4)


class TestSurgerySlope:
    def test_validation(self):
        with pytest.raises(DomainError):
            SurgerySlope(2, 4)
        with pytest.raises(DomainError):
            SurgerySlope(1, -1)
        with pytest.raises(DomainError):
            SurgerySlope(3, 0)
        assert SurgerySlope(1, 0).is_meridian

    def test_parse(self):
        assert SurgerySlope.parse("3/5") == SurgerySlope(3, 5)
        assert SurgerySlope.parse("-1/2") == SurgerySlope(-1, 2)
        assert SurgerySlope.parse("4") == SurgerySlope(4, 1)
        assert SurgerySlope.parse("1/0").is_meridian
        assert SurgerySlope.parse(" +7 / 2 ") == SurgerySlope(7, 2)

    def test_parse_rejects_non_integers(self):
        for bad in ["abc", "1/x", "3/", "1.5", "1/2/3", "", "1_0/3", "\u0667/2", "7/\u0662"]:
            with pytest.raises(DomainError):
                SurgerySlope.parse(bad)


class TestTotalSeminorm:
    def test_927_at_one(self):
        # sum of W|1 - N| over the ten records:
        # 1 + 4*7 + 8 + 6*3 + 12*7 + 2*7 + 2*3 + 4*1 + 2*5 + 8*11 = 261
        sys = enumerate_bscf(SchubertForm(49, 18))
        assert total_seminorm(sys, SurgerySlope(1, 1)) == Fraction(-1 + 261, 2)
        assert total_seminorm(sys, SurgerySlope(1, 1)) == 130

    def test_927_at_minus_one(self):
        sys = enumerate_bscf(SchubertForm(49, 18))
        assert total_seminorm(sys, SurgerySlope(-1, 1)) == 134

    def test_figure_eight_longitude(self):
        # records (0,1), (4,2), (-4,2): (0 + 0 + 8 + 8)/2
        sys = enumerate_bscf(SchubertForm(5, 2))
        assert total_seminorm(sys, SurgerySlope(0, 1)) == 8

    def test_negating_all_slopes_mirrors_the_argument(self):
        sys = enumerate_bscf(SchubertForm(49, 18))
        flipped = _synthetic_system([(-r.slope, r.weight) for r in sys.records])
        for p, q in [(1, 1), (-3, 2), (5, 3), (0, 1)]:
            assert total_seminorm(sys, SurgerySlope(p, q)) == total_seminorm(
                flipped, SurgerySlope(-p, q)
            )

    def test_meridian_rejected(self):
        with pytest.raises(MeridianError):
            total_seminorm(enumerate_bscf(SchubertForm(5, 2)), SurgerySlope(1, 0))

    def test_nonnegative_and_half_integral(self):
        for alpha, beta in [(49, 18), (5, 2), (3, 2), (961, 210)]:
            sys = enumerate_bscf(SchubertForm(alpha, beta))
            for p, q in [(0, 1), (1, 1), (-1, 1), (1, 2), (3, 2), (7, 5), (-5, 3)]:
                norm = total_seminorm(sys, SurgerySlope(p, q))
                assert norm >= 0
                assert (2 * norm).denominator == 1

    def test_even_p_value_is_half_the_seminorm(self):
        sys = enumerate_bscf(SchubertForm(49, 18))
        for p, q in [(2, 1), (4, 3), (-2, 3), (0, 1)]:
            lam = lambda_surgery(SchubertForm(49, 18), SurgerySlope(p, q))
            assert lam.value == total_seminorm(sys, SurgerySlope(p, q)) / 2


class TestLambdaSurgery:
    def test_927_even_form_at_one(self):
        lam = lambda_surgery(SchubertForm(49, 18), SurgerySlope(1, 1))
        assert lam.value == Fraction(130, 2) - Fraction(48, 4) == 53
        assert lam.hypotheses_ok
        assert lam.caveats == ()

    def test_927_mirror_input_at_one(self):
        # S(49,19) presents the mirror of S(49,18); slopes negate, so its
        # 1/1 surgery sees the seminorm 134 and lambda 55
        lam = lambda_surgery(SchubertForm(49, 19), SurgerySlope(1, 1))
        assert lam.value == Fraction(134, 2) - Fraction(48, 4) == 55
        assert lam.hypotheses_ok
        canonical_slopes = enumerate_bscf(SchubertForm(49, 18))
        assert lam.seminorm == total_seminorm(canonical_slopes, SurgerySlope(-1, 1)) == 134

    def test_difference_of_opposite_slopes(self):
        plus = lambda_surgery(SchubertForm(49, 18), SurgerySlope(1, 1))
        minus = lambda_surgery(SchubertForm(49, 18), SurgerySlope(-1, 1))
        diff = plus.value - minus.value
        assert diff == cosmetic_difference(enumerate_bscf(SchubertForm(49, 18))) == -2

    def test_longitudinal_slope_fails_hypotheses(self):
        lam = lambda_surgery(SchubertForm(49, 18), SurgerySlope(0, 1))
        assert not lam.hypotheses_ok
        assert lam.caveats
        assert lam.value == total_seminorm(
            enumerate_bscf(SchubertForm(49, 18)), SurgerySlope(0, 1)
        ) / 2

    def test_even_integer_slope_gets_strictness_caveat(self):
        lam = lambda_surgery(SchubertForm(49, 18), SurgerySlope(2, 1))
        assert any("strictness" in c for c in lam.caveats)
        # 2 is a boundary slope of S(49,18), so the hypotheses fail outright
        assert not lam.hypotheses_ok

    def test_even_integer_nonboundary_slope_keeps_hypotheses(self):
        lam = lambda_surgery(SchubertForm(49, 18), SurgerySlope(14, 1))
        assert any("strictness" in c for c in lam.caveats)
        assert lam.hypotheses_ok

    def test_meridian_rejected(self):
        with pytest.raises(MeridianError):
            lambda_surgery(SchubertForm(49, 18), SurgerySlope(1, 0))


class TestLambdaDifference:
    def test_q_independence_927(self):
        sys = enumerate_bscf(SchubertForm(49, 18))
        expected = cosmetic_difference(sys)
        for q in range(1, 11):
            assert lambda_difference(sys, 1, q) == expected == -2

    def test_figure_eight_vanishes(self):
        # amphichiral: slope/weight data is symmetric under negation
        sys = enumerate_bscf(SchubertForm(5, 2))
        assert lambda_difference(sys, 1, 1) == 0

    def test_symmetric_synthetic_data(self):
        sys = _synthetic_system([(0, 1), (6, 5), (-6, 5), (2, 3), (-2, 3)])
        assert lambda_difference(sys, 1, 2) == 0

    def test_validation(self):
        sys = enumerate_bscf(SchubertForm(5, 2))
        with pytest.raises(DomainError):
            lambda_difference(sys, 2, 1)  # even p
        with pytest.raises(DomainError):
            lambda_difference(sys, 3, 6)  # not coprime


class TestCosmeticDifference:
    def test_small_family_member(self):
        assert cosmetic_difference(enumerate_bscf(kx_family(1))) == -2

    @pytest.mark.parametrize("x", range(2, 11))
    def test_closed_form(self, x):
        assert cosmetic_difference(enumerate_bscf(kx_family(x))) == 8 * x * x - 12 * x + 2

    def test_sign_flip(self):
        sys = enumerate_bscf(SchubertForm(49, 18))
        flipped = _synthetic_system([(-r.slope, r.weight) for r in sys.records])
        assert cosmetic_difference(flipped) == -cosmetic_difference(sys)

    def test_degenerate_all_zero_slopes(self):
        sys = _synthetic_system([(0, 1), (0, 8), (0, 3)])
        assert cosmetic_difference(sys) == 0

    def test_half_integrality(self):
        # weights are integers, so twice the difference is an integer
        for alpha in range(3, 60, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                d = cosmetic_difference(enumerate_bscf(SchubertForm(alpha, beta)))
                assert (2 * d).denominator == 1


class TestRootOfUnityCheck:
    def test_first_root_never_hits_normalized_delta(self):
        m = seifert_from_conway(ConwayForm((2, 2, -2, 2, 2, -2)))
        assert alexander_poly(m) == LaurentPolynomial(
            {-3: -1, -2: 5, -1: -11, 0: 15, 1: -11, 2: 5, 3: -1}
        )
        assert root_of_unity_check(m, 1)

    def test_trefoil_sixth_roots(self):
        m = SeifertMatrix((1, 1))  # delta = t^-1 - 1 + t
        assert not root_of_unity_check(m, 6)
        assert root_of_unity_check(m, 5)

    def test_figure_eight_second_roots(self):
        m = SeifertMatrix((1, -1))  # delta = -t^-1 + 3 - t
        assert root_of_unity_check(m, 2)

    def test_validation(self):
        with pytest.raises(DomainError):
            root_of_unity_check(SeifertMatrix((1, 1)), 0)

    def test_matches_rational_gcd_oracle(self):
        # independent oracle: Euclidean gcd over the rationals
        from fractions import Fraction

        def gcd_is_unit(f, g):
            a = [Fraction(c) for c in f]
            b = [Fraction(c) for c in g]
            while b and any(b):
                while a and a[-1] == 0:
                    a.pop()
                while b and b[-1] == 0:
                    b.pop()
                if len(a) < len(b):
                    a, b = b, a
                if not b:
                    break
                # a -= lead(a)/lead(b) * t^(deg a - deg b) * b
                shift = len(a) - len(b)
                factor = a[-1] / b[-1]
                for i, c in enumerate(b):
                    a[shift + i] -= factor * c
                a, b = b, a
            while a and a[-1] == 0:
                a.pop()
            return len(a) == 1

        # one knot for every distinct Alexander polynomial with alpha < 60
        for m, delta in _distinct_deltas(60):
            f = _coefficients(delta)
            for p_prime in range(1, 25):
                g = [-1] + [0] * (p_prime - 1) + [1]
                assert root_of_unity_check(m, p_prime) == gcd_is_unit(f, g), (delta, p_prime)

    def test_matches_sylvester_resultant_oracle(self):
        # the resultant of t^g delta and t^p' - 1 vanishes exactly when they
        # share a root
        for m, delta in _distinct_deltas(20):
            f = _coefficients(delta)
            for p_prime in range(1, 13):
                g = [-1] + [0] * (p_prime - 1) + [1]
                assert root_of_unity_check(m, p_prime) == (sylvester_resultant(f, g) != 0)

    def test_matches_polynomial_reference(self):
        # the divisor walk over the whole polynomial, on every even form
        # with alpha < 60 and every p' <= 60
        for alpha in range(3, 60, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                m = seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))
                delta = alexander_poly(m)
                for p_prime in range(1, 61):
                    assert root_of_unity_check(m, p_prime) == polynomial_root_of_unity_check(
                        delta, p_prime
                    ), (alpha, beta, p_prime)

    def test_folded_division_at_genus_above_twenty(self):
        # knots of genus 21 and 22, where Delta has 43 and 45 coefficients
        # and is folded mod t^d - 1 for every candidate order d < 2g + 1;
        # Phi_6 divides the Delta of S(207,124), and Phi_6 and Phi_10 that
        # of T(2,45) = S(45,44), while Phi_14, Phi_15, Phi_21 and Phi_35
        # divide neither
        for alpha, beta, dividing in [(207, 124, {6}), (45, 44, {6, 10})]:
            m = seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))
            assert m.genus >= 20
            delta = alexander_poly(m)
            for p_prime in [6, 10, 14, 15, 21, 35]:
                assert [d for d, _primes in _candidate_orders(p_prime, 2 * m.genus)] == [p_prime]
                expected = p_prime not in dividing
                assert root_of_unity_check(m, p_prime) == expected, (alpha, p_prime)
            for p_prime in range(1, 121):
                assert root_of_unity_check(m, p_prime) == polynomial_root_of_unity_check(
                    delta, p_prime
                ), (alpha, beta, p_prime)

    def test_torus_knot_closed_form(self):
        # T(2,n) = S(n, n-1), n odd, has delta = sum_{k<n} (-t)^k up to a
        # shift, i.e. (t^n + 1)/(t + 1): its roots are the roots of unity of
        # order 2m with m | n, m > 1.  So the check fails exactly when p' is
        # even and gcd(n, p'/2) > 1; large p' exercise large orders d.
        for n in range(3, 100, 2):
            delta = LaurentPolynomial({k - (n - 1) // 2: (-1) ** k for k in range(n)})
            m = seifert_from_conway(conway_even_form(SchubertForm(n, n - 1)))
            assert alexander_poly(m) == delta, n
            for p_prime in [*range(1, 2 * n + 3), 999999, 1000002, 2 * n * 1000003]:
                expected = not (p_prime % 2 == 0 and math.gcd(n, p_prime // 2) > 1)
                assert root_of_unity_check(m, p_prime) == expected, (n, p_prime)

    def test_constant_polynomial_has_no_roots(self):
        # no knot has a constant Delta, so only the polynomial reference sees one
        assert polynomial_root_of_unity_check(LaurentPolynomial({0: 1}), 1000001)
        assert not polynomial_root_of_unity_check(LaurentPolynomial(), 3)

    @pytest.mark.parametrize("degree", [2, 4, 10, 40])
    def test_candidate_orders_match_brute_force(self, degree):
        # the divisors of p' that are not prime powers (1 counts as one) with
        # phi(d) <= degree, in increasing phi(d)
        phi, prime_count = _brute_totients_and_prime_counts(2000)
        orders = [d for d in range(1, 2001) if prime_count[d] >= 2 and phi[d] <= degree]
        for p_prime in range(1, 2001):
            brute = sorted((d for d in orders if p_prime % d == 0), key=lambda d: (phi[d], d))
            assert [d for d, _primes in _candidate_orders(p_prime, degree)] == brute, (p_prime, degree)

    @pytest.mark.parametrize("p_prime", [1, 2, 9, 1024, 1000000007])
    def test_no_candidate_order_builds_no_polynomial(self, monkeypatch, p_prime):
        # 1, prime powers and large primes leave no order that can divide
        # Delta, so the check answers without the O(g^2) polynomial
        import twobridge.casson as casson

        def no_polynomial(_m):
            raise AssertionError("the Alexander polynomial was built")

        m = seifert_from_conway(conway_even_form(SchubertForm(801, 800)))
        monkeypatch.setattr(casson, "alexander_poly", no_polynomial)
        assert root_of_unity_check(m, p_prime)


@functools.cache
def _brute_totients_and_prime_counts(limit):
    """phi(d) by counting the k <= d coprime to d, and the number of
    distinct primes of d by testing every r <= d, for d = 1..limit."""
    phi = {d: sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1) for d in range(1, limit + 1)}
    is_prime = {r: phi[r] == r - 1 for r in range(2, limit + 1)}
    prime_count = {d: sum(1 for r in range(2, d + 1) if d % r == 0 and is_prime[r])
                   for d in range(1, limit + 1)}
    return phi, prime_count


def _distinct_deltas(alpha_max):
    """(Seifert matrix, Delta) for one knot of each distinct Delta."""
    by_delta = {}
    for alpha in range(3, alpha_max, 2):
        for beta in range(2, alpha, 2):
            if math.gcd(alpha, beta) == 1:
                m = seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))
                by_delta.setdefault(alexander_poly(m), m)
    return sorted(((m, d) for d, m in by_delta.items()), key=lambda pair: pair[1].items())


def _coefficients(delta):
    exps = delta.exponents()
    return [delta.coefficient(k) for k in range(exps[0], exps[-1] + 1)]
