import math
from fractions import Fraction

import pytest

from twobridge import (
    MAX_GENUS,
    ConwayForm,
    DomainError,
    InternalError,
    LaurentPolynomial,
    NormalizationError,
    SchubertForm,
    SeifertMatrix,
    SingularError,
    alexander_poly,
    alexander_second_derivative,
    conway_even_form,
    genus3_closed_form,
    knot_determinant,
    kx_alexander_closed,
    kx_family,
    second_derivative_at_one,
    seifert_from_conway,
    signature,
)
from dense_oracles import (
    dense_alexander,
    dense_seifert,
    dense_signature,
    full_recurrence_alexander,
    int_det,
    jacobi_minors,
    jacobi_signature,
    reference_even_entries,
    symmetric_signature,
)
from twobridge.alexander import _band, _even_diagonal, _seifert_diagonal

DELTA_927 = LaurentPolynomial({-3: -1, -2: 5, -1: -11, 0: 15, 1: -11, 2: 5, 3: -1})
DELTA_41 = LaurentPolynomial({-1: -1, 0: 3, 1: -1})
DELTA_TREFOIL = LaurentPolynomial({-1: 1, 0: -1, 1: 1})


def _bare_matrix(diagonal):
    """SeifertMatrix shell without validation, for exercising error paths."""
    m = object.__new__(SeifertMatrix)
    object.__setattr__(m, "diagonal", diagonal)
    return m


class TestLaurentPolynomial:
    def test_drops_zero_coefficients(self):
        assert LaurentPolynomial({2: 0, 1: 3}) == LaurentPolynomial({1: 3})

    def test_arithmetic(self):
        t = LaurentPolynomial.monomial(1, 1)
        tinv = LaurentPolynomial.monomial(1, -1)
        assert t * tinv == LaurentPolynomial.constant(1)
        assert (t + tinv) ** 2 == LaurentPolynomial({-2: 1, 0: 2, 2: 1})
        assert t - t == LaurentPolynomial()

    def test_evaluate(self):
        assert DELTA_41.evaluate(1) == 1
        assert DELTA_41.evaluate(-1) == 5
        assert DELTA_41.evaluate(Fraction(1, 2)) == Fraction(1, 2)

    def test_symmetry(self):
        assert DELTA_927.is_symmetric()
        assert not LaurentPolynomial({0: 1, 1: 2}).is_symmetric()

    def test_str(self):
        assert str(DELTA_927) == "-t^-3+5t^-2-11t^-1+15-11t+5t^2-t^3"
        assert str(DELTA_41) == "-t^-1+3-t"
        assert str(LaurentPolynomial()) == "0"


class TestSeifertFromConway:
    def test_genus3_slice_family_diagonal(self):
        c = ConwayForm((2, 2, -2, 2, 2, -2))
        m = seifert_from_conway(c)
        assert m.diagonal == (1, -1, -1, -1, 1, 1)
        assert (m.size, m.genus) == (6, 3)
        # the full matrix it stands for: units on the even (1-based) rows only
        assert dense_seifert(c) == (
            (1, 0, 0, 0, 0, 0),
            (1, -1, 1, 0, 0, 0),
            (0, 0, -1, 0, 0, 0),
            (0, 0, 1, -1, 1, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1, 1),
        )

    def test_trefoil(self):
        c = ConwayForm((2, -2))
        assert seifert_from_conway(c).diagonal == (1, 1)
        assert dense_seifert(c) == ((1, 0), (1, 1))

    def test_figure_eight(self):
        c = ConwayForm((2, 2))
        assert seifert_from_conway(c).diagonal == (1, -1)
        assert dense_seifert(c) == ((1, 0), (1, -1))

    def test_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            seifert_from_conway(ConwayForm((2, 3)))

    def test_seifert_matrix_validation(self):
        with pytest.raises(DomainError):
            SeifertMatrix((0, 1))  # zero diagonal entry
        with pytest.raises(DomainError):
            SeifertMatrix((1, 1, 1))  # odd size
        with pytest.raises(DomainError):
            SeifertMatrix(())  # empty
        with pytest.raises(DomainError):
            SeifertMatrix((1.0, 1))  # inexact entry

    def test_seifert_matrix_stores_exact_rows(self):
        # only the diagonal is stored; the units beside it are implied
        m = SeifertMatrix([2, -3])
        assert m.diagonal == (2, -3)
        assert m == seifert_from_conway(ConwayForm((4, 6)))
        assert dense_seifert(ConwayForm((4, 6))) == ((2, 0), (1, -3))


class TestAlexanderPoly:
    def test_927(self):
        m = seifert_from_conway(ConwayForm((2, 2, -2, 2, 2, -2)))
        assert alexander_poly(m) == DELTA_927

    def test_figure_eight(self):
        m = seifert_from_conway(conway_even_form(SchubertForm(5, 2)))
        assert alexander_poly(m) == DELTA_41

    def test_trefoil(self):
        assert alexander_poly(SeifertMatrix((1, 1))) == DELTA_TREFOIL

    def test_torus_knot_7(self):
        # S(7,6) is the (2,7) torus knot; alternating signs all the way
        m = seifert_from_conway(conway_even_form(SchubertForm(7, 6)))
        assert alexander_poly(m) == LaurentPolynomial(
            {-3: 1, -2: -1, -1: 1, 0: -1, 1: 1, 2: -1, 3: 1}
        )

    def test_value_one_at_one_and_symmetric(self):
        for alpha in range(3, 40, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                d = alexander_poly(seifert_from_conway(conway_even_form(SchubertForm(alpha, beta))))
                assert d.evaluate(1) == 1
                assert d.is_symmetric()

    def test_normalization_error_on_invalid_matrix(self):
        # odd size: the determinant vanishes at t = 1
        with pytest.raises(NormalizationError):
            alexander_poly(_bare_matrix((1, 1, 1)))

    def test_packed_evaluation_matches_full_recurrence(self):
        # the recurrence evaluated at one packed integer against the
        # recurrence over every coefficient, on every even form with
        # alpha < 200, plus long alternating and mixed diagonals
        for alpha in range(3, 200, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                m = seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))
                assert alexander_poly(m) == full_recurrence_alexander(m.diagonal), (alpha, beta)
        for diagonal in [(1, 1) * 40, (3, -7, 2, 5, -1, 9) * 7, (1, -1) * 33]:
            m = SeifertMatrix(diagonal)
            assert alexander_poly(m) == full_recurrence_alexander(diagonal), diagonal

    def test_coefficients_alternate_and_sum_to_alpha(self):
        # the lane width rests on this: a two-bridge knot is alternating,
        # so the coefficients of Delta alternate in sign (Crowell,
        # Murasugi) and their absolute values sum to |Delta(-1)| = alpha
        for alpha in range(3, 200, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                m = seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))
                d = alexander_poly(m)
                c = [d.coefficient(k) for k in range(-m.genus, m.genus + 1)]
                assert all(x * y < 0 for x, y in zip(c, c[1:])), (alpha, beta)
                assert sum(map(abs, c)) == alpha, (alpha, beta)

    def test_lane_edges_match_full_recurrence(self):
        # alpha = 255 and 65,535 sit just below a byte boundary; the genus-1
        # diagonals carry the largest coefficients those determinants allow
        knots = [SchubertForm(255, beta) for beta in range(2, 255, 2) if math.gcd(255, beta) == 1]
        knots += [SchubertForm(65535, beta) for beta in (2, 254, 302, 394, 452, 8192, 65422)]
        matrices = [seifert_from_conway(conway_even_form(s)) for s in knots]
        # genus 1: det(M + M^T) = 4ab - 1, and the outer coefficients are ab
        for a, b in [(1, 64), (1, 16384), (128, 128)]:
            assert 4 * a * b - 1 in (255, 65535)
            matrices.append(SeifertMatrix((a, b)))
        # long diagonals: T(2, 2001), and entries whose minors run to
        # thousands of bits
        matrices += [SeifertMatrix((1,) * 2000), SeifertMatrix((3, -7, 2, 5, -1, 9) * 50)]
        for m in matrices:
            assert alexander_poly(m) == full_recurrence_alexander(m.diagonal), m.diagonal[:6]

    def test_lanes_that_miss_the_polynomial_are_an_internal_error(self, monkeypatch):
        # a determinant too small for the coefficients: the lanes either
        # overflow or decode to a polynomial whose coefficients do not sum
        # to it in absolute value
        import twobridge.alexander as alexander

        monkeypatch.setattr(alexander, "_determinant", lambda diagonal: 1)
        for diagonal in [(1, 1, -1, 1, 1, -1), (1, 16384)]:
            with pytest.raises(InternalError):
                alexander_poly(SeifertMatrix(diagonal))

    def test_work_limit(self, monkeypatch):
        # g^2 w m: genus 3, 8-bit lanes (det 49) and one-word entries,
        # refused before the loop one unit past the limit
        import twobridge.alexander as alexander

        m = seifert_from_conway(conway_even_form(SchubertForm(49, 18)))
        monkeypatch.setattr(alexander, "MAX_ALEXANDER_WORK", 9 * 8)
        assert alexander_poly(m) == DELTA_927
        monkeypatch.setattr(alexander, "MAX_ALEXANDER_WORK", 9 * 8 - 1)
        with pytest.raises(DomainError, match="limited to 71 units"):
            alexander_poly(m)
        # a 65-bit entry counts two words; det = 2^66 - 1 takes 72-bit lanes
        big = SeifertMatrix((1, 1 << 64))
        monkeypatch.setattr(alexander, "MAX_ALEXANDER_WORK", 1 * 72 * 2)
        assert alexander_poly(big).coefficient(0) == 1 - (2 << 64)
        monkeypatch.setattr(alexander, "MAX_ALEXANDER_WORK", 1 * 72 * 2 - 1)
        with pytest.raises(DomainError):
            alexander_poly(big)

    def test_work_limit_admits_the_genus_limit(self):
        # S(10001,10000) is C[2,2,...,2] of genus MAX_GENUS, det 10001
        m = seifert_from_conway(conway_even_form(SchubertForm(10001, 10000)))
        assert m.genus == MAX_GENUS
        delta = alexander_poly(m)
        assert delta.exponents() == list(range(-MAX_GENUS, MAX_GENUS + 1))
        assert sum(abs(c) for _, c in delta.items()) == 10001


class TestConwayEvenForm:
    def test_pinned(self):
        assert conway_even_form(SchubertForm(49, 18)).entries == (2, 2, -2, 2, 2, -2)
        assert conway_even_form(kx_family(2)).entries == (4, 2, -4, 4, 2, -4)
        assert conway_even_form(SchubertForm(5, 2)).entries == (2, 2)

    def test_kx_longitude_template(self):
        for x in range(1, 7):
            assert conway_even_form(kx_family(x)).entries == (
                2 * x, 2, -2 * x, 2 * x, 2, -2 * x
            )

    def test_requires_even_beta(self):
        with pytest.raises(DomainError):
            conway_even_form(SchubertForm(49, 19))

    def test_genus_limit(self):
        # S(2g+1, 2g) has genus g: the limit itself passes, one more band fails
        g = MAX_GENUS
        assert conway_even_form(SchubertForm(2 * g + 1, 2 * g)).genus == MAX_GENUS
        with pytest.raises(DomainError, match=f"genus is limited to {MAX_GENUS}"):
            conway_even_form(SchubertForm(2 * g + 3, 2 * g + 2))

    def test_round_trips_through_cf_value(self):
        from twobridge import ContinuedFraction, cf_eval

        for alpha in range(3, 80, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                c = conway_even_form(SchubertForm(alpha, beta))
                assert cf_eval(ContinuedFraction((0,) + c.entries)) == Fraction(beta, alpha)


class TestEvenDiagonal:
    def test_band_on_every_even_form(self):
        # the even walk emits the Seifert diagonal of the even Conway
        # form; on it the leading minors of M + M^T grow strictly in
        # |D_k| (every |2 a_k| >= 2), so none vanishes, |D_n| = alpha, and
        # Jacobi's signature is the longitude's sign sum that _band returns
        for alpha in range(3, 400, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                diagonal = _even_diagonal(alpha, beta)
                assert diagonal == _seifert_diagonal(reference_even_entries(alpha, beta))
                minors = jacobi_minors(diagonal)
                assert all(abs(x) < abs(y) for x, y in zip(minors, minors[1:])), (alpha, beta)
                assert abs(minors[-1]) == alpha, (alpha, beta)
                assert jacobi_signature(diagonal) == _band(diagonal)[3], (alpha, beta)


class TestSecondDerivative:
    def test_pinned(self):
        assert second_derivative_at_one(DELTA_927) == 0
        assert second_derivative_at_one(DELTA_41) == -2
        delta_83 = LaurentPolynomial({-1: -4, 0: 9, 1: -4})
        assert second_derivative_at_one(delta_83) == -8

    def test_always_even_for_symmetric(self):
        for alpha in range(3, 40, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                d = alexander_poly(seifert_from_conway(conway_even_form(SchubertForm(alpha, beta))))
                assert second_derivative_at_one(d) % 2 == 0

    def test_matches_taylor_shift_oracle(self):
        # independent oracle: expand delta(1+u) as a polynomial in u with
        # exact binomials and read off 2 * [u^2]
        def taylor_second(d):
            from math import comb

            acc = Fraction(0)
            for k, c in d.items():
                # [u^2] of (1+u)^k, valid for negative k via the
                # generalized binomial k(k-1)/2
                acc += c * Fraction(k * (k - 1), 2)
            return 2 * acc

        # the generalized binomial IS k(k-1)/2, so build a second, truly
        # distinct oracle: evaluate at 1+u for u an exact dual number
        # representation (a, b, c) ~ a + b u + c u^2 mod u^3
        def dual_eval(d):
            def mul(p, q):
                return (
                    p[0] * q[0],
                    p[0] * q[1] + p[1] * q[0],
                    p[0] * q[2] + p[1] * q[1] + p[2] * q[0],
                )

            def power(base, n):
                result = (Fraction(1), Fraction(0), Fraction(0))
                inv = n < 0
                n = abs(n)
                for _ in range(n):
                    result = mul(result, base)
                if inv:
                    # invert a + bu + cu^2 mod u^3
                    a, b, c = result
                    ia = 1 / a
                    ib = -b * ia * ia
                    ic = (b * b / a - c) * ia * ia
                    return (ia, ib, ic)
                return result

            one_plus_u = (Fraction(1), Fraction(1), Fraction(0))
            total = (Fraction(0), Fraction(0), Fraction(0))
            for k, c in d.items():
                term = power(one_plus_u, k)
                total = (total[0] + c * term[0], total[1] + c * term[1], total[2] + c * term[2])
            return 2 * total[2]

        for alpha in range(3, 40, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                d = alexander_poly(seifert_from_conway(conway_even_form(SchubertForm(alpha, beta))))
                expected = second_derivative_at_one(d)
                assert taylor_second(d) == expected
                assert dual_eval(d) == expected


class TestSecondDerivativeRecurrence:
    def test_matches_the_polynomial(self):
        # the mod-z^3 Conway recurrence against Delta''(1) read off the
        # whole polynomial, on every even form with alpha < 200
        for alpha in range(3, 200, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                m = seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))
                assert alexander_second_derivative(m) == second_derivative_at_one(
                    alexander_poly(m)
                ), (alpha, beta)

    def test_pinned(self):
        assert alexander_second_derivative(SeifertMatrix((1, 1))) == 2  # trefoil
        assert alexander_second_derivative(SeifertMatrix((1, -1))) == -2  # figure eight
        for x in range(1, 6):
            m = seifert_from_conway(conway_even_form(kx_family(x)))
            assert alexander_second_derivative(m) == 0

    def test_invalid_matrix(self):
        with pytest.raises(NormalizationError):
            alexander_second_derivative(_bare_matrix((1, 1, 1)))


class TestKxClosedForm:
    def test_x1_matches_927(self):
        assert kx_alexander_closed(1) == DELTA_927

    def test_x2_by_substitution(self):
        assert kx_alexander_closed(2) == LaurentPolynomial(
            {-3: -16, 3: -16, -2: 92, 2: 92, -1: -224, 1: -224, 0: 297}
        )

    def test_value_one_at_one(self):
        for x in range(1, 21):
            assert kx_alexander_closed(x).evaluate(1) == 1

    def test_pipeline_equality(self):
        for x in range(1, 7):
            m = seifert_from_conway(conway_even_form(kx_family(x)))
            assert alexander_poly(m) == kx_alexander_closed(x)

    def test_second_derivative_vanishes(self):
        for x in range(1, 21):
            assert second_derivative_at_one(kx_alexander_closed(x)) == 0


class TestGenus3ClosedForm:
    def test_slice_family_diagonal(self):
        for x in range(1, 7):
            got = genus3_closed_form(x, -1, -x, -x, 1, x)
            one_minus_t = LaurentPolynomial({0: 1, 1: -1})
            t = LaurentPolynomial.monomial(1, 1)
            expected = (
                -(x**4) * one_minus_t**6 - x * x * t * one_minus_t**4 + t**3
            )
            assert got == expected

    def test_all_zero_diagonal(self):
        assert genus3_closed_form(0, 0, 0, 0, 0, 0) == LaurentPolynomial.monomial(1, 3)

    def test_agrees_with_determinant_on_balanced_diagonals(self):
        # A + C = D + F = 0 is where the published expansion is exact
        for diag in [(1, -1, -1, -1, 1, 1), (2, -1, -2, -2, 1, 2), (3, 1, -3, -3, -1, 3)]:
            entries = tuple(
                (2 * d) if i % 2 == 0 else (-2 * d) for i, d in enumerate(diag)
            )
            m = seifert_from_conway(ConwayForm(entries))
            shifted = genus3_closed_form(*diag).shifted(-3)
            assert alexander_poly(m) == shifted

    def test_generic_diagonal_disagrees_with_determinant(self):
        # (1,1,1,1,1,1) comes from C[2,-2,2,-2,2,-2], the (2,7) torus knot.
        # The recurrence route is authoritative; the published expansion
        # misses the (A+C)(D+F)-coupled terms and differs here.
        m = seifert_from_conway(ConwayForm((2, -2, 2, -2, 2, -2)))
        det_route = alexander_poly(m)
        closed = genus3_closed_form(1, 1, 1, 1, 1, 1).shifted(-3)
        assert closed != det_route
        assert closed.evaluate(2) == Fraction(19, 8)
        assert det_route.evaluate(2) == Fraction(43, 8)


class TestSignature:
    def test_927_vanishes(self):
        assert signature(seifert_from_conway(ConwayForm((2, 2, -2, 2, 2, -2)))) == 0

    def test_trefoil(self):
        assert signature(SeifertMatrix((1, 1))) == 2

    def test_figure_eight(self):
        assert signature(SeifertMatrix((1, -1))) == 0

    def test_slice_family(self):
        for x in range(1, 11):
            assert signature(seifert_from_conway(conway_even_form(kx_family(x)))) == 0

    def test_even_for_knots(self):
        for alpha in range(3, 40, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                assert signature(seifert_from_conway(conway_even_form(SchubertForm(alpha, beta)))) % 2 == 0

    def test_singular_error(self):
        with pytest.raises(SingularError):
            signature(_bare_matrix((0, 0)))

    def test_zero_diagonal_pivoting(self):
        # hits the row/column addition branch of the dense oracle's
        # diagonalization
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert symmetric_signature(rows) == 0


class TestDeterminant:
    def test_pinned(self):
        assert knot_determinant(ConwayForm((2, -2))) == 3
        assert knot_determinant(ConwayForm((2, 2))) == 5
        assert knot_determinant(ConwayForm((2, 2, -2, 2, 2, -2))) == 49

    def test_equals_alpha(self):
        for alpha in range(3, 120, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                assert knot_determinant(conway_even_form(SchubertForm(alpha, beta))) == alpha

    def test_matches_alexander_at_minus_one(self):
        for alpha in range(3, 40, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                c = conway_even_form(SchubertForm(alpha, beta))
                d = alexander_poly(seifert_from_conway(c))
                assert abs(d.evaluate(-1)) == knot_determinant(c)


class TestDenseOracles:
    def test_alexander_and_signature_match_dense_routes(self):
        # every even form with alpha < 150; the Bareiss determinant costs
        # about n^4 on these tridiagonal matrices, so Delta is compared up
        # to genus 10 (2,107 of the 2,275 forms) and the torus-knot test in
        # test_casson covers genus up to 49
        for alpha in range(3, 150, 2):
            for beta in range(2, alpha, 2):
                if math.gcd(alpha, beta) != 1:
                    continue
                c = conway_even_form(SchubertForm(alpha, beta))
                m = seifert_from_conway(c)
                dense = dense_seifert(c)
                assert signature(m) == dense_signature(dense), (alpha, beta)
                if c.genus <= 10:
                    assert alexander_poly(m) == dense_alexander(dense), (alpha, beta)


class TestDeterminantHelpers:
    def test_int_det_against_cofactor_oracle(self):
        import random

        def cofactor_det(m):
            n = len(m)
            if n == 1:
                return m[0][0]
            total = 0
            for j in range(n):
                if m[0][j] == 0:
                    continue
                minor = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor_det(minor)
            return total

        rng = random.Random(20240817)
        for n in range(1, 6):
            for _ in range(40):
                m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                assert int_det(m) == cofactor_det(m), m

    def test_int_det_singular_and_permutation(self):
        assert int_det([[0, 1], [0, 3]]) == 0
        # zero pivot forces the row-swap branch
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[0, 2, 0], [3, 0, 0], [0, 0, 4]]) == -24
