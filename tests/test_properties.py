"""Randomized checks against the slow routes, and of presentation invariance.

Conway forms are drawn at random (genus up to 6, entries up to 40 in
absolute value) for the Alexander layer, and with entries up to 2^71
and genus up to 15 for the signature and determinant, whose proofs hold
on every valid Seifert matrix and not only on a knot's; simple continued
fraction tails of 10 to 30 crossings for the boundary slopes, the obstruction
report and the crossing number; nested JSON values for the CLI's
writer.  The examples are derandomized so every run sees the same ones.
"""

import json

import pytest

from twobridge import (
    ContinuedFraction,
    ConwayForm,
    Equivalence,
    SchubertForm,
    alexander_poly,
    cf_eval,
    crossing_number,
    enumerate_bscf,
    equivalent,
    knot_determinant,
    obstruct,
    preferred_form,
    seifert_from_conway,
    signature,
    slope_weights,
)
from twobridge.cli import _json_text
from dense_oracles import dense_alexander, dense_seifert, dense_signature, int_det

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_entry = st.sampled_from([e for e in range(-40, 41, 2) if e])
conway_forms = st.integers(1, 6).flatmap(
    lambda g: st.lists(_entry, min_size=2 * g, max_size=2 * g)
).map(lambda entries: ConwayForm(tuple(entries)))

# any nonzero Seifert diagonal entry up to 2^70 in absolute value, as the
# even Conway entry of twice its size
_wide_entry = st.integers(1, 1 << 70).flatmap(lambda a: st.sampled_from((2 * a, -2 * a)))
wide_conway_forms = st.integers(1, 15).flatmap(
    lambda g: st.lists(_wide_entry, min_size=2 * g, max_size=2 * g)
).map(lambda entries: ConwayForm(tuple(entries)))


# simple CF tails: positive terms, the last at least 2, term sum 10..30,
# with the value [0, *tail]; an even denominator is a two-component link
# and is skipped
knot_tails = (
    st.lists(st.sampled_from((1, 1, 2, 3, 5)), min_size=5, max_size=24)
    .filter(lambda t: t[-1] >= 2 and 10 <= sum(t) <= 30)
    .map(lambda t: (t, cf_eval(ContinuedFraction((0, *t)))))
    .filter(lambda tail_value: tail_value[1].denominator % 2 == 1)
)
knots = knot_tails.map(lambda tv: SchubertForm(tv[1].denominator, tv[1].numerator))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(conway_forms)
def test_band_recurrence_matches_dense_matrix(c):
    m = seifert_from_conway(c)
    dense = dense_seifert(c)
    delta = alexander_poly(m)
    assert delta == dense_alexander(dense)
    assert signature(m) == dense_signature(dense)
    assert abs(delta.evaluate(-1)) == knot_determinant(c)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(wide_conway_forms)
def test_signature_and_determinant_on_wide_matrices(c):
    # the sign sum and the continuant against the dense routes, on
    # matrices far from any knot's: the proof in signature's docstring
    # needs only nonzero integer entries
    dense = dense_seifert(c)
    n = len(dense)
    assert signature(seifert_from_conway(c)) == dense_signature(dense)
    symmetric = [[dense[i][j] + dense[j][i] for j in range(n)] for i in range(n)]
    assert knot_determinant(c) == abs(int_det(symmetric))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(knots)
def test_slope_weights_match_enumeration(s):
    canonical, _ = preferred_form(s)
    weights = slope_weights(canonical).weights
    assert weights == enumerate_bscf(canonical).weights
    assert sum(w for _, w in weights) == s.alpha


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(knots)
def test_report_is_invariant_across_presentations(s):
    # beta and beta^-1 present the knot, -beta and -beta^-1 its mirror.
    # A report on an odd-beta input describes the mirror (mirrored flag
    # set), which negates sigma and the Casson difference; put back on
    # the input knot, every field must agree across the four.
    alpha, inv = s.alpha, pow(s.beta, -1, s.alpha)
    seen = set()
    for beta, chirality in ((s.beta, 1), (inv, 1), (alpha - s.beta, -1), (alpha - inv, -1)):
        given = SchubertForm(alpha, beta)
        r = obstruct(given)
        shown = SchubertForm(alpha, alpha - r.knot.beta) if r.mirrored else r.knot
        assert r.knot.beta % 2 == 0
        assert equivalent(shown, given) is Equivalence.SAME
        sign = chirality * (-1 if r.mirrored else 1)
        seen.add((r.name, r.crossing_number, r.delta_second, sign * r.sigma,
                  sign * r.casson_difference, r.verdict, r.caveats))
    assert len(seen) == 1


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(knot_tails)
def test_crossing_number_is_the_tail_sum(tail_value):
    # what lets the census walk tails instead of computing crossing numbers
    tail, value = tail_value
    alpha, beta = value.denominator, value.numerator
    inv = pow(beta, -1, alpha)
    for b in (beta, alpha - beta, inv, alpha - inv):
        assert crossing_number(SchubertForm(alpha, b)) == sum(tail)


# JSON values as the documents hold them: str-keyed dicts and lists,
# nested, of ints of any size, strings with escapes and non-ASCII text,
# bools and None, empty containers included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | st.text(),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40,
)


@hypothesis.settings(derandomize=True, max_examples=500, deadline=None, database=None)
@hypothesis.given(json_values)
def test_writer_gives_the_bytes_of_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)
