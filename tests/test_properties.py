"""Randomized checks of the Alexander layer against the dense routes.

Conway forms are drawn at random (genus up to 6, entries up to 40 in
absolute value); the examples are derandomized so every run sees the
same ones.
"""

import pytest

from twobridge import (
    ConwayForm,
    alexander_poly,
    knot_determinant,
    seifert_from_conway,
    signature,
)
from dense_oracles import dense_alexander, dense_seifert, dense_signature

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_entry = st.sampled_from([e for e in range(-40, 41, 2) if e])
conway_forms = st.integers(1, 6).flatmap(
    lambda g: st.lists(_entry, min_size=2 * g, max_size=2 * g)
).map(lambda entries: ConwayForm(tuple(entries)))


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(conway_forms)
def test_band_recurrence_matches_dense_matrix(c):
    m = seifert_from_conway(c)
    dense = dense_seifert(c)
    delta = alexander_poly(m)
    assert delta == dense_alexander(dense)
    assert signature(m) == dense_signature(dense)
    assert abs(delta.evaluate(-1)) == knot_determinant(c)
