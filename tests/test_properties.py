"""Property tests: identities checked on Hypothesis-drawn inputs.

Runs derandomized, with no example database, so every run draws the same
examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from got.measures import TimeGrid, _constant_speed_pair  # noqa: E402

EPS = np.finfo(float).eps

# exact zeros of both signs and magnitudes from 1e-12 to 1e8: no subnormal
# quotient, so a round-off bound relative to the row's mass holds
entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(1e-12, 1e8),
    st.floats(-1e8, -1e-12),
)
fluxes = st.tuples(st.integers(1, 20), st.integers(1, 50)).flatmap(
    lambda shape: arrays(float, shape, elements=entries)
)


@settings(derandomize=True, database=None, deadline=None)
@given(fluxes)
def test_constant_speed_pair_factors_the_flux(flux):
    pair = _constant_speed_pair(TimeGrid(flux.shape[0]).knots, flux)
    mass = np.abs(flux).sum(axis=1, keepdims=True)
    # |v| is the row's l1 norm, the same bits as summing the row itself
    assert np.array_equal(np.abs(pair.v), np.broadcast_to(mass, flux.shape))
    assert np.all(np.abs(pair.v * pair.g - flux) <= 4 * EPS * mass)
    assert np.all(np.abs(pair.g.sum(axis=1) - 1.0) <= flux.shape[1] * EPS)
