"""Hypothesis properties of the per-spin closed forms: on one-spin records,
each matches the branch states that oracle.branch_state evolves as matrices,
at the edges lam in {0, 1/2, 1}, beta in {0, pi} and g = 0 as well as inside."""

import math

import numpy as np
import pytest

from sbskit import densmat, oracle
from sbskit.discrimination import local_success_probability
from sbskit.spin_model import SpinParams, decoherence_factor, delta, macrofraction_fidelity, sin2_coefficients, sin_gt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def edge_or(values, low, high):
    return st.one_of(st.sampled_from(values), st.floats(low, high))


@st.composite
def one_spin(draw):
    """A record of one spin (fields of shape (1,)) and a time t >= 0."""
    spin = SpinParams(
        np.array([draw(st.floats(0.0, 2.0 * math.pi))]),
        np.array([draw(edge_or([0.0, math.pi], 0.0, math.pi))]),
        np.array([draw(st.floats(0.0, 2.0 * math.pi))]),
        np.array([draw(edge_or([0.0, 0.5, 1.0], 0.0, 1.0))]),
        np.array([draw(edge_or([0.0], -5.0, 5.0))]),
    )
    return spin, draw(edge_or([0.0], 0.0, 10.0))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(one_spin())
def test_decoherence_factor_is_the_cross_branch_trace(case):
    spin, t = case
    trace = np.trace(oracle.branch_state(spin, 0, 1, t, 2), axis1=-2, axis2=-1)
    assert abs(decoherence_factor(spin, t) - trace[0]) <= 1e-10


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(one_spin())
def test_macrofraction_fidelity_is_the_branch_fidelity(case):
    spin, t = case
    rho_plus, rho_minus = oracle.branch_state(spin, [0, 1], [0, 1], t, 2)
    closed = macrofraction_fidelity(sin2_coefficients(spin)[0], sin_gt(spin, t))
    assert abs(closed - densmat.fidelity(rho_plus, rho_minus)) <= 1e-10


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(one_spin())
def test_local_success_probability_is_the_helstrom_success(case):
    # equal priors: the optimal success is 1/2 + ||rho_+ - rho_-||_1 / 4
    spin, t = case
    rho_plus, rho_minus = oracle.branch_state(spin, [0, 1], [0, 1], t, 2)
    closed = local_success_probability(np.abs(delta(spin)), sin_gt(spin, t))[0]
    assert abs(closed - (0.5 + 0.25 * densmat.trace_norm(rho_plus - rho_minus))) <= 1e-10
