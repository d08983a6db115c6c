"""Hypothesis properties of build_sbs on the array records and of the
majority-vote success probability."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sbskit import densmat
from sbskit.discrimination import majority_success_heterogeneous
from sbskit.sbs_core import CentralState, ProjectorFamily, build_sbs
from test_discrimination import exact_tail

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@st.composite
def sbs_inputs(draw, contained: bool):
    """Central state, branches and a complete projector family per environment.

    Each pointer index owns a nonempty block of an orthonormal basis of the
    environment; with contained=True every branch is supported inside its
    projector.
    """
    d_s = draw(st.integers(2, 3))
    n_env = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([d_s, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = rng.dirichlet(np.ones(d_s))
    central = CentralState(np.diag(sigma))
    branches, families = [], []
    for _ in range(n_env):
        u = _unitary(rng, dim)
        owner = np.concatenate([np.arange(d_s), rng.integers(0, d_s, dim - d_s)])
        projectors, states = [], []
        for i in range(d_s):
            cols = u[:, owner == i]
            projectors.append(cols @ cols.conj().T)
            if contained:
                inner = _random_state(rng, cols.shape[1])
                states.append(cols @ inner @ cols.conj().T)
            else:
                states.append(_random_state(rng, dim))
        branches.append(states)
        families.append(projectors)
    return central, branches, ProjectorFamily(families)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(sbs_inputs(contained=False))
def test_build_sbs_weights_sum_to_one(case):
    central, branches, family = case
    sbs = build_sbs(central, branches, family)
    assert np.all(sbs.weights >= 0.0)
    assert math.isclose(float(np.sum(sbs.weights)), 1.0, abs_tol=1e-12)
    densmat.check_density_matrix(sbs.to_matrix())


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(sbs_inputs(contained=True))
def test_build_sbs_keeps_contained_branches(case):
    central, branches, family = case
    sbs = build_sbs(central, branches, family)
    np.testing.assert_allclose(sbs.weights, central.sigma, atol=1e-12)
    assert sbs.eta_norm == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sbs.states, branches, atol=1e-12)
    for k, i in itertools.product(range(len(branches)), range(central.d_s)):
        assert np.trace(sbs.states[k, i]).real == pytest.approx(1.0, abs=1e-12)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.integers(1, 400), st.floats(0.0, 1.0))
def test_majority_tail_matches_exact_fraction(n, p):
    # each float p is a dyadic rational, so the tail at p itself is exact
    exact = exact_tail(n, p)
    got = float(majority_success_heterogeneous(np.full(n, p)))
    assert abs(Fraction(got) - exact) <= 1e-13 * exact + 1e-300
