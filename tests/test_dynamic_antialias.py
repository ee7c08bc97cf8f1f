"""Coverage for a non-identity antialias filter: the coupling then enters
through filter states, and the perfect baseline is the same loop with the
coupling gain at zero.
"""

import numpy as np
import pytest

from cwcancel.lifting import lift
from cwcancel.plant import RelayParams, assemble_loop, first_order_lowpass
from cwcancel.simulate import SimConfig, simulate_chain
from cwcancel.synthesis import bisect_gamma


@pytest.fixture(scope="module")
def dyn_params():
    return RelayParams(antialias=first_order_lowpass(0.01))


@pytest.fixture(scope="module")
def dyn_design(dyn_params):
    return bisect_gamma(lift(dyn_params), tol=5e-3)


def test_dimensions(dyn_params):
    assert assemble_loop(dyn_params).n_states == 6  # shaping + antialias + post, I/Q pairs
    assert lift(dyn_params).n_states == 10  # core + one (x_P, u) register slot


def test_synthesis_succeeds(dyn_design):
    ctrl = dyn_design.controller
    assert ctrl.gamma_certified <= dyn_design.gamma_min * 1.001


def test_designed_equals_perfect_without_coupling(dyn_design):
    params = RelayParams(antialias=first_order_lowpass(0.01), coupling_gain=0.0)
    K = dyn_design.controller
    rng = np.random.default_rng(91)
    tx = rng.standard_normal((16 * 40, 2))
    cfg = SimConfig(params=params, controller=K, seed=5)
    a = simulate_chain(cfg, tx, "designed", 1.0)
    b = simulate_chain(cfg, tx, "perfect", 1.0)
    # At alpha = 0 both kinds build the same loop, so the runs agree bit for bit.
    assert np.array_equal(a.y_T, b.y_T)


def test_perfect_is_coupling_gain_invariant(dyn_params, dyn_design):
    K = dyn_design.controller
    rng = np.random.default_rng(92)
    tx = rng.standard_normal((16 * 40, 2))
    ref = None
    for alpha in (0.0, 0.15, 0.5):
        params = RelayParams(antialias=first_order_lowpass(0.01), coupling_gain=alpha)
        out = simulate_chain(SimConfig(params=params, controller=K, seed=5), tx, "perfect", 1.0)
        if ref is None:
            ref = out.y_T
        else:
            assert np.array_equal(ref, out.y_T)
