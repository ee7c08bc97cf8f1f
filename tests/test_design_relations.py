"""Metamorphic relations of the design at N = 8 and tol 1e-3.

Each relation compares two designs, so it needs no reference value:

- (a) the echo enters only the measurement and is driven only by the
  relay's own output, so the canceler can subtract it exactly: the coupling
  gain, the delay and the carrier leave every probe's verdict unchanged;
- (a') with the echo path Delta (the coupled lift's u -> y block, since
  u reaches y only through the echo), the design K equals K_0, designed on
  the echo-free loop, closed around -Delta: K = (I + K_0 Delta)^-1 K_0;
- (b) the plant with W scaled by c and input w is the plant with W and
  input c w, so gamma_min scales by c (to the bisection tolerance, since
  the probed levels do not scale);
- (c) F scaled by c only scales the measurement, which K / c undoes, so
  every verdict is unchanged; at c = 1e-9 the regular D21 has singular
  values near 1e-9, so the rank rule must be relative to the largest;
- (d) scaling h, every filter time constant and the delay by one c scales
  time, which leaves every ZOH exponential and so the lifted plant
  unchanged;
- (g) so ``designed`` on the coupled loop and K_0 on the echo-free loop
  run the same loop, and a sweep gives them equal error counts.

These relations cannot see an error in the lifted echo path itself: any
stable, strictly proper echo is cancellable, so a wrong one leaves (a)
intact.  The shift-register oracle in ``tests/conftest.py``
(``fast_step_realization``) checks that path.
"""

from dataclasses import replace

import numpy as np
import pytest

from cwcancel.ber import default_beta_grid, sweep_beta
from cwcancel.hnorm import frequency_response
from cwcancel.lifting import lift, partition
from cwcancel.lti import StateSpace
from cwcancel.plant import RelayParams
from cwcancel.simulate import SimConfig
from cwcancel.synthesis import bisect_gamma

TOL = 1e-3
BASE = RelayParams(fsfh_ratio=8)
ECHO_FREE = replace(BASE, coupling_gain=0.0)


def lowpass(pole, gain=1.0):
    """gain * pole / (s + pole)."""
    return StateSpace([[-pole]], [[pole]], [[gain]], [[0.0]])


def design(params):
    return bisect_gamma(lift(params), tol=TOL)


@pytest.fixture(scope="module")
def base_design():
    return design(BASE)


@pytest.fixture(scope="module")
def echo_free_design():
    """K_0: the design on the loop without the echo."""
    return design(ECHO_FREE)


@pytest.fixture(scope="module")
def lowpass_antialias_design():
    """The base design with F = 1/(0.05 s + 1)."""
    return design(replace(BASE, antialias=lowpass(20.0)))


@pytest.mark.parametrize("change", [
    {"coupling_gain": 0.0},
    {"coupling_gain": 0.9},
    {"delay_seconds": 2.5},
    {"delay_seconds": 3.0},
    {"carrier_hz": 123.4},
    {"coupling_gain": 0.9, "delay_seconds": 3.0, "carrier_hz": 123.4},
], ids=["alpha0", "alpha0.9", "delay2.5", "delay3", "carrier", "all"])
def test_echo_leaves_bisection_unchanged(base_design, change):
    result = design(replace(BASE, **change))
    assert result.bisection_trace == base_design.bisection_trace
    assert result.gamma_min == base_design.gamma_min


def test_design_is_echo_free_design_closed_around_echo(base_design, echo_free_design):
    Gl = lift(BASE)
    p = partition(Gl.G, Gl.n_w, Gl.n_z)
    delta = StateSpace(p.A, p.B2, p.C2, p.D22, dt=Gl.G.dt)
    thetas = np.linspace(0.0, np.pi, 64)
    K = frequency_response(base_design.controller.K, thetas)
    K0 = frequency_response(echo_free_design.controller.K, thetas)
    expected = np.linalg.solve(np.eye(2) + K0 @ frequency_response(delta, thetas), K0)
    assert np.abs(K - expected).max() <= 1e-10 * np.abs(expected).max()


def test_designed_sweep_equals_echo_free_sweep(base_design, echo_free_design):
    """The two loops are one operator in two realizations, so only a decision
    statistic within rounding of zero could differ; at this seed none does."""
    cfg = SimConfig(params=BASE, controller=base_design.controller, seed=5, n_symbols=2000)
    betas = default_beta_grid(cfg, n_points=12)[[3, 5, 7, 9]]
    (coupled,) = sweep_beta(cfg, betas, ["designed"])
    (echo_free,) = sweep_beta(replace(cfg, params=ECHO_FREE,
                                      controller=echo_free_design.controller),
                              betas, ["designed"])
    assert [pt.errors for pt in coupled.points] == [pt.errors for pt in echo_free.points]
    assert coupled.points[0].errors > 0  # the counts compared are not all zero


@pytest.mark.parametrize("c", [0.1, 3.0])
def test_scaled_input_shaping_scales_gamma(base_design, c):
    result = design(replace(BASE, input_shaping=lowpass(0.5, c)))
    assert result.gamma_min / c == pytest.approx(base_design.gamma_min, rel=TOL, abs=0.0)
    assert result.controller.gamma_certified / c == pytest.approx(
        base_design.controller.gamma_certified, rel=TOL, abs=0.0)


@pytest.mark.parametrize("c", [0.1, 3.0, 1e-9])
def test_scaled_antialias_leaves_bisection_unchanged(lowpass_antialias_design, c):
    ref = lowpass_antialias_design
    result = design(replace(BASE, antialias=lowpass(20.0, c)))
    assert result.bisection_trace == ref.bisection_trace
    assert result.gamma_min == ref.gamma_min


@pytest.mark.parametrize("c", [0.5, 4.0])
def test_time_scaling_leaves_bisection_unchanged(base_design, c):
    scaled = replace(BASE, sampling_period=c, delay_seconds=c,
                     input_shaping=lowpass(0.5 / c), post_filter=lowpass(1000.0 / c))
    result = design(scaled)
    assert result.bisection_trace == base_design.bisection_trace
    assert result.gamma_min == base_design.gamma_min
