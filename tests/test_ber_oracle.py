"""A quasi-analytic oracle for the Monte Carlo BER sweep.

The relay loop is linear, both noises are Gaussian and the phase reference
comes from a noise-free pilot, so given the bits each decision statistic is
exactly Gaussian (Jeruchim, Balaban & Shanmugan, "Simulation of
Communication Systems", 2nd ed., 2000, on quasi-analytic estimation):

* its mean is the noise-free run of the same bits, summed over the window;
* its variance is (beta g sigma_rs)^2 q_k + c_k sigma_t^2, where q_k comes
  from the loop's period-covariance recursion P <- A P A^T + B B^T started
  at 0, and c_k counts how often the window reads each sample of the white
  terminal noise: sps inside the run, sps + 2 for the final window, which
  repeats its last sample.

The expected error count of a point is sum_k p_k with p_k = Q(+-mean_k /
sigma_k), and the Monte Carlo count differs from it by a sum of Bernoulli
terms of variance sum_k p_k (1 - p_k).  The oracle fixes its own window
alignment (``conftest.RECEIVER_OFFSET``), noise scales, pilot reference and
loop recursion: it imports none of them from the package's simulator or
receiver.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import RECEIVER_OFFSET, relay_window_sums
from cwcancel.ber import default_beta_grid, sweep_beta
from cwcancel.lifting import closed_loop, lift
from cwcancel.plant import identity_filter
from cwcancel.simulate import SimConfig

KINDS = ["none", "designed", "perfect"]


def loop_of(cfg, kind):
    """One slow period of the relay loop, lifted w -> lifted e (u = w - e)."""
    params = replace(cfg.params, input_shaping=identity_filter())
    if kind == "perfect":
        params = replace(params, coupling_gain=0.0)
    return closed_loop(lift(params), cfg.controller.K)


def relay_output(loop, tx):
    """Noise-free relay output u (n, 2, P) of the loop from rest, for fast
    samples tx (n, 2, P), one period at a time."""
    n, _, P = tx.shape
    W = tx.reshape(-1, loop.n_inputs, P)
    U = np.empty_like(W)
    X = np.zeros((loop.n_states, P))
    for j in range(W.shape[0]):
        U[j] = W[j] - (loop.C @ X + loop.D @ W[j])
        X = loop.A @ X + loop.B @ W[j]
    return U.reshape(n, 2, P)


def window_weights(N, m, ref, final):
    """omega (m + 1, 2N): row p weighs period p of a window's periods so that
    sum_p omega_p u_p is ref . (the window's sum of u).  A window starts
    RECEIVER_OFFSET samples into its first period; the final window ends
    with its run and reads its last sample RECEIVER_OFFSET more times."""
    a = RECEIVER_OFFSET
    count = np.zeros((m + 1) * N)
    if final:
        count[a: m * N] = 1.0
        count[m * N - 1] += a
    else:
        count[a: m * N + a] = 1.0
    return (count[:, None] * ref).reshape(m + 1, 2 * N)


def unit_rs_variances(loop, omega, periods_at):
    """Var(sum_p omega_p u_p) for unit white n_RS at every input, for windows
    whose first period is each of ``periods_at``: the covariance P_j of
    the loop state at the window's first period, from rest, plus the
    window's own inputs."""
    L, M = np.zeros(loop.n_states), []  # the weights of x_{p+1} and of w_p .. w_m
    for p in range(omega.shape[0] - 1, -1, -1):
        M.append(omega[p] @ (np.eye(loop.n_inputs) - loop.D) + L @ loop.B)
        L = -omega[p] @ loop.C + L @ loop.A
    own = sum(float(row @ row) for row in M)
    BB = loop.B @ loop.B.T
    P, out, j = np.zeros((loop.n_states, loop.n_states)), [], 0
    for start in periods_at:
        while j < start:
            P = loop.A @ P @ loop.A.T + BB
            j += 1
        out.append(float(L @ P @ L) + own)
    return np.array(out)


def expected_errors(cfg, kind, betas):
    """Per point, the oracle's (mean, variance) of the sweep's error count."""
    N, K = cfg.params.fsfh_ratio, cfg.n_symbols
    sps = round(cfg.symbol_period / cfg.params.sampling_period) * N
    m = sps // N
    g = 10.0 ** (cfg.relay_gain_db / 20.0)
    sigma_rs, sigma_t = (math.sqrt(10.0 ** (p / 10.0) / 2.0)
                         for p in (cfg.noise_rs_dbm, cfg.noise_t_dbm))
    a = RECEIVER_OFFSET
    c = np.full(K, float(sps))
    c[-1] = sps - a - 1 + (a + 1) ** 2
    bits = np.stack([np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed, 3 * i + 1], dtype=np.uint64))).integers(0, 2, size=K)
        for i in range(len(betas))], axis=1)
    if kind == "none":
        mean, q = np.zeros((K, len(betas))), np.zeros(K)
    else:
        loop = loop_of(cfg, kind)
        amp = math.sqrt(10.0 ** (cfg.signal_dbm / 10.0))
        pilot = np.zeros((8 * sps, 2, 1))
        pilot[:, 0] = amp
        i, qq = relay_window_sums(relay_output(loop, pilot), sps)[-1, :, 0]
        ref = np.array([i, qq]) / math.hypot(i, qq)
        tx = np.zeros((K * sps, 2, len(betas)))
        tx[:, 0] = amp * (2.0 * bits - 1.0).repeat(sps, axis=0)
        mean = np.einsum("c,kcp->kp", ref, relay_window_sums(relay_output(loop, tx), sps))
        q = unit_rs_variances(loop, window_weights(N, m, ref, False), range(0, K * m, m))
        q[-1] = unit_rs_variances(loop, window_weights(N, m, ref, True), [(K - 1) * m])[0]
    out = []
    for j, beta in enumerate(betas):
        s = beta * g
        sigma = np.sqrt((s * sigma_rs) ** 2 * q + c * sigma_t ** 2)
        p = ndtr(np.where(bits[:, j] == 1, -1.0, 1.0) * s * mean[:, j] / sigma)
        out.append((p.sum(), (p * (1.0 - p)).sum(), p))
    return out


@pytest.fixture(scope="module")
def sweep(default_params, designed_controller):
    cfg = SimConfig(params=default_params, controller=designed_controller, seed=20260808,
                    n_symbols=10000)
    betas = list(default_beta_grid(cfg, 12))
    curves = sweep_beta(cfg, betas, KINDS)
    return cfg, betas, {c.canceler_kind: [p.errors for p in c.points] for c in curves}


@pytest.mark.parametrize("kind", KINDS)
def test_counts_agree_with_the_quasi_analytic_oracle(sweep, kind):
    """At every point of the reference sweep (N = 16, 12 auto betas, 10 000
    symbols), the Monte Carlo count lies within 4 standard deviations of
    the oracle's expected count, and so does the curve's total, since the
    points draw from disjoint streams; ``none`` (u = 0) errs with
    probability 1/2 exactly."""
    cfg, betas, counts = sweep
    oracle = expected_errors(cfg, kind, betas)
    z = [(e - mu) / math.sqrt(var) for e, (mu, var, _) in zip(counts[kind], oracle)]
    assert max(map(abs, z)) < 4.0, z
    pooled = ((sum(counts[kind]) - sum(mu for mu, _, _ in oracle))
              / math.sqrt(sum(var for _, var, _ in oracle)))
    assert abs(pooled) < 4.0, pooled
    if kind == "none":
        assert all(np.all(p == 0.5) for _, _, p in oracle)
    else:  # the points span the curve, so the check sees both noises at work
        assert oracle[0][0] > 0.2 * cfg.n_symbols and oracle[-1][0] < 0.01 * cfg.n_symbols
