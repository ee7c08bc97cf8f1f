"""Acceptance suite: one test per release criterion, run with -s to see the
per-criterion PASS/FAIL lines.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from cwcancel.ber import default_beta_grid, demodulate, modulate, q_function, sweep_beta
from cwcancel.hnorm import hinf_norm_discrete
from cwcancel.lifting import closed_loop, lift
from cwcancel.lti import StateSpace, discretize_zoh, spectral_radius
from cwcancel.plant import RelayParams, carrier_rotation
from cwcancel.riccati import solve_care
from cwcancel.simulate import SimConfig, simulate_chain


def report(number: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def sweep_results(default_params, designed_controller):
    """Timed 12-point sweep at 10000 symbols for all three canceler kinds."""
    cfg = SimConfig(params=default_params, controller=designed_controller, seed=20260808,
                    symbol_period=2.0, n_symbols=10000)
    betas = default_beta_grid(cfg, n_points=12)
    t0 = time.perf_counter()
    curves = sweep_beta(cfg, betas, ["none", "designed", "perfect"])
    elapsed = time.perf_counter() - t0
    return {c.canceler_kind: c for c in curves}, elapsed


def _widths(p):
    return p.ci95[1] - p.ci95[0]


def _overlap(a, b):
    return not (a.ci95[0] > b.ci95[1] or b.ci95[0] > a.ci95[1])


def test_criterion_1_synthesis_on_defaults(default_lifted, design_run):
    result, elapsed = design_run
    ctrl = result.controller
    radius = spectral_radius(closed_loop(default_lifted, ctrl.K).A)
    ok = (radius < 1.0
          and ctrl.gamma_certified <= result.gamma_min * 1.001
          and elapsed < 60.0)
    report(1, ok, "synthesis on simulation defaults: "
           f"radius={radius:.6f}, gamma_min={result.gamma_min:.6f}, "
           f"certified={ctrl.gamma_certified:.6f}, {elapsed:.1f}s (< 60 s)")


def test_criterion_2_designed_tracks_perfect(sweep_results):
    curves, elapsed = sweep_results
    des, per = curves["designed"].points, curves["perfect"].points
    ok = elapsed < 300.0
    detail = []
    for d, p in zip(des, per):
        ratio = d.ber / p.ber if p.ber > 0 else (1.0 if d.ber == 0 else math.inf)
        point_ok = _overlap(d, p) or ratio <= 2.0
        ok = ok and point_ok
        detail.append(f"{d.beta:.2e}:{'y' if point_ok else 'N'}")
    report(2, ok, "designed vs perfect CI-overlap-or-ratio<=2 at every beta "
           f"({elapsed:.0f}s for the sweep; {' '.join(detail)})")


def test_criterion_3_ber_monotone_in_beta(sweep_results):
    curves, _ = sweep_results
    ok = True
    for kind in ("designed", "perfect"):
        pts = curves[kind].points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                slack = _widths(pts[i]) + _widths(pts[j])
                if pts[i].ber < pts[j].ber - slack:
                    ok = False
    report(3, ok, "each curve is monotone nonincreasing in beta up to CI slack")


def test_criterion_4_canceler_value(sweep_results):
    curves, _ = sweep_results
    none, des, per = (curves[k].points for k in ("none", "designed", "perfect"))
    checked = 0
    ok = True
    for n, d, p in zip(none, des, per):
        if p.ber <= 0.05:
            checked += 1
            if not (n.ber - d.ber > _widths(n) + _widths(d)):
                ok = False
    ok = ok and checked > 0
    report(4, ok, f"no-canceler BER exceeds designed by more than the CI widths "
           f"at the {checked} betas with perfect BER <= 0.05")


def test_criterion_5_numerical_core():
    rng = np.random.default_rng(2026)
    care_ok = True
    for _ in range(100):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        Qr = rng.standard_normal((n, n))
        Rr = rng.standard_normal((m, m))
        Q, R = Qr.T @ Qr, Rr.T @ Rr + np.eye(m)
        X = solve_care(A, B, Q, R)
        res = A.T @ X + X @ A - X @ B @ np.linalg.solve(R, B.T) @ X + Q
        care_ok &= np.linalg.norm(res, "fro") <= 1e-8 * (1.0 + np.linalg.norm(X, "fro"))
        care_ok &= np.linalg.eigvals(A - B @ np.linalg.solve(R, B.T @ X)).real.max() < 0

    norm_ok = True
    for _ in range(50):
        n, p, m = int(rng.integers(1, 11)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        lam = 0.92 * (2.0 * rng.random(n) - 1.0)
        T = rng.standard_normal((n, n)) + np.eye(n)
        A = np.linalg.solve(T, np.diag(lam)) @ T
        sys = StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                         rng.standard_normal((p, m)), dt=1.0)
        mine = hinf_norm_discrete(sys, tol=1e-6)
        lam_e, V = np.linalg.eig(sys.A)
        CV, VB = sys.C @ V, np.linalg.solve(V, sys.B)
        z = np.exp(1j * np.linspace(0.0, np.pi, 2 ** 16))
        ref = 0.0
        for chunk in np.array_split(np.arange(z.size), 32):
            H = np.einsum("pi,fi,iq->fpq", CV, 1.0 / (z[chunk, None] - lam_e[None, :]), VB) + sys.D
            ref = max(ref, np.linalg.svd(H, compute_uv=False)[:, 0].max())
        norm_ok &= abs(mine - ref) <= 1e-4 * ref

    zd = discretize_zoh(StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]]), 1.0)
    zoh_ok = abs(zd.A[0, 0] - 1.0) <= 1e-12 and abs(zd.B[0, 0] - 1.0) <= 1e-12
    pd = discretize_zoh(StateSpace([[-1000.0]], [[1000.0]], [[1.0]], [[0.0]]), 1.0 / 16)
    zoh_ok &= abs(pd.A[0, 0] - math.exp(-62.5)) <= 1e-12
    zoh_ok &= abs(pd.B[0, 0] - (1.0 - math.exp(-62.5))) <= 1e-12
    wd = discretize_zoh(StateSpace([[-0.5]], [[0.5]], [[1.0]], [[0.0]]), 1.0 / 16)
    zoh_ok &= abs(wd.A[0, 0] - math.exp(-1.0 / 32)) <= 1e-12
    zoh_ok &= abs(wd.B[0, 0] - (1.0 - math.exp(-1.0 / 32))) <= 1e-12

    ok = bool(care_ok and norm_ok and zoh_ok)
    report(5, ok, f"numerical core oracles (CARE residuals: {bool(care_ok)}, "
           f"norm vs 2^16 grid: {bool(norm_ok)}, ZOH closed forms: {zoh_ok})")


def test_criterion_6_fsfh_convergence():
    # Open-loop FSFH values: coupling off, no controller.  Note the ZOH
    # discretization of 1/(2s+1) keeps its DC peak exactly, so the true value
    # is 1 at every N and the measured gaps sit at rounding level.
    norms = {}
    for N in (8, 16, 32):
        lifted = lift(RelayParams(fsfh_ratio=N, coupling_gain=0.0))
        G = lifted.G
        block = StateSpace(G.A, G.B[:, :lifted.n_w], G.C[:lifted.n_z, :],
                           G.D[:lifted.n_z, :lifted.n_w], dt=G.dt)
        norms[N] = hinf_norm_discrete(block, tol=1e-8)
    approaches = all(abs(norms[N] - 1.0) <= 1e-9 for N in norms)
    gap1 = abs(norms[16] - norms[8])
    gap2 = abs(norms[32] - norms[16])
    ok = approaches and gap2 < gap1
    report(6, ok, "FSFH values approach the input-shaping peak 1 with strictly "
           f"shrinking gaps (norms={ {N: f'{v:.15f}' for N, v in norms.items()} }, "
           f"gaps {gap1:.2e} -> {gap2:.2e}; the true value is exactly 1 at every N "
           "because the hold discretization preserves the DC peak of 1/(2s+1), "
           "so the gap comparison sits at rounding level)")


def test_criterion_7_awgn_calibration(default_params):
    # Relay bypassed: the modulated waveform plus white Gaussian noise goes
    # straight to the detector.
    chan = SimConfig(params=default_params, signal_dbm=0.0, symbol_period=2.0, n_symbols=10000)
    sps = chan.sps
    rng = np.random.default_rng(20260808)
    ok = True
    detail = []
    for ebn0_db in (0.0, 2.0, 4.0, 6.0):
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        bits = rng.integers(0, 2, size=chan.n_symbols)
        wave = modulate(bits, chan)
        sigma = math.sqrt(sps / (2.0 * ebn0))
        noisy = wave + sigma * rng.standard_normal(wave.shape)
        ber = float(np.mean(demodulate(noisy, chan, [1.0, 0.0]) != bits))
        p = q_function(math.sqrt(2.0 * ebn0))
        tol = 3.0 * math.sqrt(p * (1.0 - p) / chan.n_symbols)
        ok = ok and abs(ber - p) <= tol
        detail.append(f"{ebn0_db:.0f}dB:{ber:.4f}/{p:.4f}")
    report(7, ok, f"BER matches Q(sqrt(2 Eb/N0)) within 3 sigma ({', '.join(detail)})")


def test_criterion_8_time_domain_certificate(default_params, designed_controller):
    from scipy.signal import lfilter

    bound = designed_controller.gamma_certified * 1.05
    N = default_params.fsfh_ratio
    tau = default_params.sampling_period / N
    wd = discretize_zoh(default_params.input_shaping, tau)
    b = [0.0, wd.C[0, 0] * wd.B[0, 0]]
    a = [1.0, -wd.A[0, 0]]
    cfg = SimConfig(params=default_params, controller=designed_controller, seed=0,
                    noise_rs_dbm=-math.inf, noise_t_dbm=-math.inf)
    worst = 0.0
    n_fast = N * 10_000
    for trial in range(20):
        rng = np.random.default_rng(9000 + trial)
        w = rng.standard_normal((n_fast, 2))
        tx = np.column_stack([lfilter(b, a, w[:, 0]), lfilter(b, a, w[:, 1])])
        out = simulate_chain(cfg, tx, "designed", 1.0)
        worst = max(worst, np.linalg.norm(out.z) / np.linalg.norm(w))
    ok = worst <= bound
    report(8, ok, f"time-domain ||z||/||w|| over 20 runs: worst {worst:.4f} <= {bound:.4f}")


def test_criterion_9_rotation_identity():
    R = carrier_rotation(10000.0, 1.0)
    err = np.abs(R - np.eye(2)).max()
    report(9, err <= 1e-12, f"carrier rotation at f=10000, L=1 is identity (err {err:.2e})")
