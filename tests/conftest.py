import time

import numpy as np
import pytest

from cwcancel import RelayParams, synthesis
from cwcancel.lifting import LiftedPlant, PlantBlocks, lift, partition
from cwcancel.lti import StateSpace, bilinear_to_continuous, discretize_zoh
from cwcancel.plant import assemble_loop, carrier_rotation
from cwcancel.synthesis import Probe, _solve_scattered, bisect_gamma


@pytest.fixture(scope="session")
def default_params():
    return RelayParams()


@pytest.fixture(scope="session")
def default_lifted(default_params):
    return lift(default_params)


@pytest.fixture(scope="session")
def design_run(default_lifted):
    """One full synthesis on the simulation defaults, with its wall time."""
    t0 = time.perf_counter()
    result = bisect_gamma(default_lifted, tol=1e-3)
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="session")
def designed_controller(design_run):
    return design_run[0].controller


def fast_step_realization(params):
    """One fast step of the loop with the coupling path closed by a shift register.

    State is (core states, register r_1 .. r_d) where r_j holds the relay
    output t from j fast steps ago, and the coupling input is
    c = coupling @ r_d with coupling = alpha * A_L.  The result maps
    (w: 2, u_hold: 2), held over the step, to the fast samples of
    (z: 2, y_presample: 2) at step h/N.  This is the paper's construction,
    kept as the oracle for ``lift``.
    """
    core = assemble_loop(params)
    n, d = core.n_states, params.delay_fast_steps()
    coupling = params.coupling_gain * carrier_rotation(params.carrier_hz, params.delay_seconds)
    # Like w and u_hold, the delayed coupling value c is held over each step.
    fast = discretize_zoh(core, params.sampling_period / params.fsfh_ratio)

    nx = n + 2 * d
    A = np.zeros((nx, nx))
    B = np.zeros((nx, 4))
    C = np.zeros((4, nx))
    A[:n, :n] = fast.A
    B[:n] = fast.B[:, 0:4]
    C[:, :n] = core.C[0:4]

    # RelayParams rejects a nonzero coupling gain without delay, so d = 0
    # means the coupling path is absent.
    if d >= 1:
        oldest = slice(n + 2 * (d - 1), nx)
        A[:n, oldest] += fast.B[:, 4:6] @ coupling
        C[2:4, oldest] += core.D[2:4, 4:6] @ coupling
        A[n:n + 2, :n] = core.C[4:6]
        B[n:n + 2, 2:4] = core.D[4:6, 2:4]
        for j in range(1, d):
            A[n + 2 * j:n + 2 * j + 2, n + 2 * (j - 1):n + 2 * j] = np.eye(2)

    return StateSpace(A, B, C, core.D[0:4, 0:4], dt=fast.dt)


def shift_register_lift(params):
    """N fast steps of :func:`fast_step_realization` stacked into one slow step."""
    N = params.fsfh_ratio
    Phi, Gw, Gu, Cz, Cy, Dzw, Dzu, Dyw, Dyu = partition(fast_step_realization(params), 2, 2)
    nx = Phi.shape[0]

    # Affine propagation: columns track (xi_0, w_0..w_{N-1}, u).
    ncols = nx + 2 * N + 2
    M = np.eye(nx, ncols)
    u_cols = slice(nx + 2 * N, ncols)

    # Output rows z_0..z_{N-1}, then y (the sample at fast index 0).
    out = np.zeros((2 * N + 2, ncols))
    for j in range(N):
        w_cols = slice(nx + 2 * j, nx + 2 * j + 2)
        rows = slice(2 * j, 2 * j + 2)
        out[rows, :] = Cz @ M
        out[rows, w_cols] += Dzw
        out[rows, u_cols] += Dzu
        M = Phi @ M
        M[:, w_cols] += Gw
        M[:, u_cols] += Gu
    out[2 * N:, :nx] = Cy
    out[2 * N:, nx:nx + 2] = Dyw
    out[2 * N:, u_cols] = Dyu

    G = StateSpace(M[:, :nx], M[:, nx:], out[:, :nx], out[:, nx:], dt=params.sampling_period)
    return LiftedPlant(G=G, n_w=2 * N, n_u=2, n_z=2 * N, n_y=2)


def _inv_sqrt_psd(M):
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    assert w.min() > 0.0, "scattering transform lost definiteness"
    return (V * (1.0 / np.sqrt(w))) @ V.T


def absorb_w_feedthrough(p):
    """Exact constant scattering wrap of the (w, z) channels zeroing D11,
    for sigma_max(D11) < 1, with the full matrices of D11."""
    N = p.D11
    Tn = N.T @ np.linalg.inv(np.eye(N.shape[0]) - N @ N.T)
    Sw = _inv_sqrt_psd(np.eye(N.shape[1]) - N.T @ N)
    Sz = _inv_sqrt_psd(np.eye(N.shape[0]) - N @ N.T)
    return PlantBlocks(
        A=p.A + p.B1 @ Tn @ p.C1,
        B1=p.B1 @ Sw,
        B2=p.B2 + p.B1 @ Tn @ p.D12,
        C1=Sz @ p.C1,
        C2=p.C2 + p.D21 @ Tn @ p.C1,
        D11=np.zeros_like(p.D11),
        D12=Sz @ p.D12,
        D21=p.D21 @ Sw,
        D22=p.D22 + p.D21 @ Tn @ p.D12,
    )


def probe(Gl, gamma):
    """``bisect_gamma``'s probe record at level gamma, on Gl mapped and rotated for it alone."""
    return synthesis._probe(Gl, *synthesis._rotated_blocks(Gl), gamma)


def scattering_probe(Gl, gamma):
    """:func:`probe` by the per-probe route, the oracle for the rotated one:
    the bilinear map, the D11 test on an SVD of D11/gamma and the scattering
    of the whole D11/gamma at every gamma, then the same Riccati and
    closed-loop steps."""
    G = Gl.G
    p = partition(bilinear_to_continuous(G, 2.0 / G.dt), Gl.n_w, Gl.n_z)
    p = p._replace(C1=p.C1 / gamma, D11=p.D11 / gamma, D12=p.D12 / gamma)
    s_max = np.linalg.svd(p.D11, compute_uv=False)[0]
    if s_max >= 1.0 - 1e-9:
        return Probe(float(gamma), None, "d11", f"sigma_max(D11)/gamma = {s_max:.6f} >= 1", None)
    return _solve_scattered(Gl, absorb_w_feedthrough(p), gamma)


def plain_bisection(Gl, tol):
    """(lo, hi, trace, controller): gamma_min's bracket by plain bisection,
    the oracle for ``bisect_gamma``'s search.  Levels double from 1 until one
    is feasible; each later probe is the midpoint of the bracket, until
    (hi - lo)/lo <= tol, hi < 1e-12 or the midpoint is not strictly inside.
    No certificate is taken."""
    p, s = synthesis._rotated_blocks(Gl)
    trace = []
    lo, hi, best = 0.0, 1.0, None
    while best is None or (hi >= 1e-12 and lo < 0.5 * (hi + lo) < hi
                           and not (lo > 0.0 and (hi - lo) / lo <= tol)):
        gamma = hi if best is None else 0.5 * (hi + lo)
        res = synthesis._probe(Gl, p, s, gamma).controller
        trace.append((gamma, res is not None))
        if res is not None:
            hi, best = gamma, res
        elif best is not None:
            lo = gamma
        else:
            assert len(trace) <= synthesis.MAX_DOUBLINGS, "no feasible level"
            lo, hi = gamma, 2.0 * gamma
    return lo, hi, trace, best


# The relay receiver as the tests define it, apart from the package: a
# window starts one fast sample after its symbol's edge, and the final
# window repeats the stream's last sample in the slot that the stream
# lacks.
RECEIVER_OFFSET = 1


def relay_window_sums(y, sps):
    """Window sums (windows, 2, ...) of per-sample waveforms y (n, 2, ...)
    at the relay receiver's alignment, n a multiple of sps."""
    y = np.asarray(y)
    stream = np.concatenate([y[RECEIVER_OFFSET:], np.repeat(y[-1:], RECEIVER_OFFSET, axis=0)])
    return stream.reshape(-1, sps, *y.shape[1:]).sum(axis=1)


def simulate_point(cfg, tx, kind, beta, point):
    """``simulate_chain`` run on sweep point ``point``'s streams instead of
    point 0's: the whole-waveform run of that point."""
    from cwcancel import simulate

    streams = simulate.point_streams
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "point_streams", lambda seed, i: streams(seed, i + point))
        return simulate.simulate_chain(cfg, tx, kind, beta)
