"""Fast-sample/fast-hold lifting of the hybrid relay loop.

The continuous core is discretized at the fast period h/N with the exogenous
input held over each fast step and the error output read at each fast step.
The coupling delay becomes a fast-rate shift register (2 states per fast step
of delay), and N fast steps are stacked into one slow step so the result is a
single-rate discrete generalized plant the synthesis machinery can consume:
inputs (w lifted: 2N, u: 2), outputs (z lifted: 2N, y: 2).  The measurement y
is the antialias output sampled at the start of each slow period; the control
u is held over the whole period.  The chain simulator closes the same lift
of the loop, built with W = I, around K(z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import StateSpace, discretize_zoh, step_matches
from .plant import HybridPlant

__all__ = [
    "LiftedPlant",
    "InterconnectionError",
    "WellPosednessError",
    "lift",
    "closed_loop",
    "fast_step_realization",
]


class InterconnectionError(ValueError):
    """Controller and plant I/O dimensions do not match."""


class WellPosednessError(ValueError):
    """The feedback interconnection has a singular algebraic loop."""


@dataclass
class LiftedPlant:
    """Discrete generalized plant produced by FSFH lifting."""

    G: StateSpace
    n_w: int
    n_u: int
    n_z: int
    n_y: int
    fsfh_ratio: int
    provenance: object  # RelayParams the plant was built from

    @property
    def n_states(self) -> int:
        return self.G.n_states


def fast_step_realization(plant: HybridPlant):
    """One-fast-step recursion matrices of the loop including the delay line.

    State is (core states, register r_1 .. r_d) where r_j holds the relay
    output u from j fast steps ago.  Inputs are (w: 2, u_hold: 2); outputs
    are the fast samples of z and of the pre-sampler signal y.

    Returns (Phi, Gw, Gu, Cz, Dzw, Dzu, Cy, Dyw, Dyu).
    """
    tau = plant.sample_period / plant.fsfh_ratio
    core = plant.ct_core
    n = core.n_states
    d = plant.delay_fast_steps
    aAL = plant.coupling_gain * plant.rotation

    # Discretize with the coupling injection appended as a third input pair;
    # like w, the delayed coupling value is held over each fast step.
    B_ext = np.hstack([core.B, plant.coupling_entry])
    fast = discretize_zoh(StateSpace(core.A, B_ext, core.C, np.zeros((4, 6))), tau)
    Ad = fast.A
    Bd_w, Bd_u, Bd_c = fast.B[:, 0:2], fast.B[:, 2:4], fast.B[:, 4:6]

    Cz_core, Cy_core = core.C[0:2, :], core.C[2:4, :]
    Dzw, Dzu = core.D[0:2, 0:2], core.D[0:2, 2:4]
    Dyw, Dyu = core.D[2:4, 0:2], core.D[2:4, 2:4]
    Dcpl = plant.coupling_feedthrough
    tap, tapD = plant.output_tap, plant.output_tap_feedthrough

    nx = n + 2 * d
    Phi = np.zeros((nx, nx))
    Gw = np.zeros((nx, 2))
    Gu = np.zeros((nx, 2))
    Cz = np.zeros((2, nx))
    Cy = np.zeros((2, nx))

    Phi[:n, :n] = Ad
    Gw[:n] = Bd_w
    Gu[:n] = Bd_u
    Cz[:, :n] = Cz_core
    Cy[:, :n] = Cy_core

    # assemble_loop rejects a nonzero coupling gain without delay, so d = 0
    # means the coupling path is absent.
    if d >= 1:
        oldest = slice(n + 2 * (d - 1), n + 2 * d)
        Phi[:n, oldest] += Bd_c @ aAL
        Cy[:, oldest] += Dcpl @ aAL
        Phi[n:n + 2, :n] = tap
        Gu[n:n + 2] = tapD
        for j in range(1, d):
            Phi[n + 2 * j:n + 2 * j + 2, n + 2 * (j - 1):n + 2 * j] = np.eye(2)

    return Phi, Gw, Gu, Cz, Dzw, Dzu, Cy, Dyw, Dyu


def lift(plant: HybridPlant) -> LiftedPlant:
    """Stack N fast steps of the loop into one slow-rate generalized plant."""
    N = plant.fsfh_ratio
    Phi, Gw, Gu, Cz, Dzw, Dzu, Cy, Dyw, Dyu = fast_step_realization(plant)
    nx = Phi.shape[0]

    # Affine propagation: columns track (xi_0, w_0..w_{N-1}, u).
    ncols = nx + 2 * N + 2
    M = np.zeros((nx, ncols))
    M[:, :nx] = np.eye(nx)
    u_cols = slice(nx + 2 * N, ncols)

    Cz_rows = np.zeros((2 * N, ncols))
    for j in range(N):
        w_cols = slice(nx + 2 * j, nx + 2 * j + 2)
        rows = slice(2 * j, 2 * j + 2)
        Cz_rows[rows, :] = Cz @ M
        Cz_rows[rows, w_cols] += Dzw
        Cz_rows[rows, u_cols] += Dzu
        M = Phi @ M
        M[:, w_cols] += Gw
        M[:, u_cols] += Gu

    y_row = np.zeros((2, ncols))
    y_row[:, :nx] = Cy
    y_row[:, nx:nx + 2] = Dyw
    y_row[:, u_cols] = Dyu

    A = M[:, :nx]
    B = M[:, nx:]
    C = np.vstack([Cz_rows[:, :nx], y_row[:, :nx]])
    D = np.vstack([Cz_rows[:, nx:], y_row[:, nx:]])
    G = StateSpace(A, B, C, D, dt=plant.sample_period)
    return LiftedPlant(
        G=G, n_w=2 * N, n_u=2, n_z=2 * N, n_y=2,
        fsfh_ratio=N, provenance=plant.params,
    )


def closed_loop(Gl: LiftedPlant, K: StateSpace) -> StateSpace:
    """Lower linear-fractional interconnection of the lifted plant with K.

    Returns the lifted w -> z closed-loop system at the slow rate.
    """
    G = Gl.G
    nw, nu, nz, ny = Gl.n_w, Gl.n_u, Gl.n_z, Gl.n_y
    if K.n_inputs != ny or K.n_outputs != nu:
        raise InterconnectionError(
            f"controller is {K.n_outputs}x{K.n_inputs}, plant wants {nu}x{ny}"
        )
    if K.is_discrete and not step_matches(K.dt, G.dt):
        raise InterconnectionError(f"controller step {K.dt} != plant step {G.dt}")

    A, B1, B2 = G.A, G.B[:, :nw], G.B[:, nw:]
    C1, C2 = G.C[:nz, :], G.C[nz:, :]
    D11, D12 = G.D[:nz, :nw], G.D[:nz, nw:]
    D21, D22 = G.D[nz:, :nw], G.D[nz:, nw:]
    Ak, Bk, Ck, Dk = K.A, K.B, K.C, K.D

    M = np.eye(nu) - Dk @ D22
    if abs(np.linalg.det(M)) < 1e-12:
        raise WellPosednessError("algebraic loop: I - Dk D22 is singular")
    Minv = np.linalg.inv(M)
    # u = Minv (Ck xk + Dk C2 x + Dk D21 w)
    Fu_x = Minv @ Dk @ C2
    Fu_k = Minv @ Ck
    Fu_w = Minv @ Dk @ D21
    y_x = C2 + D22 @ Fu_x
    y_k = D22 @ Fu_k
    y_w = D21 + D22 @ Fu_w

    Acl = np.block([
        [A + B2 @ Fu_x, B2 @ Fu_k],
        [Bk @ y_x, Ak + Bk @ y_k],
    ])
    Bcl = np.vstack([B1 + B2 @ Fu_w, Bk @ y_w])
    Ccl = np.hstack([C1 + D12 @ Fu_x, D12 @ Fu_k])
    Dcl = D11 + D12 @ Fu_w
    return StateSpace(Acl, Bcl, Ccl, Dcl, dt=G.dt)
