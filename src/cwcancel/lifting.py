"""Fast-sample/fast-hold lifting of the hybrid relay loop.

The continuous core is discretized at the fast period h/N with its inputs
(w, u_hold, c) held over each fast step.  Closing the coupling path t -> c
through a fast-rate shift register (2 states per fast step of delay) gives
one discrete fast-step system (w, u_hold) -> (z, y).  N fast steps are
stacked into one slow step, so the result is a single-rate discrete
generalized plant the synthesis machinery can consume: inputs
(w lifted: 2N, u: 2), outputs (z lifted: 2N, y: 2).  The measurement y is
the antialias output sampled at the start of each slow period; the control
u is held over the whole period.  The chain simulator closes the same lift
of the loop, built with W = I, around K(z).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hnorm
from .lti import StateSpace, discretize_zoh, step_matches
from .plant import HybridPlant

__all__ = [
    "LiftedPlant",
    "PlantBlocks",
    "InterconnectionError",
    "WellPosednessError",
    "lift",
    "closed_loop",
    "fast_step_realization",
    "partition",
    "COARSE_POINTS",
]

COARSE_POINTS = 33  # frequencies theta in [0, pi] of each gamma probe's closed-loop gain check


class InterconnectionError(ValueError):
    """Controller and plant I/O dimensions do not match."""


class WellPosednessError(ValueError):
    """The feedback interconnection has a singular algebraic loop."""


@dataclass
class LiftedPlant:
    """Discrete generalized plant G: (w, u) -> (z, y), produced by FSFH lifting."""

    G: StateSpace
    n_w: int
    n_u: int
    n_z: int
    n_y: int

    @property
    def n_states(self) -> int:
        return self.G.n_states

    @cached_property
    def coarse_response(self) -> np.ndarray:
        """G(e^{j theta}) at COARSE_POINTS evenly spaced theta in [0, pi],
        shape (COARSE_POINTS, n_z + n_y, n_w + n_u).  Computed on first use
        and kept: G is the same at every gamma probe."""
        return hnorm.frequency_response(self.G, np.linspace(0.0, np.pi, COARSE_POINTS))


# State-space blocks of a generalized plant split at (w, u) -> (z, y).
PlantBlocks = namedtuple("PlantBlocks", "A B1 B2 C1 C2 D11 D12 D21 D22")


def partition(G: StateSpace, n_w: int, n_z: int) -> PlantBlocks:
    """Split G into the blocks of the lower LFT layout (Zhou, Doyle & Glover,
    1996): the first n_w inputs are w, the rest u; the first n_z outputs are
    z, the rest y."""
    return PlantBlocks(
        G.A, G.B[:, :n_w], G.B[:, n_w:], G.C[:n_z, :], G.C[n_z:, :],
        G.D[:n_z, :n_w], G.D[:n_z, n_w:], G.D[n_z:, :n_w], G.D[n_z:, n_w:],
    )


def fast_step_realization(plant: HybridPlant) -> StateSpace:
    """One fast step of the loop with the coupling path closed.

    State is (core states, register r_1 .. r_d) where r_j holds the relay
    output t from j fast steps ago, and the coupling input is
    c = coupling @ r_d.  The result maps (w: 2, u_hold: 2), held over the
    step, to the fast samples of (z: 2, y_presample: 2) at step h/N.
    """
    core = plant.ct_core
    n, d = core.n_states, plant.delay_fast_steps
    # Like w and u_hold, the delayed coupling value c is held over each step.
    fast = discretize_zoh(core, plant.params.sampling_period / plant.params.fsfh_ratio)

    nx = n + 2 * d
    A = np.zeros((nx, nx))
    B = np.zeros((nx, 4))
    C = np.zeros((4, nx))
    A[:n, :n] = fast.A
    B[:n] = fast.B[:, 0:4]
    C[:, :n] = core.C[0:4]

    # assemble_loop rejects a nonzero coupling gain without delay, so d = 0
    # means the coupling path is absent.
    if d >= 1:
        oldest = slice(n + 2 * (d - 1), nx)
        A[:n, oldest] += fast.B[:, 4:6] @ plant.coupling
        C[2:4, oldest] += core.D[2:4, 4:6] @ plant.coupling
        A[n:n + 2, :n] = core.C[4:6]
        B[n:n + 2, 2:4] = core.D[4:6, 2:4]
        for j in range(1, d):
            A[n + 2 * j:n + 2 * j + 2, n + 2 * (j - 1):n + 2 * j] = np.eye(2)

    return StateSpace(A, B, C, core.D[0:4, 0:4], dt=fast.dt)


def lift(plant: HybridPlant) -> LiftedPlant:
    """Stack N fast steps of the loop into one slow-rate generalized plant."""
    N = plant.params.fsfh_ratio
    Phi, Gw, Gu, Cz, Cy, Dzw, Dzu, Dyw, Dyu = partition(fast_step_realization(plant), 2, 2)
    nx = Phi.shape[0]

    # Affine propagation: columns track (xi_0, w_0..w_{N-1}, u).
    ncols = nx + 2 * N + 2
    M = np.zeros((nx, ncols))
    M[:, :nx] = np.eye(nx)
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

    G = StateSpace(M[:, :nx], M[:, nx:], out[:, :nx], out[:, nx:], dt=plant.params.sampling_period)
    return LiftedPlant(G=G, n_w=2 * N, n_u=2, n_z=2 * N, n_y=2)


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

    A, B1, B2, C1, C2, D11, D12, D21, D22 = partition(G, nw, nz)
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
