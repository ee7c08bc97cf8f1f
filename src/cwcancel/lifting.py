"""Fast-sample/fast-hold lifting of the hybrid relay loop.

:func:`lift` reads the loop from :class:`plant.RelayParams`, which has
already checked it.  The continuous core is discretized at the fast period
h/N with its inputs (w, u_hold, c) held over each fast step, and N fast
steps are stacked into one slow step.  The result is a single-rate discrete
generalized plant the synthesis machinery can consume: inputs (w lifted:
2N, u: 2), outputs (z lifted: 2N, y: 2).  The measurement y is the
antialias output sampled at the start of each slow period; the control u
is held over the whole period.  The chain simulator closes the same lift
of the loop, built with W = I, around K(z).

The coupling path t -> c is closed at the slow rate.  Over a slow period
the relay output t = P u_hold is a fixed linear map of (x_P, u) at the
period's start, so a register of those pairs for the last ceil(d/N)
periods holds all the delay needs: nW + nF + nP + ceil(d/N) * (nP + 2)
lifted states, 8 at the defaults for every N.  This is the same operator as
the paper's fast-rate shift register of t (2d states, 4 + 2N at the
defaults); for a delay of whole periods it is the smaller register unless
N < (nP + 2) / 2, e.g. N = 1.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .lti import StateSpace, discretize_zoh, step_matches
from .plant import RelayParams, assemble_loop, carrier_rotation

__all__ = [
    "LiftedPlant",
    "PlantBlocks",
    "InterconnectionError",
    "StepMismatchError",
    "WellPosednessError",
    "lift",
    "closed_loop",
    "partition",
]


class InterconnectionError(ValueError):
    """Controller and plant I/O dimensions do not match."""


class StepMismatchError(InterconnectionError):
    """A dynamic controller's step differs from the plant's sampling period."""


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


def lift(params: RelayParams) -> LiftedPlant:
    """Stack N fast steps of the relay loop into one slow-rate generalized plant.

    Fast step j holds c_j = coupling @ t_{j-d} like w and u, with coupling
    alpha * A_L.  When t_{j-d} is i = ceil((d-j)/N) periods back, it is read
    from register slot i, which holds that period's (x_P, u); the state is
    (core, slot 1 .. ceil(d/N)).
    """
    core, d, N = assemble_loop(params), params.delay_fast_steps(), params.fsfh_ratio
    coupling = params.coupling_gain * carrier_rotation(params.carrier_hz, params.delay_seconds)
    fast = discretize_zoh(core, params.sampling_period / N)
    n = core.n_states
    nP = params.post_filter.n_states
    sP = np.arange(n - nP, n)  # P's states close the core's (x_W, x_F, x_P) layout
    m = nP + 2  # one slot: (x_P, u)
    R = -(-d // N)  # slots: the periods the delay reaches back
    nx = n + R * m

    # Affine propagation: columns track (xi_0, w_0..w_{N-1}, u).
    ncols = nx + 2 * N + 2
    u_cols = slice(nx + 2 * N, ncols)
    # reads[i]: the columns of (x_P, u) i periods back, this period's first.
    reads = [np.r_[sP, u_cols]] + [np.arange(n + i * m, n + i * m + m) for i in range(R)]

    # taps[k] maps a period's (x_P, u) to t at its fast step k.
    E = np.eye(m)
    E[:nP] = np.hstack([fast.A[np.ix_(sP, sP)], fast.B[sP, 2:4]])
    taps = [np.hstack([core.C[4:6, sP], core.D[4:6, 2:4]])]
    for _ in range(1, N):
        taps.append(taps[-1] @ E)

    M = np.eye(n, ncols)
    # Output rows z_0..z_{N-1}, then y (the sample at fast index 0).
    out = np.zeros((2 * N + 2, ncols))
    for j in range(N):
        i = -(-(d - j) // N)  # t_{j-d} is i periods back
        c = np.zeros((2, ncols))
        c[:, reads[i]] = coupling @ taps[j - d + i * N]
        w_cols = slice(nx + 2 * j, nx + 2 * j + 2)
        zy = core.C[0:4] @ M + core.D[0:4, 4:6] @ c
        zy[:, w_cols] += core.D[0:4, 0:2]
        zy[:, u_cols] += core.D[0:4, 2:4]
        out[2 * j:2 * j + 2] = zy[:2]
        if j == 0:
            out[2 * N:] = zy[2:]
        M = fast.A @ M + fast.B[:, 4:6] @ c
        M[:, w_cols] += fast.B[:, 0:2]
        M[:, u_cols] += fast.B[:, 2:4]

    # Slot 1 takes this period's (x_P, u), slot i takes slot i - 1.
    A = np.vstack([M, np.eye(ncols)[np.concatenate(reads)[:R * m]]])
    G = StateSpace(A[:, :nx], A[:, nx:], out[:, :nx], out[:, nx:], dt=params.sampling_period)
    return LiftedPlant(G=G, n_w=2 * N, n_u=2, n_z=2 * N, n_y=2)


def closed_loop(Gl: LiftedPlant, K: StateSpace) -> StateSpace:
    """Lower linear-fractional interconnection of the lifted plant with K.

    Returns the lifted w -> z closed-loop system at the slow rate.  K must
    be 2x2 and, unless it is a static gain, discrete at the plant's step:
    this is the one place a controller's step is checked, and a mismatch
    raises :class:`StepMismatchError`.
    """
    G = Gl.G
    nw, nu, nz, ny = Gl.n_w, Gl.n_u, Gl.n_z, Gl.n_y
    if K.n_inputs != ny or K.n_outputs != nu:
        raise InterconnectionError(
            f"controller is {K.n_outputs}x{K.n_inputs}, plant wants {nu}x{ny}"
        )
    if not (step_matches(K.dt, G.dt) if K.is_discrete else K.n_states == 0):
        raise StepMismatchError(f"controller step {K.dt} does not match the plant's "
                                f"sampling period {G.dt}")

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
