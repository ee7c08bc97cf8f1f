"""Continuous-time relay-loop model used for canceler design.

The loop couples four pieces: the input-shaping filter W that defines the
admissible class of received baseband signals, the antialias filter F in
front of the sampler, the post filter P behind the hold, and the coupling
path alpha * e^{-Ls} * A_L from the relay output back to the receive side.
Baseband signals are I/Q pairs, so scalar filter prototypes are promoted to
2x2 block form; the carrier rotation A_L mixes the two components.

The delay has no finite-dimensional continuous realization, so the coupling
path is stored as an annotation (gain, rotation, entry/readout matrices) and
realized as a fast-rate shift register during FSFH lifting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import StateSpace

__all__ = [
    "ModelError",
    "RepresentabilityError",
    "RelayParams",
    "HybridPlant",
    "carrier_rotation",
    "first_order_lowpass",
    "promote_iq",
    "build_hybrid_plant",
    "default_relay_params",
]


class ModelError(ValueError):
    """The relay model violates a structural requirement."""


class RepresentabilityError(ModelError):
    """The coupling delay is not an integer number of fast steps."""


def carrier_rotation(carrier_hz: float, delay_seconds: float) -> np.ndarray:
    """2x2 rotation applied to the I/Q pair along the coupling path.

    The rotation angle is -2*pi*f*L, the carrier phase accumulated over the
    coupling delay.  The phase f*L is reduced modulo one full turn before
    scaling by 2*pi, so large integer carrier cycles map to the identity
    exactly instead of accumulating floating-point slop.
    """
    turns = math.fmod(carrier_hz * delay_seconds, 1.0)
    theta = -2.0 * np.pi * turns
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def first_order_lowpass(time_constant: float) -> StateSpace:
    """Scalar 1/(tau*s + 1) as a minimal continuous realization."""
    if not time_constant > 0:
        raise ValueError("time constant must be positive")
    a = -1.0 / time_constant
    return StateSpace([[a]], [[-a]], [[1.0]], [[0.0]])


def promote_iq(sys: StateSpace) -> StateSpace:
    """Promote a scalar (1x1) system to the I/Q pair: kron with I2.

    Already-2x2 systems pass through unchanged.
    """
    if sys.n_inputs == 2 and sys.n_outputs == 2:
        return sys
    if sys.n_inputs != 1 or sys.n_outputs != 1:
        raise ModelError("filter prototypes must be 1x1 (scalar) or 2x2 (I/Q)")
    I2 = np.eye(2)
    return StateSpace(
        np.kron(sys.A, I2), np.kron(sys.B, I2), np.kron(sys.C, I2), np.kron(sys.D, I2), sys.dt
    )


def identity_filter() -> StateSpace:
    """Zero-state I/Q pass-through (used for F(s) = I)."""
    return StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))


@dataclass
class RelayParams:
    """Physical parameters of the relay coupling loop.

    ``input_shaping`` (W), ``antialias`` (F) and ``post_filter`` (P) are
    continuous-time I/Q systems; pass scalar prototypes through
    :func:`promote_iq` first or rely on :func:`build_hybrid_plant` to do it.
    """

    sampling_period: float = 1.0
    fsfh_ratio: int = 16
    delay_seconds: float = 1.0
    coupling_gain: float = 0.15
    carrier_hz: float = 10000.0
    input_shaping: StateSpace | None = None
    antialias: StateSpace | None = None
    post_filter: StateSpace | None = None

    def __post_init__(self):
        if not self.sampling_period > 0:
            raise ModelError("sampling_period must be positive")
        if int(self.fsfh_ratio) != self.fsfh_ratio or self.fsfh_ratio < 1:
            raise ModelError("fsfh_ratio must be a positive integer")
        self.fsfh_ratio = int(self.fsfh_ratio)
        if self.delay_seconds < 0:
            raise ModelError("delay_seconds must be nonnegative")
        if self.coupling_gain < 0:
            raise ModelError("coupling_gain must be nonnegative")
        if self.input_shaping is None:
            self.input_shaping = first_order_lowpass(2.0)
        if self.post_filter is None:
            self.post_filter = first_order_lowpass(0.001)

    def delay_fast_steps(self) -> int:
        """Coupling delay expressed in fast steps; must be an integer."""
        d = self.delay_seconds * self.fsfh_ratio / self.sampling_period
        if abs(d - round(d)) > 1e-9 * max(1.0, abs(d)):
            raise RepresentabilityError(
                f"delay {self.delay_seconds}s is {d} fast steps; "
                "delay * N / h must be an integer"
            )
        return int(round(d))


@dataclass
class HybridPlant:
    """Continuous core of the design loop plus the coupling annotation.

    ``ct_core`` maps (w: 2, u_hold: 2) to (z: 2, y_presample: 2).  The
    coupling feedback u -> alpha * A_L * delay -> receive side is NOT folded
    into ct_core; instead ``coupling_entry``/``coupling_feedthrough`` say
    where the delayed signal enters (the antialias input) and
    ``output_tap``/``output_tap_feedthrough`` read the transmitted baseband
    signal u that gets delayed.
    """

    ct_core: StateSpace
    coupling_entry: np.ndarray        # n x 2, drives antialias states
    coupling_feedthrough: np.ndarray  # 2 x 2, direct term into y_presample
    output_tap: np.ndarray            # 2 x n, u as a state readout
    output_tap_feedthrough: np.ndarray  # 2 x 2, u_hold feedthrough into u
    rotation: np.ndarray
    coupling_gain: float
    delay_fast_steps: int
    sample_period: float
    fsfh_ratio: int
    params: RelayParams


def _require_stable_ct(sys: StateSpace, name: str) -> None:
    if sys.n_states and np.linalg.eigvals(sys.A).real.max() >= 0.0:
        raise ModelError(f"{name} must be a stable continuous-time system")


def build_hybrid_plant(params: RelayParams) -> HybridPlant:
    """Assemble the design-loop core around W, F and P.

    State order is (x_W, x_F, x_P).  Outputs: z = W w - u (the cancelation
    error) and y_presample = F (W w + coupling), with the coupling term left
    symbolic for the lifter.  The design model is noise-free.
    """
    W = promote_iq(params.input_shaping)
    F = promote_iq(params.antialias) if params.antialias is not None else identity_filter()
    P = promote_iq(params.post_filter)
    for sys, name in ((W, "input_shaping"), (F, "antialias"), (P, "post_filter")):
        if sys.is_discrete:
            raise ModelError(f"{name} must be continuous-time")
    if np.any(W.D != 0.0):
        raise ModelError("input_shaping must be strictly proper (D = 0)")
    _require_stable_ct(W, "input_shaping")
    _require_stable_ct(F, "antialias")
    _require_stable_ct(P, "post_filter")
    d = params.delay_fast_steps()

    nW, nF, nP = W.n_states, F.n_states, P.n_states
    n = nW + nF + nP
    sW = slice(0, nW)
    sF = slice(nW, nW + nF)
    sP = slice(nW + nF, n)

    A = np.zeros((n, n))
    A[sW, sW] = W.A
    A[sF, sF] = F.A
    A[sF, sW] = F.B @ W.C
    A[sP, sP] = P.A

    B = np.zeros((n, 4))  # columns: w (2), u_hold (2)
    B[sW, 0:2] = W.B
    B[sP, 2:4] = P.B

    C = np.zeros((4, n))  # rows: z (2), y_presample (2)
    C[0:2, sW] = W.C
    C[0:2, sP] = -P.C
    C[2:4, sW] = F.D @ W.C
    C[2:4, sF] = F.C

    D = np.zeros((4, 4))
    D[0:2, 2:4] = -P.D  # z = Ww - u picks up -D_P u_hold when P is not strictly proper

    coupling_entry = np.zeros((n, 2))
    coupling_entry[sF, :] = F.B
    coupling_feedthrough = F.D.copy()

    output_tap = np.zeros((2, n))
    output_tap[:, sP] = P.C
    output_tap_feedthrough = P.D.copy()

    return HybridPlant(
        ct_core=StateSpace(A, B, C, D),
        coupling_entry=coupling_entry,
        coupling_feedthrough=coupling_feedthrough,
        output_tap=output_tap,
        output_tap_feedthrough=output_tap_feedthrough,
        rotation=carrier_rotation(params.carrier_hz, params.delay_seconds),
        coupling_gain=params.coupling_gain,
        delay_fast_steps=d,
        sample_period=params.sampling_period,
        fsfh_ratio=params.fsfh_ratio,
        params=params,
    )


def default_relay_params() -> RelayParams:
    """Simulation defaults: h=1 s, N=16, L=1 s, loop gain 0.15, f=10 kHz,
    F = I, P = first-order low-pass with 1 ms time constant, W = first-order
    low-pass with 2 s time constant."""
    return RelayParams(
        sampling_period=1.0,
        fsfh_ratio=16,
        delay_seconds=1.0,
        coupling_gain=0.15,
        carrier_hz=10000.0,
        input_shaping=first_order_lowpass(2.0),
        antialias=None,
        post_filter=first_order_lowpass(0.001),
    )
