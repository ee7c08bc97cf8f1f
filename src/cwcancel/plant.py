"""Continuous-time relay-loop model used for canceler design.

The loop couples four pieces: the input-shaping filter W that defines the
admissible class of received baseband signals, the antialias filter F in
front of the sampler, the post filter P behind the hold, and the coupling
path alpha * e^{-Ls} * A_L from the relay output back to the receive side.
Baseband signals are I/Q pairs, so scalar filter prototypes are promoted to
2x2 block form; the carrier rotation A_L mixes the two components.

The delay has no finite-dimensional continuous realization, so the core
leaves the coupling path open: it has a coupling input c (entering where the
delayed echo does, at F's input) and a relay output t (the transmitted
baseband signal).  The lifter closes t -> alpha * A_L * delay -> c with a
slow-rate register of (x_P, u), P's state and the held control.

:class:`RelayParams` is the one checked description of the loop: it stores
the filters in I/Q form and refuses a loop the lifter or the simulator
cannot represent, so :func:`assemble_loop` and :func:`lifting.lift` read it
without checks of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .lti import StateSpace

__all__ = [
    "RelayParams",
    "carrier_rotation",
    "first_order_lowpass",
    "promote_iq",
    "assemble_loop",
]


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
        raise ValueError("filter prototypes must be 1x1 (scalar) or 2x2 (I/Q)")
    I2 = np.eye(2)
    return StateSpace(
        np.kron(sys.A, I2), np.kron(sys.B, I2), np.kron(sys.C, I2), np.kron(sys.D, I2), sys.dt
    )


def identity_filter() -> StateSpace:
    """Zero-state I/Q pass-through (used for F(s) = I)."""
    return StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))


@dataclass
class RelayParams:
    """Physical parameters of the relay coupling loop, checked once.

    ``input_shaping`` (W), ``antialias`` (F) and ``post_filter`` (P) may be
    scalar prototypes or I/Q systems; construction stores each in I/Q form
    (:func:`promote_iq`), with F = None stored as :func:`identity_filter`.
    Every filter must be continuous-time and stable.  W must be strictly
    proper, as the sampled-data problem needs of the path from w to the
    sampler (Chen & Francis, *Optimal Sampled-Data Control Systems*, 1995),
    or exactly the zero-state I/Q pass-through the simulator feeds the
    received signal through.  The delay must be a whole number of fast
    steps, and a nonzero coupling gain needs at least one of them.  A
    ValueError names the first rule broken.
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
        for name in ("sampling_period", "fsfh_ratio", "delay_seconds", "coupling_gain", "carrier_hz"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.sampling_period > 0:
            raise ValueError("sampling_period must be positive")
        if not isinstance(self.fsfh_ratio, Integral) or self.fsfh_ratio < 1:
            raise ValueError("fsfh_ratio must be a positive integer")
        self.fsfh_ratio = int(self.fsfh_ratio)
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be nonnegative")
        if self.coupling_gain < 0:
            raise ValueError("coupling_gain must be nonnegative")
        if self.input_shaping is None:
            self.input_shaping = first_order_lowpass(2.0)
        if self.antialias is None:
            self.antialias = identity_filter()
        if self.post_filter is None:
            self.post_filter = first_order_lowpass(0.001)
        for name in ("input_shaping", "antialias", "post_filter"):
            sys = promote_iq(getattr(self, name))
            if sys.is_discrete:
                raise ValueError(f"{name} must be continuous-time")
            if sys.n_states and np.linalg.eigvals(sys.A).real.max() >= 0.0:
                raise ValueError(f"{name} must be a stable continuous-time system")
            setattr(self, name, sys)
        W = self.input_shaping
        if np.any(W.D != 0.0) and not (W.n_states == 0 and np.array_equal(W.D, np.eye(2))):
            raise ValueError("input_shaping must be strictly proper (D = 0)")
        if self.delay_fast_steps() == 0 and self.coupling_gain != 0.0:
            raise ValueError("delay-free coupling: a nonzero coupling_gain needs delay_seconds > 0")

    def delay_fast_steps(self) -> int:
        """Coupling delay expressed in fast steps; must be an integer."""
        d = self.delay_seconds * self.fsfh_ratio / self.sampling_period
        if not math.isfinite(d) or abs(d - round(d)) > 1e-9 * max(1.0, abs(d)):
            raise ValueError(f"delay {self.delay_seconds}s is {d} fast steps; "
                             "delay * N / h must be an integer")
        return int(round(d))


def assemble_loop(params: RelayParams) -> StateSpace:
    """The relay-loop core around W, F and P, with the coupling path open.

    The core maps (w: 2, u_hold: 2, c: 2) to (z: 2, y_presample: 2, t: 2):
    z = W w - t is the cancelation error, y_presample = F (W w + c) and the
    relay output t = P u_hold, where c is the coupling signal entering at the
    antialias input.  The state order is (x_W, x_F, x_P); t depends only on
    x_P and u_hold, so the lifter closes c[k] = alpha * A_L * t[k - d] with a
    register of (x_P, u) over the last ceil(d/N) periods.  W may have a
    feedthrough: with W = I the exogenous input is the received signal
    itself, which is how the chain simulator uses the loop.
    """
    W, F, P = params.input_shaping, params.antialias, params.post_filter
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

    B = np.zeros((n, 6))  # columns: w, u_hold, c (2 each)
    B[sW, 0:2] = W.B
    B[sF, 0:2] = F.B @ W.D
    B[sP, 2:4] = P.B
    B[sF, 4:6] = F.B

    C = np.zeros((6, n))  # rows: z, y_presample, t (2 each)
    C[0:2, sW] = W.C
    C[0:2, sP] = -P.C
    C[2:4, sW] = F.D @ W.C
    C[2:4, sF] = F.C
    C[4:6, sP] = P.C

    D = np.zeros((6, 6))
    D[0:2, 0:2] = W.D
    D[2:4, 0:2] = F.D @ W.D
    D[0:2, 2:4] = -P.D  # z = Ww - t picks up -D_P u_hold when P is not strictly proper
    D[2:4, 4:6] = F.D
    D[4:6, 2:4] = P.D

    return StateSpace(A, B, C, D)
