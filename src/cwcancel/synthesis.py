"""Discrete-time H-infinity output-feedback synthesis on the lifted plant.

Route: exact bilinear (Tustin) map of the lifted plant to an equivalent
continuous-time problem, gamma-scaling, an exact scattering transform that
absorbs the w->z feedthrough, then the two-Riccati central controller:
stabilizing PSD solutions of the full-information and estimation Riccati
equations plus the spectral-radius coupling condition on their product.
The controller is mapped back through the inverse bilinear transform.
Those formulas need a regular problem: D12 of the continuous image of full
column rank and D21 of full row rank.  Every FSFH-lifted relay plant tried
is one; a plant that is not is refused before any probe runs.  The
Hamiltonian of :mod:`cwcancel.hnorm` proves each feasible probe's closed
loop below gamma*(1+1e-6), and certifies the final one: a peak gain g the
loop attains, with its norm proven to lie in [g, g*(1+2e-6)].

The bilinear map does not depend on gamma, so it runs once per plant.  w and
z are then rotated by the singular vectors of the mapped D11 = U S V^T (the
loop-shifting of Safonov, Limebeer & Chiang, IJC 1989): the rotation is
orthogonal, so every closed loop keeps its norm and the controller is the
same operator.  In the rotated frame D11/gamma is diagonal, and each probe's
scattering is a diagonal scaling by s/(1-s^2) and 1/sqrt(1-s^2) of the
singular values s of D11/gamma.  A probe's Riccati inputs are then products
of the order of the lifted state, whatever the width of w and z.

All transforms are norm- and stability-preserving, so a controller feasible
for the transformed problem is feasible for the lifted discrete one; the
certification step checks exactly that on the original plant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hnorm import UnstableSystemError, exceeds, hinf_norm_discrete, require_stable
from .lifting import LiftedPlant, PlantBlocks, closed_loop, partition
from .lti import NumericalFailure, StateSpace, bilinear_to_continuous, bilinear_to_discrete
from .riccati import NoStabilizingSolution, care_stabilizing

__all__ = [
    "DigitalController",
    "SynthesisResult",
    "Infeasible",
    "SynthesisError",
    "synthesize_at_gamma",
    "bisect_gamma",
    "certify",
    "controller_to_dict",
    "controller_from_dict",
    "write_json",
]

_RANK_RTOL = 1e-8  # a singular value at or below this times the largest counts as zero
_PSD_TOL = 1e-7
MAX_PROBES = 200
MAX_DOUBLINGS = 60
PROBE_MARGIN = 1e-6  # an accepted probe's closed loop is proven below gamma*(1+PROBE_MARGIN)
CERT_TOL = 1e-6  # the certified norm is proven to lie in [g, g*(1+2*CERT_TOL)]
CERT_SLACK = 1e-3  # a certificate above gamma_achieved * (1 + CERT_SLACK) contradicts it


class SynthesisError(RuntimeError):
    """No acceptable controller could be synthesized."""


@dataclass
class DigitalController:
    """State-space canceler K(z) plus the performance level it certifies."""

    K: StateSpace
    gamma_achieved: float
    gamma_certified: float | None = None


@dataclass
class Infeasible:
    """Verdict returned by a failed gamma probe, with the failing condition."""

    reason: str
    detail: str


@dataclass
class SynthesisResult:
    controller: DigitalController
    gamma_min: float
    bisection_trace: list  # (gamma, feasible) pairs in probe order
    closed_loop_radius: float  # spectral radius of the final closed loop


def _psd_riccati(A, G, Q, reason: str):
    """The stabilizing solution of A'X + XA - XGX + Q = 0 (G and Q
    symmetrized), or an :class:`Infeasible` verdict with ``reason`` when there
    is none or it is not PSD."""
    try:
        X = care_stabilizing(A, 0.5 * (G + G.T), 0.5 * (Q + Q.T))
    except NoStabilizingSolution as exc:
        return Infeasible(reason, str(exc))
    eigs = np.linalg.eigvalsh(X)
    if eigs.size and eigs.min() < -_PSD_TOL * (1.0 + abs(eigs).max()):
        return Infeasible(reason, f"Riccati solution not PSD (eigenvalue {eigs.min():.3g})")
    return X


def _central_controller(p: PlantBlocks):
    """Two-Riccati central controller at level 1 for a plant with D11 = 0,
    or the :class:`Infeasible` verdict of the condition that fails.

    Solvability is the classical triple: stabilizing PSD solutions X of the
    full-information Riccati (``care_x``) and Y of the dual (estimation)
    Riccati (``care_y``), plus the coupling condition rho(XY) < 1
    (``coupling``).  Both equations keep the feedthrough cross terms in the
    quadratic completion.  The controller is the certainty-equivalence
    observer driven by the worst-case disturbance estimate, with filter gain
    built from Y (I - XY)^{-1}.
    """
    A, B1, B2, C1, C2 = p.A, p.B1, p.B2, p.C1, p.C2
    D12, D21 = p.D12, p.D21
    n = A.shape[0]

    Ru = D12.T @ D12
    X = _psd_riccati(A - B2 @ np.linalg.solve(Ru, D12.T @ C1),
                     B2 @ np.linalg.solve(Ru, B2.T) - B1 @ B1.T,
                     C1.T @ C1 - (C1.T @ D12) @ np.linalg.solve(Ru, D12.T @ C1), "care_x")
    if isinstance(X, Infeasible):
        return X

    Ry = D21 @ D21.T
    Y = _psd_riccati((A - B1 @ D21.T @ np.linalg.solve(Ry, C2)).T,
                     C2.T @ np.linalg.solve(Ry, C2) - C1.T @ C1,
                     B1 @ B1.T - (B1 @ D21.T) @ np.linalg.solve(Ry, D21 @ B1.T), "care_y")
    if isinstance(Y, Infeasible):
        return Y

    # rho(XY) through the symmetric form sqrt(X) Y sqrt(X): X and Y are PSD,
    # so the spectrum is real and the symmetric solver is the stable route.
    wx, Vx = np.linalg.eigh(X)
    Xh = (Vx * np.sqrt(np.clip(wx, 0.0, None))) @ Vx.T
    rho = float(np.linalg.eigvalsh(Xh @ Y @ Xh).max()) if X.shape[0] else 0.0
    if rho >= 1.0 - 1e-9:
        return Infeasible("coupling", f"rho(XY) = {rho:.6f} >= 1")

    F2 = -np.linalg.solve(Ru, B2.T @ X + D12.T @ C1)
    F1 = B1.T @ X
    At = A + B1 @ F1
    Ct2 = C2 + D21 @ F1
    Ytmp = np.linalg.solve(np.eye(n) - Y @ X, Y)
    Ytmp = 0.5 * (Ytmp + Ytmp.T)

    Kf = np.linalg.solve(Ry.T, (Ytmp @ Ct2.T + B1 @ D21.T).T).T
    Ak = At + B2 @ F2 - Kf @ Ct2
    return StateSpace(Ak, Kf, F2, np.zeros((F2.shape[0], Kf.shape[1])))


def _rotated_blocks(Gl: LiftedPlant):
    """(p, s): the blocks of the lifted plant's bilinear image, with w and z
    rotated so that D11 = U diag(s) V^T becomes diag(s).

    B1 <- B1 V, C1 <- U^T C1, D12 <- U^T D12, D21 <- D21 V; the returned D11
    is None, since every probe reads it from s.  s is nonincreasing.

    This is where the problem's regularity is checked, once for all probes:
    the central controller needs the image's D12 of full column rank and D21
    of full row rank (Doyle, Glover, Khargonekar & Francis, IEEE TAC 1989),
    so a ValueError refuses a block whose smallest singular value is at most
    _RANK_RTOL times its largest, or which has too few rows or columns.
    """
    G = Gl.G
    if not G.is_discrete:
        raise ValueError("synthesis expects a discrete-time lifted plant")
    p = partition(bilinear_to_continuous(G, 2.0 / G.dt), Gl.n_w, Gl.n_z)
    for name, D, rank in (("D12", p.D12, Gl.n_u), ("D21", p.D21, Gl.n_y)):
        sv = np.linalg.svd(D, compute_uv=False)
        if sv.size < rank or (sv.size and sv[-1] <= _RANK_RTOL * sv[0]):
            raise ValueError(f"ill-posed standard problem: {name} of the plant's bilinear "
                             f"image needs rank {rank}, its singular values are "
                             f"{np.array2string(sv, precision=3)}")
    U, s, Vt = np.linalg.svd(p.D11)
    return p._replace(B1=p.B1 @ Vt.T, C1=U.T @ p.C1, D11=None, D12=U.T @ p.D12,
                      D21=p.D21 @ Vt.T), s


def _probe(Gl: LiftedPlant, p: PlantBlocks, s: np.ndarray, gamma: float):
    """:func:`synthesize_at_gamma` on the rotated blocks ``(p, s)`` of
    :func:`_rotated_blocks`.

    With sigma = s/gamma, the scattering that zeroes D11/gamma feeds
    z back to w through sigma/(1-sigma^2) and scales the rotated w and z
    channels by 1/sqrt(1-sigma^2).
    """
    sigma = s / gamma
    if sigma.size and sigma[0] >= 1.0 - 1e-9:
        return Infeasible("d11", f"sigma_max(D11)/gamma = {sigma[0]:.6f} >= 1")
    k, rest = sigma.size, 1.0 - sigma ** 2
    scale = 1.0 / np.sqrt(rest)
    sw = np.concatenate([scale, np.ones(Gl.n_w - k)])
    sz = np.concatenate([scale, np.ones(Gl.n_z - k)])
    C1, D12 = p.C1 / gamma, p.D12 / gamma
    feed = (sigma / rest)[:, None]
    fC1, fD12 = feed * C1[:k], feed * D12[:k]
    B1k, D21k = p.B1[:, :k], p.D21[:, :k]
    scattered = PlantBlocks(
        A=p.A + B1k @ fC1,
        B1=p.B1 * sw,
        B2=p.B2 + B1k @ fD12,
        C1=sz[:, None] * C1,
        C2=p.C2 + D21k @ fC1,
        D11=None,
        D12=sz[:, None] * D12,
        D21=p.D21 * sw,
        D22=p.D22 + D21k @ fD12,
    )
    return _solve_scattered(Gl, scattered, gamma)


def _solve_scattered(Gl: LiftedPlant, p: PlantBlocks, gamma: float):
    """The central controller of the gamma-scaled, scattered continuous blocks
    ``p`` (D11 = 0), mapped back to discrete time and checked on the closed
    loop with the lifted plant; or an :class:`Infeasible` verdict."""
    try:
        Kc = _central_controller(p)
    except np.linalg.LinAlgError as exc:
        # Conservative: a linear-algebra breakdown inside the Riccati
        # machinery is treated like any other solver failure at this level.
        return Infeasible("care_x", f"linear algebra failure: {exc}")
    if isinstance(Kc, Infeasible):
        return Kc

    # The central controller is built for D22 = 0; close its loop around
    # D22 (D_K = 0 keeps this a pure state-matrix correction), then map
    # back to discrete time.
    Ak = Kc.A - Kc.B @ p.D22 @ Kc.C
    Kc = StateSpace(Ak, Kc.B, Kc.C, Kc.D)
    dt = Gl.G.dt
    try:
        Kd = bilinear_to_discrete(Kc, 2.0 / dt, dt)
    except NumericalFailure as exc:
        return Infeasible("closed_loop", str(exc))

    cl = closed_loop(Gl, Kd)
    try:
        require_stable(cl.A, "assembled loop")
    except UnstableSystemError as exc:
        return Infeasible("closed_loop", str(exc))
    try:
        gain = exceeds(cl, gamma * (1.0 + PROBE_MARGIN))
    except NumericalFailure as exc:  # the loop's bilinear image is singular
        return Infeasible("closed_loop", str(exc))
    if gain is not None:
        return Infeasible("closed_loop", f"closed-loop gain {gain:.6f} exceeds gamma")
    return DigitalController(K=Kd, gamma_achieved=float(gamma))


def synthesize_at_gamma(Gl: LiftedPlant, gamma: float):
    """Central controller at level gamma, or an :class:`Infeasible` verdict.

    The verdict's ``reason`` distinguishes which condition failed:
    ``"d11"`` (constant-feedthrough bound), ``"care_x"`` or ``"care_y"``
    (no stabilizing PSD Riccati solution), ``"coupling"`` (spectral-radius
    condition), or ``"closed_loop"`` (:func:`cwcancel.hnorm.require_stable`
    refuses the assembled loop, :func:`cwcancel.hnorm.exceeds` finds a gain
    at the level gamma*(1+PROBE_MARGIN), or a bilinear map is singular).  A returned
    controller's closed-loop norm is therefore proven below that level.

    One call maps and rotates the plant for its single probe;
    :func:`bisect_gamma` does that once for all of its probes.  Raises
    ValueError on an ill-posed problem (see :func:`_rotated_blocks`).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    p, s = _rotated_blocks(Gl)
    return _probe(Gl, p, s, gamma)


def bisect_gamma(Gl: LiftedPlant, tol: float) -> SynthesisResult:
    """gamma-bisection around :func:`synthesize_at_gamma`.

    The plant is mapped and rotated once; each probe then scales, scatters,
    solves the two Riccati equations and tests its closed loop.
    The upper bracket is found by at most MAX_DOUBLINGS doublings from
    gamma = 1; bisection then narrows until (hi - lo)/lo <= tol or MAX_PROBES
    probes have run.  The returned controller is the one synthesized at the
    final upper bracket.
    Its ``gamma_certified`` is a peak gain g the closed loop attains, with
    the closed-loop norm proven to lie in [g, g*(1+2e-6)].
    Raises ValueError unless tol is finite and positive, and on an
    ill-posed problem before any probe runs (see :func:`_rotated_blocks`).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    p, s = _rotated_blocks(Gl)
    trace: list = []

    def probe(g: float):
        res = _probe(Gl, p, s, g)
        trace.append((float(g), isinstance(res, DigitalController)))
        return res

    hi = 1.0
    res = probe(hi)
    doublings = 0
    last_reason = ""
    while isinstance(res, Infeasible):
        last_reason = f"{res.reason}: {res.detail}"
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise SynthesisError(
                f"no feasible gamma after {MAX_DOUBLINGS} doublings (last: {last_reason})"
            )
        hi *= 2.0
        res = probe(hi)

    lo = 0.0
    best = res
    while len(trace) < MAX_PROBES:
        if lo > 0.0 and (hi - lo) / lo <= tol:
            break
        if hi < 1e-12:
            break
        mid = 0.5 * (hi + lo)
        res = probe(mid)
        if isinstance(res, DigitalController):
            hi, best = mid, res
        else:
            lo = mid

    radius, cert = certify(Gl, best.K)
    if cert > best.gamma_achieved * (1.0 + CERT_SLACK):
        raise SynthesisError(
            f"certificate {cert:.6f} contradicts synthesis level {best.gamma_achieved:.6f}"
        )
    best.gamma_certified = float(cert)
    return SynthesisResult(controller=best, gamma_min=float(hi), bisection_trace=trace,
                           closed_loop_radius=radius)


def certify(Gl: LiftedPlant, K: StateSpace):
    """(radius, g) of the closed loop of Gl and K.

    radius is its spectral radius; g is a peak gain the loop attains, with
    its H-infinity norm proven to lie in [g, g*(1+2*CERT_TOL)].  Raises
    :class:`~cwcancel.hnorm.UnstableSystemError` when the loop is unstable.
    """
    cl = closed_loop(Gl, K)
    radius = require_stable(cl.A, "certified loop")
    return radius, hinf_norm_discrete(cl, tol=CERT_TOL)


def controller_to_dict(ctrl: DigitalController) -> dict:
    """JSON-ready controller document (row-major matrix arrays)."""
    K = ctrl.K
    return {
        "a": K.A.tolist(),
        "b": K.B.tolist(),
        "c": K.C.tolist(),
        "d": K.D.tolist(),
        "step_seconds": K.dt,
        "gamma_achieved": ctrl.gamma_achieved,
        "gamma_certified": ctrl.gamma_certified,
    }


def controller_from_dict(doc: dict) -> DigitalController:
    try:
        K = StateSpace(doc["a"], doc["b"], doc["c"], doc["d"], dt=float(doc["step_seconds"]))
        gamma_achieved = float(doc["gamma_achieved"])
        gamma_certified = doc.get("gamma_certified")
        if gamma_certified is not None:
            gamma_certified = float(gamma_certified)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed controller document: {exc}") from exc
    return DigitalController(K=K, gamma_achieved=gamma_achieved, gamma_certified=gamma_certified)


def write_json(path, doc: dict) -> None:
    """Write a JSON artifact: sorted keys, two-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_controller(ctrl: DigitalController, path) -> None:
    write_json(path, controller_to_dict(ctrl))


def load_controller(path) -> DigitalController:
    with open(path) as fh:
        return controller_from_dict(json.load(fh))
