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
for the transformed problem is feasible for the lifted discrete one;
:func:`certify` checks exactly that on the original plant, and is the one
judge of whether a certificate contradicts the controller's level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hnorm import UnstableSystemError, exceeds, hinf_norm_discrete, require_stable
from .lifting import LiftedPlant, PlantBlocks, closed_loop, partition
from .lti import NumericalFailure, StateSpace, bilinear_to_continuous, bilinear_to_discrete
from .riccati import care_stabilizing

__all__ = [
    "DigitalController",
    "SynthesisResult",
    "Probe",
    "SynthesisError",
    "bisect_gamma",
    "certify",
    "controller_to_dict",
    "controller_from_dict",
    "write_json",
]

_RANK_RTOL = 1e-8  # a singular value at or below this times the largest counts as zero
_PSD_TOL = 1e-7
MAX_DOUBLINGS = 60
PROBE_MARGIN = 1e-6  # an accepted probe's closed loop is proven below gamma*(1+PROBE_MARGIN)
CERT_TOL = 1e-6  # the certified norm is proven to lie in [g, g*(1+2*CERT_TOL)]


class SynthesisError(RuntimeError):
    """No acceptable controller could be synthesized."""


@dataclass
class DigitalController:
    """State-space canceler K(z) plus the performance level it certifies."""

    K: StateSpace
    gamma_achieved: float
    gamma_certified: float | None = None


class Probe(NamedTuple):
    """One gamma probe of :func:`bisect_gamma`: its level, and either a
    controller whose closed loop is proven below level*(1+PROBE_MARGIN), or
    the condition that failed.

    ``reason`` is "" for a controller, else ``"d11"`` (constant-feedthrough
    bound), ``"care_x"`` or ``"care_y"`` (no stabilizing PSD Riccati
    solution), ``"coupling"`` (spectral-radius condition) or
    ``"closed_loop"`` (:func:`cwcancel.hnorm.exceeds` refuses the assembled
    loop as unstable or finds a gain at the level, or a bilinear map is
    singular); ``detail`` says how.  ``rho`` is rho(XY), or None when the
    probe failed before the coupling test.
    """

    level: float
    controller: DigitalController | None
    reason: str
    detail: str
    rho: float | None


@dataclass
class SynthesisResult:
    controller: DigitalController
    gamma_min: float
    bisection_trace: list  # (gamma, feasible) pairs in probe order
    closed_loop_radius: float  # spectral radius of the final closed loop


def _psd_riccati(A, G, Q):
    """The stabilizing solution of A'X + XA - XGX + Q = 0 (G and Q
    symmetrized), or the text of the failure when there is none or it is
    not PSD."""
    try:
        X = care_stabilizing(A, 0.5 * (G + G.T), 0.5 * (Q + Q.T))
    except NumericalFailure as exc:
        return str(exc)
    eigs = np.linalg.eigvalsh(X)
    if eigs.size and eigs.min() < -_PSD_TOL * (1.0 + abs(eigs).max()):
        return f"Riccati solution not PSD (eigenvalue {eigs.min():.3g})"
    return X


def _central_controller(p: PlantBlocks):
    """(K, rho, failed): the two-Riccati central controller K at level 1 for
    a plant with D11 = 0 and rho(XY), or K = None and the (reason, detail)
    of the condition that fails, with rho None when a Riccati condition
    fails first.

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
                     C1.T @ C1 - (C1.T @ D12) @ np.linalg.solve(Ru, D12.T @ C1))
    if isinstance(X, str):
        return None, None, ("care_x", X)

    Ry = D21 @ D21.T
    Y = _psd_riccati((A - B1 @ D21.T @ np.linalg.solve(Ry, C2)).T,
                     C2.T @ np.linalg.solve(Ry, C2) - C1.T @ C1,
                     B1 @ B1.T - (B1 @ D21.T) @ np.linalg.solve(Ry, D21 @ B1.T))
    if isinstance(Y, str):
        return None, None, ("care_y", Y)

    # rho(XY) through the symmetric form sqrt(X) Y sqrt(X): X and Y are PSD,
    # so the spectrum is real and the symmetric solver is the stable route.
    wx, Vx = np.linalg.eigh(X)
    Xh = (Vx * np.sqrt(np.clip(wx, 0.0, None))) @ Vx.T
    rho = float(np.linalg.eigvalsh(Xh @ Y @ Xh).max()) if X.shape[0] else 0.0
    if rho >= 1.0 - 1e-9:
        return None, rho, ("coupling", f"rho(XY) = {rho:.6f} >= 1")

    F2 = -np.linalg.solve(Ru, B2.T @ X + D12.T @ C1)
    F1 = B1.T @ X
    At = A + B1 @ F1
    Ct2 = C2 + D21 @ F1
    Ytmp = np.linalg.solve(np.eye(n) - Y @ X, Y)
    Ytmp = 0.5 * (Ytmp + Ytmp.T)

    Kf = np.linalg.solve(Ry.T, (Ytmp @ Ct2.T + B1 @ D21.T).T).T
    Ak = At + B2 @ F2 - Kf @ Ct2
    return StateSpace(Ak, Kf, F2, np.zeros((F2.shape[0], Kf.shape[1]))), rho, None


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


def _probe(Gl: LiftedPlant, p: PlantBlocks, s: np.ndarray, gamma: float) -> Probe:
    """The :class:`Probe` at level gamma on the rotated blocks ``(p, s)`` of
    :func:`_rotated_blocks`, which :func:`bisect_gamma` computes once for
    all of its probes.

    With sigma = s/gamma, the scattering that zeroes D11/gamma feeds
    z back to w through sigma/(1-sigma^2) and scales the rotated w and z
    channels by 1/sqrt(1-sigma^2).
    """
    sigma = s / gamma
    if sigma.size and sigma[0] >= 1.0 - 1e-9:
        return Probe(float(gamma), None, "d11", f"sigma_max(D11)/gamma = {sigma[0]:.6f} >= 1",
                     None)
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


def _solve_scattered(Gl: LiftedPlant, p: PlantBlocks, gamma: float) -> Probe:
    """The :class:`Probe` at level gamma of the gamma-scaled, scattered
    continuous blocks ``p`` (D11 = 0): their central controller, mapped back
    to discrete time and checked on the closed loop with the lifted plant."""
    try:
        Kc, rho, failed = _central_controller(p)
    except np.linalg.LinAlgError as exc:
        # Conservative: a linear-algebra breakdown inside the Riccati
        # machinery is treated like any other solver failure at this level.
        rho, failed = None, ("care_x", f"linear algebra failure: {exc}")
    if failed is None:
        # The central controller is built for D22 = 0; close its loop around
        # D22 (D_K = 0 keeps this a pure state-matrix correction), then map
        # back to discrete time.
        Kc = StateSpace(Kc.A - Kc.B @ p.D22 @ Kc.C, Kc.B, Kc.C, Kc.D)
        dt = Gl.G.dt
        try:
            Kd = bilinear_to_discrete(Kc, 2.0 / dt, dt)
            gain = exceeds(closed_loop(Gl, Kd), gamma * (1.0 + PROBE_MARGIN))
            if gain is not None:
                failed = ("closed_loop", f"closed-loop gain {gain:.6f} exceeds gamma")
        except (NumericalFailure, UnstableSystemError) as exc:
            failed = ("closed_loop", str(exc))
    if failed is not None:
        return Probe(float(gamma), None, *failed, rho)
    return Probe(float(gamma), DigitalController(K=Kd, gamma_achieved=float(gamma)), "", "", rho)


def _next_level(cell, lo: float, hi: float, tol: float, target):
    """The next level in (lo, hi), or None once [lo, hi] is a cell on which
    bisection of ``cell`` stops ((hi - lo)/lo <= tol, hi < 1e-12, or its
    midpoint is not strictly inside).  Levels are midpoints of cells it does
    not stop on, so no probe lies inside a final cell: that of the smallest
    cell holding [lo, hi], or the one nearest target on the path to it."""
    (a, b), levels = cell, []
    while b >= 1e-12 and a < 0.5 * (a + b) < b and not (a > 0.0 and (b - a) / a <= tol):
        m = 0.5 * (a + b)
        if lo < m < hi:
            if target is None:
                return m
            levels.append(m)
        a, b = (m, b) if m <= (lo if target is None else target) else (a, m)
    return min(levels, key=lambda m: abs(m - target), default=None)


def bisect_gamma(Gl: LiftedPlant, tol: float) -> SynthesisResult:
    """The smallest feasible gamma level, to a relative tol, and its
    certified central controller.

    The plant is mapped and rotated once; each probe then scales, scatters,
    solves the two Riccati equations and tests its closed loop, and the
    search reads only the :class:`Probe` records of its probes.  Until a
    level is feasible, each infeasible level becomes the lower bracket and
    the next probe doubles it (from gamma = 1, at most MAX_DOUBLINGS times).
    The first feasible level h closes the cell [0, 1] or [h/2, h], and the
    search ends where plain bisection of it ends (:func:`_next_level`).
    Each level is a secant step on the margin 1/rho(XY) - 1 of the last two
    probes that reached the coupling test, snapped to bisection's levels;
    it is bisection's own next probe when no margin is new since the last
    step, the step leaves (lo, hi) or the bracket did not halve over the
    last two probes.  So under verdicts monotone in gamma, gamma_min and its
    controller are bisection's, and no level is probed twice.  The final
    upper bracket's controller is returned once :func:`certify` finds it
    within its level and its proven bound not below the largest infeasible
    level (else :class:`SynthesisError`), with ``gamma_certified`` set from
    that document; ``bisection_trace`` holds each record's (level,
    feasible) pair in probe order.  Raises ValueError unless tol is finite
    and positive, and on an ill-posed problem before any probe runs.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    p, s = _rotated_blocks(Gl)
    probes, widths = [], []  # widths: hi - lo after each probe
    lo, hi, best, cell, used = 0.0, 1.0, None, None, 1
    while True:
        # A secant step needs two margins (gamma, 1/rho - 1), one of them newer
        # than the last step, and a bracket that halved over the last two probes.
        target, margins = None, [(q.level, 1.0 / q.rho - 1.0) for q in probes if q.rho]
        if cell and len(margins) > used and (len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]):
            (g0, f0), (g1, f1) = margins[-2:]
            step = g1 - f1 * (g1 - g0) / (f1 - f0) if f1 != f0 else math.nan
            if lo < step < hi:
                target, used = step, len(margins)
        gamma = hi if best is None else _next_level(cell, lo, hi, tol, target)
        if gamma is None:
            break
        q = _probe(Gl, p, s, gamma)
        probes.append(q)
        if q.controller is not None:
            cell = cell or (lo, gamma)
            hi, best = gamma, q.controller
        elif best is not None:
            lo = gamma
        elif len(probes) > MAX_DOUBLINGS:
            raise SynthesisError(f"no feasible gamma after {MAX_DOUBLINGS} doublings "
                                 f"(last: {q.reason}: {q.detail})")
        else:
            lo, hi = gamma, 2.0 * gamma
        widths.append(hi - lo)

    doc = certify(Gl, best)
    if not doc["within_reported"]:
        raise SynthesisError(f"certificate {doc['gamma_certified']:.6f} contradicts "
                             f"synthesis level {best.gamma_achieved:.6f}")
    if doc["gamma_certified"] * (1.0 + 2.0 * CERT_TOL) < lo:
        raise SynthesisError(f"certificate {doc['gamma_certified']:.6g} lies below the "
                             f"infeasible level {lo:.6g}: the bisection's verdict is wrong")
    best.gamma_certified = float(doc["gamma_certified"])
    trace = [(q.level, q.controller is not None) for q in probes]
    return SynthesisResult(controller=best, gamma_min=float(hi), bisection_trace=trace,
                           closed_loop_radius=doc["spectral_radius"])


def certify(Gl: LiftedPlant, ctrl: DigitalController) -> dict:
    """The certification document of the closed loop of Gl and ctrl.K.

    ``spectral_radius`` is the loop's spectral radius and ``gamma_certified``
    a peak gain g it attains, with its H-infinity norm proven to lie in
    [g, g*(1+2*CERT_TOL)].  ``within_reported`` is False when g exceeds the
    ``gamma_achieved`` ctrl reports by more than PROBE_MARGIN, the margin
    every feasible probe proves: that certificate contradicts the controller.
    Raises :class:`~cwcancel.hnorm.UnstableSystemError` when the loop is unstable.
    """
    cl = closed_loop(Gl, ctrl.K)
    radius = require_stable(cl.A, "certified loop")
    cert = hinf_norm_discrete(cl, tol=CERT_TOL)
    return {
        "spectral_radius": radius,
        "gamma_certified": cert,
        "gamma_achieved": ctrl.gamma_achieved,
        "within_reported": bool(cert <= ctrl.gamma_achieved * (1.0 + PROBE_MARGIN)),
    }


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
        if not 0.0 < gamma_achieved < math.inf:
            raise ValueError(f"gamma_achieved must be finite and positive, got {gamma_achieved}")
        gamma_certified = doc.get("gamma_certified")
        if gamma_certified is not None:
            gamma_certified = float(gamma_certified)
            if not math.isfinite(gamma_certified):
                raise ValueError(f"gamma_certified must be finite or null, got {gamma_certified}")
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
