"""Checks on cwcancel artifacts that do not use cwcancel's own numerics.

Everything here is numpy and scipy only and reads the benchmark's config
files and the artifacts the CLI wrote (controller.json, report.json,
ber_curves.csv).  None of it imports the package:

* the lifted plant is rebuilt from the config with ``scipy.linalg.expm``;
* stability is judged with ``np.linalg.eigvals``;
* the closed-loop norm is bracketed with the Hamiltonian imaginary-axis test
  (Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990) after a bilinear map
  to continuous time;
* Wilson intervals come from ``scipy.stats.binomtest``.

Every ``check_*`` function returns a list of failure messages; an empty
list means the check passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.linalg import expm
from scipy.stats import binomtest

# Relative distance from the imaginary axis below which a Hamiltonian
# eigenvalue counts as on it.  On the reference relay the two populations
# sit near 1e-11 (a true crossing) and above 0.1 (none), so the threshold
# has decades of room on both sides.
IMAG_AXIS_RTOL = 1e-7


# ---------------------------------------------------------------- plant model

def _iq(doc):
    """Scalar (or 2x2) filter document promoted to the I/Q pair."""
    a, b, c, d = (np.atleast_2d(np.asarray(doc[k], dtype=float)) for k in "abcd")
    if b.shape[1] == 1 and c.shape[0] == 1:
        I2 = np.eye(2)
        a, b, c, d = (np.kron(m, I2) for m in (a, b, c, d))
    return a, b, c, d


def lifted_plant(relay: dict):
    """FSFH-lifted generalized plant of the relay loop described by ``relay``.

    Returns ``(A, B, C, D, n_w, n_z)`` with inputs (w_0..w_{N-1}, u) and
    outputs (z_0..z_{N-1}, y).  Over each fast step tau = h/N the received
    signal w and the delayed coupling value are held; z = W w - P u is read
    at every fast instant, y = F(W w + coupling) at the first one, and the
    control u is held through P for the whole slow period.  The delay line
    is a register of d = L/tau past relay outputs.
    """
    h, N = float(relay["sampling_period"]), int(relay["fsfh_ratio"])
    tau = h / N
    d = int(round(relay["delay_seconds"] / tau))
    if d < 1 or abs(d * tau - relay["delay_seconds"]) > 1e-9 * h:
        raise ValueError("oracle plant needs a delay of a positive whole number of fast steps")
    theta = -2.0 * math.pi * math.fmod(relay["carrier_hz"] * relay["delay_seconds"], 1.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    cpl = relay["coupling_gain"] * rot

    aW, bW, cW, dW = _iq(relay["input_shaping"])
    aP, bP, cP, dP = _iq(relay["post_filter"])
    if relay.get("antialias") is None:
        aF, bF, cF, dF = np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2)
    else:
        aF, bF, cF, dF = _iq(relay["antialias"])
    nW, nF, nP = aW.shape[0], aF.shape[0], aP.shape[0]
    nc = nW + nF + nP
    W, F, P = slice(0, nW), slice(nW, nW + nF), slice(nW + nF, nc)

    # Continuous core, inputs (w, u, coupling), all three held over a fast step.
    Ac = np.zeros((nc, nc))
    Bc = np.zeros((nc, 6))
    Ac[W, W], Bc[W, 0:2] = aW, bW
    Ac[F, F], Ac[F, W], Bc[F, 0:2], Bc[F, 4:6] = aF, bF @ cW, bF @ dW, bF
    Ac[P, P], Bc[P, 2:4] = aP, bP
    aug = np.zeros((nc + 6, nc + 6))
    aug[:nc, :nc], aug[:nc, nc:] = Ac, Bc
    E = expm(aug * tau)
    Ad, Bd = E[:nc, :nc], E[:nc, nc:]

    # Fast state s = (core, r_1..r_d), r_j = relay output j fast steps ago.
    ns = nc + 2 * d
    old = slice(nc + 2 * d - 2, ns)
    Phi = np.zeros((ns, ns))
    Gw = np.zeros((ns, 2))
    Gu = np.zeros((ns, 2))
    Phi[:nc, :nc] = Ad
    Phi[:nc, old] = Bd[:, 4:6] @ cpl
    Gw[:nc], Gu[:nc] = Bd[:, 0:2], Bd[:, 2:4]
    Phi[nc:nc + 2, P] = cP
    Gu[nc:nc + 2] = dP
    Phi[nc + 2:, nc:ns - 2] = np.eye(2 * d - 2)

    Cz = np.zeros((2, ns))
    Cz[:, W], Cz[:, P] = cW, -cP
    Dzw, Dzu = dW, -dP
    Cy = np.zeros((2, ns))
    Cy[:, W], Cy[:, F], Cy[:, old] = dF @ cW, cF, dF @ cpl
    Dyw = dF @ dW

    # s_j = Phi^j s_0 + sum_{i<j} Phi^(j-1-i) (Gw w_i + Gu u)
    powers = [np.eye(ns)]
    for _ in range(N):
        powers.append(Phi @ powers[-1])
    A = powers[N]
    B = np.zeros((ns, 2 * N + 2))
    C = np.zeros((2 * N + 2, ns))
    D = np.zeros((2 * N + 2, 2 * N + 2))
    for i in range(N):
        B[:, 2 * i:2 * i + 2] = powers[N - 1 - i] @ Gw
        B[:, 2 * N:] += powers[N - 1 - i] @ Gu
    for j in range(N):
        rows = slice(2 * j, 2 * j + 2)
        C[rows] = Cz @ powers[j]
        D[rows, 2 * j:2 * j + 2] = Dzw
        D[rows, 2 * N:] = Dzu
        for i in range(j):
            D[rows, 2 * i:2 * i + 2] = Cz @ powers[j - 1 - i] @ Gw
            D[rows, 2 * N:] += Cz @ powers[j - 1 - i] @ Gu
    C[2 * N:] = Cy
    D[2 * N:, 0:2] = Dyw
    return A, B, C, D, 2 * N, 2 * N


def closed_loop(plant, K):
    """Lower LFT of a lifted plant with a controller ``K = (Ak, Bk, Ck, Dk)``."""
    A, B, C, D, nw, nz = plant
    Ak, Bk, Ck, Dk = K
    B1, B2, C1, C2 = B[:, :nw], B[:, nw:], C[:nz], C[nz:]
    D11, D12, D21, D22 = D[:nz, :nw], D[:nz, nw:], D[nz:, :nw], D[nz:, nw:]
    # u = Dk y + Ck xk with y = C2 s + D21 w + D22 u, solved for u.
    Minv = np.linalg.inv(np.eye(Dk.shape[0]) - Dk @ D22)
    Us, Uk, Uw = Minv @ Dk @ C2, Minv @ Ck, Minv @ Dk @ D21
    Ys, Yk, Yw = C2 + D22 @ Us, D22 @ Uk, D21 + D22 @ Uw
    Acl = np.block([[A + B2 @ Us, B2 @ Uk], [Bk @ Ys, Ak + Bk @ Yk]])
    Bcl = np.vstack([B1 + B2 @ Uw, Bk @ Yw])
    Ccl = np.hstack([C1 + D12 @ Us, D12 @ Uk])
    Dcl = D11 + D12 @ Uw
    return Acl, Bcl, Ccl, Dcl


def controller_matrices(doc: dict):
    return tuple(np.atleast_2d(np.asarray(doc[k], dtype=float)) for k in "abcd")


# ---------------------------------------------------------- norm and stability

def spectral_radius(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0


def to_continuous(A, B, C, D):
    """Bilinear map z = (1 + s)/(1 - s): same H-infinity norm, same stability."""
    n = A.shape[0]
    T = np.linalg.inv(A + np.eye(n))
    r2 = math.sqrt(2.0)
    return T @ (A - np.eye(n)), r2 * (T @ B), r2 * (C @ T), D - C @ T @ B


def imaginary_axis_distance(sys_c, gamma: float) -> float:
    """Smallest |Re lambda| / (1 + |lambda|) over the gamma-Hamiltonian.

    For a stable continuous system with sigma_max(D) < gamma, the norm is at
    least gamma exactly when the Hamiltonian has an imaginary-axis
    eigenvalue.  When sigma_max(D) >= gamma the norm is at least gamma
    already, which is returned as distance 0.
    """
    A, B, C, D = sys_c
    if np.linalg.norm(D, 2) >= gamma:
        return 0.0
    R = gamma ** 2 * np.eye(D.shape[1]) - D.T @ D
    Rinv = np.linalg.inv(R)
    Ah = A + B @ Rinv @ D.T @ C
    H = np.block([
        [Ah, B @ Rinv @ B.T],
        [-C.T @ (np.eye(D.shape[0]) + D @ Rinv @ D.T) @ C, -Ah.T],
    ])
    lam = np.linalg.eigvals(H)
    return float(np.min(np.abs(lam.real) / (1.0 + np.abs(lam))))


def check_stable(cl, label: str) -> list:
    rho = spectral_radius(cl[0])
    return [] if rho < 1.0 else [f"{label}: closed loop unstable, spectral radius {rho:.9f}"]


def check_norm_bracket(cl, below: float, above: float, label: str) -> list:
    """The closed-loop norm lies in (above, below): the Hamiltonian has no
    imaginary-axis eigenvalue at ``below`` and has one at ``above``."""
    sys_c = to_continuous(*cl)
    fails = []
    far = imaginary_axis_distance(sys_c, below)
    if far <= IMAG_AXIS_RTOL:
        fails.append(f"{label}: norm is not below {below:.9g} (axis distance {far:.2e})")
    near = imaginary_axis_distance(sys_c, above)
    if near > IMAG_AXIS_RTOL:
        fails.append(f"{label}: norm is not above {above:.9g} (axis distance {near:.2e})")
    return fails


def check_scaling(gammas: dict) -> list:
    """gamma_min strictly decreases with N, with first-order FSFH gap ratio."""
    ns = sorted(gammas)
    g = [gammas[n] for n in ns]
    fails = []
    if any(b >= a for a, b in zip(g, g[1:])):
        fails.append(f"gamma_min does not strictly decrease with N: {dict(zip(ns, g))}")
    if len(g) >= 3 and g[-3] > g[-2]:
        ratio = (g[-2] - g[-1]) / (g[-3] - g[-2])
        if not 0.4 <= ratio <= 0.6:
            fails.append(f"FSFH gap ratio {ratio:.4f} outside [0.4, 0.6]")
    return fails


def richardson(gammas: dict) -> float:
    """First-order Richardson extrapolation 2*gamma(2N) - gamma(N) at the top of the ladder."""
    ns = sorted(gammas)
    return 2.0 * gammas[ns[-1]] - gammas[ns[-2]]


# ------------------------------------------------------------------ BER curves

def read_curves(text: str) -> list:
    """Rows of ber_curves.csv as dicts with typed values."""
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        rows.append({
            "beta": float(r["beta"]), "canceler": r["canceler"],
            "errors": int(r["errors"]), "trials": int(r["trials"]),
            "ber": float(r["ber"]), "ci_lo": float(r["ci_lo"]), "ci_hi": float(r["ci_hi"]),
        })
    return rows


def _by_kind(rows) -> dict:
    out = {}
    for r in rows:
        out.setdefault(r["canceler"], []).append(r)
    for pts in out.values():
        pts.sort(key=lambda r: r["beta"])
    return out


def _width(r) -> float:
    return r["ci_hi"] - r["ci_lo"]


def check_shape(rows, n_rows: int, trials: int) -> list:
    fails = []
    if len(rows) != n_rows:
        fails.append(f"expected {n_rows} rows, got {len(rows)}")
    for r in rows:
        if r["trials"] != trials:
            fails.append(f"{r['canceler']} at beta {r['beta']:.4g}: {r['trials']} trials, expected {trials}")
        if not 0 <= r["errors"] <= r["trials"] or abs(r["ber"] - r["errors"] / r["trials"]) > 1e-9:
            fails.append(f"{r['canceler']} at beta {r['beta']:.4g}: ber {r['ber']} != errors/trials")
    return fails


def check_wilson(rows, rtol: float = 1e-9) -> list:
    """Each interval equals scipy's Wilson 95% interval to 10 significant digits."""
    fails = []
    for r in rows:
        ci = binomtest(r["errors"], r["trials"]).proportion_ci(confidence_level=0.95, method="wilson")
        for got, want in ((r["ci_lo"], ci.low), (r["ci_hi"], ci.high)):
            if abs(got - want) > rtol * max(abs(want), 1e-300) and abs(got - want) > 1e-15:
                fails.append(f"{r['canceler']} at beta {r['beta']:.4g}: interval "
                             f"[{r['ci_lo']}, {r['ci_hi']}] != scipy [{ci.low}, {ci.high}]")
                break
    return fails


def check_none_is_coin_flip(rows, sigmas: float = 4.0) -> list:
    """Pooled 'none' errors lie within ``sigmas`` binomial deviations of half."""
    pts = _by_kind(rows).get("none", [])
    if not pts:
        return ["no 'none' curve"]
    n = sum(r["trials"] for r in pts)
    e = sum(r["errors"] for r in pts)
    dev = abs(e - 0.5 * n) / math.sqrt(0.25 * n)
    return [] if dev <= sigmas else [f"'none' pooled BER {e / n:.5f} is {dev:.1f} sigma from 0.5"]


def check_tracks(rows) -> list:
    """'designed' tracks 'perfect': intervals overlap or the ratio is at most 2."""
    kinds = _by_kind(rows)
    fails = []
    for d, p in zip(kinds.get("designed", []), kinds.get("perfect", [])):
        overlap = d["ci_lo"] <= p["ci_hi"] and p["ci_lo"] <= d["ci_hi"]
        ratio = d["ber"] / p["ber"] if p["ber"] > 0 else (1.0 if d["ber"] == 0 else math.inf)
        if not (overlap or ratio <= 2.0):
            fails.append(f"designed {d['ber']:.5f} vs perfect {p['ber']:.5f} at beta {d['beta']:.4g}")
    if not kinds.get("designed") or len(kinds.get("designed", [])) != len(kinds.get("perfect", [])):
        fails.append("designed and perfect curves missing or of different length")
    return fails


def check_monotone(rows, kinds=("designed", "perfect")) -> list:
    """Each curve is nonincreasing in beta up to the two intervals' widths."""
    fails = []
    curves = _by_kind(rows)
    for kind in kinds:
        pts = curves.get(kind, [])
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                if a["ber"] < b["ber"] - (_width(a) + _width(b)):
                    fails.append(f"{kind}: BER rises from {a['ber']:.5f} at beta {a['beta']:.4g} "
                                 f"to {b['ber']:.5f} at beta {b['beta']:.4g}")
    return fails


def check_canceler_value(rows, perfect_max: float = 0.05) -> list:
    """'none' is worse than 'designed' by more than both interval widths
    wherever 'perfect' is at most ``perfect_max``."""
    curves = _by_kind(rows)
    fails = []
    checked = 0
    for n, d, p in zip(curves.get("none", []), curves.get("designed", []), curves.get("perfect", [])):
        if p["ber"] <= perfect_max:
            checked += 1
            if not n["ber"] - d["ber"] > _width(n) + _width(d):
                fails.append(f"none {n['ber']:.5f} not clearly above designed {d['ber']:.5f} "
                             f"at beta {n['beta']:.4g}")
    return fails if checked else [f"no beta with perfect BER <= {perfect_max}"]


def check_upper_below(rows, limit: float) -> list:
    return [f"{r['canceler']} at beta {r['beta']:.4g}: upper bound {r['ci_hi']:.5f} >= {limit}"
            for r in rows if not r["ci_hi"] < limit]
