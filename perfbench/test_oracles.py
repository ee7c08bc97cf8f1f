"""Each benchmark check accepts a good input and rejects a broken one.

Run with ``python -m pytest perfbench``; needs numpy, scipy and pytest only.
"""

import math

import numpy as np
import pytest
from scipy.stats import binomtest

import oracles as O


def _stable_discrete(seed=0, n=6, m=3, p=2, radius=0.9):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    return A, rng.standard_normal((n, m)), rng.standard_normal((p, n)), 0.3 * rng.standard_normal((p, m))


def _grid_norm(A, B, C, D, points=20001):
    """Peak gain over a dense grid of the unit circle (a lower bound)."""
    z = np.exp(1j * np.linspace(0.0, np.pi, points))[:, None, None]
    G = C @ np.linalg.solve(z * np.eye(A.shape[0]) - A, np.broadcast_to(B, (points, *B.shape))) + D
    return float(np.linalg.svd(G, compute_uv=False)[:, 0].max())


@pytest.fixture(scope="module")
def system():
    sys_d = _stable_discrete()
    return sys_d, _grid_norm(*sys_d)


def test_bracket_accepts_true_norm(system):
    sys_d, norm = system
    assert O.check_norm_bracket(sys_d, norm * 1.001, norm * 0.999, "ok") == []


def test_bracket_rejects_norm_above_gamma(system):
    sys_d, norm = system
    fails = O.check_norm_bracket(sys_d, norm * 0.95, norm * 0.9, "broken")
    assert len(fails) == 1 and "not below" in fails[0]


def test_bracket_rejects_norm_below_claimed_lower_bound(system):
    sys_d, norm = system
    fails = O.check_norm_bracket(sys_d, norm * 1.2, norm * 1.1, "broken")
    assert len(fails) == 1 and "not above" in fails[0]


def test_stability_check():
    A, B, C, D = _stable_discrete()
    assert O.check_stable((A, B, C, D), "ok") == []
    assert O.check_stable((A * 1.2, B, C, D), "broken")


def test_closed_loop_with_zero_controller_is_open_loop():
    relay = {
        "sampling_period": 1.0, "fsfh_ratio": 4, "delay_seconds": 1.0, "coupling_gain": 0.15,
        "carrier_hz": 10000.0,
        "input_shaping": {"a": [[-0.5]], "b": [[0.5]], "c": [[1.0]], "d": [[0.0]]},
        "antialias": None,
        "post_filter": {"a": [[-1000.0]], "b": [[1000.0]], "c": [[1.0]], "d": [[0.0]]},
    }
    plant = O.lifted_plant(relay)
    A, B, C, D, nw, nz = plant
    assert A.shape == (4 + 2 * 4, 4 + 2 * 4) and B.shape[1] == nw + 2 and C.shape[0] == nz + 2
    K = (np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((2, 2)))
    Acl, Bcl, Ccl, Dcl = O.closed_loop(plant, K)
    np.testing.assert_array_equal(Acl[:A.shape[0], :A.shape[0]], A)
    np.testing.assert_array_equal(Dcl, D[:nz, :nw])
    # With u = 0 the error z is the shaped input W w, whose DC gain is one.
    assert O.check_norm_bracket((Acl, Bcl, Ccl, Dcl), 1.001, 0.999, "open loop") == []


def test_scaling_check():
    assert O.check_scaling({8: 0.2814, 16: 0.2745, 32: 0.2711}) == []
    assert O.check_scaling({8: 0.2814, 16: 0.2745, 32: 0.2750})
    assert O.check_scaling({8: 0.2814, 16: 0.2745, 32: 0.2740})  # gap ratio 0.07
    assert math.isclose(O.richardson({8: 0.2814, 16: 0.2745, 32: 0.2711}), 0.2677)


def _csv(points):
    """ber_curves.csv text for (beta, canceler, errors, trials) points."""
    lines = ["beta,canceler,errors,trials,ber,ci_lo,ci_hi"]
    for beta, kind, e, n in points:
        ci = binomtest(e, n).proportion_ci(confidence_level=0.95, method="wilson")
        lines.append(f"{beta:.10g},{kind},{e},{n},{e / n:.10g},{ci.low:.10g},{ci.high:.10g}")
    return "\r\n".join(lines) + "\r\n"


def _good_rows():
    betas = [1e-4, 2e-4, 4e-4]
    pts = [(b, "none", e, 10000) for b, e in zip(betas, (5012, 4987, 5003))]
    pts += [(b, "designed", e, 10000) for b, e in zip(betas, (900, 120, 9))]
    pts += [(b, "perfect", e, 10000) for b, e in zip(betas, (880, 110, 7))]
    return O.read_curves(_csv(pts))


def test_good_curves_pass_every_check():
    rows = _good_rows()
    assert O.check_shape(rows, 9, 10000) == []
    assert O.check_wilson(rows) == []
    assert O.check_none_is_coin_flip(rows) == []
    assert O.check_tracks(rows) == []
    assert O.check_monotone(rows) == []
    assert O.check_canceler_value(rows) == []
    assert O.check_upper_below([r for r in rows if r["canceler"] != "none"], 0.1) == []


def test_wilson_rejects_perturbed_interval():
    rows = _good_rows()
    rows[4]["ci_hi"] *= 1.0 + 1e-6
    assert len(O.check_wilson(rows)) == 1


def test_none_at_ber_point_three_is_rejected():
    rows = _good_rows()
    for r in rows:
        if r["canceler"] == "none":
            r["errors"], r["ber"] = 3000, 0.3
    assert O.check_none_is_coin_flip(rows)


def test_shape_rejects_wrong_ber():
    rows = _good_rows()
    rows[0]["ber"] = 0.4
    assert O.check_shape(rows, 9, 10000)
    assert O.check_shape(rows[:-1], 9, 10000)


def test_tracking_and_value_reject_a_useless_canceler():
    pts = [(1e-4, "none", 5000, 10000), (1e-4, "designed", 4000, 10000), (1e-4, "perfect", 400, 10000)]
    rows = O.read_curves(_csv(pts))
    assert O.check_tracks(rows)
    rows = O.read_curves(_csv([(1e-4, "none", 5000, 10000), (1e-4, "designed", 4950, 10000),
                               (1e-4, "perfect", 300, 10000)]))
    assert O.check_canceler_value(rows)


def test_monotone_rejects_rising_curve():
    pts = [(1e-4, "designed", 100, 10000), (2e-4, "designed", 900, 10000),
           (1e-4, "perfect", 100, 10000), (2e-4, "perfect", 90, 10000)]
    assert O.check_monotone(O.read_curves(_csv(pts)))
