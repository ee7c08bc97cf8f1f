import math

import numpy as np
import pytest

from cwcancel.lti import StateSpace
from cwcancel.plant import (
    RelayParams,
    assemble_loop,
    carrier_rotation,
    first_order_lowpass,
    identity_filter,
    promote_iq,
)


class TestCarrierRotation:
    def test_integer_cycles_give_identity(self):
        # f = 10 kHz with a 1 s delay is a whole number of carrier cycles.
        R = carrier_rotation(10000.0, 1.0)
        assert np.abs(R - np.eye(2)).max() <= 1e-12

    def test_quarter_turn(self):
        R = carrier_rotation(0.25, 1.0)
        assert np.abs(R - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() <= 1e-12

    def test_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            f, L = float(rng.uniform(0, 1e5)), float(rng.uniform(0, 10))
            R = carrier_rotation(f, L)
            assert np.abs(R.T @ R - np.eye(2)).max() <= 1e-12
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_delay_cancels(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            f, L = float(rng.uniform(0, 1e4)), float(rng.uniform(-5, 5))
            P = carrier_rotation(f, L) @ carrier_rotation(f, -L)
            assert np.abs(P - np.eye(2)).max() <= 1e-12


class TestDefaults:
    def test_table_values(self):
        p = RelayParams()
        assert p.coupling_gain == 0.15
        assert p.fsfh_ratio == 16
        assert p.sampling_period == 1.0
        assert p.delay_seconds == 1.0
        assert p.carrier_hz == 10000.0
        F = identity_filter()  # F = I, however it was given
        for q in (p, RelayParams(antialias=None), RelayParams(antialias=F)):
            assert all(np.array_equal(getattr(q.antialias, m), getattr(F, m)) for m in "ABCD")

    def test_filter_realizations(self):
        p = RelayParams()
        # W = 1/(2s+1), P = 1/(0.001s+1) as minimal first-order systems.
        assert p.input_shaping.A[0, 0] == pytest.approx(-0.5)
        assert p.post_filter.A[0, 0] == pytest.approx(-1000.0)
        for f in (p.input_shaping, p.post_filter):
            dc = f.C @ np.linalg.solve(-f.A, f.B) + f.D
            assert dc[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestBuild:
    def test_state_dimension(self, default_params):
        core = assemble_loop(default_params)
        assert core.n_states == 4
        assert default_params.delay_fast_steps() == 16
        assert core.n_inputs == 6 and core.n_outputs == 6

    def test_open_loop_error_map_equals_input_shaping(self, default_params):
        # With u = 0 the error output is exactly W w, checked in the
        # frequency domain on the continuous core.
        core = assemble_loop(default_params)
        n = core.n_states
        W = default_params.input_shaping
        for w in (0.0, 0.3, 2.0, 17.0):
            E = 1j * w * np.eye(n) - core.A
            Hzw = core.C[0:2] @ np.linalg.solve(E, core.B[:, 0:2]) + core.D[0:2, 0:2]
            Ew = 1j * w * np.eye(W.n_states) - W.A
            Hw = W.C @ np.linalg.solve(Ew, W.B) + W.D
            assert np.abs(Hzw - Hw).max() < 1e-12

    def test_rejects_non_strictly_proper_shaping(self):
        # Checked at construction; only the zero-state I/Q pass-through, the
        # simulator's W, may have a feedthrough.
        for bad in (StateSpace([[-0.5]], [[0.5]], [[1.0]], [[0.1]]),
                    StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                               0.3 * np.eye(2))):
            with pytest.raises(ValueError, match="strictly proper"):
                RelayParams(input_shaping=bad)
        assert RelayParams(input_shaping=identity_filter()).input_shaping.n_states == 0

    def test_rejects_unstable_shaping(self):
        bad = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="input_shaping must be a stable"):
            RelayParams(input_shaping=bad)

    @pytest.mark.parametrize("name", ["input_shaping", "antialias", "post_filter"])
    def test_filters_checked_at_construction(self, name):
        unstable = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        discrete = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
        odd = StateSpace([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])
        for bad, message in ((unstable, f"{name} must be a stable"),
                             (discrete, f"{name} must be continuous-time"),
                             (odd, "1x1 .scalar. or 2x2")):
            with pytest.raises(ValueError, match=message):
                RelayParams(**{name: bad})

    def test_filters_stored_in_iq_form(self):
        lp = first_order_lowpass(0.01)
        p = RelayParams(input_shaping=lp, antialias=lp, post_filter=lp)
        for name in ("input_shaping", "antialias", "post_filter"):
            f = getattr(p, name)
            assert (f.n_inputs, f.n_outputs, f.n_states) == (2, 2, 2)
            assert np.array_equal(f.A, promote_iq(lp).A)

    def test_rejects_non_representable_delay(self):
        with pytest.raises(ValueError, match="is 4.8 fast steps"):
            RelayParams(delay_seconds=0.3, fsfh_ratio=16)
        with pytest.raises(ValueError, match="fast steps; delay . N / h must be an integer"):
            RelayParams(delay_seconds=1.0 / 3.0)
        with pytest.raises(ValueError, match="is inf fast steps"):  # too long for a float
            RelayParams(delay_seconds=1e308)

    def test_deterministic(self, default_params):
        a = assemble_loop(default_params)
        b = assemble_loop(default_params)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.D, b.D)

    def test_iq_block_structure(self, default_params):
        # With scalar prototypes every core block is kron(., I2): the two
        # baseband components never mix inside the core.
        core = assemble_loop(default_params)
        for M in (core.A, core.B, core.C, core.D):
            r, c = M.shape
            for i in range(0, r, 2):
                for j in range(0, c, 2):
                    assert M[i, j + 1] == 0.0 and M[i + 1, j] == 0.0
                    assert M[i, j] == M[i + 1, j + 1]

    def test_promote_rejects_odd_shapes(self):
        with pytest.raises(ValueError, match="1x1 .scalar. or 2x2"):
            promote_iq(StateSpace([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]]))

    def test_param_validation(self):
        with pytest.raises(ValueError, match="sampling_period must be positive"):
            RelayParams(sampling_period=0.0)
        with pytest.raises(ValueError, match="fsfh_ratio must be a positive integer"):
            RelayParams(fsfh_ratio=0)
        with pytest.raises(ValueError, match="coupling_gain must be nonnegative"):
            RelayParams(coupling_gain=-0.1)
        with pytest.raises(ValueError, match="time constant must be positive"):
            first_order_lowpass(0.0)

    @pytest.mark.parametrize("field", ["sampling_period", "fsfh_ratio", "delay_seconds",
                                       "coupling_gain", "carrier_hz"])
    def test_rejects_bools(self, field):
        # True would otherwise run as 1: N = 1, or h = 1 stored as True.
        with pytest.raises(ValueError, match=f"{field} must be a number, got True"):
            RelayParams(**{field: True})

    @pytest.mark.parametrize("value", [16.0, np.float64(16.0), 2.5])
    def test_fsfh_ratio_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="fsfh_ratio must be a positive integer"):
            RelayParams(fsfh_ratio=value)
        p = RelayParams(fsfh_ratio=np.int64(16))
        assert type(p.fsfh_ratio) is int and p.fsfh_ratio == 16

    @pytest.mark.parametrize("field", ["sampling_period", "fsfh_ratio", "delay_seconds",
                                       "coupling_gain", "carrier_hz"])
    def test_rejects_non_finite(self, field):
        # Without the check, NaN and infinity reach the coupling matrix, the
        # delay's integer conversion or the carrier phase.
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                RelayParams(**{field: value})
