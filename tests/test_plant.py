import math

import numpy as np
import pytest

from cwcancel.lti import StateSpace
from cwcancel.plant import (
    ModelError,
    RelayParams,
    RepresentabilityError,
    build_hybrid_plant,
    carrier_rotation,
    first_order_lowpass,
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
        assert p.antialias is None  # F = I

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
        plant = build_hybrid_plant(default_params)
        assert plant.ct_core.n_states == 4
        assert plant.delay_fast_steps == 16
        assert plant.ct_core.n_inputs == 6 and plant.ct_core.n_outputs == 6

    def test_open_loop_error_map_equals_input_shaping(self, default_params):
        # With u = 0 the error output is exactly W w, checked in the
        # frequency domain on the continuous core.
        plant = build_hybrid_plant(default_params)
        core = plant.ct_core
        n = core.n_states
        W = promote_iq(default_params.input_shaping)
        for w in (0.0, 0.3, 2.0, 17.0):
            E = 1j * w * np.eye(n) - core.A
            Hzw = core.C[0:2] @ np.linalg.solve(E, core.B[:, 0:2]) + core.D[0:2, 0:2]
            Ew = 1j * w * np.eye(W.n_states) - W.A
            Hw = W.C @ np.linalg.solve(Ew, W.B) + W.D
            assert np.abs(Hzw - Hw).max() < 1e-12

    def test_rejects_non_strictly_proper_shaping(self):
        bad = StateSpace([[-0.5]], [[0.5]], [[1.0]], [[0.1]])
        with pytest.raises(ModelError):
            build_hybrid_plant(RelayParams(input_shaping=bad))

    def test_rejects_unstable_shaping(self):
        bad = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ModelError):
            build_hybrid_plant(RelayParams(input_shaping=bad))

    def test_rejects_non_representable_delay(self):
        with pytest.raises(RepresentabilityError):
            RelayParams(delay_seconds=0.3, fsfh_ratio=16).delay_fast_steps()
        with pytest.raises(RepresentabilityError):
            build_hybrid_plant(RelayParams(delay_seconds=1.0 / 3.0))

    def test_deterministic(self, default_params):
        a = build_hybrid_plant(default_params)
        b = build_hybrid_plant(default_params)
        assert np.array_equal(a.ct_core.A, b.ct_core.A)
        assert np.array_equal(a.ct_core.B, b.ct_core.B)
        assert np.array_equal(a.ct_core.C, b.ct_core.C)
        assert np.array_equal(a.ct_core.D, b.ct_core.D)
        assert np.array_equal(a.coupling, b.coupling)

    def test_iq_block_structure(self, default_params):
        # With scalar prototypes every core block is kron(., I2): the two
        # baseband components never mix inside the core.
        plant = build_hybrid_plant(default_params)
        for M in (plant.ct_core.A, plant.ct_core.B, plant.ct_core.C, plant.ct_core.D):
            r, c = M.shape
            for i in range(0, r, 2):
                for j in range(0, c, 2):
                    assert M[i, j + 1] == 0.0 and M[i + 1, j] == 0.0
                    assert M[i, j] == M[i + 1, j + 1]

    def test_promote_rejects_odd_shapes(self):
        with pytest.raises(ModelError):
            promote_iq(StateSpace([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]]))

    def test_param_validation(self):
        with pytest.raises(ModelError):
            RelayParams(sampling_period=0.0)
        with pytest.raises(ModelError):
            RelayParams(fsfh_ratio=0)
        with pytest.raises(ModelError):
            RelayParams(coupling_gain=-0.1)
        with pytest.raises(ValueError):
            first_order_lowpass(0.0)

    @pytest.mark.parametrize("field", ["sampling_period", "fsfh_ratio", "delay_seconds",
                                       "coupling_gain", "carrier_hz"])
    def test_rejects_non_finite(self, field):
        # Without the check, NaN and infinity reach the coupling matrix, the
        # delay's integer conversion or the carrier phase.
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ModelError, match=f"{field} must be finite"):
                RelayParams(**{field: value})
