import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plain_bisection, scattering_probe

from cwcancel import hnorm, synthesis
from cwcancel.hnorm import _sigma_max, exceeds, frequency_response, hinf_norm_discrete
from cwcancel.lifting import LiftedPlant, closed_loop, lift
from cwcancel.lti import (NumericalFailure, StateSpace, bilinear_to_continuous,
                         bilinear_to_discrete, spectral_radius)
from cwcancel.plant import RelayParams, first_order_lowpass
from cwcancel.synthesis import (
    PROBE_MARGIN,
    DigitalController,
    Infeasible,
    SynthesisError,
    bisect_gamma,
    controller_from_dict,
    controller_to_dict,
    synthesize_at_gamma,
)

# The N = 8, tol 1e-5 search: (gamma, feasible) in probe order.
N8_TRACE = [
    (1.0, True), (0.5, True), (0.3796958923339844, True), (0.29972076416015625, True),
    (0.25, False), (0.28172874450683594, True), (0.2814445495605469, True), (0.28125, False),
    (0.28143882751464844, True), (0.2814369201660156, False),
]

# The N = 16 and N = 32, tol 1e-5 searches and their gamma_min.
PINNED = {
    16: ([(1.0, True), (0.5, True), (0.3768119812011719, True), (0.29412269592285156, True),
          (0.25, False), (0.27560997009277344, True), (0.2744922637939453, False),
          (0.2744941711425781, False), (0.27449607849121094, True)],
         0.27449607849121094),
    32: ([(1.0, True), (0.5, True), (0.37584686279296875, True), (0.2919139862060547, True),
          (0.25, False), (0.2724018096923828, True), (0.2710990905761719, False),
          (0.2711029052734375, True), (0.2711009979248047, False)],
         0.2711029052734375),
}


@pytest.fixture(scope="module")
def n8_run():
    lifted = lift(RelayParams(fsfh_ratio=8))
    return lifted, bisect_gamma(lifted, tol=1e-5)


def make_plant(A, B1, B2, C1, C2, D11, D12, D21, D22, dt=1.0):
    A = np.atleast_2d(np.asarray(A, float))
    B1 = np.atleast_2d(np.asarray(B1, float))
    B2 = np.atleast_2d(np.asarray(B2, float))
    C1 = np.atleast_2d(np.asarray(C1, float))
    C2 = np.atleast_2d(np.asarray(C2, float))
    D11 = np.atleast_2d(np.asarray(D11, float))
    D12 = np.atleast_2d(np.asarray(D12, float))
    D21 = np.atleast_2d(np.asarray(D21, float))
    D22 = np.atleast_2d(np.asarray(D22, float))
    G = StateSpace(A, np.hstack([B1, B2]),
                   np.vstack([C1, C2]),
                   np.block([[D11, D12], [D21, D22]]), dt=dt)
    return LiftedPlant(G=G, n_w=B1.shape[1], n_u=B2.shape[1],
                       n_z=C1.shape[0], n_y=C2.shape[0])


class TestBilinear:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 3),
           p=st.integers(1, 3), dt=st.sampled_from([0.5, 1.0, 2.0]))
    def test_round_trip(self, seed, n, m, p, dt):
        """bilinear_to_discrete(bilinear_to_continuous(G)) returns G."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) * 0.4
        sys = StateSpace(A, rng.standard_normal((n, m)),
                         rng.standard_normal((p, n)), rng.standard_normal((p, m)), dt=dt)
        alpha = 2.0 / sys.dt
        back = bilinear_to_discrete(bilinear_to_continuous(sys, alpha), alpha, sys.dt)
        assert back.dt == sys.dt
        for M, R in ((sys.A, back.A), (sys.B, back.B), (sys.C, back.C), (sys.D, back.D)):
            assert np.abs(M - R).max() < 1e-10

    def test_stability_and_norm_preserved(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            A *= 0.9 / max(1e-9, np.abs(np.linalg.eigvals(A)).max())
            sys = StateSpace(A, rng.standard_normal((n, 2)),
                             rng.standard_normal((2, n)), rng.standard_normal((2, 2)), dt=1.0)
            ct = bilinear_to_continuous(sys, 2.0)
            assert np.linalg.eigvals(ct.A).real.max() < 0.0
            # Norm preservation: peak over the mapped frequency axis.
            th = np.linspace(0, np.pi, 2001)
            zd = np.exp(1j * th)
            w = 2.0 * (zd - 1.0) / (zd + 1.0)
            gd = gc = 0.0
            for k in range(th.size):
                Hd = sys.C @ np.linalg.solve(zd[k] * np.eye(n) - sys.A, sys.B) + sys.D
                Hc = ct.C @ np.linalg.solve(w[k] * np.eye(n) - ct.A, ct.B) + ct.D
                assert np.abs(Hd - Hc).max() < 1e-8 * max(1.0, np.abs(Hd).max())
                gd = max(gd, np.linalg.svd(Hd, compute_uv=False)[0])
            assert gd > 0

    @pytest.mark.parametrize("pole, to_continuous", [(-1.0 + 1e-15, True), (1.0 - 1e-15, False)],
                             ids=["to_continuous", "to_discrete"])
    def test_singular_denominator_raises(self, pole, to_continuous):
        """A denominator A + I (or alpha I - A at alpha = 1) whose condition
        number exceeds 1e14 raises; A is never perturbed."""
        A = np.diag([pole, 0.5])
        sys = StateSpace(A, np.ones((2, 1)), np.ones((1, 2)), [[0.0]],
                         dt=1.0 if to_continuous else None)
        denominator = A + np.eye(2) if to_continuous else np.eye(2) - A
        assert np.linalg.cond(denominator) > 1e14
        with pytest.raises(NumericalFailure, match="condition number"):
            if to_continuous:
                bilinear_to_continuous(sys, 1.0)
            else:
                bilinear_to_discrete(sys, 1.0, 1.0)
        assert np.array_equal(sys.A, A)


class TestProbe:
    def test_resonance_rejected_between_seeds(self, monkeypatch):
        # The Riccati steps are stubbed to return K = 0, so the probe's loop
        # is the open loop, whose gain peaks near theta = pi/4, far above its
        # gains at theta = 0, pi/2 and pi: only the Hamiltonian level test
        # can find that the loop exceeds gamma.
        import cwcancel.synthesis as synthesis

        A = 0.9 * np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)],
                            [np.sin(np.pi / 4), np.cos(np.pi / 4)]])
        Gl = make_plant(A=A, B1=[[1.0], [0.0]], B2=[[0.0], [0.0]], C1=[[1.0, 0.0]],
                        C2=[[0.8, 0.3]], D11=0.0, D12=0.5, D21=0.4, D22=0.0)
        zero = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                          np.zeros((1, 1)))
        monkeypatch.setattr(synthesis, "_central_controller", lambda p: (zero, None))
        G11 = StateSpace(A, [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]], dt=1.0)
        open_norm = hinf_norm_discrete(G11, tol=1e-6)
        assert _sigma_max(G11, [0.0, np.pi / 2, np.pi]).max() < 0.5 * open_norm
        res = synthesize_at_gamma(Gl, 0.5 * open_norm)
        assert isinstance(res, Infeasible) and res.reason == "closed_loop"
        assert "exceeds gamma" in res.detail

    @pytest.mark.parametrize("run", [lambda Gl: bisect_gamma(Gl, tol=1e-2),
                                     lambda Gl: synthesize_at_gamma(Gl, 1.0)],
                             ids=["bisect_gamma", "synthesize_at_gamma"])
    @pytest.mark.parametrize("plant", [
        # z does not see u: the mapped D12 is 0.
        dict(A=0.5, B1=1.0, B2=0.0, C1=1.0, C2=0.8, D11=0.0, D12=0.0, D21=0.4, D22=0.0),
        # y sees neither x nor w: the mapped D21 is 0.
        dict(A=0.5, B1=1.0, B2=1.0, C1=1.0, C2=0.0, D11=0.0, D12=0.5, D21=0.0, D22=0.0),
        # Two controls reach z along one direction: D12 has rank 1.
        dict(A=0.5, B1=1.0, B2=[[0.0, 0.0]], C1=[[1.0], [0.0]], C2=1.0,
             D11=[[0.0], [0.0]], D12=[[0.5, 0.5], [0.0, 0.0]], D21=0.4, D22=[[0.0, 0.0]]),
    ], ids=["d12_zero", "d21_zero", "d12_rank_one"])
    def test_singular_problem_refused_before_any_probe(self, monkeypatch, plant, run):
        import cwcancel.synthesis as synthesis

        def no_probe(*args):
            raise AssertionError("a probe ran on an ill-posed problem")

        monkeypatch.setattr(synthesis, "_probe", no_probe)
        with pytest.raises(ValueError, match="ill-posed"):
            run(make_plant(**plant))

    @pytest.mark.parametrize("c", [1e-9, 1e-12])
    def test_rank_rule_is_relative(self, c):
        """F = 20c/(s+20) at N = 8 only scales the measurement: D21's two
        singular values are equal (8.1e-11 at c = 1e-9, 8.1e-14 at 1e-12)
        and below _RANK_RTOL, yet D21 is regular and accepted.  The same
        plant with its second measurement made a copy of the first has a
        rank-one D21 and is refused."""
        F = StateSpace([[-20.0]], [[20.0]], [[c]], [[0.0]])
        Gl = lift(RelayParams(fsfh_ratio=8, antialias=F))
        p, _ = synthesis._rotated_blocks(Gl)
        sv = np.linalg.svd(p.D21, compute_uv=False)
        assert sv[0] < synthesis._RANK_RTOL
        assert sv[-1] >= (1.0 - 1e-6) * sv[0]
        G, y = Gl.G, Gl.n_z
        C, D = G.C.copy(), G.D.copy()
        C[y + 1], D[y + 1] = C[y], D[y]
        copied = LiftedPlant(StateSpace(G.A, G.B, C, D, dt=G.dt), Gl.n_w, Gl.n_u, Gl.n_z, Gl.n_y)
        with pytest.raises(ValueError, match="ill-posed standard problem: D21"):
            synthesis._rotated_blocks(copied)

    def test_designed_loop_accepted_at_gamma_min_only(self, n8_run):
        """The N = 8 design's loop is proven below gamma_min*(1+PROBE_MARGIN),
        and the level test finds a gain above gamma_certified*(1-1e-4)."""
        Gl, result = n8_run
        ctrl = result.controller
        probe = synthesize_at_gamma(Gl, result.gamma_min)
        assert isinstance(probe, DigitalController)
        assert np.array_equal(probe.K.A, ctrl.K.A)
        cl = closed_loop(Gl, ctrl.K)
        assert exceeds(cl, result.gamma_min * (1.0 + PROBE_MARGIN)) is None
        level = ctrl.gamma_certified * (1.0 - 1e-4)
        gain = exceeds(cl, level)
        assert gain is not None
        assert level * (1.0 - 5e-7) <= gain <= ctrl.gamma_certified * (1.0 + 2e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), nw=st.integers(1, 4),
           nz=st.integers(1, 4), factor=st.sampled_from([0.5, 0.95, 1.05, 2.0, 8.0, 40.0]))
    def test_matches_scattering_oracle(self, seed, n, nw, nz, factor):
        """Rotating w and z once by the SVD of D11 gives the verdict, reason
        and controller of the scattering of the whole D11 at every gamma, on
        plants with n_w != n_z too, at levels below and above sigma_max(D11)."""
        rng = np.random.default_rng(seed)
        nu, ny = int(rng.integers(1, nz + 1)), int(rng.integers(1, nw + 1))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(1e-9, np.abs(np.linalg.eigvals(A)).max())
        Gl = make_plant(A=A, B1=rng.standard_normal((n, nw)), B2=rng.standard_normal((n, nu)),
                        C1=rng.standard_normal((nz, n)), C2=rng.standard_normal((ny, n)),
                        D11=rng.standard_normal((nz, nw)), D12=rng.standard_normal((nz, nu)),
                        D21=rng.standard_normal((ny, nw)),
                        D22=0.3 * rng.standard_normal((ny, nu)))
        d11 = bilinear_to_continuous(Gl.G, 2.0).D[:nz, :nw]
        gamma = factor * np.linalg.svd(d11, compute_uv=False)[0]
        ours, ref = synthesize_at_gamma(Gl, gamma), scattering_probe(Gl, gamma)
        assert type(ours) is type(ref)
        if isinstance(ref, Infeasible):
            assert ours.reason == ref.reason
        else:
            th = np.linspace(0.0, np.pi, 17)
            k_ours, k_ref = frequency_response(ours.K, th), frequency_response(ref.K, th)
            assert np.abs(k_ours - k_ref).max() <= 1e-9 * max(1.0, np.abs(k_ref).max())

    def test_accepted_probe_evaluates_no_frequency_response(self, monkeypatch):
        """A probe whose closed loop is proven below the level at N = 32
        decides with one Cholesky and one Hamiltonian test."""
        Gl = lift(RelayParams(fsfh_ratio=32))
        calls = []
        real = hnorm.frequency_response
        monkeypatch.setattr(hnorm, "frequency_response",
                            lambda *args: calls.append(args) or real(*args))
        assert isinstance(synthesize_at_gamma(Gl, PINNED[32][1]), DigitalController)
        assert calls == []

    @pytest.mark.parametrize("gamma, verdict", [
        (0.1, "d11"), (0.2, "care_y"), (0.265, "coupling"), (0.3, None),
    ])
    def test_verdicts_on_the_default_plant(self, default_lifted, gamma, verdict):
        """Each probe condition fails on the default lifted plant at some
        level: the D11 bound, the estimation Riccati, then the coupling."""
        res = synthesize_at_gamma(default_lifted, gamma)
        if verdict is None:
            assert isinstance(res, DigitalController)
        else:
            assert isinstance(res, Infeasible) and res.reason == verdict

    def test_singular_controller_map_is_infeasible(self, default_lifted, monkeypatch):
        """A bilinear map that fails inside a probe rejects the probe."""
        import cwcancel.synthesis as synthesis

        def singular(*args):
            raise NumericalFailure("bilinear map: alpha I - A has condition number 1e+16")

        monkeypatch.setattr(synthesis, "bilinear_to_discrete", singular)
        res = synthesize_at_gamma(default_lifted, 0.3)
        assert isinstance(res, Infeasible) and res.reason == "closed_loop"
        assert "condition number" in res.detail

    def test_rejects_bad_gamma(self):
        Gl = make_plant(A=0.5, B1=1.0, B2=1.0, C1=1.0, C2=1.0,
                        D11=0.0, D12=0.3, D21=0.3, D22=0.0)
        with pytest.raises(ValueError):
            synthesize_at_gamma(Gl, 0.0)


class TestGridOracle:
    def test_scalar_toy_matches_grid_search(self):
        # Dense grid over one-state controllers K(z) = d + g/(z - a) as an
        # independent oracle for the achievable closed-loop norm.
        Gl = make_plant(A=0.6, B1=0.9, B2=1.0, C1=1.0, C2=1.0,
                        D11=0.05, D12=0.6, D21=0.5, D22=0.0)
        G = Gl.G
        th = np.linspace(0.0, np.pi, 257)
        z = np.exp(1j * th)
        resp = (z - G.A[0, 0]) ** -1
        g11 = G.C[0, 0] * resp * G.B[0, 0] + G.D[0, 0]
        g12 = G.C[0, 0] * resp * G.B[0, 1] + G.D[0, 1]
        g21 = G.C[1, 0] * resp * G.B[0, 0] + G.D[1, 0]
        g22 = G.C[1, 0] * resp * G.B[0, 1] + G.D[1, 1]

        def best_over(a_grid, g_grid, d_grid):
            best = np.inf
            for a in a_grid:
                kr = 1.0 / (z - a)
                for g in g_grid:
                    for d in d_grid:
                        K = d + g * kr
                        with np.errstate(invalid="ignore", divide="ignore"):
                            T = g11 + g12 * K / (1.0 - g22 * K) * g21
                            peak = np.abs(T).max()
                        # closed-loop poles: plant pole, controller pole and
                        # the loop determinant; screen via a stability proxy
                        Acl = np.array([[G.A[0, 0] + G.B[0, 1] * d * G.C[1, 0], G.B[0, 1] * g],
                                        [G.C[1, 0], a]])
                        if np.abs(np.linalg.eigvals(Acl)).max() < 1.0 and peak < best:
                            best = peak
            return best

        coarse = np.linspace(-0.95, 0.95, 39)
        best1 = best_over(coarse, np.linspace(-2.0, 2.0, 41), np.linspace(-2.0, 2.0, 41))
        result = bisect_gamma(Gl, tol=1e-4)
        assert result.gamma_min == pytest.approx(best1, abs=5e-3)


class TestBisection:
    def test_random_plants_certify(self):
        # Dense cross terms and nonzero D11: every returned controller must
        # carry a certificate at or below its synthesis level, and the level
        # just under the bracket must have been rejected.
        rng = np.random.default_rng(73)
        solved = 0
        for _ in range(6):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n)) * 0.5
            Gl = make_plant(
                A=A,
                B1=rng.standard_normal((n, 2)), B2=rng.standard_normal((n, 1)),
                C1=rng.standard_normal((2, n)), C2=rng.standard_normal((1, n)),
                D11=rng.standard_normal((2, 2)) * 0.1,
                D12=rng.standard_normal((2, 1)),
                D21=rng.standard_normal((1, 2)),
                D22=np.zeros((1, 1)))
            result = bisect_gamma(Gl, tol=1e-3)
            ctrl = result.controller
            assert ctrl.gamma_certified <= result.gamma_min * 1.001
            infeas = [g for g, ok in result.bisection_trace if not ok]
            if infeas:
                assert max(infeas) <= result.gamma_min
            solved += 1
        assert solved == 6

    def test_default_plant(self, default_lifted, design_run):
        result, _ = design_run
        ctrl = result.controller
        cl = closed_loop(default_lifted, ctrl.K)
        assert spectral_radius(cl.A) < 1.0
        assert ctrl.gamma_certified <= result.gamma_min * 1.001
        assert ctrl.gamma_certified <= ctrl.gamma_achieved * (1.0 + 1e-3)

    def test_alpha_zero_gamma_below_one(self):
        lifted = lift(RelayParams(coupling_gain=0.0))
        result = bisect_gamma(lifted, tol=1e-3)
        assert result.gamma_min <= 1.0 + 1e-3

    def test_trace_is_monotone(self, design_run):
        result, _ = design_run
        feas = [g for g, ok in result.bisection_trace if ok]
        infeas = [g for g, ok in result.bisection_trace if not ok]
        assert feas, "no feasible probes recorded"
        if infeas:
            assert min(feas) >= max(infeas) - 1e-9

    def test_coarse_tol_upper_bounds_fine(self, default_lifted, design_run):
        coarse = bisect_gamma(default_lifted, tol=0.5)
        fine, _ = design_run
        assert coarse.gamma_min >= fine.gamma_min - 1e-9

    def test_certificate_matches_time_domain_worst_case(self, default_lifted, design_run):
        # Power iteration on the finite-horizon input-output operator (with
        # its adjoint realized by the transposed system on reversed time)
        # must approach the frequency-sweep certificate from below.
        result, _ = design_run
        cl = closed_loop(default_lifted, result.controller.K)
        A, B, C, D = cl.A, cl.B, cl.C, cl.D

        def apply(Am, Bm, Cm, Dm, u):
            x = np.zeros(Am.shape[0])
            y = np.empty((u.shape[0], Cm.shape[0]))
            for t in range(u.shape[0]):
                y[t] = Cm @ x + Dm @ u[t]
                x = Am @ x + Bm @ u[t]
            return y

        rng = np.random.default_rng(0)
        horizon = 3000  # several closed-loop time constants
        w = rng.standard_normal((horizon, B.shape[1]))
        w /= np.linalg.norm(w)
        sigma = 0.0
        for _ in range(8):
            z = apply(A, B, C, D, w)
            sigma = np.linalg.norm(z)
            v = apply(A.T, C.T, B.T, D.T, z[::-1])[::-1]
            w = v / np.linalg.norm(v)
        cert = result.controller.gamma_certified
        assert sigma <= cert * (1.0 + 1e-6)
        assert sigma >= cert * 0.98

    def test_pinned_n8_bisection(self, n8_run):
        """Every verdict of the N = 8, tol 1e-5 bisection, so a flipped one shows."""
        _, result = n8_run
        assert result.bisection_trace == N8_TRACE
        assert result.gamma_min == 0.28143882751464844

    @pytest.mark.parametrize("N", sorted(PINNED))
    def test_pinned_bisection(self, N):
        trace, gamma_min = PINNED[N]
        result = bisect_gamma(lift(RelayParams(fsfh_ratio=N)), tol=1e-5)
        assert result.bisection_trace == trace
        assert result.gamma_min == gamma_min

    @pytest.mark.parametrize("scale, gamma_min, first_feasible", [
        (8.0, 2.251953125, 4.0),
        (40.0, 11.2578125, 16.0),
    ], ids=["Wx8", "Wx40"])
    def test_doubling_brackets_without_repeating_a_level(self, scale, gamma_min,
                                                         first_feasible):
        """With W scaled so that gamma_min > 1, the infeasible levels 1, 2, 4, ...
        double up to the first feasible level h; the last of them is the lower
        bracket, so every later probe lies strictly inside (h/2, h) and no level
        is probed twice."""
        W = StateSpace([[-0.5]], [[0.5]], [[scale]], [[0.0]])
        result = bisect_gamma(lift(RelayParams(fsfh_ratio=8, input_shaping=W)), tol=1e-3)
        levels = [g for g, _ in result.bisection_trace]
        k = [ok for _, ok in result.bisection_trace].index(True)
        assert levels[:k + 1] == [2.0 ** j for j in range(k + 1)]
        assert levels[k] == first_feasible
        assert all(0.5 * first_feasible < g < first_feasible for g in levels[k + 1:])
        assert len(set(levels)) == len(levels)
        assert result.gamma_min == gamma_min

    @pytest.mark.parametrize("tol", [1e-16, 1e-20])
    def test_tiny_tol_stops_when_the_bracket_cannot_shrink(self, n8_run, tol):
        """Below the float spacing of gamma_min, the bisection stops once lo and
        hi are adjacent floats: no level is probed twice, the probe count stays
        bounded, and gamma_min is the tol-1e-16 value."""
        lifted, _ = n8_run
        result = bisect_gamma(lifted, tol=tol)
        levels = [g for g, _ in result.bisection_trace]
        assert len(set(levels)) == len(levels)
        assert len(levels) <= 64
        assert result.gamma_min == 0.2814382929927582

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, 0.0])
    def test_rejects_bad_tol(self, tol):
        Gl = make_plant(A=0.5, B1=1.0, B2=1.0, C1=1.0, C2=1.0,
                        D11=0.0, D12=0.3, D21=0.3, D22=0.0)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            bisect_gamma(Gl, tol=tol)

    def test_deterministic(self, default_lifted, design_run):
        again = bisect_gamma(default_lifted, tol=1e-3)
        ref, _ = design_run
        assert again.bisection_trace == ref.bisection_trace
        assert np.array_equal(again.controller.K.A, ref.controller.K.A)
        assert np.array_equal(again.controller.K.B, ref.controller.K.B)
        assert np.array_equal(again.controller.K.C, ref.controller.K.C)
        assert np.array_equal(again.controller.K.D, ref.controller.K.D)
        assert again.controller.gamma_certified == ref.controller.gamma_certified

    def test_fsfh_convergence_first_order(self):
        # gamma_min(N) approaches the sampled-data optimum from above, and
        # each doubling of the FSFH ratio roughly halves the gap (first-order
        # FSFH convergence).  A tight tol keeps bisection steps well below
        # the gaps (about 7e-3 and 3.4e-3).
        g = {N: bisect_gamma(lift(RelayParams(fsfh_ratio=N)),
                             tol=1e-5).gamma_min
             for N in (8, 16, 32)}
        assert g[8] > g[16] > g[32]
        ratio = (g[16] - g[32]) / (g[8] - g[16])
        assert 0.4 <= ratio <= 0.6, f"gamma_min {g}, gap ratio {ratio:.3f}"


def bracket(trace):
    """A search's final [lo, hi]: its largest infeasible level (0.0 if none)
    and its smallest feasible one."""
    return (max([g for g, ok in trace if not ok], default=0.0),
            min(g for g, ok in trace if ok))


def scaled_w(c):
    """The default input shaping 1/(2s + 1) with its C scaled by c."""
    return StateSpace([[-0.5]], [[0.5]], [[c]], [[0.0]])


def scalar_filter(rng, proper):
    """A stable scalar filter of order 1 (pole in [0.2, 50]) or 2 (omega_n in
    [0.5, 50], zeta in [0.2, 1.5]), output gain in [0.5, 2] and, if proper,
    a feedthrough in [-0.5, 0.5]."""
    gain, d = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5) if proper else 0.0
    if rng.random() < 0.5:
        pole = rng.uniform(0.2, 50.0)
        return StateSpace([[-pole]], [[pole]], [[gain]], [[d]])
    wn, zeta = rng.uniform(0.5, 50.0), rng.uniform(0.2, 1.5)
    return StateSpace([[0.0, 1.0], [-wn ** 2, -2.0 * zeta * wn]], [[0.0], [wn ** 2]],
                      [[gain, 0.0]], [[d]])


def random_relay(rng):
    """One draw of the random-filter recipe of ROADMAP's baseline table, as
    reconstructed here: W strictly proper, F (70 %) and P proper scalar
    filters; N in {1, 2, 4, 8}, h = 1, d in 1..3N fast steps, alpha in
    [0, 0.9], carrier in [0, 2e4] Hz."""
    W = scalar_filter(rng, proper=False)
    F = scalar_filter(rng, proper=True) if rng.random() < 0.7 else None
    P = scalar_filter(rng, proper=True)
    N = int(rng.choice([1, 2, 4, 8]))
    d = int(rng.integers(1, 3 * N + 1))
    return RelayParams(fsfh_ratio=N, delay_seconds=d / N, coupling_gain=rng.uniform(0.0, 0.9),
                       carrier_hz=rng.uniform(0.0, 2e4), input_shaping=W, antialias=F,
                       post_filter=P)


ORACLE_CASES = [
    *(pytest.param(RelayParams(fsfh_ratio=N), tol, id=f"N{N}-tol{tol:g}")
      for N in (1, 2, 4, 8, 16, 32, 64) for tol in (1e-3, 1e-5, 1e-8)),
    pytest.param(RelayParams(fsfh_ratio=8, antialias=first_order_lowpass(0.01)), 1e-5,
                 id="lowpass"),
    pytest.param(RelayParams(fsfh_ratio=8, input_shaping=scaled_w(8.0)), 1e-3, id="Wx8"),
    pytest.param(RelayParams(fsfh_ratio=8, input_shaping=scaled_w(40.0)), 1e-3, id="Wx40"),
]


class TestSearchAgainstBisection:
    """bisect_gamma's secant search against plain bisection, the oracle in
    tests/conftest.py: where the verdicts are monotone in gamma, both end on
    the same bisection cell with the same controller."""

    @pytest.mark.parametrize("params, tol", ORACLE_CASES)
    def test_ends_on_the_bisection_cell(self, params, tol):
        Gl = lift(params)
        lo, hi, trace, ctrl = plain_bisection(Gl, tol)
        result = bisect_gamma(Gl, tol)
        assert bracket(result.bisection_trace) == (lo, hi)
        assert result.gamma_min == hi
        K, R = result.controller.K, ctrl.K
        for ours, ref in ((K.A, R.A), (K.B, R.B), (K.C, R.C), (K.D, R.D)):
            assert np.array_equal(ours, ref)
        assert len(result.bisection_trace) <= len(trace) + 3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(exponent=st.floats(-14.0, 3.0), power=st.floats(0.3, 4.0), blind=st.floats(0.0, 1.2),
           tol=st.sampled_from([0.5, 1e-2, 1e-3, 1e-5, 1e-8, 1e-13, 1e-17]))
    def test_ends_on_the_bisection_cell_of_any_threshold(self, n8_run, exponent, power,
                                                         blind, tol):
        """Fake probes feasible from a threshold t up, with rho(XY) =
        (t/gamma)^power, and none below blind*t (as if a Riccati equation
        failed there): the search ends on plain bisection's bracket."""
        Gl, t = n8_run[0], 10.0 ** exponent

        def fake(Gl, p, s, gamma):
            rho = (t / gamma) ** power if gamma >= blind * t else None
            if gamma >= t:
                return DigitalController(K=None, gamma_achieved=gamma), rho
            return Infeasible("coupling", "fake"), rho

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "_probe", fake)
            mp.setattr(synthesis, "certify", lambda Gl, ctrl: {
                "within_reported": True, "gamma_certified": ctrl.gamma_achieved,
                "spectral_radius": 0.5})
            lo, hi, trace, _ = plain_bisection(Gl, tol)
            result = bisect_gamma(Gl, tol)
        assert bracket(result.bisection_trace) == (lo, hi)
        assert len(set(result.bisection_trace)) == len(result.bisection_trace)

    def test_probe_budget(self, n8_run, design_run):
        """At tol 1e-5, N = 8, 16 and 32 take at most 12 probes each and 36
        in all, and the defaults (N = 16, tol 1e-3) at most 10; bisection
        takes 20 each and 13."""
        counts = [len(n8_run[1].bisection_trace)] + [
            len(bisect_gamma(lift(RelayParams(fsfh_ratio=N)), tol=1e-5).bisection_trace)
            for N in (16, 32)]
        assert max(counts) <= 12 and sum(counts) <= 36
        assert len(design_run[0].bisection_trace) <= 10

    def test_random_filters(self, monkeypatch):
        """Draws 0-11 of the random-filter recipe at tol 1e-3, exit 1
        included: where the verdicts of both searches together are monotone
        in gamma, they end on the same bracket; every design that returns
        ends on a feasible level within tol of an infeasible one, with a
        certificate at most hi (1 + 1e-6)."""
        probe, trace = synthesis._probe, []

        def recorded(Gl, p, s, gamma):
            out = probe(Gl, p, s, gamma)
            trace.append((gamma, isinstance(out[0], DigitalController)))
            return out

        monkeypatch.setattr(synthesis, "_probe", recorded)
        rng, tol, compared = np.random.default_rng(7), 1e-3, 0
        for _ in range(12):
            Gl = lift(random_relay(rng))
            _, _, oracle, _ = plain_bisection(Gl, tol)
            trace.clear()
            try:
                result = bisect_gamma(Gl, tol)
            except SynthesisError:
                result = None
            lo, hi = bracket(trace)
            if bracket(oracle + trace)[0] < bracket(oracle + trace)[1]:
                assert (lo, hi) == bracket(oracle)
                compared += 1
            if result is not None:
                assert result.gamma_min == hi and (hi - lo) / lo <= tol
                assert result.controller.gamma_certified <= hi * (1.0 + 1e-6)
        assert compared >= 6


class TestClosedLoop:
    """closed_loop against an independent oracle: the lower LFT of the
    plant's and K's frequency responses, T = G11 + G12 (I - K G22)^{-1} K G21."""

    THETAS = np.linspace(0.0, np.pi, 33)

    @classmethod
    def lft_gain(cls, Gl, K):
        g = frequency_response(Gl.G, cls.THETAS)
        k = frequency_response(K, cls.THETAS)
        nw, nz = Gl.n_w, Gl.n_z
        loop = np.eye(Gl.n_u) - k @ g[:, nz:, nw:]
        T = g[:, :nz, :nw] + g[:, :nz, nw:] @ np.linalg.solve(loop, k @ g[:, nz:, :nw])
        return float(np.linalg.svd(T, compute_uv=False)[:, 0].max())

    @classmethod
    def assembled(cls, Gl, K):
        return float(_sigma_max(closed_loop(Gl, K), cls.THETAS).max())

    def test_matches_assembled_loop_at_n8(self, n8_run):
        Gl, result = n8_run
        K0 = StateSpace(np.zeros((0, 0)), np.zeros((0, Gl.n_y)), np.zeros((Gl.n_u, 0)),
                        np.zeros((Gl.n_u, Gl.n_y)), dt=Gl.G.dt)
        for K in (result.controller.K, K0):
            ref = self.assembled(Gl, K)
            assert self.lft_gain(Gl, K) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), nu=st.integers(1, 2),
           ny=st.integers(1, 2), nk=st.integers(0, 4))
    def test_matches_assembled_loop_on_random_plants(self, seed, n, nu, ny, nk):
        """General 1 x 1 to 2 x 2 controllers, where K G22 and G22 K differ."""
        rng = np.random.default_rng(seed)
        Gl = make_plant(A=0.3 * rng.standard_normal((n, n)), B1=rng.standard_normal((n, 3)),
                        B2=rng.standard_normal((n, nu)), C1=rng.standard_normal((3, n)),
                        C2=rng.standard_normal((ny, n)), D11=rng.standard_normal((3, 3)),
                        D12=rng.standard_normal((3, nu)), D21=rng.standard_normal((ny, 3)),
                        D22=0.3 * rng.standard_normal((ny, nu)))
        K = StateSpace(0.3 * rng.standard_normal((nk, nk)), rng.standard_normal((nk, ny)),
                       rng.standard_normal((nu, nk)), 0.3 * rng.standard_normal((nu, ny)),
                       dt=1.0)
        assert self.lft_gain(Gl, K) == pytest.approx(self.assembled(Gl, K), rel=1e-9, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), nw=st.integers(1, 3),
           nz=st.integers(1, 3), nk=st.integers(0, 4))
    def test_zero_controller_gives_open_loop_gain(self, seed, n, nw, nz, nk):
        """K = 0, static or with states, leaves T = G11: both the LFT and the
        assembled loop give the gain of the open-loop w -> z map."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(1e-9, np.abs(np.linalg.eigvals(A)).max())
        Gl = make_plant(A=A, B1=rng.standard_normal((n, nw)), B2=rng.standard_normal((n, 1)),
                        C1=rng.standard_normal((nz, n)), C2=rng.standard_normal((1, n)),
                        D11=rng.standard_normal((nz, nw)), D12=rng.standard_normal((nz, 1)),
                        D21=rng.standard_normal((1, nw)), D22=rng.standard_normal((1, 1)))
        K0 = StateSpace(0.5 * np.eye(nk), rng.standard_normal((nk, 1)), np.zeros((1, nk)),
                        np.zeros((1, 1)), dt=1.0)
        G11 = StateSpace(A, Gl.G.B[:, :nw], Gl.G.C[:nz], Gl.G.D[:nz, :nw], dt=1.0)
        ref = float(_sigma_max(G11, self.THETAS).max())
        assert self.lft_gain(Gl, K0) == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert self.assembled(Gl, K0) == pytest.approx(ref, rel=1e-9, abs=0.0)
        if nk == 0:
            cl = closed_loop(Gl, K0)
            for M, R in ((cl.A, G11.A), (cl.B, G11.B), (cl.C, G11.C), (cl.D, G11.D)):
                assert np.array_equal(M, R)


class TestFailurePaths:
    def test_no_feasible_gamma_raises(self):
        # A regular problem whose unstable mode u cannot reach: no gamma level
        # admits a stabilizing controller, so the doubling search must give up.
        from cwcancel.synthesis import SynthesisError

        Gl = make_plant(A=1.5, B1=1.0, B2=0.0, C1=1.0, C2=1.0,
                        D11=0.0, D12=0.5, D21=0.5, D22=0.0)
        with pytest.raises(SynthesisError, match="doublings"):
            bisect_gamma(Gl, tol=1e-2)

    def test_certificate_below_an_infeasible_level_raises(self, monkeypatch):
        """A verdict that the final certificate disproves is refused: with every
        level below 0.3 called infeasible, the bisection ends at gamma_min
        0.30005 with a controller proven below 0.29868, under the largest
        infeasible level 0.29980."""
        from cwcancel.synthesis import SynthesisError

        probe = synthesis._probe
        monkeypatch.setattr(synthesis, "_probe", lambda Gl, p, s, gamma: (
            (Infeasible("care_x", "forced"), None) if gamma < 0.3 else probe(Gl, p, s, gamma)))
        message = r"certificate 0\.29867\d lies below the infeasible level 0\.29980\d"
        with pytest.raises(SynthesisError, match=message):
            bisect_gamma(lift(RelayParams(fsfh_ratio=8)), tol=1e-3)

    def test_ill_posed_shape_rejected(self):
        # More controls than error outputs cannot satisfy the rank condition.
        Gl = make_plant(A=0.5, B1=[[1.0, 0.0]], B2=[[1.0, 1.0]],
                        C1=[[1.0]], C2=[[1.0]],
                        D11=[[0.0, 0.0]], D12=[[0.5, 0.5]],
                        D21=[[0.3, 0.0]], D22=[[0.0, 0.0]])
        with pytest.raises(ValueError, match="ill-posed"):
            synthesize_at_gamma(Gl, 1.0)


class TestControllerIO:
    def test_round_trip(self, designed_controller):
        doc = controller_to_dict(designed_controller)
        back = controller_from_dict(doc)
        assert np.array_equal(back.K.A, designed_controller.K.A)
        assert back.K.dt == designed_controller.K.dt
        assert back.gamma_achieved == designed_controller.gamma_achieved
        assert back.gamma_certified == designed_controller.gamma_certified

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            controller_from_dict({"a": [[0.0]]})
