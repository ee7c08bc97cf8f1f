import dataclasses
import json

import numpy as np
import pytest

from cwcancel import synthesis
from cwcancel.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STEP_MISMATCH,
    EXIT_SYNTH,
    EXIT_UNSTABLE,
    load_config,
    main,
    params_from_config,
)
from cwcancel.hnorm import UnstableSystemError
from cwcancel.lti import NumericalFailure, StateSpace
from cwcancel.plant import RelayParams
from cwcancel.simulate import SimConfig
from cwcancel.synthesis import Infeasible, controller_to_dict, save_controller


@pytest.fixture(scope="module")
def controller_file(tmp_path_factory, designed_controller):
    path = tmp_path_factory.mktemp("ctrl") / "controller.json"
    save_controller(designed_controller, path)
    return path


@pytest.fixture(scope="module", params=[1e3, 1e6, 1e12],
                ids=["poles_1e3", "poles_1e6", "poles_1e12"])
def divergent_controller_file(request, tmp_path_factory):
    """2-state controller with both poles at 1e3, 1e6 or 1e12: every closed
    loop diverges, and each command refuses it by its spectral radius before
    it runs the loop, so no state or power of A gets the chance to overflow."""
    p = request.param
    doc = {"a": [[p, 0.0], [0.0, p]], "b": [[1.0, 0.0], [0.0, 1.0]],
           "c": [[1.0, 0.0], [0.0, 1.0]], "d": [[0.0, 0.0], [0.0, 0.0]],
           "step_seconds": 1.0, "gamma_achieved": 1.0, "gamma_certified": None}
    path = tmp_path_factory.mktemp("ctrl") / "divergent.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def half_step_controller_file(tmp_path_factory, designed_controller):
    """The designed controller relabelled with step_seconds = 0.5 (h = 1)."""
    doc = controller_to_dict(designed_controller)
    doc["step_seconds"] = 0.5
    path = tmp_path_factory.mktemp("ctrl") / "half_step.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "quick.json"
    path.write_text(json.dumps({
        "comms": {"n_symbols": 400},
        "sweep": {"n_points": 3},
    }))
    return path


class TestConfig:
    def test_defaults_stand_alone(self):
        cfg = load_config(None)
        assert cfg == DEFAULT_CONFIG

    def test_partial_override(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sim": {"seed": 5}}))
        cfg = load_config(str(p))
        assert cfg["sim"]["seed"] == 5
        assert cfg["sim"]["relay_gain_db"] == 60.0

    def test_unknown_key_rejected_with_path(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"relay": {"fsfh_ratioX": 8}}))
        with pytest.raises(ValueError, match="relay.fsfh_ratioX"):
            load_config(str(p))

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"relay": }')
        rc = main(["design", "--config", str(p)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, capsys):
        assert main(["certify", "--controller", "/nonexistent.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("doc, path", [
        ({"relay": {"sampling_period": {"x": 1}}}, "relay.sampling_period"),
        ({"comms": {"n_symbols": [1]}}, "comms.n_symbols"),
        ({"sim": {"seed": 1.7}}, "sim.seed"),
        ({"relay": {"fsfh_ratio": True}}, "relay.fsfh_ratio"),
        ({"sweep": {"cancelers": "designed"}}, "sweep.cancelers"),
        ({"sweep": {"betas": [0.001, "x"]}}, "sweep.betas[1]"),
        ({"relay": {"input_shaping": {"a": [[-1.0]]}}}, "relay.input_shaping"),
        ({"relay": {"antialias": {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]], "d": [[0.0]],
                                  "e": [[0.0]]}}}, "relay.antialias"),
        ({"output_dir": 5}, "output_dir"),
        ({"relay": 3}, "relay"),
        # matrices that do not fit each other: B has 2 rows under a 1-state A
        ({"relay": {"input_shaping": {"a": [[-1.0]], "b": [[1.0], [2.0]], "c": [[1.0]],
                                      "d": [[0.0]]}}}, "relay.input_shaping"),
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, doc, path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [err.strip()]
        assert f"'{path}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, command, name", [
        ('{"relay": {"carrier_hz": 1' + "0" * 400 + '}}', ["design"], "'relay.carrier_hz'"),
        ('{"sim": {"relay_gain_db": 10000}}', ["simulate", "--canceler", "none"],
         "relay_gain_db"),
    ])
    def test_overflowing_number_exit_code(self, tmp_path, capsys, text, command, name):
        """A number no float holds, or a level whose linear factor overflows."""
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert name in err
        assert not out.exists()

    @pytest.mark.parametrize("text, name", [
        ('{"relay": {"carrier_hz": 1e400}}', "relay.carrier_hz"),  # json reads inf
        ('{"relay": {"delay_seconds": NaN}}', "relay.delay_seconds"),
        ('{"synthesis": {"tol": Infinity}}', "synthesis.tol"),
        ('{"relay": {"coupling_gain": -Infinity}}', "relay.coupling_gain"),
        ('{"sim": {"noise_t_dbm": Infinity}}', "sim.noise_t_dbm"),
        ('{"sweep": {"betas": [1.0, NaN]}}', "sweep.betas[1]"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, text, name):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert f"'{name}'" in err
        assert not out.exists()

    def test_noise_powers_take_minus_infinity(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"sim": {"noise_rs_dbm": -Infinity, "noise_t_dbm": -Infinity}}')
        sim = load_config(str(cfg))["sim"]
        assert sim["noise_rs_dbm"] == sim["noise_t_dbm"] == -float("inf")

    def test_sections_pin_dataclass_defaults(self):
        """relay holds the RelayParams defaults and sim with comms the
        SimConfig defaults, key for key; only the seed differs.  sim.beta is
        the one key of no dataclass: the gain that ``simulate`` runs (a
        sweep's gains are its beta grid)."""
        cfg = load_config(None)
        params = params_from_config(cfg)
        assert cfg["sim"]["beta"] == 1.0
        assert not cfg["sim"].keys() & cfg["comms"].keys()
        channel = {k: v for k, v in {**cfg["sim"], **cfg["comms"]}.items() if k != "beta"}
        sim = SimConfig(params=params, **channel)
        built = {"relay": (params, RelayParams(), set(), set(cfg["relay"])),
                 "sim": (sim, SimConfig(params=params), {"params", "controller"}, set(channel))}
        for section, (ours, theirs, not_keys, keys) in built.items():
            fields = {f.name for f in dataclasses.fields(theirs)} - not_keys
            assert keys == fields
            for name in fields:
                a, b = getattr(ours, name), getattr(theirs, name)
                if section == "sim" and name == "seed":
                    assert (a, b) == (20260808, 0)
                elif name in ("input_shaping", "antialias", "post_filter"):
                    assert all(np.array_equal(getattr(a, m), getattr(b, m)) for m in "ABCD")
                else:
                    assert a == b, f"{section}.{name}"

    def test_json_integers_give_the_same_artifacts(self, tmp_path):
        """N = 8, F = 100/(s+100): every float key written as a JSON integer."""
        def doc(num):
            return {"relay": {"sampling_period": num(1), "fsfh_ratio": 8, "delay_seconds": num(1),
                              "carrier_hz": num(10000),
                              "antialias": {"a": [[num(-100)]], "b": [[num(100)]],
                                            "c": [[num(1)]], "d": [[num(0)]]}},
                    "sim": {"relay_gain_db": num(60), "beta": num(1), "noise_rs_dbm": num(-5),
                            "noise_t_dbm": num(-2), "signal_dbm": num(0)},
                    "comms": {"symbol_period": num(2), "n_symbols": 200},
                    "sweep": {"n_points": 2, "cancelers": ["none", "designed"]},
                    "synthesis": {"tol": 0.05}}
        for name, num in (("int", int), ("float", float)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc(num)))
            out = tmp_path / name
            assert main(["design", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert main(["sweep", "--config", str(cfg), "--controller",
                         str(out / "controller.json"), "--out", str(out)]) == EXIT_OK
        assert '"a": [[-100]]' in (tmp_path / "int.json").read_text()
        for artifact in ("controller.json", "report.json", "ber_curves.csv"):
            assert (tmp_path / "int" / artifact).read_bytes() == \
                (tmp_path / "float" / artifact).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--canceler", "none", "--symbols", "0"],
        ["simulate", "--canceler", "none", "--symbols", "-3"],
        ["design", "--tol", "0.2", "--out", "{file}/sub"],
    ])
    def test_bad_arguments_exit_code(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [a.replace("{file}", str(blocker)) for a in argv]
        out = ["--out", str(tmp_path / "out")] if "--out" not in argv else []
        assert main(argv + out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, text", [
        ("inf", None), ("nan", None), ("-1", None), ("0", None),
        (None, '{"synthesis": {"tol": -1}}'), (None, '{"synthesis": {"tol": 0}}'),
    ])
    def test_bad_tolerance_exit_code(self, tmp_path, capsys, flag, text):
        """A tol that is not finite and positive, from --tol or the config,
        exits 2 with one line before any probe runs."""
        argv = ["design", "--out", str(tmp_path / "out")]
        if flag is not None:
            argv.append(f"--tol={flag}")
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(text)
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert "tol must be finite and positive" in err
        assert not (tmp_path / "out").exists()


class TestDesign:
    def test_design_writes_artifacts(self, tmp_path, default_lifted):
        rc = main(["design", "--out", str(tmp_path), "--tol", "0.05"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["closed_loop_spectral_radius"] < 1.0
        assert report["controller_states"] == default_lifted.n_states
        assert report["gamma_certified"] <= report["gamma_min"] * 1.001
        assert all(isinstance(g, float) and isinstance(ok, bool)
                   for g, ok in report["bisection_trace"])
        ctrl = json.loads((tmp_path / "controller.json").read_text())
        assert ctrl["step_seconds"] == 1.0
        assert len(ctrl["a"]) == len(ctrl["a"][0])

    def test_controller_json_matches_save_controller(self, tmp_path, controller_file):
        """design and save_controller write the same bytes: sorted keys, indent 2."""
        assert main(["design", "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "controller.json").read_text()
        assert text == controller_file.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_design_without_coupling_stays_below_one(self, tmp_path):
        cfg = tmp_path / "nocoupling.json"
        cfg.write_text(json.dumps({"relay": {"coupling_gain": 0.0}}))
        rc = main(["design", "--config", str(cfg), "--out", str(tmp_path), "--tol", "0.2"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["gamma_min"] <= 1.0 + 0.2

    def test_no_feasible_gamma_exit_code(self, tmp_path, monkeypatch, capsys):
        """When every probe is infeasible, design exits 1 with one line and
        writes nothing."""
        monkeypatch.setattr("cwcancel.synthesis._probe",
                            lambda *args: (Infeasible("care_x", "forced"), None))
        out = tmp_path / "out"
        assert main(["design", "--out", str(out)]) == EXIT_SYNTH
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert "synthesis failed" in err and "care_x" in err
        assert not out.exists()

    def test_allocation_too_large_exit_code(self, tmp_path, monkeypatch, capsys):
        """A problem the machine cannot allocate exits 2 with one line."""
        def lift(params):
            raise MemoryError("Unable to allocate 1.16 TiB for an array")

        monkeypatch.setattr("cwcancel.cli.lift", lift)
        out = tmp_path / "out"
        assert main(["design", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "not enough memory: Unable to allocate 1.16 TiB for an array\n")
        assert not out.exists()

    def test_contradicted_certificate_exit_code(self, tmp_path, monkeypatch, capsys):
        """A certificate above the synthesis level (here a doubled norm) is
        refused: design exits 1 with one line and writes nothing."""
        norm = synthesis.hinf_norm_discrete
        monkeypatch.setattr("cwcancel.synthesis.hinf_norm_discrete",
                            lambda *args, **kwargs: 2.0 * norm(*args, **kwargs))
        out = tmp_path / "out"
        assert main(["design", "--tol", "0.05", "--out", str(out)]) == EXIT_SYNTH
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert "synthesis failed" in err and "contradicts" in err
        assert not out.exists()


class TestCertify:
    def test_fresh_controller(self, tmp_path, controller_file, designed_controller):
        rc = main(["certify", "--controller", str(controller_file), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "certification.json").read_text())
        assert doc["spectral_radius"] < 1.0
        assert doc["within_reported"] is True
        assert doc["gamma_certified"] == pytest.approx(
            designed_controller.gamma_certified, rel=1e-6)

    def test_certificate_above_reported_level(self, tmp_path, designed_controller):
        """certify reports, and does not refuse, a controller whose certified
        norm exceeds its gamma_achieved by more than the 1e-6 probe margin."""
        doc = controller_to_dict(designed_controller)
        doc["gamma_achieved"] = 0.5 * designed_controller.gamma_certified
        path = tmp_path / "low.json"
        path.write_text(json.dumps(doc))
        rc = main(["certify", "--controller", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        cert = json.loads((tmp_path / "certification.json").read_text())
        assert cert["within_reported"] is False
        assert cert["gamma_achieved"] == doc["gamma_achieved"]
        assert cert["gamma_certified"] == pytest.approx(
            designed_controller.gamma_certified, rel=1e-6)

    def test_certificate_just_above_reported_level(self, tmp_path, designed_controller):
        """A certificate 1e-4 above gamma_achieved is outside the 1e-6 margin
        that every feasible probe proves: not within the reported level."""
        doc = controller_to_dict(designed_controller)
        doc["gamma_achieved"] = designed_controller.gamma_certified / (1.0 + 1e-4)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        rc = main(["certify", "--controller", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        cert = json.loads((tmp_path / "certification.json").read_text())
        assert cert["within_reported"] is False
        assert cert["gamma_certified"] == pytest.approx(
            designed_controller.gamma_certified, rel=1e-6)

    def test_zero_stub_controller_is_stable(self, tmp_path):
        stub = {"a": [[0.0]], "b": [[0.0, 0.0]], "c": [[0.0], [0.0]],
                "d": [[0.0, 0.0], [0.0, 0.0]], "step_seconds": 1.0,
                "gamma_achieved": 1.0, "gamma_certified": None}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(stub))
        rc = main(["certify", "--controller", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "certification.json").read_text())
        assert doc["spectral_radius"] < 1.0

    def test_unstable_controller_exit_code(self, tmp_path, designed_controller, capsys):
        doc = controller_to_dict(designed_controller)
        doc["a"] = (np.asarray(doc["a"]) * 0.0 + 2.0 * np.eye(len(doc["a"]))).tolist()
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        rc = main(["certify", "--controller", str(path)])
        assert rc == EXIT_UNSTABLE
        assert "radius" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("gamma_achieved", float("nan")), ("gamma_achieved", float("inf")),
        ("gamma_achieved", 0.0), ("gamma_certified", float("nan")),
        ("gamma_certified", float("-inf")),
    ])
    def test_non_finite_level_exit_code(self, tmp_path, designed_controller, capsys,
                                        field, value):
        """json reads NaN and Infinity, but certification.json must stay
        RFC 8259 JSON: such a level is a malformed controller."""
        doc = controller_to_dict(designed_controller)
        doc[field] = value
        path = tmp_path / "levels.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["certify", "--controller", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed controller document" in err and field in err
        assert not out.exists()

    def test_corrupted_controller(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"a": [[0.0]]}')
        assert main(["certify", "--controller", str(path)]) == EXIT_CONFIG

    def test_step_mismatch(self, tmp_path, half_step_controller_file, capsys):
        out = tmp_path / "out"
        rc = main(["certify", "--controller", str(half_step_controller_file), "--out", str(out)])
        assert rc == EXIT_STEP_MISMATCH
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "controller step 0.5" in err
        assert not out.exists()


class TestSimulate:
    def test_waveform_artifact(self, tmp_path, controller_file):
        rc = main(["simulate", "--controller", str(controller_file),
                   "--canceler", "designed", "--symbols", "20", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "waveform.csv").read_bytes().split(b"\r\n")
        assert len([ln for ln in lines if ln]) == 1 + 20 * 32

    def test_designed_needs_controller(self, capsys):
        assert main(["simulate", "--canceler", "designed"]) == EXIT_CONFIG
        assert main(["simulate", "--canceler", "perfect"]) == EXIT_CONFIG

    def test_step_mismatch(self, tmp_path, half_step_controller_file, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--controller", str(half_step_controller_file),
                   "--symbols", "5", "--out", str(out)])
        assert rc == EXIT_STEP_MISMATCH
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "controller step 0.5" in err
        assert not out.exists()

    def test_controller_is_read_whenever_given(self, tmp_path, capsys):
        """--controller is loaded even for ``none``, which does not run it."""
        out = tmp_path / "out"
        rc = main(["simulate", "--canceler", "none", "--controller",
                   str(tmp_path / "missing.json"), "--symbols", "5", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "missing.json" in capsys.readouterr().err
        assert not out.exists()

    def test_beta_from_config_or_flag(self, tmp_path, controller_file):
        """sim.beta and --beta set the gain of the simulated run: without
        terminal noise y_T = beta g u, so halving beta halves y_T."""
        cfg = tmp_path / "c.json"
        cfg.write_text('{"sim": {"beta": 0.5, "noise_t_dbm": -Infinity}}')
        common = ["simulate", "--config", str(cfg), "--controller", str(controller_file),
                  "--symbols", "5", "--out"]
        assert main(common + [str(tmp_path / "config")]) == EXIT_OK
        assert main(common + [str(tmp_path / "flag"), "--beta", "0.25"]) == EXIT_OK
        y_config, y_flag = (np.loadtxt(tmp_path / run / "waveform.csv", delimiter=",",
                                       skiprows=1, usecols=(7, 8))
                            for run in ("config", "flag"))
        assert np.abs(y_config).max() > 0.0
        assert np.allclose(y_flag, 0.5 * y_config, rtol=1e-9, atol=0.0)

    def test_other_kinds(self, tmp_path, controller_file):
        for kind in ("perfect", "none"):
            extra = [] if kind == "none" else ["--controller", str(controller_file)]
            rc = main(["simulate", "--canceler", kind, "--symbols", "5",
                       "--out", str(tmp_path / kind)] + extra)
            assert rc == EXIT_OK
            assert (tmp_path / kind / "waveform.csv").exists()


class TestDeterminism:
    def test_design_certify_simulate_artifacts_repeat(self, tmp_path):
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["design", "--out", str(out), "--tol", "0.05"]) == EXIT_OK
            ctrl = str(out / "controller.json")
            assert main(["certify", "--controller", ctrl, "--out", str(out)]) == EXIT_OK
            assert main(["simulate", "--controller", ctrl, "--symbols", "20",
                         "--out", str(out)]) == EXIT_OK
        for name in ("controller.json", "report.json", "certification.json", "waveform.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSweep:
    def test_artifact_and_determinism(self, tmp_path, controller_file, quick_config):
        args = ["sweep", "--config", str(quick_config),
                "--controller", str(controller_file), "--seed", "7"]
        rc = main(args + ["--out", str(tmp_path / "a")])
        assert rc == EXIT_OK
        rc = main(args + ["--out", str(tmp_path / "b")])
        assert rc == EXIT_OK
        a = (tmp_path / "a" / "ber_curves.csv").read_bytes()
        b = (tmp_path / "b" / "ber_curves.csv").read_bytes()
        assert a == b
        rows = [ln for ln in a.split(b"\r\n") if ln]
        assert len(rows) == 1 + 3 * 3  # header + kinds x betas

    def test_config_betas_equal_flag(self, tmp_path, controller_file):
        cfg = tmp_path / "betas.json"
        cfg.write_text(json.dumps({"comms": {"n_symbols": 400},
                                   "sweep": {"betas": [1e-4, 3e-4, 1e-3]}}))
        base = ["sweep", "--config", str(cfg), "--controller", str(controller_file)]
        assert main(base + ["--out", str(tmp_path / "config")]) == EXIT_OK
        assert main(base + ["--betas", "1e-4,3e-4,1e-3", "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert ((tmp_path / "config" / "ber_curves.csv").read_bytes()
                == (tmp_path / "flag" / "ber_curves.csv").read_bytes())

    def test_canceler_filter(self, tmp_path, controller_file, quick_config):
        rc = main(["sweep", "--config", str(quick_config),
                   "--controller", str(controller_file),
                   "--cancelers", "designed,perfect",
                   "--betas", "1e-4,1e-3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = (tmp_path / "ber_curves.csv").read_bytes().split(b"\r\n")
        body = [r for r in rows[1:] if r]
        assert len(body) == 4
        kinds = {r.split(b",")[1] for r in body}
        assert kinds == {b"designed", b"perfect"}

    def test_duplicate_kinds_exit_code(self, tmp_path, controller_file, quick_config, capsys):
        rc = main(["sweep", "--config", str(quick_config), "--controller", str(controller_file),
                   "--cancelers", "designed,designed", "--betas", "1e-3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "distinct" in err
        assert not (tmp_path / "ber_curves.csv").exists()

    @pytest.mark.parametrize("betas", ["nan", "inf", "1e-4,nan"])
    def test_non_finite_betas_exit_code(self, tmp_path, controller_file, quick_config, capsys,
                                        betas):
        rc = main(["sweep", "--config", str(quick_config), "--controller", str(controller_file),
                   "--betas", betas, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "finite" in err
        assert not (tmp_path / "out").exists()

    def test_unreachable_auto_grid_exit_code(self, tmp_path, capsys):
        """At -30 dBm no beta in the auto grid's range reaches BER 0.3, so the
        sweep exits 2 with one line and writes nothing."""
        path = tmp_path / "faint.json"
        path.write_text(json.dumps({"sim": {"signal_dbm": -30.0}, "comms": {"n_symbols": 400},
                                    "sweep": {"n_points": 4}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--cancelers", "none",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "sweep.betas" in err
        assert not out.exists()

    def test_empty_kinds_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"comms": {"n_symbols": 40}, "sweep": {"n_points": 2,
                                                                           "cancelers": []}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "at least one canceler kind" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, text", [
        (["--cancelers=", "--betas", "1e-3"], "got ''"),
        (["--cancelers", "none", "--betas="], "could not convert string to float: ''"),
    ], ids=["cancelers", "betas"])
    def test_empty_flag_exit_code(self, tmp_path, controller_file, quick_config, capsys,
                                  argv, text):
        """An empty --cancelers or --betas is a value, not an absent flag."""
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(quick_config), "--controller", str(controller_file),
                   *argv, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert text in err
        assert not out.exists()

    def test_unknown_kind_exit_code(self, tmp_path, quick_config, capsys):
        rc = main(["sweep", "--config", str(quick_config), "--cancelers", "bogus",
                   "--betas", "1e-3", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert "'bogus'" in err
        assert not (tmp_path / "out").exists()

    def test_none_only_needs_no_controller(self, tmp_path, quick_config):
        rc = main(["sweep", "--config", str(quick_config), "--cancelers", "none",
                   "--betas", "1e-4", "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_designed_requires_controller(self, quick_config):
        assert main(["sweep", "--config", str(quick_config)]) == EXIT_CONFIG

    def test_step_mismatch_exit(self, tmp_path, half_step_controller_file, quick_config,
                                capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(quick_config),
                   "--controller", str(half_step_controller_file), "--out", str(out)])
        assert rc == EXIT_STEP_MISMATCH
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_none_only_never_closes_the_controller(self, tmp_path, half_step_controller_file,
                                                   quick_config):
        """The step is checked where a loop is closed with K; ``none`` closes none."""
        rc = main(["sweep", "--config", str(quick_config), "--cancelers", "none",
                   "--controller", str(half_step_controller_file), "--betas", "1e-4",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergentController:
    """A divergent loop exits with EXIT_UNSTABLE and a one-line message."""

    def _assert_one_line(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_certify(self, tmp_path, divergent_controller_file, capsys):
        rc = main(["certify", "--controller", str(divergent_controller_file),
                   "--out", str(tmp_path)])
        assert rc == EXIT_UNSTABLE
        self._assert_one_line(capsys)

    def test_simulate(self, tmp_path, divergent_controller_file, capsys):
        rc = main(["simulate", "--controller", str(divergent_controller_file),
                   "--canceler", "designed", "--out", str(tmp_path)])
        assert rc == EXIT_UNSTABLE
        self._assert_one_line(capsys)

    def test_sweep(self, tmp_path, divergent_controller_file, quick_config, capsys):
        rc = main(["sweep", "--config", str(quick_config),
                   "--controller", str(divergent_controller_file),
                   "--betas", "1e-3", "--cancelers", "designed", "--out", str(tmp_path)])
        assert rc == EXIT_UNSTABLE
        self._assert_one_line(capsys)


@pytest.fixture(scope="module")
def slow_unstable_controller_file(tmp_path_factory):
    """2-state controller with both poles at 1.0005: the designed loop's
    spectral radius is 1.000649805, and a sweep's run grows by far less
    than a float's range, so only the radius shows that it diverges."""
    doc = {"a": [[1.0005, 0.0], [0.0, 1.0005]], "b": [[1e-3, 0.0], [0.0, 1e-3]],
           "c": [[1.0, 0.0], [0.0, 1.0]], "d": [[0.0, 0.0], [0.0, 0.0]],
           "step_seconds": 1.0, "gamma_achieved": 1.0, "gamma_certified": None}
    path = tmp_path_factory.mktemp("ctrl") / "slow.json"
    path.write_text(json.dumps(doc))
    return path


class TestSlowlyDivergentController:
    """A loop with spectral radius just above 1 exits with EXIT_UNSTABLE
    and writes nothing, from every command that runs it."""

    @pytest.mark.parametrize("command, loop", [
        (["certify"], "certified loop"),
        (["simulate", "--canceler", "designed"], "designed loop"),
        (["sweep", "--cancelers", "designed,perfect"], "designed loop"),
        (["sweep", "--cancelers", "perfect"], "perfect loop"),
    ], ids=["certify", "simulate", "sweep", "sweep-perfect"])
    def test_exit_unstable(self, tmp_path, slow_unstable_controller_file, quick_config, capsys,
                           command, loop):
        out = tmp_path / "out"
        rc = main(command + ["--config", str(quick_config),
                             "--controller", str(slow_unstable_controller_file),
                             "--out", str(out)])
        assert rc == EXIT_UNSTABLE
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [err.strip()]
        assert f"{loop}: spectral radius 1.000" in err
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingTerminalWaveform:
    """A stable loop whose terminal waveform overflows a float exits with
    EXIT_UNSTABLE, one stderr line and no output."""

    @pytest.mark.parametrize("gain_db, command", [
        (2800.0, ["sweep", "--betas", "1,1e200"]),
        (2800.0, ["simulate", "--beta", "1e200"]),
        # g = 1e150, beta = 3e157: finite samples whose decision windows' sums overflow.
        (3000.0, ["sweep", "--betas", "1,3e157"]),
    ], ids=["sweep", "simulate", "window_sum"])
    def test_exit_unstable(self, tmp_path, controller_file, capsys, gain_db, command):
        cfg = tmp_path / "loud.json"
        cfg.write_text(json.dumps({"sim": {"relay_gain_db": gain_db},
                                   "comms": {"n_symbols": 200}}))
        out = tmp_path / "out"
        rc = main(command + ["--config", str(cfg), "--controller", str(controller_file),
                             "--out", str(out)])
        assert rc == EXIT_UNSTABLE
        err = capsys.readouterr().err
        assert err.strip() == "closed loop unstable: terminal waveform overflows a float"
        assert not out.exists()


class TestZeroStateSystems:
    """A zero-state system's A is [] in JSON, and reads back with no states."""

    def test_static_controller_round_trips_and_certifies(self, tmp_path):
        K = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((2, 2)),
                       dt=1.0)
        path = tmp_path / "static.json"
        save_controller(synthesis.DigitalController(K=K, gamma_achieved=1.0), path)
        assert json.loads(path.read_text())["a"] == []
        loaded = synthesis.load_controller(path)
        assert loaded.K.A.shape == (0, 0)
        assert loaded.K.B.shape == (0, 2) and loaded.K.C.shape == (2, 0)
        rc = main(["certify", "--controller", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "certification.json").exists()

    def test_zero_state_antialias_is_no_antialias(self, tmp_path):
        """F = [] / [] / [] / [[1.0]] is F = I: the design's bytes are the same."""
        for name, antialias in (("static", {"a": [], "b": [], "c": [], "d": [[1.0]]}),
                                ("none", None)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"relay": {"fsfh_ratio": 8, "antialias": antialias}}))
            rc = main(["design", "--config", str(cfg), "--tol", "0.05",
                       "--out", str(tmp_path / name)])
            assert rc == EXIT_OK
        for artifact in ("controller.json", "report.json"):
            assert ((tmp_path / "static" / artifact).read_bytes()
                    == (tmp_path / "none" / artifact).read_bytes())


class TestCertificateFailures:
    """Errors raised by the H-infinity certificate exit with their own code."""

    @pytest.mark.parametrize("error, code", [
        (NumericalFailure("H-infinity norm not bracketed"), EXIT_NUMERICAL),
        (UnstableSystemError("spectral radius 1.000001 >= 1: norm is infinite"), EXIT_UNSTABLE),
    ])
    def test_certify(self, tmp_path, controller_file, monkeypatch, capsys, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("cwcancel.synthesis.hinf_norm_discrete", fail)
        rc = main(["certify", "--controller", str(controller_file), "--out", str(tmp_path)])
        assert rc == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert str(error) in err
        assert not (tmp_path / "certification.json").exists()


class TestDelayFreeCoupling:
    """A nonzero coupling gain with zero delay is rejected by every command."""

    @pytest.fixture
    def delay_free_config(self, tmp_path):
        path = tmp_path / "delay_free.json"
        path.write_text(json.dumps({"relay": {"delay_seconds": 0.0},
                                    "comms": {"n_symbols": 40}, "sweep": {"n_points": 2}}))
        return str(path)

    @pytest.mark.parametrize("command", [
        ["design"],
        ["certify"],
        ["simulate", "--canceler", "designed"],
        ["simulate", "--canceler", "perfect"],
        ["sweep"],
    ])
    def test_exit_config(self, tmp_path, controller_file, delay_free_config, capsys, command):
        extra = [] if command == ["design"] else ["--controller", str(controller_file)]
        out = tmp_path / "out"
        rc = main(command + extra + ["--config", delay_free_config, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "delay-free" in err
        assert err.strip().splitlines() == [err.strip()]
        assert not out.exists()


class TestShortSymbol:
    """A symbol shorter than half a slow period rounds to zero slow periods
    and leaves no sample per symbol; it is refused where the channel is built."""

    @pytest.mark.parametrize("command", [["simulate"], ["sweep"]], ids=["simulate", "sweep"])
    def test_exit_config(self, tmp_path, controller_file, capsys, command):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"comms": {"symbol_period": 1e-12}}))
        out = tmp_path / "out"
        rc = main(command + ["--controller", str(controller_file), "--config", str(path),
                             "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "must be an integer multiple of h=1.0" in err
        assert err.strip().splitlines() == [err.strip()]
        assert not out.exists()


class TestInvalidInputShaping:
    """An unstable or not strictly proper W is refused by every command, also
    by the two that run the loop with W replaced by the pass-through."""

    @pytest.mark.parametrize("shaping", [
        {"a": [[0.5]], "b": [[0.5]], "c": [[1.0]], "d": [[0.0]]},
        {"a": [[-0.5]], "b": [[0.5]], "c": [[1.0]], "d": [[0.3]]},
    ], ids=["unstable", "feedthrough"])
    @pytest.mark.parametrize("command", [
        ["design"],
        ["simulate", "--canceler", "none"],
        ["sweep", "--cancelers", "none"],
    ], ids=["design", "simulate", "sweep"])
    def test_exit_config(self, tmp_path, capsys, shaping, command):
        path = tmp_path / "shaping.json"
        path.write_text(json.dumps({"relay": {"input_shaping": shaping},
                                    "comms": {"n_symbols": 40}, "sweep": {"n_points": 2}}))
        out = tmp_path / "out"
        assert main(command + ["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "input_shaping must be" in err
        assert err.strip().splitlines() == [err.strip()]
        assert not out.exists()
