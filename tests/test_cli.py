import json

import numpy as np
import pytest

from cwcancel.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STEP_MISMATCH,
    EXIT_UNSTABLE,
    load_config,
    main,
)
from cwcancel.synthesis import controller_to_dict, save_controller


@pytest.fixture(scope="module")
def controller_file(tmp_path_factory, designed_controller):
    path = tmp_path_factory.mktemp("ctrl") / "controller.json"
    save_controller(designed_controller, path)
    return path


@pytest.fixture(scope="module")
def divergent_controller_file(tmp_path_factory):
    """2-state controller with poles at 1e3: every closed loop diverges."""
    doc = {"a": [[1e3, 0.0], [0.0, 1e3]], "b": [[1.0, 0.0], [0.0, 1.0]],
           "c": [[1.0, 0.0], [0.0, 1.0]], "d": [[0.0, 0.0], [0.0, 0.0]],
           "step_seconds": 1.0, "gamma_achieved": 1.0, "gamma_certified": None}
    path = tmp_path_factory.mktemp("ctrl") / "divergent.json"
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


class TestDesign:
    def test_design_writes_artifacts(self, tmp_path):
        rc = main(["design", "--out", str(tmp_path), "--tol", "0.05"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["closed_loop_spectral_radius"] < 1.0
        assert report["gamma_certified"] <= report["gamma_min"] * 1.001
        assert all(isinstance(g, float) and isinstance(ok, bool)
                   for g, ok in report["bisection_trace"])
        ctrl = json.loads((tmp_path / "controller.json").read_text())
        assert ctrl["step_seconds"] == 1.0
        assert len(ctrl["a"]) == len(ctrl["a"][0])

    def test_design_without_coupling_stays_below_one(self, tmp_path):
        cfg = tmp_path / "nocoupling.json"
        cfg.write_text(json.dumps({"relay": {"coupling_gain": 0.0}}))
        rc = main(["design", "--config", str(cfg), "--out", str(tmp_path), "--tol", "0.2"])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["gamma_min"] <= 1.0 + 0.2


class TestCertify:
    def test_fresh_controller(self, tmp_path, controller_file, designed_controller):
        rc = main(["certify", "--controller", str(controller_file), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "certification.json").read_text())
        assert doc["spectral_radius"] < 1.0
        assert doc["within_reported"] is True
        assert doc["gamma_certified"] == pytest.approx(
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

    def test_corrupted_controller(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"a": [[0.0]]}')
        assert main(["certify", "--controller", str(path)]) == EXIT_CONFIG

    def test_step_mismatch(self, tmp_path, designed_controller):
        doc = controller_to_dict(designed_controller)
        doc["step_seconds"] = 2.0
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", "--controller", str(path)]) == EXIT_STEP_MISMATCH


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

    def test_other_kinds(self, tmp_path, controller_file):
        for kind in ("perfect", "none"):
            extra = [] if kind == "none" else ["--controller", str(controller_file)]
            rc = main(["simulate", "--canceler", kind, "--symbols", "5",
                       "--out", str(tmp_path / kind)] + extra)
            assert rc == EXIT_OK
            assert (tmp_path / kind / "waveform.csv").exists()


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

    def test_none_only_needs_no_controller(self, tmp_path, quick_config):
        rc = main(["sweep", "--config", str(quick_config), "--cancelers", "none",
                   "--betas", "1e-4", "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_designed_requires_controller(self, quick_config):
        assert main(["sweep", "--config", str(quick_config)]) == EXIT_CONFIG

    def test_step_mismatch_exit(self, tmp_path, designed_controller, quick_config):
        doc = controller_to_dict(designed_controller)
        doc["step_seconds"] = 0.5
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        rc = main(["sweep", "--config", str(quick_config), "--controller", str(path)])
        assert rc == EXIT_STEP_MISMATCH


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
