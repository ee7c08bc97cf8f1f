"""The CLI's contract as tables: documented exit codes, and identical bytes.

Every row runs in process through :func:`cwcancel.cli.main`, on configs
built around three designs that the module fixture makes once: F = I at
N = 8 (``small``) and F = 100/(s+100) at N = 8 and 16 (``lowpass``,
``lowpass16``).  With that F the period loop's stack reads the image of w,
two numbers a period, in place of w's 2N.

- An exit-code row gives a config, a command, the exit code and a text that
  stderr must hold.  A refused command prints one line and no traceback,
  and creates no output directory.  One such row patches the level test so that
  ``design``'s certificate disproves a verdict, which exits 1.
- A byte-identity row runs its command twice, into two directories, and
  compares the artifacts byte for byte: ``design`` with ``certify``,
  ``simulate``, and ``sweep`` (one symbol, ``none`` alone, 2 points of
  6 500 symbols, which cross two edges of their 3 072-symbol blocks, and 12
  points of 2 500 symbols, five 512-symbol blocks of all 12 points).  One
  sweep of 5 000 symbols in one block is compared with itself in 512-symbol
  blocks.
- A sequence row runs commands one after another in one process: a refused
  argv and ``--help`` leave the one parser serving the next command.

Two cases need a fresh interpreter and run ``python -m cwcancel.cli`` as a
subprocess: ``design`` under two hash seeds, whose artifacts must also agree
across processes, and a design whose lift does not fit the address space.
A third imports the CLI there and finds no parser built.

Identical inputs give byte-identical artifacts at one BLAS thread count.
Each row compares two runs at the same count, so the table holds under any
``OPENBLAS_NUM_THREADS``.  Across counts it does not: at N = 256,
``gamma_certified`` differs in its last digit between 1 and 2 OpenBLAS
threads.

A new CLI case is a row here, not a CI shell step.
"""

import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cwcancel
from cwcancel import synthesis
from cwcancel.cli import EXIT_CONFIG, EXIT_OK, EXIT_SYNTH, main
from cwcancel.synthesis import Probe

LOWPASS = {"a": [[-100.0]], "b": [[100.0]], "c": [[1.0]], "d": [[0.0]]}
SMALL = {"relay": {"fsfh_ratio": 8}}
CONFIGS = {
    "small": (SMALL, []),
    "lowpass": ({"relay": {"fsfh_ratio": 8, "antialias": LOWPASS}}, ["--tol", "0.05"]),
    "lowpass16": ({"relay": {"fsfh_ratio": 16, "antialias": LOWPASS}}, ["--tol", "0.05"]),
}
# name: (config, symbols)
SIMULATE = {"small": ("small", 20), "lowpass": ("lowpass", 20), "one": ("small", 1),
            "lowpass16": ("lowpass16", 20)}
# name: (config, symbols, cancelers or None for the config's, with its
# controller, beta points)
SWEEP = {"small": ("small", 200, None, 2), "lowpass": ("lowpass", 200, None, 2),
         "lowpass16": ("lowpass16", 200, None, 2), "one": ("small", 1, None, 2),
         "none": ("small", 200, "none", 2), "blocks": ("small", 6500, None, 2),
         "ref12": ("small", 2500, None, 12)}

WIDE_P = {"a": [[-1000.0]], "b": [[1000.0, 0.0, 0.0]], "c": [[1.0]], "d": [[0.0]]}
ONE_BY_ONE = {"a": [[0.5]], "b": [[1.0]], "c": [[1.0]], "d": [[0.0]], "step_seconds": 1.0,
              "gamma_achieved": 1.0, "gamma_certified": None}
# name: (config, command, exit code, stderr text).  "{controller}" is the
# small design's controller and "{one}" is ONE_BY_ONE, a 1x1 controller.
EXITS = {
    "one": (SMALL, ["certify", "--controller", "{one}"], EXIT_CONFIG, "controller is 1x1"),
    # 8.08 fast steps, and 1e308 s, which is inf fast steps: not whole counts.
    "delay": ({"relay": {"fsfh_ratio": 8, "delay_seconds": 1.01}}, ["design"], EXIT_CONFIG,
              "fast steps"),
    "longdelay": ({"relay": {"delay_seconds": 1e308}}, ["design"], EXIT_CONFIG, "fast steps"),
    "widep": ({"relay": {"fsfh_ratio": 8, "post_filter": WIDE_P}}, ["design"], EXIT_CONFIG,
              "bad filter at 'relay.post_filter'"),
    # At 6000 dB (1e300) and beta = 1 every decision window's statistic is
    # finite, and the pilot reads the loop's own output: the sweep runs.
    "g6000": ({**SMALL, "sim": {"relay_gain_db": 6000.0}},
              ["sweep", "--controller", "{controller}", "--betas", "1",
               "--cancelers", "designed,perfect"], EXIT_OK, ""),
}

# name: calls in one process, each (command, exit code, stdout text, the
# artifact it writes or None), with "{controller}" as in EXITS: a parse that
# fails or prints help leaves the one parser serving the next call.
SEQUENCES = {
    "bad_help_certify": [
        (["certify", "--tol", "1"], EXIT_CONFIG, "", None),
        (["--help"], EXIT_OK, "usage: cwcancel", None),
        (["certify", "--controller", "{controller}"], EXIT_OK, "certified norm",
         "certification.json"),
    ],
}


@pytest.fixture(scope="module")
def designed(tmp_path_factory):
    """config name -> (config path, controller path), each designed once."""
    out = {}
    for name, (relay, flags) in CONFIGS.items():
        work = tmp_path_factory.mktemp(name)
        config = work / "config.json"
        config.write_text(json.dumps({**relay, "comms": {"n_symbols": 200},
                                      "sweep": {"n_points": 2}}))
        assert main(["design", "--config", str(config), *flags, "--out", str(work)]) == EXIT_OK
        out[name] = config, work / "controller.json"
    return out


def _twice(tmp_path, argv, *artifacts):
    """The artifacts' bytes from two runs of argv, into two directories."""
    runs = []
    for run in ("a", "b"):
        assert main([*argv, "--out", str(tmp_path / run)]) == EXIT_OK
        runs.append([(tmp_path / run / name).read_bytes() for name in artifacts])
    return runs


def _python(args, env, **kwargs):
    """``python args`` in a fresh interpreter that imports this package, with
    ``env`` added to the environment."""
    src = str(Path(cwcancel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=300, **kwargs)


def _python_m(argv, env, **kwargs):
    """``python -m cwcancel.cli argv`` in a fresh interpreter."""
    return _python(["-m", "cwcancel.cli", *argv], env, **kwargs)


@pytest.mark.parametrize("row", EXITS)
def test_exit_code(designed, tmp_path, capsys, row):
    doc, command, code, text = EXITS[row]
    config, one, out = tmp_path / "config.json", tmp_path / "one.json", tmp_path / "out"
    config.write_text(json.dumps({**doc, "comms": {"n_symbols": 200}}))
    one.write_text(json.dumps(ONE_BY_ONE))
    paths = {"{controller}": str(designed["small"][1]), "{one}": str(one)}
    argv = [paths.get(arg, arg) for arg in command]
    assert main([*argv, "--config", str(config), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and text in err
    if code == EXIT_OK:
        rows = (out / "ber_curves.csv").read_text().splitlines()
        assert len(rows) == 1 + 2  # the header, then one row per kind
    else:
        assert err.strip().splitlines() == [err.strip()]
        assert not out.exists()


def test_one_block_sweep_matches_short_blocks(designed, tmp_path, monkeypatch):
    """One point of 5 000 symbols runs in one block, and in 512-symbol blocks
    once the budget is cut to 16 chunks: ber_curves.csv has the same bytes."""
    from cwcancel import simulate

    config, controller = designed["small"]
    doc = json.loads(config.read_text())
    doc["comms"]["n_symbols"] = 5000
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    advance, blocks = simulate._ChainBatch.advance, []
    monkeypatch.setattr(simulate._ChainBatch, "advance",
                        lambda batch, bits: blocks.append(len(bits)) or advance(batch, bits))
    runs = []
    for budget in (simulate._BLOCK_BUDGET, 16 * 32 * 2 * 2):
        monkeypatch.setattr(simulate, "_BLOCK_BUDGET", budget)
        blocks.clear()
        out = tmp_path / str(budget)
        assert main(["sweep", "--config", str(config), "--controller", str(controller),
                     "--betas", "2e-4", "--cancelers", "designed,perfect",
                     "--out", str(out)]) == EXIT_OK
        runs.append((list(blocks), (out / "ber_curves.csv").read_bytes()))
    assert runs[0][0] == [5000] and runs[1][0] == [512] * 9 + [392]
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("row", SEQUENCES)
def test_one_parser_serves_a_sequence(designed, tmp_path, capsys, row):
    config, controller = designed["small"]
    for i, (command, code, text, artifact) in enumerate(SEQUENCES[row]):
        out = tmp_path / str(i)
        argv = [str(controller) if arg == "{controller}" else arg for arg in command]
        if argv != ["--help"]:
            argv += ["--config", str(config), "--out", str(out)]
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        assert text in capsys.readouterr().out
        assert (out / artifact).is_file() if artifact else not out.exists()


def test_certificate_below_an_infeasible_level_exit_code(tmp_path, capsys, monkeypatch):
    """With every level below 0.3 called infeasible, the N = 8 design ends at
    gamma_min 0.30005 with a controller proven below 0.298679, under the
    infeasible level 0.299805: design exits 1 with one line naming both."""
    level = synthesis._level
    monkeypatch.setattr(synthesis, "_level", lambda p, s, gamma: (
        (Probe(gamma, None, "care_x", "forced", None), None) if gamma < 0.3
        else level(p, s, gamma)))
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(SMALL))
    assert main(["design", "--config", str(config), "--out", str(out)]) == EXIT_SYNTH
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert "certificate 0.298679 lies below the infeasible level 0.299805" in err
    assert not out.exists()


def test_auto_grid_at_200_db(tmp_path):
    """At 200 dB the auto grid is the 60 dB grid times 1e-7: it is placed
    however small its betas."""
    config = tmp_path / "gain200.json"
    config.write_text(json.dumps({**SMALL, "sim": {"relay_gain_db": 200.0},
                                  "comms": {"n_symbols": 200}, "sweep": {"n_points": 2}}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--cancelers", "none",
                 "--out", str(out)]) == EXIT_OK
    with open(out / "ber_curves.csv", newline="") as fh:
        assert float(next(csv.DictReader(fh))["beta"]) < 1e-9


def test_not_enough_memory(tmp_path):
    """At N = 200 000 the lift asks for 1.16 TiB.  Under a 4 GB address-space
    limit that allocation fails, and design exits 2 with one line.  One BLAS
    thread keeps OpenBLAS's own buffers well inside the limit."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"relay": {"fsfh_ratio": 200000}}))
    out = tmp_path / "out"
    limit = 4_000_000 * 1024
    run = _python_m(["design", "--config", str(config), "--out", str(out)],
                    env={"OPENBLAS_NUM_THREADS": "1"},
                    preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == EXIT_CONFIG, run.stderr
    assert run.stderr.startswith("not enough memory: ")
    assert run.stderr.strip().splitlines() == [run.stderr.strip()]
    assert not out.exists()


def test_import_builds_no_parser():
    """Importing the CLI builds no parser: the first main call does."""
    run = _python(["-c", "import cwcancel.cli as cli; print(cli._build_parser.cache_info())"],
                  env={})
    assert run.returncode == 0, run.stderr
    assert "misses=0" in run.stdout and "currsize=0" in run.stdout


def test_python_m_design_is_byte_identical(designed, tmp_path):
    """``python -m cwcancel.cli`` runs, and two interpreters with different
    hash seeds write the same bytes."""
    config, _ = designed["small"]
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        run = _python_m(["design", "--config", str(config), "--out", str(out)],
                        env={"PYTHONHASHSEED": seed})
        assert run.returncode == EXIT_OK, run.stderr
        runs.append([(out / name).read_bytes() for name in ("controller.json", "report.json")])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("row", ["small", "lowpass"])
def test_design_and_certify_are_byte_identical(designed, tmp_path, row):
    config, _ = designed[row]
    runs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["design", "--config", str(config), *CONFIGS[row][1],
                     "--out", str(out)]) == EXIT_OK
        assert main(["certify", "--config", str(config), "--controller",
                     str(out / "controller.json"), "--out", str(out)]) == EXIT_OK
        runs.append([(out / name).read_bytes()
                     for name in ("controller.json", "report.json", "certification.json")])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("row", SIMULATE)
def test_simulate_waveform_is_byte_identical(designed, tmp_path, row):
    name, symbols = SIMULATE[row]
    config, controller = designed[name]
    a, b = _twice(tmp_path, ["simulate", "--config", str(config), "--controller", str(controller),
                             "--symbols", str(symbols)], "waveform.csv")
    assert a == b


@pytest.mark.parametrize("row", SWEEP)
def test_sweep_curves_are_byte_identical(designed, tmp_path, row):
    name, symbols, cancelers, points = SWEEP[row]
    config, controller = designed[name]
    doc = json.loads(config.read_text())
    doc["comms"]["n_symbols"] = symbols
    doc["sweep"]["n_points"] = points
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    flags = ["--cancelers", cancelers] if cancelers else ["--controller", str(controller)]
    a, b = _twice(tmp_path, ["sweep", "--config", str(config), *flags], "ber_curves.csv")
    assert a == b
