"""The CLI's contract as a table: identical inputs give identical bytes.

Each row runs ``simulate`` twice through :func:`cwcancel.cli.main`, into
two directories, and compares the two ``waveform.csv`` files byte for
byte.  The configs are CI's: F = I at N = 8, F = 100/(s+100) at N = 8 and
16, and one symbol.  With that F the period loop's stack reads the image
of w, two numbers a period, in place of w's 2N.
"""

import json

import pytest

from cwcancel.cli import EXIT_OK, main

LOWPASS = {"a": [[-100.0]], "b": [[100.0]], "c": [[1.0]], "d": [[0.0]]}
CONFIGS = {
    "small": ({"relay": {"fsfh_ratio": 8}}, []),
    "lowpass": ({"relay": {"fsfh_ratio": 8, "antialias": LOWPASS}}, ["--tol", "0.05"]),
    "lowpass16": ({"relay": {"fsfh_ratio": 16, "antialias": LOWPASS}}, ["--tol", "0.05"]),
}
# name: (config, symbols)
SIMULATE = {"small": ("small", 20), "lowpass": ("lowpass", 20), "one": ("small", 1),
            "lowpass16": ("lowpass16", 20)}


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


@pytest.mark.parametrize("row", SIMULATE)
def test_simulate_waveform_is_byte_identical(designed, tmp_path, row):
    name, symbols = SIMULATE[row]
    config, controller = designed[name]
    runs = []
    for run in ("a", "b"):
        argv = ["simulate", "--config", str(config), "--controller", str(controller),
                "--symbols", str(symbols), "--out", str(tmp_path / run)]
        assert main(argv) == EXIT_OK
        runs.append((tmp_path / run / "waveform.csv").read_bytes())
    assert runs[0] == runs[1]
