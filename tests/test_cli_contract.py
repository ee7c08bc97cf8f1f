"""The CLI's contract as a table: identical inputs give identical bytes.

Each row runs ``simulate`` or ``sweep`` twice through
:func:`cwcancel.cli.main`, into two directories, and compares the two
``waveform.csv`` or ``ber_curves.csv`` files byte for byte.  The configs
are CI's: F = I at N = 8, F = 100/(s+100) at N = 8 and 16, one symbol and,
for ``sweep``, ``none`` alone.  With that F the period loop's stack reads
the image of w, two numbers a period, in place of w's 2N.  The ``blocks``
sweep runs 1 100 symbols, which cross the edge of a 1 024-symbol block.
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
# name: (config, symbols, cancelers or None for the config's, with its controller)
SWEEP = {"small": ("small", 200, None), "lowpass": ("lowpass", 200, None),
         "lowpass16": ("lowpass16", 200, None), "one": ("small", 1, None),
         "none": ("small", 200, "none"), "blocks": ("small", 1100, None)}


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


@pytest.mark.parametrize("row", SWEEP)
def test_sweep_curves_are_byte_identical(designed, tmp_path, row):
    name, symbols, cancelers = SWEEP[row]
    config, controller = designed[name]
    doc = json.loads(config.read_text())
    doc["comms"]["n_symbols"] = symbols
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    flags = ["--cancelers", cancelers] if cancelers else ["--controller", str(controller)]
    runs = []
    for run in ("a", "b"):
        argv = ["sweep", "--config", str(config), *flags, "--out", str(tmp_path / run)]
        assert main(argv) == EXIT_OK
        runs.append((tmp_path / run / "ber_curves.csv").read_bytes())
    assert runs[0] == runs[1]
