"""Command-line front end: design, certify, simulate, sweep.

Configuration lives in one JSON document with the full set of simulation
defaults compiled in, so ``cwcancel design`` runs with no config at all.
:func:`load_config` is the one place a config value's JSON type is
checked: unknown keys and values of the wrong JSON type are rejected with
the offending JSON path.  The relay section then builds RelayParams, which
checks the relay loop before any command uses it, and the sim and comms
sections one SimConfig, by field name.  All artifacts (controller.json,
report.json, certification.json, ber_curves.csv, waveform.csv) are
deterministic functions of the config and seed; certification.json is
:func:`cwcancel.synthesis.certify`'s document as it is.  ``--controller``
is read whenever it is given; the loop that runs it checks the rest.

Commands raise, and :func:`main` maps every failure to its exit code: 0
success, 1 synthesis failure (no feasible gamma, or a certificate that
contradicts its level), 2 malformed JSON, invalid config, controller or flag
(an empty ``--cancelers`` or ``--betas``, too) or an unusable file path, 3 a
controller whose step differs from the config's sampling period (refused where
the loop is closed), 4 unstable closed loop (a closed loop with spectral radius
≥ 1, refused before any command runs it, or a simulated signal that overflows a
float), 5 numerical failure (the H-infinity certificate could not prove a
bound, or a bilinear map is singular).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .ber import default_beta_grid, modulate, sweep_beta, write_ber_csv
from .hnorm import UnstableSystemError
from .lifting import StepMismatchError, lift
from .lti import NumericalFailure, StateSpace
from .plant import RelayParams
from .simulate import (CANCELER_KINDS, ConfigError, SimConfig, point_streams, simulate_chain,
                       write_waveform_csv)
from .synthesis import (SynthesisError, bisect_gamma, certify, load_controller, save_controller,
                        write_json)

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_SYNTH = 1
EXIT_CONFIG = 2
EXIT_STEP_MISMATCH = 3
EXIT_UNSTABLE = 4
EXIT_NUMERICAL = 5

DEFAULT_CONFIG = {
    "relay": {
        "sampling_period": 1.0,
        "fsfh_ratio": 16,
        "delay_seconds": 1.0,
        "coupling_gain": 0.15,
        "carrier_hz": 10000.0,
        "input_shaping": {"a": [[-0.5]], "b": [[0.5]], "c": [[1.0]], "d": [[0.0]]},
        "antialias": None,
        "post_filter": {"a": [[-1000.0]], "b": [[1000.0]], "c": [[1.0]], "d": [[0.0]]},
    },
    "sim": {
        "relay_gain_db": 60.0,
        "beta": 1.0,
        "noise_rs_dbm": -5.0,
        "noise_t_dbm": -2.0,
        "signal_dbm": 0.0,
        "seed": 20260808,
    },
    "comms": {"symbol_period": 2.0, "n_symbols": 10000},
    "sweep": {"betas": "auto", "n_points": 12, "cancelers": ["none", "designed", "perfect"]},
    "synthesis": {"tol": 1e-3},
    "output_dir": "out",
}


_FILTERS = ("input_shaping", "antialias", "post_filter")
_FILTER_DOC = dict.fromkeys("abcd", [[0.0]])  # a filter is four matrices of numbers
_JSON_TYPES = {float: "a number", int: "an integer", str: "a string"}


def _merge(user, default, path=""):
    """``user`` checked against the JSON type of ``default``, defaults filled in.

    Objects reject unknown keys, lists check each element against the
    default's first, a float entry takes any finite JSON number (-Infinity
    turns a sim noise off; ints widen to float and must fit in one, bools
    are not numbers) and every other leaf needs its default's type.  A
    filter is a whole value: an object with exactly the keys a, b, c, d, or
    null for the antialias filter (F = I).  ``sweep.betas`` is "auto" or a
    list of numbers.  Errors name the JSON path.
    """
    if path in {f"relay.{name}" for name in _FILTERS}:
        if user is None and path == "relay.antialias":
            return None
        if not isinstance(user, dict) or user.keys() != _FILTER_DOC.keys():
            raise ConfigError(f"expected an object with exactly the keys a, b, c, d at '{path}'")
        default = _FILTER_DOC
    elif path == "sweep.betas" and user != "auto":
        default = [0.0]
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"expected an object at '{path or '<root>'}'")
        for key in user:
            if key not in default:
                raise ConfigError(f"unknown key '{path + '.' if path else ''}{key}'")
        return {key: _merge(user.get(key, dval), dval, f"{path}.{key}" if path else key)
                for key, dval in default.items()}
    if isinstance(default, list):
        if not isinstance(user, list):
            raise ConfigError(f"expected a list at '{path}'")
        return [_merge(item, default[0], f"{path}[{i}]") for i, item in enumerate(user)]
    if isinstance(default, float) and isinstance(user, (int, float)) and not isinstance(user, bool):
        try:
            value = float(user)
        except OverflowError:
            raise ConfigError(f"number too large for a float at '{path}'") from None
        if not math.isfinite(value) and not (value == -math.inf and path.startswith("sim.noise_")):
            raise ConfigError(f"expected a finite number at '{path}', got {value}")
        return value
    if type(user) is not type(default):
        raise ConfigError(f"expected {_JSON_TYPES[type(default)]} at '{path}'")
    return user


def load_config(path: str | None) -> dict:
    """Parse a config file and check it against DEFAULT_CONFIG, filling in defaults."""
    user = {}
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
    return _merge(user, DEFAULT_CONFIG)


def _filter(doc, name):
    if doc is None:
        return None
    try:
        return StateSpace(doc["a"], doc["b"], doc["c"], doc["d"])
    except ValueError as exc:
        raise ConfigError(f"bad filter at 'relay.{name}': {exc}") from exc


def params_from_config(cfg: dict) -> RelayParams:
    relay = cfg["relay"]
    return RelayParams(**{**relay, **{name: _filter(relay[name], name) for name in _FILTERS}})


def _setup(args):
    """The start of every command: the checked config with the command-line
    overrides written into it, the relay parameters and the output directory."""
    cfg = load_config(args.config)
    for section, key in (("sim", "seed"), ("sim", "beta"), ("synthesis", "tol")):
        if getattr(args, key, None) is not None:
            cfg[section][key] = getattr(args, key)
    return cfg, params_from_config(cfg), Path(args.out or cfg["output_dir"])


def _sim_config(cfg, params: RelayParams, args) -> SimConfig:
    """The shared channel of the sim and comms sections, with the --controller
    loaded whenever it is given; sim.beta feeds only ``simulate``.  The loop
    that runs a kind checks that it has a controller and that its step fits."""
    sim = {key: value for key, value in cfg["sim"].items() if key != "beta"}
    controller = None if args.controller is None else load_controller(args.controller)
    return SimConfig(params=params, **sim, **cfg["comms"], controller=controller)


def cmd_design(args) -> int:
    cfg, params, outdir = _setup(args)
    result = bisect_gamma(lift(params), tol=cfg["synthesis"]["tol"])
    ctrl = result.controller
    radius = result.closed_loop_radius
    outdir.mkdir(parents=True, exist_ok=True)
    save_controller(ctrl, outdir / "controller.json")
    write_json(outdir / "report.json", {
        "gamma_min": result.gamma_min,
        "gamma_certified": ctrl.gamma_certified,
        "closed_loop_spectral_radius": radius,
        "controller_states": ctrl.K.n_states,
        "bisection_trace": [[g, ok] for g, ok in result.bisection_trace],
    })
    print(f"gamma_min = {result.gamma_min:.6f}, certified = {ctrl.gamma_certified:.6f}, "
          f"spectral radius = {radius:.6f}")
    print(f"wrote {outdir / 'controller.json'} and {outdir / 'report.json'}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg, params, outdir = _setup(args)
    ctrl = load_controller(args.controller)
    doc = certify(lift(params), ctrl)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "certification.json", doc)
    print(f"spectral radius = {doc['spectral_radius']:.6f}, "
          f"certified norm = {doc['gamma_certified']:.6f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, params, outdir = _setup(args)
    sim = _sim_config(cfg, params, args)
    sim = replace(sim, n_symbols=min(sim.n_symbols, 200) if args.symbols is None else args.symbols)
    bits = point_streams(sim.seed, 0)[1].integers(0, 2, size=sim.n_symbols)
    tx = modulate(bits, sim)
    out = simulate_chain(sim, tx, args.canceler, cfg["sim"]["beta"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "waveform.csv"
    write_waveform_csv(path, sim, tx, out)
    print(f"wrote {path} ({tx.shape[0]} fast samples)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, params, outdir = _setup(args)
    cancelers = cfg["sweep"]["cancelers"] if args.cancelers is None else args.cancelers.split(",")
    sim = _sim_config(cfg, params, args)
    if args.betas is not None:
        betas = [float(b) for b in args.betas.split(",")]
    elif cfg["sweep"]["betas"] == "auto":
        betas = default_beta_grid(sim, n_points=cfg["sweep"]["n_points"])
    else:
        betas = cfg["sweep"]["betas"]
    curves = sweep_beta(sim, betas, cancelers)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "ber_curves.csv"
    write_ber_csv(path, curves)
    print(f"wrote {path} ({len(curves)} curves x {len(betas)} beta points)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwcancel",
        description="Design and evaluate digital coupling-wave cancelers for a full-duplex relay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="synthesize the canceler and write controller/report JSON")
    p.add_argument("--config", help="config JSON path (defaults compiled in)")
    p.add_argument("--tol", type=float, help="relative bisection tolerance")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("certify", help="recompute closed-loop norm and stability for a controller")
    p.add_argument("--controller", required=True, help="controller JSON path")
    p.add_argument("--config", help="config JSON path")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="run the time-domain chain and dump waveform.csv")
    p.add_argument("--config", help="config JSON path")
    p.add_argument("--controller", help="controller JSON path")
    p.add_argument("--canceler", default="designed", choices=CANCELER_KINDS)
    p.add_argument("--beta", type=float, help="RS-T channel gain")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--symbols", type=int,
                   help="number of symbols to simulate (default: config value, capped at 200)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte Carlo BER sweep over beta, one curve per canceler")
    p.add_argument("--config", help="config JSON path")
    p.add_argument("--controller", help="controller JSON path")
    p.add_argument("--betas", help="comma-separated beta grid (default: auto)")
    p.add_argument("--cancelers", help=f"comma-separated subset of {','.join(CANCELER_KINDS)}")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc.msg} at line {exc.lineno} column {exc.colno}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot use {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except StepMismatchError as exc:
        print(exc, file=sys.stderr)
        return EXIT_STEP_MISMATCH
    except (FloatingPointError, UnstableSystemError) as exc:
        print(f"closed loop unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
