"""Command-line front end: design, certify, simulate, sweep.

Configuration lives in one JSON document with the full set of simulation
defaults compiled in, so ``cwcancel design`` runs with no config at all.
Unknown keys are rejected with the offending JSON path.  All artifacts
(controller.json, report.json, certification.json, ber_curves.csv,
waveform.csv) are deterministic functions of the config and seed.

Exit codes: 0 success, 1 synthesis failure, 2 malformed JSON or invalid
config/controller, 3 controller/config step mismatch, 4 unstable closed
loop (certification finds a spectral radius >= 1, or a simulation or sweep
diverges).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .ber import CommsConfig, bind_comms, default_beta_grid, modulate, sweep_beta, write_ber_csv
from .hnorm import hinf_norm_discrete
from .lifting import closed_loop, lift
from .lti import StateSpace, spectral_radius, step_matches
from .plant import ModelError, RelayParams, build_hybrid_plant
from .simulate import SimConfig, simulate_chain, write_waveform_csv
from .synthesis import SynthesisError, bisect_gamma, controller_to_dict, load_controller

__all__ = ["main", "load_config", "DEFAULT_CONFIG"]

EXIT_OK = 0
EXIT_SYNTH = 1
EXIT_CONFIG = 2
EXIT_STEP_MISMATCH = 3
EXIT_UNSTABLE = 4

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


class ConfigFileError(ValueError):
    pass


class StepMismatchError(Exception):
    """A controller's step differs from the config's sampling period."""


def _merge(user, default, path=""):
    # "antialias" is the one entry where null is a value (F = I), not a
    # request for the default.
    if isinstance(default, dict):
        if user is None:
            return None if path.endswith("antialias") else default
        if not isinstance(user, dict):
            raise ConfigFileError(f"expected an object at '{path or '<root>'}'")
        out = {}
        for key, dval in default.items():
            sub = f"{path}.{key}" if path else key
            out[key] = _merge(user[key], dval, sub) if key in user else dval
        for key in user:
            if key not in default:
                raise ConfigFileError(f"unknown key '{path + '.' if path else ''}{key}'")
        return out
    return default if user is None and not path.endswith("antialias") else user


def load_config(path: str | None) -> dict:
    """Parse and validate a config file, filling in compiled defaults."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    with open(path) as fh:
        user = json.load(fh)
    return _merge(user, DEFAULT_CONFIG)


def _filter_from_config(doc, name):
    if doc is None:
        return None
    extra = set(doc) - {"a", "b", "c", "d"}
    if extra:
        raise ConfigFileError(f"unknown key 'relay.{name}.{sorted(extra)[0]}'")
    try:
        return StateSpace(doc["a"], doc["b"], doc["c"], doc["d"])
    except (KeyError, TypeError) as exc:
        raise ConfigFileError(f"bad filter entry at 'relay.{name}': {exc}") from exc


def params_from_config(cfg: dict) -> RelayParams:
    r = cfg["relay"]
    return RelayParams(
        sampling_period=float(r["sampling_period"]),
        fsfh_ratio=int(r["fsfh_ratio"]),
        delay_seconds=float(r["delay_seconds"]),
        coupling_gain=float(r["coupling_gain"]),
        carrier_hz=float(r["carrier_hz"]),
        input_shaping=_filter_from_config(r["input_shaping"], "input_shaping"),
        antialias=_filter_from_config(r["antialias"], "antialias"),
        post_filter=_filter_from_config(r["post_filter"], "post_filter"),
    )


def _sim_config(cfg: dict, params: RelayParams, canceler="none", controller=None,
                beta=None, seed=None) -> SimConfig:
    s = cfg["sim"]
    return SimConfig(
        params=params,
        relay_gain_db=float(s["relay_gain_db"]),
        beta=float(s["beta"] if beta is None else beta),
        noise_rs_dbm=float(s["noise_rs_dbm"]),
        noise_t_dbm=float(s["noise_t_dbm"]),
        signal_dbm=float(s["signal_dbm"]),
        seed=int(s["seed"] if seed is None else seed),
        canceler=canceler,
        controller=controller,
    )


def _comms_config(cfg: dict) -> CommsConfig:
    c = cfg["comms"]
    return CommsConfig(symbol_period=float(c["symbol_period"]), n_symbols=int(c["n_symbols"]))


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_controller(path, params: RelayParams):
    ctrl = load_controller(path)
    if not step_matches(ctrl.K.dt, params.sampling_period):
        raise StepMismatchError(f"controller step {ctrl.K.dt} does not match config "
                                f"sampling period {params.sampling_period}")
    return ctrl


def cmd_design(args) -> int:
    cfg = load_config(args.config)
    tol = float(args.tol) if args.tol is not None else float(cfg["synthesis"]["tol"])
    params = params_from_config(cfg)
    lifted = lift(build_hybrid_plant(params))
    try:
        result = bisect_gamma(lifted, tol=tol)
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    ctrl = result.controller
    cl = closed_loop(lifted, ctrl.K)
    radius = spectral_radius(cl.A)
    outdir = Path(args.out if args.out else cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "controller.json", controller_to_dict(ctrl))
    _write_json(outdir / "report.json", {
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
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    ctrl = _load_controller(args.controller, params)
    lifted = lift(build_hybrid_plant(params))
    cl = closed_loop(lifted, ctrl.K)
    radius = spectral_radius(cl.A)
    if radius >= 1.0:
        print(f"closed loop unstable: spectral radius {radius:.9f}", file=sys.stderr)
        return EXIT_UNSTABLE
    cert = hinf_norm_discrete(cl, tol=1e-6)
    outdir = Path(args.out) if args.out else Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "spectral_radius": radius,
        "gamma_certified": cert,
        "gamma_achieved": ctrl.gamma_achieved,
        "within_reported": bool(cert <= ctrl.gamma_achieved * 1.001),
    }
    _write_json(outdir / "certification.json", doc)
    print(f"spectral radius = {radius:.6f}, certified norm = {cert:.6f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    controller = None
    if args.canceler in ("designed", "perfect"):
        if args.controller is None:
            print(f"canceler {args.canceler!r} requires --controller", file=sys.stderr)
            return EXIT_CONFIG
        controller = _load_controller(args.controller, params)
    sim = _sim_config(cfg, params, canceler=args.canceler, controller=controller,
                      beta=args.beta, seed=args.seed)
    cc = bind_comms(_comms_config(cfg), params)
    n_symbols = args.symbols if args.symbols else min(cc.n_symbols, 200)
    rng = np.random.Generator(np.random.Philox(key=np.array([sim.seed, 1], dtype=np.uint64)))
    bits = rng.integers(0, 2, size=n_symbols)
    wave = modulate(bits, cc, sim.signal_dbm)
    out = simulate_chain(sim, wave)
    outdir = Path(args.out) if args.out else Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "waveform.csv"
    write_waveform_csv(path, wave, out)
    print(f"wrote {path} ({wave.samples.shape[0]} fast samples)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    params = params_from_config(cfg)
    cancelers = args.cancelers.split(",") if args.cancelers else cfg["sweep"]["cancelers"]
    controller = None
    if "designed" in cancelers or "perfect" in cancelers:
        if args.controller is None:
            print("sweep with a 'designed' or 'perfect' curve requires --controller", file=sys.stderr)
            return EXIT_CONFIG
        controller = _load_controller(args.controller, params)
    sim = _sim_config(cfg, params, canceler="none", controller=controller, seed=args.seed)
    cc = _comms_config(cfg)
    if args.betas:
        betas = [float(b) for b in args.betas.split(",")]
    elif cfg["sweep"]["betas"] == "auto":
        betas = default_beta_grid(sim, cc, n_points=int(cfg["sweep"]["n_points"]))
    else:
        betas = [float(b) for b in cfg["sweep"]["betas"]]
    curves = sweep_beta(sim, cc, betas, cancelers)
    outdir = Path(args.out) if args.out else Path(cfg["output_dir"])
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
    p.add_argument("--canceler", default="designed", choices=["none", "designed", "perfect"])
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
    p.add_argument("--cancelers", help="comma-separated subset of none,designed,perfect")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc.msg} at line {exc.lineno} column {exc.colno}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except StepMismatchError as exc:
        print(exc, file=sys.stderr)
        return EXIT_STEP_MISMATCH
    except FloatingPointError as exc:
        print(f"closed loop unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ConfigFileError, ModelError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
