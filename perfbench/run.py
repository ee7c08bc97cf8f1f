#!/usr/bin/env python3
"""Benchmark for cwcancel: design, certification and BER evaluation.

Drives the four-command CLI in-process through ``cwcancel.cli.main`` with
config files it writes itself, times each command end to end, and judges
every artifact against computations made apart from the package
(``oracles.py``).  The package is imported from ``src/`` next to this
directory; nothing is installed.

    python3 perfbench/run.py --workload design-scaling --seed 20260808 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

A run repeats whole rounds while the next one should end within
``--seconds`` (at least one round) and reports mean operation times and
the median set-up time.  A round is the
workload's set-up, done ``setup_reps`` times, then its commands.  Times
are corrected for the host's speed with a fixed calibration kernel timed
between the commands (``Calibration``).  With ``--trace 1`` the package's
functions are wrapped by ``spans.py``; rounds then alternate untraced and
traced, and the run reports per-layer figures plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, command_self_sum, layer_figures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEFAULT_SEED = 20260808
SELF_SUM_RTOL = 0.03

# The reference relay of the package README, written out in full so the
# oracle plant is built from the same numbers the CLI reads.
RELAY = {
    "sampling_period": 1.0,
    "fsfh_ratio": 16,
    "delay_seconds": 1.0,
    "coupling_gain": 0.15,
    "carrier_hz": 10000.0,
    "input_shaping": {"a": [[-0.5]], "b": [[0.5]], "c": [[1.0]], "d": [[0.0]]},
    "antialias": None,
    "post_filter": {"a": [[-1000.0]], "b": [[1000.0]], "c": [[1.0]], "d": [[0.0]]},
}

# Times are reported in reference seconds: seconds on a host on which the
# calibration kernel takes CAL_REF_S.  A time metric is the mean (for
# set-up, the median) wall time of its samples, scaled by CAL_REF_S over
# the kernel's mean time in the same run (``Calibration``).
CAL_REF_S = 0.1

# Mid-grid point of the automatic N = 32 beta grid (BER about 1e-2).
BETA_MID = 2e-4

WORKLOADS = {
    # design + certify over the N ladder at a tight tolerance (20 probes
    # per N).  A short N = 32 sweep follows every command, so the sweep
    # metrics exist here too, from samples spread over the whole pass.
    # N = 32 comes first so that its controller exists for those sweeps.
    "design-scaling": {
        "ladder": (32, 8, 16), "tol": 1e-5, "setup_reps": 2,
        "sweep": {"N": 32, "betas": [BETA_MID], "cancelers": ["designed", "perfect"],
                  "symbols": 5000},
    },
    # The reference sweep shape, 12 auto betas x 3 kinds at N = 16, with
    # 2 500 symbols a point, so that one run holds about ten sweeps.
    "ber-sweep": {
        "ladder": (16,), "tol": 1e-3, "setup_reps": 1,
        "sweep": {"N": 16, "betas": "auto", "cancelers": ["none", "designed", "perfect"],
                  "symbols": 2500},
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "design_s": "s", "certify_s": "s", "sweep_s": "s",
    "symbols_per_s": "symbols/s", "peak_rss_mb": "MB", "gamma_min": "1",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "count"


# ------------------------------------------------------------ host speed

class Calibration:
    """A fixed numpy kernel, timed once before every timed operation.

    The benchmark host is shared.  Its speed switches between a fast and a
    slow state, about 1.8x apart, within seconds, and the share of time in
    the slow state drifts over minutes, in CPU time as much as in wall
    time.  The kernel's mean time over a run measures the host's average
    speed during that run; a median would jump between the two states.
    It mixes the two kinds of work the package does: a Python loop of
    small matrix-vector products, as in the simulator's recursion, and
    dense LAPACK eigenproblems, as in design and certification.  It uses
    no code of the package, so a change to the package cannot move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.standard_normal((70, 70)) / 20.0  # spectral radius about 0.4
        self.vec = rng.standard_normal(70)
        self.dense = rng.standard_normal((100, 100))
        self.times: list[float] = []
        self.sample()  # warm-up: first-call costs are not host speed
        self.times.clear()

    def sample(self) -> None:
        np = self.np
        t0 = time.perf_counter()
        x = np.zeros(70)
        for _ in range(16000):
            x = self.small @ x + self.vec
        for _ in range(18):
            np.linalg.eigvals(self.dense)
        self.times.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Wall seconds to reference seconds, for this run."""
        return CAL_REF_S / statistics.fmean(self.times)


# ------------------------------------------------------------------ environment

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu or platform.processor(),
        "commit": commit,
    }


# --------------------------------------------------------------------- the run

class Run:
    """One workload in one process: set-up, timed rounds, checks."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.spec = name, WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.dir = WORK / f"{name}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.errors: list[str] = []       # failed operations
        self.fails: list[str] = []        # failed checks on operations that succeeded
        self.artifacts: list[tuple] = []  # (kind, N, payload) judged after timing
        self.self_sums: list[tuple] = []  # (command, traced wall, sum of self times)
        from cwcancel import cli

        self.cli = cli
        self.tracer = Tracer() if trace else None
        self.cal = Calibration()

    # -- commands

    def config_path(self, N: int) -> Path:
        return self.dir / f"config_N{N}.json"

    def write_configs(self) -> None:
        sw = self.spec["sweep"]
        for N in sorted(set(self.spec["ladder"]) | {sw["N"]}):
            doc = {
                "relay": dict(RELAY, fsfh_ratio=N),
                "sim": {"seed": self.seed},
                "comms": {"n_symbols": sw["symbols"]},
                "sweep": {"betas": sw["betas"], "n_points": 12, "cancelers": sw["cancelers"]},
                "synthesis": {"tol": self.spec["tol"]},
            }
            self.config_path(N).write_text(json.dumps(doc, indent=1))

    def command(self, *argv) -> tuple[bool, float]:
        """Run one CLI command in-process; returns (succeeded, wall seconds)."""
        self.attempted += 1
        sink = io.StringIO()
        span = self.tracer.open(f"cli.{argv[0]}") if self.tracing else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(list(argv))
        except Exception:  # a traceback is a failed operation, not a crash of the bench
            code = -1
            sink.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
            self.self_sums.append((argv[0], dt, command_self_sum(self.tracer, span)))
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)} -> exit {code}: {sink.getvalue().strip()[-400:]}")
        return code == 0, dt

    def design(self, N: int, out: Path) -> float | None:
        ok, dt = self.command("design", "--config", str(self.config_path(N)), "--out", str(out))
        if not ok:
            return None
        report = json.loads((out / "report.json").read_text())
        ctrl = json.loads((out / "controller.json").read_text())
        self.artifacts.append(("design", N, (report, ctrl)))
        return dt

    def certify(self, N: int, out: Path) -> float | None:
        ok, dt = self.command("certify", "--config", str(self.config_path(N)),
                              "--controller", str(out / "controller.json"), "--out", str(out))
        if not ok:
            return None
        cert = json.loads((out / "certification.json").read_text())
        self.artifacts.append(("certify", N, cert))
        return dt

    def timed(self, op, *args):
        """Sample the calibration kernel, then run ``op``."""
        self.cal.sample()
        return op(*args)

    def sweep(self, out: Path) -> float | None:
        sw = self.spec["sweep"]
        ok, dt = self.command("sweep", "--config", str(self.config_path(sw["N"])),
                              "--controller", str(out / "controller.json"),
                              "--seed", str(self.seed), "--out", str(out / "sweep"))
        if not ok:
            return None
        text = (out / "sweep" / "ber_curves.csv").read_text()
        self.artifacts.append(("sweep", sw["N"], text))
        return dt

    def sweep_rows(self) -> int:
        sw = self.spec["sweep"]
        return len(sw["cancelers"]) * (12 if sw["betas"] == "auto" else len(sw["betas"]))

    # -- set-up and rounds

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def setup_once(self) -> dict:
        """Interpreter start and import, config files and, when the workload
        sweeps with a controller it did not design in its rounds, that design."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cal.sample()
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import cwcancel.cli"], env=env, check=True)
        self.dir.mkdir(parents=True)
        self.write_configs()
        out = {}
        if self.name != "design-scaling":
            N = self.spec["ladder"][-1]
            out["design_s"] = self.design(N, self.dir / f"N{N}")
        out["setup_s"] = time.perf_counter() - t0
        return out

    def round_once(self) -> dict:
        """The workload's commands, each followed by one sweep (see WORKLOADS)."""
        sample = {"sweeps": []}
        sweep_dir = self.dir / f"N{self.spec['sweep']['N']}"

        def then_sweep(dt):
            if dt is not None:
                res = self.timed(self.sweep, sweep_dir)
                if res is not None:
                    sample["sweeps"].append(res)
            return dt

        if self.name == "design-scaling":
            design = certify = 0.0
            for N in self.spec["ladder"]:
                d = then_sweep(self.timed(self.design, N, self.dir / f"N{N}"))
                c = then_sweep(self.timed(self.certify, N, self.dir / f"N{N}")) if d is not None else None
                if d is None or c is None:
                    return sample
                design, certify = design + d, certify + c
            sample["design_s"], sample["certify_s"] = design, certify
        else:
            N = self.spec["ladder"][-1]
            sample["certify_s"] = then_sweep(self.timed(self.certify, N, self.dir / f"N{N}"))
        return sample

    def execute(self) -> dict:
        setups, rounds, layers_round = [], [], []
        plain_walls, traced_walls = [], []

        def one_round() -> float:
            """Runs one round; returns its wall time in reference seconds."""
            # Set-up is repeated at the start of every round, so its samples,
            # like the others, spread over the whole run: the host's speed
            # drifts over minutes.
            first = len(self.cal.times)
            t0 = time.perf_counter()
            setups.extend(self.setup_once() for _ in range(self.spec["setup_reps"]))
            rounds.append(self.round_once())
            return (time.perf_counter() - t0) * CAL_REF_S / statistics.fmean(self.cal.times[first:])

        t_start = time.perf_counter()
        passes = 0
        # Start another pass only if it should end within --seconds.
        while not passes or (time.perf_counter() - t_start) * (passes + 1) / passes <= self.seconds:
            passes += 1
            if self.tracer is None:
                one_round()
                continue
            plain_walls.append(one_round())
            self.tracer.install()
            mark = self.tracer.mark()
            traced_walls.append(one_round())
            layers_round.append(layer_figures(self.tracer, mark, self.tracer.mark()))
            self.tracer.uninstall()
        self.cal.sample()  # one more after the last operation
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def stat(f, samples, key):
            vals = [s[key] for s in samples if s.get(key) is not None]
            return f(vals) if vals else None

        sweeps = [{"sweep_s": dt} for r in rounds for dt in r.get("sweeps", ())]
        design_from = rounds if self.name == "design-scaling" else setups
        # The host's speed is a time average, so the operations are averaged
        # like the kernel: a median of samples that each fall mostly in the
        # fast or the slow state jumps between the two.  Set-up, repeated a
        # few times a run, reports its median.
        wall = {
            "setup_s": stat(statistics.median, setups, "setup_s"),
            "design_s": stat(statistics.fmean, design_from, "design_s"),
            "certify_s": stat(statistics.fmean, rounds, "certify_s"),
            "sweep_s": stat(statistics.fmean, sweeps, "sweep_s"),
        }
        factor = self.cal.factor()
        e2e = {k: v * factor if v is not None else None for k, v in wall.items()}
        symbols = self.sweep_rows() * self.spec["sweep"]["symbols"]
        e2e["symbols_per_s"] = symbols / e2e["sweep_s"] if e2e["sweep_s"] else None
        e2e["peak_rss_mb"] = peak_rss_mb
        detail = {"rounds": len(rounds), "setups": setups, "samples": rounds,
                  "wall_s": wall, "calibration_s": self.cal.times}
        self.judge(e2e, detail)
        if self.tracer is None:
            return self.finish(e2e, END_TO_END_UNITS, detail)

        layers = {}
        for key in layers_round[0]:
            layers[key] = statistics.median(f[key] for f in layers_round)
        periods = layers["simulate.periods"]
        layers["simulate.period_us"] = 1e6 * layers["simulate.chain_s"] / periods if periods else 0.0
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls)
                                                / statistics.median(plain_walls) - 1.0)
        detail["absent"] = self.tracer.absent
        detail["self_sums"] = self.self_sums
        detail["plain_round_s"], detail["traced_round_s"] = plain_walls, traced_walls
        for cmd, wall, acc in self.self_sums:
            if abs(acc - wall) > SELF_SUM_RTOL * wall:
                self.fails.append(f"trace: self times of {cmd} sum to {acc:.4f} s, wall {wall:.4f} s")
        return self.finish(layers, {k: layer_unit(k) for k in layers}, detail)

    # -- checks

    def judge(self, e2e: dict, detail: dict) -> None:
        """Check every artifact recorded during the run against the oracles."""
        import oracles as O  # imports scipy, so only after peak_rss_mb is read

        relay_cache = {}

        def plant(N):
            if N not in relay_cache:
                relay_cache[N] = O.lifted_plant(dict(RELAY, fsfh_ratio=N))
            return relay_cache[N]

        gammas = {}
        controllers = {}
        curves = set()
        for kind, N, payload in self.artifacts:
            label = f"{kind} N={N}"
            if kind == "design":
                report, ctrl = payload
                key = json.dumps(ctrl, sort_keys=True)
                if controllers.setdefault(N, key) != key:
                    self.fails.append(f"{label}: identical inputs gave a different controller.json")
                    continue
                if N in gammas:
                    continue  # same controller as one already judged
                gammas[N] = report["gamma_min"]
                cl = O.closed_loop(plant(N), O.controller_matrices(ctrl))
                self.fails += O.check_stable(cl, label)
                self.fails += O.check_norm_bracket(cl, report["gamma_min"] * (1 + 1e-3),
                                                   report["gamma_certified"] * (1 - 1e-3), label)
            elif kind == "certify":
                if not payload["within_reported"] or not payload["spectral_radius"] < 1.0:
                    self.fails.append(f"{label}: certification.json reports {payload}")
            elif kind == "sweep":
                if curves and payload not in curves:
                    self.fails.append(f"{label}: identical inputs gave a different ber_curves.csv")
                elif not curves:
                    self.fails += [f"{label}: {m}" for m in self.check_sweep(O, payload)]
                curves.add(payload)
        if self.name == "design-scaling" and len(gammas) == len(self.spec["ladder"]):
            self.fails += O.check_scaling(gammas)
            detail["gamma_inf_richardson"] = O.richardson(gammas)
        detail["gamma_min"] = gammas
        top = max(gammas) if gammas else None
        e2e["gamma_min"] = gammas.get(top)

    def check_sweep(self, O, text: str) -> list:
        sw = self.spec["sweep"]
        rows = O.read_curves(text)
        fails = O.check_shape(rows, self.sweep_rows(), sw["symbols"]) + O.check_wilson(rows) + O.check_tracks(rows)
        if self.name == "ber-sweep":
            fails += O.check_none_is_coin_flip(rows) + O.check_monotone(rows) + O.check_canceler_value(rows)
        if self.name == "design-scaling":
            fails += O.check_upper_below(rows, 0.1)
        return fails

    def finish(self, metrics: dict, units: dict, detail: dict) -> dict:
        missing = [k for k, v in metrics.items() if v is None]
        if missing and not self.errors:
            self.fails.append(f"no value for {missing}")
        correct = not self.fails and not missing
        result = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v if v is not None else 0.0), "unit": units[k]}
                        for k, v in metrics.items()},
        }
        record = {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
                  "trace": int(self.trace), "env": environment(), "errors": self.errors,
                  "check_failures": self.fails, "detail": detail, "result": result}
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{self.name}-seed{self.seed}-trace{int(self.trace)}.json").write_text(
            json.dumps(record, indent=1, default=str))
        shutil.rmtree(self.dir, ignore_errors=True)
        print(json.dumps({"env": record["env"]}))
        for msg in self.errors + self.fails:
            print(f"FAIL: {msg}", file=sys.stderr)
        return result


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric by name and unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode} without a result", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, for this process and every child.  On a shared 2-core
    # host a second BLAS thread waits on whatever else runs on the other
    # core: the N = 32 design took 12 s instead of 5 s next to one busy
    # process, while single-threaded it took 5 s either way.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One CPU, for this process and every child, so that the calibration
    # kernel measures the speed of the CPU that the commands run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "cwcancel" / "cli.py").is_file():
        print(f"cwcancel sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
