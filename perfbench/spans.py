"""Span tracer that wraps cwcancel's functions from outside the package.

Each target is a function looked up at the name its caller resolves (for
example ``cwcancel.synthesis.hinf_norm_discrete``, the name ``bisect_gamma``
calls).  The wrapper records a span (name, start, end, parent) and optional
counts, then calls the original.  A target whose module or attribute no
longer exists is reported as absent and skipped, so a refactor that deletes
a layer leaves the traced run working with that layer's figures at zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _probe_counts(args, result):
    return {"feasible": int(hasattr(result, "gamma_achieved"))}


def _freq_counts(args, result):
    return {"points": int(result.shape[0])}


def _chain_counts(args, result):
    cfg, tx = args[0], args[1]
    return {"periods": int(tx.samples.shape[0] // cfg.params.fsfh_ratio)}


# (module, attribute, span name, counter).  Several names map to one span
# name where more than one caller imports the same function.
TARGETS = [
    ("cwcancel.cli", "build_hybrid_plant", "plant.build", None),
    ("cwcancel.cli", "lift", "lifting.lift", None),
    ("cwcancel.cli", "closed_loop", "lifting.closed_loop", None),
    ("cwcancel.synthesis", "closed_loop", "lifting.closed_loop", None),
    ("cwcancel.lifting", "discretize_zoh", "lti.zoh", None),
    ("cwcancel.simulate", "discretize_zoh", "lti.zoh", None),
    ("cwcancel.cli", "eigenvalues", "eigen.eig", None),
    ("cwcancel.synthesis", "eigenvalues", "eigen.eig", None),
    ("cwcancel.hnorm", "eigenvalues", "eigen.eig", None),
    ("cwcancel.plant", "eigenvalues", "eigen.eig", None),
    ("cwcancel.synthesis", "care_stabilizing", "riccati.care", None),
    ("cwcancel.synthesis", "is_schur", "riccati.schur", None),
    ("cwcancel.synthesis", "synthesize_at_gamma", "synthesis.probe", _probe_counts),
    ("cwcancel.cli", "bisect_gamma", "synthesis.bisect", None),
    ("cwcancel.cli", "hinf_norm_discrete", "hnorm.certificate", None),
    ("cwcancel.synthesis", "hinf_norm_discrete", "hnorm.certificate", None),
    ("cwcancel.hnorm", "frequency_response", "hnorm.freq_response", _freq_counts),
    ("cwcancel.ber", "simulate_chain", "simulate.chain", _chain_counts),
    ("cwcancel.cli", "simulate_chain", "simulate.chain", _chain_counts),
    ("cwcancel.simulate", "_period_maps", "simulate.period_maps", None),
    ("cwcancel.ber", "_pilot_reference", "ber.pilot", None),
    ("cwcancel.ber", "modulate", "ber.modulate", None),
    ("cwcancel.cli", "modulate", "ber.modulate", None),
    ("cwcancel.ber", "demodulate", "ber.demodulate", None),
    ("cwcancel.cli", "default_beta_grid", "ber.beta_grid", None),
    ("cwcancel.ber", "run_ber", "ber.run_ber", None),
]


class Tracer:
    """In-memory spans; ``install`` patches the targets, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list = []
        self.absent: list[str] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.spans[idx].counts = counter(args, result)
                return result
            finally:
                self.close(idx)
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, counter in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def mark(self) -> int:
        return len(self.spans)

    def has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False


def layer_figures(tracer: Tracer, start: int, end: int) -> dict:
    """Per-layer metrics over the spans recorded between two marks."""
    total, self_t, calls, counts = {}, {}, {}, {}
    pilot = 0.0
    for span in tracer.spans[start:end]:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_t[span.name] = self_t.get(span.name, 0.0) + span.self_time
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[(span.name, key)] = counts.get((span.name, key), 0) + value
        if span.name == "simulate.chain" and tracer.has_ancestor(span, "ber.pilot"):
            pilot += span.duration
    cli_self = sum(v for k, v in self_t.items() if k.startswith("cli."))
    chain_s = total.get("simulate.chain", 0.0)
    periods = counts.get(("simulate.chain", "periods"), 0)
    return {
        "hnorm.certificate_s": total.get("hnorm.certificate", 0.0),
        "hnorm.freq_response_s": total.get("hnorm.freq_response", 0.0),
        "hnorm.freq_points": counts.get(("hnorm.freq_response", "points"), 0),
        "synthesis.probe_s": total.get("synthesis.probe", 0.0),
        "synthesis.probes": calls.get("synthesis.probe", 0),
        "synthesis.probes_feasible": counts.get(("synthesis.probe", "feasible"), 0),
        "synthesis.bisect_self_s": self_t.get("synthesis.bisect", 0.0),
        "riccati.care_s": total.get("riccati.care", 0.0),
        "riccati.care_calls": calls.get("riccati.care", 0),
        "riccati.schur_s": total.get("riccati.schur", 0.0),
        "eigen.eig_s": total.get("eigen.eig", 0.0),
        "eigen.eig_calls": calls.get("eigen.eig", 0),
        "plant.build_s": total.get("plant.build", 0.0),
        "lifting.lift_s": total.get("lifting.lift", 0.0),
        "lifting.closed_loop_s": total.get("lifting.closed_loop", 0.0),
        "lifting.closed_loop_calls": calls.get("lifting.closed_loop", 0),
        "lti.zoh_s": total.get("lti.zoh", 0.0),
        "simulate.chain_s": chain_s,
        "simulate.calls": calls.get("simulate.chain", 0),
        "simulate.periods": periods,
        "simulate.period_us": 1e6 * chain_s / periods if periods else 0.0,
        "simulate.pilot_s": pilot,
        "simulate.period_maps_s": total.get("simulate.period_maps", 0.0),
        "ber.modulate_s": total.get("ber.modulate", 0.0),
        "ber.demodulate_s": total.get("ber.demodulate", 0.0),
        "ber.beta_grid_s": total.get("ber.beta_grid", 0.0),
        "ber.run_ber_self_s": self_t.get("ber.run_ber", 0.0),
        "cli.self_s": cli_self,
    }


def command_self_sum(tracer: Tracer, root: int) -> float:
    """Sum of self times over the span tree under ``root`` (inclusive)."""
    inside = {root}
    acc = tracer.spans[root].self_time
    for i in range(root + 1, len(tracer.spans)):
        span = tracer.spans[i]
        if span.parent in inside:
            inside.add(i)
            acc += span.self_time
        elif span.start >= tracer.spans[root].end:
            break
    return acc
