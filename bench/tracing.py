"""Spans around the calls into each cyclosc layer, installed from outside.

The traced run replaces module attributes at the import sites of the
package's public functions (for example `cyclosc.cli.scan_gain`, the name
`cli` calls) with wrappers that record a span: name, start, end, parent.
Spans stay in memory until the run ends.  A few deeper calls
(`solve_ivp`, `minimize_scalar`, `x_power_matrix`) only feed counters, so
they do not split the self time of the layer that makes them.  No file of
the package changes; `installed()` restores every attribute it replaced.
"""

from __future__ import annotations

import contextlib
import importlib
import re
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

# (module, attribute, span name).  A span name is "<layer>.<what>".
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("cyclosc.cli", "main", "cli.main"),
    ("cyclosc.cli", "scan_gain", "cycles.scan_gain"),
    ("cyclosc.cli", "random_cycle_gain", "cycles.random_cycle_gain"),
    ("cyclosc.cycles", "build_cycle", "cycles.build_cycle"),
    ("cyclosc.cycles", "propagate_inverse_linear", "closed_form.inverse_linear"),
    ("cyclosc.cycles", "propagate_power_law", "closed_form.power_law"),
    ("cyclosc.cycles", "propagate_exponential", "closed_form.exponential"),
    ("cyclosc.cli", "propagate_inverse_linear", "closed_form.inverse_linear"),
    ("cyclosc.cli", "propagate_power_law", "closed_form.power_law"),
    ("cyclosc.cli", "propagate_exponential", "closed_form.exponential"),
    ("cyclosc.cycles", "compose", "core.compose"),
    ("cyclosc.ode", "compose", "core.compose"),
    ("cyclosc.cycles", "gain_factor", "core.gain_factor"),
    ("cyclosc.cli", "gain_factor", "core.gain_factor"),
    ("cyclosc.core", "gain_factor", "core.gain_factor"),
    ("cyclosc.cli", "final_energy", "core.final_energy"),
    ("cyclosc.cli", "to_bogoliubov", "core.to_bogoliubov"),
    ("cyclosc.cli", "random_symplectic", "core.random_symplectic"),
    ("cyclosc.cycles", "propagate_ode", "ode.propagate_ode"),
    ("cyclosc.cli", "propagate_ode", "ode.propagate_ode"),
    ("cyclosc.cli", "propagate_forced", "ode.forced"),
    ("cyclosc.cli", "multimode_from_hamiltonian", "cavity.multimode"),
    ("cyclosc.cli", "shift_planck_spectrum", "cavity.planck"),
    ("cyclosc.cli", "first_order_energy_shift", "perturbation.shift"),
    ("cyclosc.cli", "transition_probability", "perturbation.shift"),
    ("cyclosc.cli", "check_inequality", "perturbation.inequality"),
)

# Per-layer metrics: name -> unit.  Every traced run reports all of them;
# a layer the workload never reaches reads 0.
LAYER_METRICS: Dict[str, str] = {
    "setup.scipy_interpolate_s": "s",
    "setup.scipy_integrate_s": "s",
    "setup.scipy_special_s": "s",
    "setup.scipy_optimize_s": "s",
    "setup.cyclosc_self_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes_written": "B",
    "cycles.scan_gain.self_s": "s",
    "cycles.build_cycle.calls": "count",
    "cycles.build_cycle.self_s": "s",
    "closed_form.inverse_linear.calls": "count",
    "closed_form.inverse_linear.self_s": "s",
    "closed_form.power_law.calls": "count",
    "closed_form.power_law.self_s": "s",
    "closed_form.exponential.calls": "count",
    "closed_form.exponential.self_s": "s",
    "core.compose.calls": "count",
    "core.gain_factor.calls": "count",
    "core.self_s": "s",
    "ode.legs": "count",
    "ode.self_s": "s",
    "ode.rhs_evals": "count",
    "ode.steps": "count",
    "ode.evals_per_step": "ratio",
    "ode.forced.self_s": "s",
    "ode.det_error_max": "1",
    "cavity.multimode.self_s": "s",
    "cavity.rhs_evals": "count",
    "cavity.planck.self_s": "s",
    "cavity.fit_evals": "count",
    "perturbation.drive.self_s": "s",
    "perturbation.shift.self_s": "s",
    "perturbation.inequality.self_s": "s",
    "perturbation.x_power_matrix.calls": "count",
    "trace.overhead_share": "ratio",
}

# -X importtime modules whose cumulative time is reported.
IMPORT_MODULES = {
    "scipy.interpolate": "setup.scipy_interpolate_s",
    "scipy.integrate": "setup.scipy_integrate_s",
    "scipy.special": "setup.scipy_special_s",
    "scipy.optimize": "setup.scipy_optimize_s",
}


class Tracer:
    """In-memory spans [name, start, end, parent index] plus plain counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.det_error_max = 0.0

    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), 0.0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, fn: Callable, after: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result)
            return result

        return wrapper

    def _ode_result(self, result) -> None:
        matrix = getattr(result, "matrix", result)  # ForcedResult carries .matrix
        self.det_error_max = max(self.det_error_max, matrix.det_error())

    def _ode_solve(self, sol) -> None:
        self.counts["ode.legs"] += 1
        self.counts["ode.rhs_evals"] += sol.nfev
        self.counts["ode.steps"] += len(sol.t) - 1

    def _cavity_solve(self, sol) -> None:
        self.counts["cavity.rhs_evals"] += sol.nfev

    def _fit(self, res) -> None:
        self.counts["cavity.fit_evals"] += res.nfev

    def _x_power(self, _) -> None:
        self.counts["perturbation.x_power_matrix.calls"] += 1

    def self_times(self) -> Tuple[Counter, Counter]:
        """(calls, self seconds) per span name; self = span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        return calls, self_s

    def layer_metrics(self) -> Dict[str, float]:
        """The span and counter part of LAYER_METRICS (no setup.*, cli.rows, overhead)."""
        calls, self_s = self.self_times()

        def layer_self(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

        out = {
            "cli.self_s": self_s["cli.main"],
            "cycles.scan_gain.self_s": self_s["cycles.scan_gain"],
            "cycles.build_cycle.calls": calls["cycles.build_cycle"],
            "cycles.build_cycle.self_s": self_s["cycles.build_cycle"],
            "core.compose.calls": calls["core.compose"],
            "core.gain_factor.calls": calls["core.gain_factor"],
            "core.self_s": layer_self("core"),
            "ode.self_s": layer_self("ode"),
            "ode.forced.self_s": self_s["ode.forced"],
            "ode.det_error_max": self.det_error_max,
            "cavity.multimode.self_s": self_s["cavity.multimode"],
            "cavity.planck.self_s": self_s["cavity.planck"],
            "perturbation.drive.self_s": self_s["perturbation.drive"],
            "perturbation.shift.self_s": self_s["perturbation.shift"],
            "perturbation.inequality.self_s": self_s["perturbation.inequality"],
        }
        for leg in ("inverse_linear", "power_law", "exponential"):
            out[f"closed_form.{leg}.calls"] = calls[f"closed_form.{leg}"]
            out[f"closed_form.{leg}.self_s"] = self_s[f"closed_form.{leg}"]
        for key in ("ode.legs", "ode.rhs_evals", "ode.steps", "cavity.rhs_evals",
                    "cavity.fit_evals", "perturbation.x_power_matrix.calls"):
            out[key] = self.counts[key]
        steps = self.counts["ode.steps"]
        out["ode.evals_per_step"] = self.counts["ode.rhs_evals"] / steps if steps else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every wrapper for the duration of the block."""
    from cyclosc.perturbation import Drive

    saved = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    ode_results = {"ode.propagate_ode", "ode.forced"}
    try:
        for module_name, attr, name in SPAN_SITES:
            module = importlib.import_module(module_name)
            after = tracer._ode_result if name in ode_results else None
            patch(module, attr, tracer.span(name, getattr(module, attr), after))
        from_callable = Drive.__dict__["from_callable"].__func__
        patch(Drive, "from_callable", classmethod(tracer.span("perturbation.drive", from_callable)))
        for module_name, attr, after in (
            ("cyclosc.ode", "solve_ivp", tracer._ode_solve),
            ("cyclosc.cavity", "solve_ivp", tracer._cavity_solve),
            ("cyclosc.cavity", "minimize_scalar", tracer._fit),
            ("cyclosc.perturbation", "x_power_matrix", tracer._x_power),
        ):
            module = importlib.import_module(module_name)
            patch(module, attr, tracer.counter(getattr(module, attr), after))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$")


def import_times(stderr: str) -> Dict[str, float]:
    """setup.* metrics from the `-X importtime` report of a fresh interpreter.

    Each scipy figure is the cumulative time of that subpackage's first
    import, so a subpackage first imported by another one nests inside it.
    """
    out = {metric: 0.0 for metric in IMPORT_MODULES.values()}
    out["setup.cyclosc_self_s"] = 0.0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cumulative_us, module = int(m[1]), int(m[2]), m[3].strip()
        if module in IMPORT_MODULES:
            out[IMPORT_MODULES[module]] = cumulative_us / 1e6
        if module == "cyclosc" or module.startswith("cyclosc."):
            out["setup.cyclosc_self_s"] += self_us / 1e6
    return out
