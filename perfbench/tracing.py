"""Spans around the calls between liulogit's layers, recorded from outside.

The package is not edited.  ``install`` replaces module-level names in
``liulogit.simulation``, ``liulogit.cli`` and ``liulogit.msem`` with
wrappers that record one span per call:

* in ``simulation`` and ``cli``, every function imported from another
  liulogit module (a call into another layer); the modules' own helpers,
  such as the response draws in ``simulate_cell``, stay inside the
  caller's self time;
* in ``msem``, every public function, because the theorem checks call
  ``asymptotic_msem`` and ``psd_dominates`` within the module.

A span is (id, parent, name, start ns, end ns, error, info).  Spans stay
in memory and are written out, one JSON list per line, when the traced
program ends.  A forked pool worker has no end hook that runs reliably,
so a worker writes its spans each time its outermost span closes.

Run as a script, this file executes the command line traced:

    PYTHONPATH=src python perfbench/tracing.py SPAN_DIR simulate --reps 30 ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED_MODULES = ("simulation", "cli", "msem")

# modules whose own public functions are also wrapped (see module docstring)
SELF_TRACED_MODULES = ("msem",)


# what each span keeps from its return value, so that counts are taken
# at the boundary where the work happens
INFO = {
    "model.irls_fit": lambda fit: [fit.iterations, bool(fit.converged)],
    "estimators.choose_k": lambda selection: bool(selection.clamped),
    "simulation.simulate_cell": lambda cell: cell.divergent_replications,
    "io.parse_dataset": lambda dataset: dataset.n,
    "io.study_to_json": lambda text: len(text.encode("utf-8")),
    "msem.theorem_3_1_condition": lambda verdict: verdict.psd_oracle_agrees,
}


class Tracer:
    """In-memory span recorder for one process and its forked workers."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0
        # stack depth inherited at fork; a worker flushes when it returns here
        self.base_depth = 0
        self.forked = False

    def wrap(self, name, fn):
        extract = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_worker()
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            error = info = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                if error is None and extract is not None:
                    try:
                        info = extract(result)
                    except (AttributeError, TypeError):
                        info = None
                self.spans.append((sid, parent, name, start, end, error, info))
                if self.forked and len(self.stack) == self.base_depth:
                    self.write()
            return result

        return traced

    def _enter_worker(self):
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)
        self.forked = True

    def write(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def install(tracer):
    """Wrap the cross-layer names of the traced modules."""
    for short in TRACED_MODULES:
        module = importlib.import_module(f"liulogit.{short}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__
            if not home.startswith("liulogit."):
                continue
            if home == module.__name__ and short not in SELF_TRACED_MODULES:
                continue
            span_name = f"{home.split('.', 1)[1]}.{value.__name__}"
            setattr(module, attr, tracer.wrap(span_name, value))


class SpanStats:
    """Per-name totals over every span file of a traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.durations = defaultdict(list)
        self.errors = defaultdict(lambda: defaultdict(int))
        self.infos = defaultdict(list)

    def add_file(self, path):
        spans = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                spans.append(json.loads(line))
        # self time = duration minus the time covered by direct children;
        # children of one span run one after another in its process
        covered = defaultdict(int)
        for _, parent, _, start, end, _, _ in spans:
            covered[parent] += end - start
        for sid, _, name, start, end, error, info in spans:
            self.calls[name] += 1
            self.self_ns[name] += (end - start) - covered.get(sid, 0)
            self.durations[name].append(end - start)
            if error is not None:
                self.errors[name][error] += 1
            elif info is not None:
                self.infos[name].append(info)

    def add_dir(self, directory):
        for path in sorted(Path(directory).glob("spans-*.jsonl")):
            self.add_file(path)

    def total_self_ms(self, names):
        return sum(self.self_ns[name] for name in names) / 1e6

    def total_calls(self, names):
        return sum(self.calls[name] for name in names)

    def p50_us(self, name):
        values = self.durations[name]
        return statistics.median(values) / 1e3 if values else 0.0


POINT_ESTIMATORS = tuple(
    f"estimators.{name}"
    for name in (
        "mle_estimate",
        "ltl_estimate",
        "pclr_estimate",
        "pcltl_estimate",
        "point_estimate",
    )
)
RULES = tuple(
    f"estimators.{name}" for name in ("choose_d", "choose_k", "select_components")
)


def layer_metrics(stats: SpanStats, ops: int) -> dict:
    """Per-operation layer figures from the spans of ``ops`` traced operations."""
    irls = "model.irls_fit"
    fits = stats.infos[irls]
    decompose = "estimators.spectral_decompose"
    cells = "simulation.simulate_cell"
    cell_ms = [ns / 1e6 for ns in stats.durations[cells]]
    parse = "io.parse_dataset"
    parse_s = sum(stats.durations[parse]) / 1e9
    writers = [
        name
        for name in stats.calls
        if name.startswith("io.") and name != parse
    ]
    clamps = stats.infos["estimators.choose_k"]
    t31 = stats.infos["msem.theorem_3_1_condition"]
    return {
        "model.irls_fit.calls": stats.calls[irls] / ops,
        "model.irls_fit.self_ms": stats.total_self_ms([irls]) / ops,
        "model.irls_fit.us_p50": stats.p50_us(irls),
        "model.irls_fit.iterations_mean": (
            statistics.fmean(fit[0] for fit in fits) if fits else 0.0
        ),
        "model.irls_fit.nonconverged": sum(1 for fit in fits if not fit[1]) / ops,
        "model.irls_fit.singular": stats.errors[irls]["SingularSystemError"] / ops,
        "estimators.spectral_decompose.calls": stats.calls[decompose] / ops,
        "estimators.spectral_decompose.self_ms": stats.total_self_ms([decompose]) / ops,
        "estimators.spectral_decompose.errors": (
            sum(stats.errors[decompose].values()) / ops
        ),
        "estimators.rules.self_ms": stats.total_self_ms(RULES) / ops,
        "estimators.choose_k.clamped_share": (
            sum(clamps) / len(clamps) if clamps else 0.0
        ),
        "estimators.point.calls": stats.total_calls(POINT_ESTIMATORS) / ops,
        "estimators.point.self_ms": stats.total_self_ms(POINT_ESTIMATORS) / ops,
        "simulation.simulate_cell.calls": stats.calls[cells] / ops,
        "simulation.simulate_cell.self_ms": stats.total_self_ms([cells]) / ops,
        "simulation.cell_ms_p50": statistics.median(cell_ms) if cell_ms else 0.0,
        "simulation.cell_ms_max": max(cell_ms) if cell_ms else 0.0,
        "simulation.divergent_replications": sum(stats.infos[cells]) / ops,
        "io.parse_dataset.self_ms": stats.total_self_ms([parse]) / ops,
        "io.parse_dataset.rows_per_s": (
            sum(stats.infos[parse]) / parse_s if parse_s else 0.0
        ),
        "io.write.self_ms": stats.total_self_ms(writers) / ops,
        "io.study_json.bytes": sum(stats.infos["io.study_to_json"]) / ops,
        "cli.main.self_ms": stats.total_self_ms(["cli.main"]) / ops,
        "msem.asymptotic_msem.calls": stats.calls["msem.asymptotic_msem"] / ops,
        "msem.asymptotic_msem.us_p50": stats.p50_us("msem.asymptotic_msem"),
        "msem.theorem_3_1.us_p50": stats.p50_us("msem.theorem_3_1_condition"),
        "msem.theorem_3_2.us_p50": stats.p50_us("msem.theorem_3_2_condition"),
        "msem.theorem_3_3.us_p50": stats.p50_us("msem.theorem_3_3_condition"),
        "msem.psd_dominates.calls": stats.calls["msem.psd_dominates"] / ops,
        "msem.t31_agreement_rate": (
            sum(1 for agrees in t31 if agrees) / len(t31) if t31 else 0.0
        ),
    }


def _run_cli_traced(span_dir, cli_args) -> int:
    import liulogit.cli

    tracer = Tracer(span_dir)
    install(tracer)
    try:
        return tracer.wrap("cli.main", liulogit.cli.main)(cli_args)
    finally:
        tracer.write()


if __name__ == "__main__":
    raise SystemExit(_run_cli_traced(sys.argv[1], sys.argv[2:]))
