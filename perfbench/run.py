"""Benchmark of liulogit, run against the checkout it sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client sends its next operation only
after the previous one has finished, for about ``--seconds`` seconds.

  study-serial      ``simulate`` over the default 48-cell grid, --workers 1
  study-parallel    the same grid and seeds, --workers 2
  dataset-analysis  ``fit`` then ``compare`` on a generated 100k-row CSV

The command line runs as a subprocess: ``python -m liulogit.cli`` with this
checkout's ``src`` on the path.  Every operation's output is checked; a
check that fails, a nonzero exit or a failed cell counts the operation as
failed.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` an untraced pass runs for half the time, the
same inputs are replayed with spans recorded around the calls between the
package's modules (see ``tracing.py``), and the last line carries the
per-layer metrics.  The line before it records the environment and the
sample counts.  perfbench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_FILE = BENCH_DIR / "reference_study.json"

SETUP_PROBES = 5
OP_TIMEOUT_S = 120

STUDY_GRID = ["--p", "4,6,8,12", "--n", "200,500,1000", "--rho", "0.8,0.9,0.99,0.999"]
STUDY_CELLS = 48
STUDY_REPS = 30
# master seeds whose per-cell results reference_study.json records; the
# workload seed picks the order in which a run visits them
STUDY_SEEDS = (20240817, *range(1, 16))
# far below the Monte Carlo noise (~1e-2) yet above last-digit changes from
# reordered arithmetic or one extra sub-tolerance IRLS step
MSE_REL_TOL = 1e-6
ESTIMATORS = ("ml", "ltl", "pclr", "pcltl")
PARALLEL_WORKERS = 2

DATASET_ROWS = 100_000
DATASET_COLUMNS = 10
DATASET_RHO = 0.95
COMPARE_PAIRS = "pcltl:ml,pcltl:pclr,pcltl:ltl"
# criterion 7's gap between IRLS and an independent likelihood maximizer
ORACLE_COEF_TOL = 1e-6

# a theorem 3.2/3.3 condition this far from zero is not a knife-edge draw
NONDEGENERATE = 1e-6


class BenchmarkError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Sample:
    latency_s: float
    cpu_s: float
    ok: bool
    note: str = ""


@dataclass
class Pass:
    inputs: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def latencies(self) -> list:
        return [s.latency_s for s in self.samples]


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{extra}" if extra else str(SRC)
    return env


def run_child(cmd, env) -> tuple[int, str, str]:
    """Run a command in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -signal.SIGKILL, out, f"timed out after {OP_TIMEOUT_S} s\n{err}"
    return proc.returncode, out, err


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_child(cmd, env) -> tuple[int, str, str, float, float]:
    cpu0 = children_cpu_s()
    start = time.perf_counter()
    code, out, err = run_child(cmd, env)
    latency = time.perf_counter() - start
    return code, out, err, latency, children_cpu_s() - cpu0


def is_inside(path, directory) -> bool:
    return Path(path).resolve().is_relative_to(Path(directory).resolve())


_PROBE = (
    "import time; t = time.perf_counter(); import liulogit.cli; "
    "t = time.perf_counter() - t; import liulogit; print(t); print(liulogit.__file__)"
)


def measure_setup(env) -> tuple[list, list, str]:
    """Fresh-interpreter imports of liulogit.cli: wall times and import times.

    Fails when liulogit resolves anywhere but this checkout's src.
    """
    walls, imports, location = [], [], ""
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        code, out, err = run_child([sys.executable, "-c", _PROBE], env)
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise BenchmarkError(f"cannot import liulogit.cli from {SRC}:\n{err}")
        import_s, location = out.split()
        if not is_inside(location, SRC):
            raise BenchmarkError(f"liulogit resolves to {location}, outside {SRC}")
        imports.append(float(import_s))
    return walls, imports, location


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(liulogit_file) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "liulogit_file": liulogit_file,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------- workloads


class CliWorkload:
    """Operations that run the command line as a subprocess."""

    workers = 1

    def __init__(self, seed, env):
        self.rng = np.random.default_rng(seed)
        self.env = env
        self.dir = WORK / self.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def cli(self, span_dir):
        if span_dir is None:
            return [sys.executable, "-m", "liulogit.cli"]
        return [sys.executable, str(BENCH_DIR / "tracing.py"), str(span_dir)]

    def finish(self) -> tuple[bool, str]:
        return True, ""


def load_reference() -> dict:
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if reference["reps"] != STUDY_REPS or reference["grid"] != STUDY_GRID:
        raise BenchmarkError(f"{REFERENCE_FILE.name} does not match the study settings")
    return reference["seeds"]


def study_cells(text) -> dict:
    """(p, n, rho) -> [ml, ltl, pclr, pcltl, divergent] from study.json bytes."""
    doc = json.loads(text)
    if doc["failures"]:
        raise ValueError(f"{len(doc['failures'])} failed cells")
    cells = {}
    for cell in doc["cells"]:
        mse = [cell["mse"][name] for name in ESTIMATORS]
        cells[(cell["p"], cell["n"], cell["rho"])] = [
            *mse,
            cell["divergent_replications"],
        ]
    if len(doc["cells"]) != STUDY_CELLS or len(cells) != STUDY_CELLS:
        raise ValueError(f"{len(doc['cells'])} cells, expected {STUDY_CELLS}")
    return cells


def study_mismatch(text, reference_cells) -> str:
    """Empty when the study matches its reference, else the first difference."""
    try:
        cells = study_cells(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad study.json: {exc}"
    for p, n, rho, *expected in reference_cells:
        got = cells.get((p, n, rho))
        if got is None:
            return f"cell p={p} n={n} rho={rho} missing"
        if got[-1] != expected[-1]:
            return f"cell p={p} n={n} rho={rho}: {got[-1]} divergent, expected {expected[-1]}"
        for name, value, want in zip(ESTIMATORS, got, expected):
            if not math.isclose(value, want, rel_tol=MSE_REL_TOL):
                return f"cell p={p} n={n} rho={rho}: {name} MSE {value!r}, expected {want!r}"
    return ""


class StudyWorkload(CliWorkload):
    """One ``simulate`` run over the 48-cell grid per operation."""

    items_per_op = STUDY_CELLS * STUDY_REPS

    def __init__(self, seed, env):
        super().__init__(seed, env)
        self.reference = load_reference()
        self.order = [int(s) for s in self.rng.permutation(STUDY_SEEDS)]
        self.drawn = 0
        self.first = None

    def draw(self):
        seed = self.order[self.drawn % len(self.order)]
        self.drawn += 1
        return seed

    def simulate(self, master_seed, workers, out_dir, span_dir=None):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "study.json").unlink(missing_ok=True)
        cmd = self.cli(span_dir) + [
            "simulate",
            *STUDY_GRID,
            "--reps", str(STUDY_REPS),
            "--seed", str(master_seed),
            "--workers", str(workers),
            "--out", str(out_dir),
        ]
        code, _, err, latency, cpu = timed_child(cmd, self.env)
        if code != 0:
            return None, latency, cpu, f"simulate exited {code}: {err.strip()[-300:]}"
        return (out_dir / "study.json").read_bytes(), latency, cpu, ""

    def op(self, master_seed, span_dir):
        text, latency, cpu, note = self.simulate(
            master_seed, self.workers, self.dir / "out", span_dir
        )
        if text is not None:
            note = study_mismatch(text, self.reference[str(master_seed)])
            if self.first is None:
                self.first = (master_seed, text)
        return Sample(latency, cpu, not note, note)


class StudySerial(StudyWorkload):
    name = "study-serial"


class StudyParallel(StudyWorkload):
    name = "study-parallel"
    workers = PARALLEL_WORKERS

    def finish(self):
        """study.json must be byte-identical to a serial run of the same seed."""
        if self.first is None:
            return False, "no study output to compare"
        master_seed, parallel_text = self.first
        serial_text, _, _, note = self.simulate(master_seed, 1, self.dir / "serial")
        if serial_text is None:
            return False, note
        if serial_text != parallel_text:
            return False, f"seed {master_seed}: parallel study.json differs from serial"
        return True, ""


class DatasetAnalysis(CliWorkload):
    """``fit`` then ``compare`` on one generated CSV per operation."""

    name = "dataset-analysis"
    items_per_op = DATASET_ROWS

    def __init__(self, seed, env):
        super().__init__(seed, env)
        X, y = self.generate()
        self.csv = self.dir / "data.csv"
        self.write_csv(X, y)
        self.oracle = self.max_likelihood(X, y)
        self.first_fit = None

    def generate(self):
        # single-common-factor design: pairwise correlation DATASET_RHO^2
        rng, n, p, rho = self.rng, DATASET_ROWS, DATASET_COLUMNS, DATASET_RHO
        z = rng.standard_normal((n, p + 1))
        X = math.sqrt(1.0 - rho**2) * z[:, :p] + rho * z[:, [p]]
        beta = rng.standard_normal(p) / math.sqrt(p)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
        return X, y

    def write_csv(self, X, y):
        names = ["y"] + [f"x{j + 1}" for j in range(X.shape[1])]
        with open(self.csv, "w", encoding="utf-8") as handle:
            handle.write(",".join(names) + "\n")
            for label, row in zip(y.tolist(), X.tolist()):
                handle.write(f"{int(label)}," + ",".join(map(repr, row)) + "\n")

    @staticmethod
    def max_likelihood(X, y):
        """Independent ML coefficients from scipy's maximizer and root finder.

        trust-exact stops where the objective's roundoff hides further gains;
        MINPACK's hybrid method then solves the score equations from there.
        """
        from scipy.optimize import minimize, root

        def negloglik(b):
            eta = X @ b
            return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

        def grad(b):
            return X.T @ (1.0 / (1.0 + np.exp(-(X @ b))) - y)

        def hess(b):
            pi = 1.0 / (1.0 + np.exp(-(X @ b)))
            return (X * (pi * (1.0 - pi))[:, None]).T @ X

        res = minimize(
            negloglik,
            np.zeros(X.shape[1]),
            jac=grad,
            hess=hess,
            method="trust-exact",
            options={"gtol": 1e-8},
        )
        res = root(grad, res.x, jac=hess, method="hybr")
        # |score| / lambda_min bounds the distance to the maximizer
        bound = np.linalg.norm(grad(res.x)) / np.linalg.eigvalsh(hess(res.x))[0]
        if not bound <= ORACLE_COEF_TOL / 100:
            raise BenchmarkError(f"oracle stopped up to {bound:.1e} from the optimum")
        return res.x

    def draw(self):
        return None

    def op(self, _, span_dir):
        data = ["--input", str(self.csv), "--has-header", "--response-col", "0"]
        fit_cmd = self.cli(span_dir) + ["fit", *data, "--format", "json"]
        compare_cmd = self.cli(span_dir) + [
            "compare", *data, "--pair", COMPARE_PAIRS, "--format", "json",
        ]
        code, fit_out, err, latency, cpu = timed_child(fit_cmd, self.env)
        if code != 0:
            return Sample(latency, cpu, False, f"fit exited {code}: {err.strip()[-300:]}")
        code, compare_out, err, latency2, cpu2 = timed_child(compare_cmd, self.env)
        latency, cpu = latency + latency2, cpu + cpu2
        if code != 0:
            note = f"compare exited {code}: {err.strip()[-300:]}"
            return Sample(latency, cpu, False, note)
        note = self.check(fit_out, compare_out)
        return Sample(latency, cpu, not note, note)

    def check(self, fit_out, compare_out) -> str:
        if self.first_fit is None:
            self.first_fit = fit_out
        elif fit_out != self.first_fit:
            return "fit output changed between identical invocations"
        try:
            fit = json.loads(fit_out)
            compare = json.loads(compare_out)
            gap = float(np.max(np.abs(np.asarray(fit["coefficients"]["ml"]) - self.oracle)))
            pairs = [row["pair"] for row in compare["comparisons"]]
            smse = [row[key] for row in compare["comparisons"]
                    for key in ("smse_challenger", "smse_incumbent")]
            same_params = all(fit[key] == compare[key] for key in ("r", "k", "d"))
            theorems = {row["theorem"]: row for row in compare["comparisons"]}
            # criterion 6: away from the knife edge, T3.2 and T3.3 deny
            # dominance and the direct eigenvalue test agrees
            misjudged = [
                name
                for name in ("T3_2", "T3_3")
                if theorems[name]["condition_value"] > NONDEGENERATE
                and (theorems[name]["condition_holds"] or theorems[name]["agreement"] is not True)
            ]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"
        if not gap <= ORACLE_COEF_TOL:
            return f"ML coefficients differ from the oracle maximizer by {gap:.3e}"
        if pairs != COMPARE_PAIRS.split(","):
            return f"compare reported pairs {pairs}"
        if not all(math.isfinite(v) for v in smse):
            return "non-finite SMSE in compare report"
        if not same_params:
            return "fit and compare chose different r, k or d"
        if misjudged:
            return f"{', '.join(misjudged)} verdicts disagree with the PSD oracle"
        return ""


WORKLOADS = {cls.name: cls for cls in (StudySerial, StudyParallel, DatasetAnalysis)}


# ------------------------------------------------------------- measurement


def closed_loop(workload, seconds) -> Pass:
    """Run operations until the next one would probably end past ``seconds``."""
    result = Pass()
    start = time.perf_counter()
    while True:
        x = workload.draw()
        result.inputs.append(x)
        result.samples.append(workload.op(x, None))
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / len(result.samples)) >= seconds:
            return result


def traced_replay(workload, inputs) -> tuple[Pass, tracing.SpanStats]:
    """Replay ``inputs`` with spans recorded; return samples and span totals."""
    root = WORK / "trace" / workload.name
    shutil.rmtree(root, ignore_errors=True)
    result = Pass(inputs=list(inputs))
    stats = tracing.SpanStats()
    for i, x in enumerate(inputs):
        result.samples.append(workload.op(x, root / f"op{i}"))
        stats.add_dir(root / f"op{i}")
    return result, stats


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Below twenty samples no such percentile reaches the median, and the
    median is reported instead.  Returns (value, percentile).
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank <= len(ordered) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload, run: Pass, setup_walls) -> tuple[dict, dict]:
    latencies = run.latencies()
    wall = statistics.fmean(latencies)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "us_per_rep": wall * 1e6 / workload.items_per_op,
        "cpu_s": statistics.fmean(s.cpu_s for s in run.samples),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_tail": tail_value * 1e3,
        # largest resident set of any process waited for: the CLI or a worker
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    detail = {"ops": len(latencies), "op_ms_tail_percentile": tail_pct,
              "items_per_op": workload.items_per_op}
    return metrics, detail


def per_layer(workload, untraced: Pass, traced: Pass, stats, import_times) -> dict:
    ops = len(traced.samples)
    metrics = tracing.layer_metrics(stats, ops)
    metrics["cli.import_ms"] = statistics.median(import_times) * 1e3
    busy = 0.0
    if isinstance(workload, StudyWorkload):
        cpu = sum(s.cpu_s for s in untraced.samples)
        busy = cpu / (workload.workers * sum(untraced.latencies()))
    metrics["simulation.pool.busy_share"] = busy
    metrics["trace.overhead_s"] = (
        statistics.fmean(traced.latencies()) - statistics.fmean(untraced.latencies())
    )
    return metrics


def declared_units(section) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def benchmark(args) -> tuple[dict, dict]:
    if not (SRC / "liulogit" / "__init__.py").is_file():
        raise BenchmarkError(f"no liulogit package under {SRC}")
    env = child_env()
    setup_walls, import_times, location = measure_setup(env)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(location),
    }
    workload = WORKLOADS[args.workload](args.seed, env)

    if args.trace:
        untraced = closed_loop(workload, args.seconds / 2.0)
        traced, stats = traced_replay(workload, untraced.inputs)
        runs = [untraced, traced]
        metrics = per_layer(workload, untraced, traced, stats, import_times)
        units = declared_units("per_layer")
        detail["ops"] = len(untraced.samples)
    else:
        run = closed_loop(workload, args.seconds)
        runs = [run]
        metrics, extra = end_to_end(workload, run, setup_walls)
        units = declared_units("end_to_end")
        detail.update(extra)
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "are not both measured and declared in BENCHMARK.json")

    attempted = sum(len(r.samples) for r in runs)
    notes = [s.note for r in runs for s in r.samples if not s.ok]
    finished, note = workload.finish()
    if not finished:
        notes.append(note)
    failed = min(attempted, sum(r.failed for r in runs) + (0 if finished else 1))
    detail["failed_frac"] = failed / attempted
    detail["failures"] = notes[:5]
    for note in notes[:5]:
        print(f"failed: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = benchmark(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
