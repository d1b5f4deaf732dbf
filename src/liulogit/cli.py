"""Command-line interface: fit, simulate, compare.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
The environment variable ``LIULOGIT_SEED`` supplies the default seed, and
``--config FILE`` reads ``key = value`` lines mirroring the long flags
(explicit flags win).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CellFailedError,
    DatasetFormatError,
    DecompositionError,
    SingularSystemError,
)
from .estimators import (
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    choose_d,
    choose_k,
    ltl_estimate,
    mle_estimate,
    pclr_estimate,
    pcltl_estimate,
    select_components,
    spectral_decompose,
)
from .io import (
    build_study_tables,
    canonical_json,
    parse_dataset,
    render_table_delimited,
    render_table_text,
    study_to_json,
)
from .model import FitConfig, irls_fit
from .msem import (
    asymptotic_msem,
    psd_dominates,
    theorem_3_1_condition,
    theorem_3_2_condition,
    theorem_3_3_condition,
)
from .simulation import (
    CellResult,
    SimulationConfig,
    StudyGrid,
    run_cells,
    study_configs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "LIULOGIT_SEED"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 20240817
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(EXIT_USAGE)


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _usage_exit(message: str):
    sys.stderr.write(f"usage error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _load_config_args(path: str) -> list[str]:
    """Turn 'key = value' lines into flag tokens prepended before CLI flags."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _usage_exit(f"cannot read config file {path}: {exc.strerror or exc}")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_exit(f"config file {path}, line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes"):
            tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return tokens


def _apply_config_file(argv: list[str]) -> list[str]:
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SystemExit(EXIT_USAGE)
    config_tokens = _load_config_args(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    # config tokens go first so explicit flags override them
    return [rest[0], *config_tokens, *rest[1:]] if rest else config_tokens


def build_parser() -> _Parser:
    parser = _Parser(prog="liulogit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit = sub.add_parser("fit", help="fit estimators to a CSV dataset")
    _add_dataset_args(fit)
    fit.add_argument(
        "--estimators",
        default="ml,ltl,pclr,pcltl",
        help="comma list from ml,ltl,pclr,pcltl",
    )
    _add_params_args(fit)
    fit.add_argument("--tol", type=float, default=1e-6)
    fit.add_argument("--format", choices=("json", "csv", "tsv"), default="json")
    fit.add_argument("--output", default=None)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study grid")
    sim.add_argument("--p", type=_csv_ints, default=[4, 6, 8, 12])
    sim.add_argument("--n", type=_csv_ints, default=[200, 500, 1000])
    sim.add_argument("--rho", type=_csv_floats, default=[0.8, 0.9, 0.99, 0.999])
    sim.add_argument("--reps", type=int, default=2000)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None, help="directory for tables and JSON")
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument(
        "--design-scaling", choices=("fixed_norm", "raw"), default="fixed_norm"
    )
    sim.add_argument("--min-components", type=int, default=2)
    sim.add_argument("--components", type=int, default=None)

    comp = sub.add_parser("compare", help="dominance analysis on a dataset")
    _add_dataset_args(comp)
    comp.add_argument(
        "--pair",
        default="pcltl:ml",
        help="comma list of comparisons, e.g. pcltl:ml,pcltl:pclr",
    )
    comp.add_argument("--beta-source", choices=("plugin", "file"), default="plugin")
    comp.add_argument("--beta-file", default=None)
    _add_params_args(comp)
    comp.add_argument("--tol", type=float, default=1e-6)
    comp.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    comp.add_argument("--output", default=None)
    return parser


def _add_dataset_args(parser):
    parser.add_argument("--input", required=True)
    parser.add_argument("--response-col", type=int, default=0)
    parser.add_argument("--has-header", action="store_true")
    parser.add_argument("--config", help=argparse.SUPPRESS)


def _add_params_args(parser):
    parser.add_argument("--k", type=float, default=None)
    parser.add_argument("--d", type=float, default=None)
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--ptv", type=float, default=0.75)


def _fit_pipeline(args):
    dataset = parse_dataset(
        args.input, has_header=args.has_header, response_column=args.response_col
    )
    fit = irls_fit(dataset, FitConfig(tolerance=args.tol))
    if not fit.converged:
        raise SingularSystemError(
            f"IRLS did not converge in {fit.iterations} iterations "
            f"(final step {fit.final_step_norm:.3e})"
        )
    decomp = spectral_decompose(dataset.X, fit.v_diag)
    r = args.r if args.r is not None else select_components(decomp.lambdas, args.ptv)
    if not (1 <= r <= dataset.p):
        raise ValueError(f"r must lie in [1, {dataset.p}]")
    d_value = args.d if args.d is not None else choose_d(decomp.lambdas)
    d_source = "user" if args.d is not None else "rule"
    if args.k is not None:
        k_value, k_source, clamped = args.k, "user", False
    else:
        selection = choose_k(decomp.lambdas, decomp.T.T @ fit.beta, d_value)
        k_value, k_source, clamped = selection.value, "rule", selection.clamped
    params = ShrinkageParams(
        k=k_value, d=d_value, k_source=k_source, d_source=d_source
    )
    return dataset, fit, decomp, r, params, clamped


def _run_fit(args) -> int:
    dataset, fit, decomp, r, params, clamped = _fit_pipeline(args)
    requested = [part.strip() for part in args.estimators.split(",") if part.strip()]
    split = decomp.split(r)
    coefficients = {}
    estimator_errors = {}
    for name in requested:
        try:
            kind = EstimatorKind(name)
            if kind is EstimatorKind.ML:
                estimate = mle_estimate(fit, dataset.X)
            elif kind is EstimatorKind.LTL:
                estimate = ltl_estimate(fit, dataset.X, params)
            elif kind is EstimatorKind.PCLR:
                estimate = pclr_estimate(fit, dataset.X, split)
            else:
                estimate = pcltl_estimate(fit, dataset.X, split, params)
            coefficients[name] = [float(v) for v in estimate]
        except ValueError:
            raise
        except Exception as exc:  # noqa: BLE001 - per-estimator isolation
            estimator_errors[name] = str(exc)
    lambdas = decomp.lambdas
    report = {
        "coefficients": coefficients,
        "estimator_errors": estimator_errors,
        "r": r,
        "r_source": "user" if args.r is not None else "rule",
        "k": params.k,
        "k_source": params.k_source,
        "k_clamped": clamped,
        "d": params.d,
        "d_source": params.d_source,
        "eigenvalues": [float(v) for v in lambdas],
        "condition_number": float(lambdas[0] / lambdas[-1]),
        "iterations": fit.iterations,
        "converged": fit.converged,
        "final_step_norm": fit.final_step_norm,
        "version": __version__,
    }
    _emit(report, args, _fit_report_rows)
    return EXIT_OK


def _fit_report_rows(report):
    rows = [("estimator", "coefficient_index", "value")]
    for name, values in report["coefficients"].items():
        for i, value in enumerate(values):
            rows.append((name, str(i), repr(value)))
    for name, message in report["estimator_errors"].items():
        rows.append((name, "error", message))
    return rows


def _run_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    grid = StudyGrid(
        p_values=tuple(args.p),
        n_values=tuple(args.n),
        rho_values=tuple(args.rho),
    )
    base = SimulationConfig(
        n=max(grid.n_values),
        p=min(grid.p_values),
        rho=grid.rho_values[0],
        replications=args.reps,
        seed=seed,
        design_scaling=args.design_scaling,
        min_components=args.min_components,
        components=args.components,
    )
    outcomes = run_cells(study_configs(grid, base), args.workers)
    results = [outcome for outcome in outcomes if isinstance(outcome, CellResult)]
    failures = [
        outcome.to_dict() for outcome in outcomes if not isinstance(outcome, CellResult)
    ]

    tables = build_study_tables(results)
    text = "\n".join(render_table_text(table) for table in tables)
    for failure in failures:
        text += (
            f"FAILED cell n={failure['n']} p={failure['p']} "
            f"rho={failure['rho']}: {failure['error']}\n"
        )
    json_text = study_to_json(results, master_seed=seed, version=__version__, failures=failures)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for table in tables:
            (out_dir / f"table_p{table.p}.txt").write_text(render_table_text(table))
            (out_dir / f"table_p{table.p}.tsv").write_text(
                render_table_delimited(table)
            )
        (out_dir / "study.json").write_text(json_text)
        sys.stdout.write(f"wrote {len(tables)} tables and study.json to {out_dir}\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write(json_text)
    return EXIT_OK if not failures else EXIT_NUMERIC


_PAIR_THEOREMS = {
    (EstimatorKind.PCLTL, EstimatorKind.ML): "T3_1",
    (EstimatorKind.PCLTL, EstimatorKind.PCLR): "T3_2",
    (EstimatorKind.PCLTL, EstimatorKind.LTL): "T3_3",
}


def _parse_pairs(text: str) -> list[tuple[EstimatorKind, EstimatorKind]]:
    """Split 'challenger:incumbent,...' into estimator pairs, naming bad tokens."""
    names = ", ".join(kind.value for kind in EstimatorKind)
    pairs = []
    for token in text.split(","):
        left, colon, right = token.strip().partition(":")
        if not colon:
            raise ValueError(
                f"--pair token {token!r} is not of the form challenger:incumbent"
            )
        try:
            pairs.append((EstimatorKind(left), EstimatorKind(right)))
        except ValueError:
            raise ValueError(
                f"--pair token {token!r} names an unknown estimator "
                f"(choose from {names})"
            ) from None
    return pairs


def _run_compare(args) -> int:
    comparisons = _parse_pairs(args.pair)
    dataset, fit, decomp, r, params, _ = _fit_pipeline(args)
    split = decomp.split(r)
    if args.beta_source == "plugin":
        beta = fit.beta
        beta_source = "plug_in_mle"
    else:
        if not args.beta_file:
            raise SystemExit(EXIT_USAGE)
        beta = np.loadtxt(args.beta_file, ndmin=1)
        if beta.shape != (dataset.p,):
            raise DatasetFormatError(
                f"beta file must hold {dataset.p} values, got {beta.shape[0]}"
            )
        beta_source = "true_beta"

    rows = []
    for challenger, incumbent in comparisons:
        theorem = _PAIR_THEOREMS.get((challenger, incumbent))
        if theorem == "T3_1":
            verdict = theorem_3_1_condition(beta, decomp, split, params)
        elif theorem == "T3_2":
            verdict = theorem_3_2_condition(beta, split, params)
        elif theorem == "T3_3":
            verdict = theorem_3_3_condition(beta, split, params)
        else:
            verdict = None
        challenger_report = asymptotic_msem(
            _spec_for(challenger, params, r), decomp, beta, beta_source
        )
        incumbent_report = asymptotic_msem(
            _spec_for(incumbent, params, r), decomp, beta, beta_source
        )
        oracle = psd_dominates(incumbent_report.msem, challenger_report.msem)
        rows.append(
            {
                "pair": f"{challenger.value}:{incumbent.value}",
                "theorem": theorem or "direct_psd",
                "condition_value": None if verdict is None else verdict.condition_value,
                "condition_holds": None if verdict is None else verdict.holds,
                "psd_min_eigenvalue": oracle.condition_value,
                "psd_dominates": oracle.holds,
                "agreement": None if verdict is None else verdict.psd_oracle_agrees,
                "smse_challenger": challenger_report.smse,
                "smse_incumbent": incumbent_report.smse,
                "beta_source": beta_source,
            }
        )
    report = {"comparisons": rows, "r": r, "k": params.k, "d": params.d,
              "beta_source": beta_source, "version": __version__}
    _emit(report, args, _compare_report_rows)
    return EXIT_OK


def _spec_for(kind, params, r):
    needs_params = kind in (EstimatorKind.LTL, EstimatorKind.PCLTL)
    needs_r = kind in (EstimatorKind.PCLR, EstimatorKind.PCLTL)
    return EstimatorSpec(
        kind,
        params=params if needs_params else None,
        r=r if needs_r else None,
    )


def _compare_report_rows(report):
    keys = (
        "pair",
        "theorem",
        "condition_value",
        "condition_holds",
        "psd_min_eigenvalue",
        "psd_dominates",
        "agreement",
        "smse_challenger",
        "smse_incumbent",
        "beta_source",
    )
    rows = [keys]
    for row in report["comparisons"]:
        rows.append(tuple("" if row[k] is None else str(row[k]) for k in keys))
    return rows


def _emit(report, args, row_builder):
    if args.format == "json":
        text = canonical_json(report) + "\n"
    else:
        delimiter = "\t" if args.format == "tsv" else ","
        rows = row_builder(report)
        text = "\n".join(delimiter.join(row) for row in rows) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _run_fit(args)
        if args.command == "simulate":
            return _run_simulate(args)
        return _run_compare(args)
    except DatasetFormatError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except (SingularSystemError, DecompositionError, CellFailedError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write(f"invalid arguments: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
