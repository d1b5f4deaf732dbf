"""Command-line interface: fit, simulate, compare.

``main(argv)`` returns the exit code: 0 success, 1 usage error, 2 data
error, 3 numerical failure. Each error is one line on stderr; failed
``simulate`` cells are listed with the results instead. A stdout closed
by its reader (``| head``) ends the command quietly with status 141,
128 + SIGPIPE, as a shell reports a writer killed by its pipe. ``compare``
forms the error matrices in the order the estimators first appear in
--pair, so when several overflow the first one is named. The comma lists
(--estimators, --pair, --p, --n, --rho) are checked while the arguments
are parsed, and empty tokens are skipped. The environment variable
``LIULOGIT_SEED`` supplies the default seed, and ``--config FILE`` (or
``--config=FILE``) reads ``key = value`` lines mirroring the long flags
(explicit flags win); a switch such as ``has_header`` takes true, yes,
false or no. Importing this module sets ``OPENBLAS_NUM_THREADS=1``
before numpy loads, unless ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
is set or numpy is already loaded: one BLAS thread per process.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

# The paper's products are small. A BLAS thread per core only spins idle
# while the command starts, competes with the other --workers processes and
# makes a dense X'VX's bits depend on the core count. OpenBLAS reads the
# variable when numpy loads, and the --workers processes inherit it.
if "numpy" not in sys.modules and not (
    "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .errors import DatasetFormatError, DecompositionError, LiulogitError
from .estimators import (
    EstimatorKind,
    EstimatorSpec,
    ShrinkageParams,
    _estimate_block,
    _refuse_row,
)
from .io import (
    build_study_tables,
    canonical_json,
    parse_dataset,
    render_table_delimited,
    render_table_text,
    study_to_json,
)
from .model import FitConfig, _as_count
from .msem import asymptotic_msem, psd_dominates, theorem_condition
from .simulation import (
    _DESIGN_SCALINGS,
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
# 128 + SIGPIPE, the status a shell reports for a writer killed by its pipe
_EXIT_CLOSED_STDOUT = 141

SEED_ENV_VAR = "LIULOGIT_SEED"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; main reports them as 1
    def error(self, message):
        raise ValueError(message)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "20240817")
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    return _as_count(seed, SEED_ENV_VAR, 0)


def _csv_values(convert, noun: str):
    """An argparse type for a comma list of ``noun``; empty tokens are skipped.

    argparse prefixes "argument --flag: ", so every message names the flag.
    ``convert`` may raise ``ArgumentTypeError`` to name the bad token itself.
    """

    def parse(text: str) -> list:
        tokens = [token.strip() for token in text.split(",")]
        try:
            values = [convert(token) for token in tokens if token]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: expected comma-separated {noun}"
            )
        return values

    return parse


def _estimator_kind(name: str, token: str | None = None) -> EstimatorKind:
    """The estimator ``name``; an unknown one is reported as ``token``."""
    try:
        return EstimatorKind(name)
    except ValueError:
        choices = ", ".join(kind.value for kind in EstimatorKind)
        raise argparse.ArgumentTypeError(
            f"token {token or name!r} names an unknown estimator (choose from {choices})"
        ) from None


def _estimator_pair(token: str) -> tuple[EstimatorKind, EstimatorKind]:
    """One ``challenger:incumbent`` token of --pair."""
    left, colon, right = token.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError(
            f"token {token!r} is not of the form challenger:incumbent"
        )
    return _estimator_kind(left, token), _estimator_kind(right, token)


def _load_config_args(path: str, command: argparse.ArgumentParser) -> list[str]:
    """Turn 'key = value' lines into flag tokens for ``command``'s parser."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(
            f"cannot read config file {path}: {exc.strerror or exc}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"config file {path} is not UTF-8 text: byte "
            f"0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config file {path}, line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None or action.nargs != 0:
            # one token, so a value such as -1e-3 is not read as a flag
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("true", "yes"):
            tokens.append(flag)
        elif value.lower() not in ("false", "no"):
            raise ValueError(
                f"config file {path}, line {lineno}: {key} takes true, yes, "
                f"false or no, got {value!r}"
            )
    return tokens


def _apply_config_file(argv: list[str], parser: _Parser) -> list[str]:
    """Replace ``--config FILE`` or ``--config=FILE`` by the file's flags."""
    flags = [token.partition("=")[0] for token in argv]
    if "--config" not in flags:
        return argv
    i = flags.index("--config")
    # --config=FILE is read as the two tokens --config FILE
    argv = argv[:i] + argv[i].split("=", 1) + argv[i + 1 :]
    if i + 1 >= len(argv) or not argv[i + 1]:
        raise ValueError("--config needs a file name")
    rest = argv[:i] + argv[i + 2 :]
    # a switch (has_header = true) is known from the subcommand's parser
    command = parser.commands.get(rest[0], parser) if rest else parser
    config_tokens = _load_config_args(argv[i + 1], command)
    # config tokens go first so explicit flags override them
    return [rest[0], *config_tokens, *rest[1:]] if rest else config_tokens


def build_parser() -> _Parser:
    parser = _Parser(prog="liulogit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices

    fit = sub.add_parser("fit", help="fit estimators to a CSV dataset")
    _add_dataset_args(fit)
    fit.add_argument(
        "--estimators",
        type=_csv_values(_estimator_kind, "estimators"),
        default=list(EstimatorKind),
        help="comma list from " + ",".join(kind.value for kind in EstimatorKind),
    )
    _add_params_args(fit)
    fit.add_argument("--tol", type=float, default=FitConfig.tolerance)
    fit.add_argument("--format", choices=("json", "csv", "tsv"), default="json")
    fit.add_argument("--output", default=None)

    sim = sub.add_parser("simulate", help="run the Monte Carlo study grid")
    integers, numbers = _csv_values(int, "integers"), _csv_values(float, "numbers")
    sim.add_argument("--p", type=integers, default=StudyGrid.p_values)
    sim.add_argument("--n", type=integers, default=StudyGrid.n_values)
    sim.add_argument("--rho", type=numbers, default=StudyGrid.rho_values)
    sim.add_argument("--reps", type=int, default=SimulationConfig.replications)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None, help="directory for tables and JSON")
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--design-scaling", choices=_DESIGN_SCALINGS,
                     default=SimulationConfig.design_scaling,
                     help="fixed_norm rescales every column to norm 2*sqrt(2) and pins "
                          "the component count per p; raw keeps the drawn columns and "
                          "picks the count per replication by the total-variability rule")
    sim.add_argument("--min-components", type=int,
                     default=SimulationConfig.min_components,
                     help="floor on the total-variability rule's component count; "
                          "applies only when no count is pinned, i.e. with "
                          "--design-scaling raw and without --components")
    sim.add_argument("--components", type=int, default=None,
                     help="component count for every cell under either scaling, in "
                          "place of the per-p count or the total-variability rule")

    comp = sub.add_parser("compare", help="dominance analysis on a dataset")
    _add_dataset_args(comp)
    comp.add_argument(
        "--pair",
        type=_csv_values(_estimator_pair, "challenger:incumbent pairs"),
        default="pcltl:ml",
        help="comma list of comparisons, e.g. pcltl:ml,pcltl:pclr",
    )
    comp.add_argument("--beta-file", default=None)
    _add_params_args(comp)
    comp.add_argument("--tol", type=float, default=FitConfig.tolerance)
    comp.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
    comp.add_argument("--output", default=None)
    return parser


def _add_dataset_args(parser):
    parser.add_argument("--input", required=True)
    parser.add_argument("--response-col", type=int, default=0)
    parser.add_argument("--has-header", action="store_true")


def _add_params_args(parser):
    parser.add_argument("--k", type=float, default=None)
    parser.add_argument("--d", type=float, default=None)
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--ptv", type=float, default=SimulationConfig.ptv_threshold)


def _read_dataset(args):
    return parse_dataset(
        args.input, has_header=args.has_header, response_column=args.response_col
    )


def _fit_pipeline(args, dataset):
    """Row 0 of ``_estimate_block`` on the dataset by name, or ``_refuse_row``'s error:
    its ``fit``, ``decomp``, ``estimates`` and ``rule``, the rule's values Python scalars."""
    block = _estimate_block(
        dataset.X, dataset.y[None], FitConfig(tolerance=args.tol), args.ptv,
        r=args.r, k=args.k, d=args.d,
    )
    _refuse_row(block, 0)
    return SimpleNamespace(
        fit=block.fit.select(0), decomp=block.decomp.select(0),
        estimates={kind: estimate[0] for kind, estimate in block.estimates.items()},
        rule={name: value[0].item() for name, value in block.rule.items()},
    )


def _run_fit(args) -> int:
    dataset = _read_dataset(args)
    row = _fit_pipeline(args, dataset)
    for kind in args.estimators:
        if not np.all(np.isfinite(row.estimates[kind])):
            raise DecompositionError(f"the {kind.display_name} estimate is not finite")
    coefficients = {kind.value: row.estimates[kind].tolist() for kind in args.estimators}
    fit, lambdas = row.fit, row.decomp.lambdas
    report = {
        "coefficients": coefficients,
        **row.rule,  # r, k, d and k_clamped
        "r_source": "user" if args.r is not None else "rule",
        "k_source": "user" if args.k is not None else "rule",
        "d_source": "user" if args.d is not None else "rule",
        "eigenvalues": [float(v) for v in lambdas],
        "condition_number": float(lambdas[0] / lambdas[-1]),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
        "final_step_norm": float(fit.final_step_norm),
        "version": __version__,
    }
    _emit(report, args, _fit_report_rows)
    return EXIT_OK


def _fit_report_rows(report):
    rows = [("estimator", "coefficient_index", "value")]
    for name, values in report["coefficients"].items():
        for i, value in enumerate(values):
            rows.append((name, str(i), repr(value)))
    return rows


def _run_simulate(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    seed = args.seed if args.seed is not None else _default_seed()
    grid = StudyGrid(p_values=args.p, n_values=args.n, rho_values=args.rho)
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
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                f"cannot create --out directory {out_dir}: {exc.strerror}"
            ) from None
    outcomes = run_cells(study_configs(grid, base), args.workers)
    results = [outcome for outcome in outcomes if isinstance(outcome, CellResult)]
    failures = [
        outcome.to_dict() for outcome in outcomes if not isinstance(outcome, CellResult)
    ]

    tables = build_study_tables(results)
    json_text = study_to_json(results, master_seed=seed, version=__version__, failures=failures)

    if out_dir is not None:
        for table in tables:
            _write_output(out_dir / f"table_p{table.p}.txt", render_table_text(table))
            _write_output(
                out_dir / f"table_p{table.p}.tsv", render_table_delimited(table)
            )
        _write_output(out_dir / "study.json", json_text)
        sys.stdout.write(f"wrote {len(tables)} tables and study.json to {out_dir}\n")
    else:
        sys.stdout.write("\n".join(render_table_text(table) for table in tables))
        for failure in failures:
            sys.stdout.write(
                f"FAILED cell n={failure['n']} p={failure['p']} "
                f"rho={failure['rho']}: {failure['error']}\n"
            )
        sys.stdout.write(json_text)
    return EXIT_OK if not failures else EXIT_NUMERIC


def _read_beta_file(path: str) -> np.ndarray:
    """Coefficients from a whitespace-separated text file."""
    try:
        with warnings.catch_warnings():
            # an empty file warns; the length check below reports it
            warnings.simplefilter("ignore", UserWarning)
            beta = np.loadtxt(path, ndmin=1)
    except OSError as exc:
        raise DatasetFormatError(
            f"cannot read beta file {path}: {exc.strerror or 'not found'}"
        ) from None
    except ValueError as exc:
        raise DatasetFormatError(f"beta file {path} is not numeric: {exc}") from None
    if not np.all(np.isfinite(beta)):
        raise DatasetFormatError(f"beta file {path} holds non-finite values")
    return beta


def _run_compare(args) -> int:
    beta = None if args.beta_file is None else _read_beta_file(args.beta_file)
    dataset = _read_dataset(args)
    # a wrong-length file is reported before IRLS runs
    if beta is not None and beta.shape != (dataset.p,):
        raise DatasetFormatError(
            f"beta file {args.beta_file} must hold {dataset.p} values, got {beta.size}"
        )
    row = _fit_pipeline(args, dataset)
    r, params = row.rule["r"], ShrinkageParams(row.rule["k"], row.rule["d"])
    split = row.decomp.split(r)
    beta, beta_source = (row.fit.beta, "plug_in_mle") if beta is None else (beta, "true_beta")

    reports = {
        kind: asymptotic_msem(EstimatorSpec.of(kind, params, r), row.decomp, beta)
        for kind in dict.fromkeys(kind for pair in args.pair for kind in pair)
    }
    rows = []
    for challenger, incumbent in args.pair:
        verdict = theorem_condition(challenger, incumbent, beta, split, params)
        oracle = psd_dominates(reports[incumbent].msem, reports[challenger].msem)
        rows.append(
            {
                "pair": f"{challenger.value}:{incumbent.value}",
                "theorem": "direct_psd" if verdict is None else verdict.theorem,
                "condition_value": None if verdict is None else verdict.condition_value,
                "condition_holds": None if verdict is None else verdict.holds,
                "psd_min_eigenvalue": oracle.condition_value,
                "psd_dominates": oracle.holds,
                "agreement": None if verdict is None else verdict.psd_oracle_agrees,
                "smse_challenger": reports[challenger].smse,
                "smse_incumbent": reports[incumbent].smse,
                "beta_source": beta_source,
            }
        )
    report = {"comparisons": rows, "r": r, "k": params.k, "d": params.d,
              "beta_source": beta_source, "version": __version__}
    _emit(report, args, _compare_report_rows)
    return EXIT_OK


def _compare_report_rows(report):
    comparisons = report["comparisons"]
    rows = [tuple(comparisons[0])]
    for row in comparisons:
        rows.append(tuple("" if value is None else str(value) for value in row.values()))
    return rows


def _emit(report, args, row_builder):
    if args.format == "json":
        text = canonical_json(report) + "\n"
    else:
        delimiter = "\t" if args.format == "tsv" else ","
        rows = row_builder(report)
        text = "\n".join(delimiter.join(row) for row in rows) + "\n"
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)


def _write_output(path, text: str):
    """Write one output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring).

    Only ``--help`` and ``--version`` leave through argparse's ``SystemExit(0)``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_apply_config_file(argv, parser))
        run = {"fit": _run_fit, "simulate": _run_simulate, "compare": _run_compare}
        code = run[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone (say, `| head`); stdout now points at
        # devnull, so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_CLOSED_STDOUT
    except DatasetFormatError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return EXIT_DATA
    except LiulogitError as exc:
        # every other package error is numerical: a refused row, X'VX or cell
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
