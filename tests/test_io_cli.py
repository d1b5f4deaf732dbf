import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from liulogit import (
    Dataset,
    DatasetFormatError,
    EstimatorKind,
    EstimatorSpec,
    FitConfig,
    ShrinkageParams,
    SimulationConfig,
    StudyGrid,
    asymptotic_msem,
    build_study_tables,
    irls_fit,
    parse_dataset,
    psd_dominates,
    render_table_delimited,
    render_table_text,
    run_study,
    spectral_decompose,
    study_to_json,
    theorem_3_1_condition,
    theorem_3_2_condition,
    theorem_3_3_condition,
    write_dataset,
)
import liulogit.io
import liulogit.msem
from liulogit import cli, estimators, model
from liulogit.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

from _util import (
    correlated_design, count_gram_maps, duplicated_column_data, gram_chunk_budget,
    random_dataset, src_env,
)


class TestParseDataset:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("y,x1\n1,0.5\n0,-0.2\n1,1.1\n")
        data = parse_dataset(path, has_header=True, response_column=0)
        assert data.n == 3 and data.p == 1
        assert np.array_equal(data.y, [1.0, 0.0, 1.0])
        assert np.allclose(data.X[:, 0], [0.5, -0.2, 1.1])

    def test_nonbinary_response_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.5\n2,0.3\n")
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path)
        assert err.value.line == 2
        assert "2" in str(err.value)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,0.5,0.2\n0,0.1\n")
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path)
        assert err.value.line == 2

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("1,0.5\n0,abc\n")
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path)
        assert err.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            parse_dataset(tmp_path / "absent.csv")

    @staticmethod
    def _parse_through_pipe(tmp_path, text, **kwargs):
        """parse_dataset's result or error on ``text`` written once to a FIFO.

        Reader and writer are daemon threads: a reader that never opens the
        pipe, or opens it a second time after the writer has closed it,
        blocks without holding up the suite, and the result is then None.
        """
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        outcome = []

        def feed():
            with open(pipe, "w") as handle:
                handle.write(text)

        def read():
            try:
                outcome.append(parse_dataset(pipe, **kwargs))
            except DatasetFormatError as exc:
                outcome.append(exc)

        threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        return outcome[0]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_reads_like_a_regular_file(self, tmp_path):
        text = "y,x1,x2\n1,0.5,0.1\n0,-0.2,0.3\n1,1.1,-0.4\n"
        regular = tmp_path / "data.csv"
        regular.write_text(text)
        data = self._parse_through_pipe(tmp_path, text, has_header=True)
        expected = parse_dataset(regular, has_header=True)
        assert np.array_equal(data.X, expected.X) and np.array_equal(data.y, expected.y)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "text, message",
        [
            ("y,x1,x2\n1,0.5,0.1\n0,abc,0.3\n1,1.1,-0.4\n", "line 3: non-numeric cell"),
            # float() reads 1_000, loadtxt does not: the line loop reads it
            ("y,x1,x2\n1,0.5,0.1\n0,1_000,0.3\n1,1.1,2\n", None),
        ],
        ids=["faulty", "underscore"],
    )
    def test_pipe_is_read_once_by_the_line_loop(self, tmp_path, text, message):
        outcome = self._parse_through_pipe(tmp_path, text, has_header=True)
        if message is None:
            assert outcome.X[1, 0] == 1000.0
        else:
            assert isinstance(outcome, DatasetFormatError)
            assert str(outcome) == message and outcome.line == 3

    @pytest.mark.parametrize(
        "row", ["0,0.2,nan", "0,inf,0.3", "1,0.2,-inf", "NaN,0.2,0.3", "inf,0.1,0.1"]
    )
    def test_non_finite_cell_names_line(self, tmp_path, row):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"y,x1,x2\n1,0.5,0.1\n\n{row}\n1,0.3,0.4\n0,0.1,nan\n")
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path, has_header=True)
        assert err.value.line == 4
        assert "line 4: non-finite cell" in str(err.value)

    @pytest.mark.parametrize(
        "content, has_header, line",
        [
            (b"y,x1\n1,0.5\n0,caf\xe9\n1,0.3\n", True, 3),
            (b"y,x\xe9\n1,0.5\n0,0.2\n", True, 1),
            (b"1,0.5\r\n0,0.2\r\n\r\n1,0.3 \xff\r\n", False, 4),
        ],
        ids=["data-line", "header", "crlf"],
    )
    def test_not_utf8_names_line(self, tmp_path, content, has_header, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(content)
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path, has_header=has_header)
        assert err.value.line == line
        assert f"line {line}: byte 0x" in str(err.value)

    @pytest.mark.parametrize(
        "content, has_header, message",
        [
            # a ragged line before a byte that is not UTF-8
            (b"y,x1,x2\n1,0.5,0.1\n0,0.2\n1,0.3,0.4\n0,caf\xe9,0.1\n", True,
             "line 3: expected 3 fields, got 2"),
            # a non-finite cell before a ragged line
            (b"1,0.5,0.1\n0,nan,0.2\n1,0.3\n", False, "line 2: non-finite cell"),
            # the header sets the field count, so a short first row is named
            (b"y,x1,x2\n0,0.1\n1,0.2,0.3\n", True,
             "line 2: expected 3 fields, got 2"),
            # a header narrower than its rows
            (b"y,x1\n0,0.1,0.2\n1,0.2,0.3\n", True,
             "line 2: expected 2 fields, got 3"),
        ],
        ids=["ragged-then-latin1", "nan-then-ragged", "short-first-row", "wide-rows"],
    )
    def test_first_fault_in_line_order_is_named(self, tmp_path, content, has_header,
                                                message):
        path = tmp_path / "faults.csv"
        path.write_bytes(content)
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(path, has_header=has_header)
        assert str(err.value) == message
        assert err.value.line == int(message.split()[1].rstrip(":"))

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"y,x1\n1,0.5\n0,0.2\n", None),
            (b"y,x1\n1,0.5\n0,caf\xe9\n", "line 3: byte 0xe9 is not UTF-8 text"),
            (b"y,x1\n1,0.5\n0,nan\n", "line 3: non-finite cell"),
        ],
        ids=["clean", "not-utf8", "non-finite"],
    )
    def test_file_is_opened_once(self, tmp_path, monkeypatch, content, message):
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(liulogit.io, "open", counting_open, raising=False)
        path = tmp_path / "once.csv"
        path.write_bytes(content)
        if message is None:
            assert parse_dataset(path, has_header=True).n == 2
        else:
            with pytest.raises(DatasetFormatError, match=f"^{message}$"):
                parse_dataset(path, has_header=True)
        assert opened == [path]

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        X = rng.standard_normal((25, 3))
        y = (rng.random(25) < 0.5).astype(float)
        original = Dataset(X=X, y=y)
        path = tmp_path / "round.csv"
        write_dataset(original, path)
        parsed = parse_dataset(path, has_header=True, response_column=0)
        assert np.array_equal(parsed.X, original.X)
        assert np.array_equal(parsed.y, original.y)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
        rows = "1,0.5,2.0\n0,-0.2,1.5\n1,1.1,-0.3\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_text("\ufeff" + rows, encoding="utf-8")
        expected, parsed = parse_dataset(plain), parse_dataset(marked)
        assert np.array_equal(parsed.X, expected.X)
        assert np.array_equal(parsed.y, expected.y)

    def test_response_column_in_middle(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("0.5,1,2.0\n0.1,0,3.0\n")
        data = parse_dataset(path, response_column=1)
        assert np.array_equal(data.y, [1.0, 0.0])
        assert np.allclose(data.X, [[0.5, 2.0], [0.1, 3.0]])


def tiny_study():
    grid = StudyGrid(p_values=(3,), n_values=(100,), rho_values=(0.8,))
    base = SimulationConfig(n=100, p=3, rho=0.8, replications=15, seed=99)
    return run_study(grid, base)


class TestStudyTables:
    def test_fixed_row_order(self):
        tables = build_study_tables(tiny_study())
        assert len(tables) == 1
        assert tables[0].row_order == (
            EstimatorKind.ML,
            EstimatorKind.LTL,
            EstimatorKind.PCLR,
            EstimatorKind.PCLTL,
        )

    def test_text_rendering_four_decimals(self):
        table = build_study_tables(tiny_study())[0]
        text = render_table_text(table)
        assert "MLE" in text and "PCLTL" in text
        value = table.values[EstimatorKind.ML][0]
        assert f"{value:.4f}" in text

    def test_json_and_text_numerically_identical(self):
        results = tiny_study()
        table = build_study_tables(results)[0]
        text = render_table_text(table)
        payload = json.loads(study_to_json(results, master_seed=99, version="x"))
        json_value = payload["cells"][0]["mse"]["ml"]
        line = next(l for l in text.splitlines() if l.startswith("MLE"))
        text_value = float(line.split()[-1])
        assert text_value == pytest.approx(json_value, abs=5e-5)

    def test_delimited_full_precision(self):
        results = tiny_study()
        table = build_study_tables(results)[0]
        tsv = render_table_delimited(table)
        row = next(l for l in tsv.splitlines() if l.startswith("MLE"))
        assert float(row.split("\t")[1]) == table.values[EstimatorKind.ML][0]

    def test_json_deterministic_bytes(self):
        results = tiny_study()
        a = study_to_json(results, master_seed=99, version="x")
        b = study_to_json(tiny_study(), master_seed=99, version="x")
        assert a.encode() == b.encode()


@pytest.fixture()
def toy_csv(tmp_path):
    rng = np.random.default_rng(71)
    n = 80
    X = rng.standard_normal((n, 3))
    eta = X @ np.array([0.8, -0.5, 0.3])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    path = tmp_path / "data.csv"
    write_dataset(Dataset(X=X, y=y), path, header=False)
    return path


@pytest.fixture
def tiny_scale_csv(tmp_path):
    # columns scaled by 0.01: X'VX's eigenvalues are near 0.008
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 3))
    eta = X @ np.array([0.8, -0.5, 0.3])
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    path = tmp_path / "tiny.csv"
    write_dataset(Dataset(X=0.01 * X, y=y), path, header=False)
    return path


class TestFitCommand:
    def test_intercept_only_zero_coefficient(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{y},1.0" for y in [1, 0] * 10)
        path.write_text(rows + "\n")
        code = main(["fit", "--input", str(path), "--estimators", "ml",
                     "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["coefficients"]["ml"][0]) < 1e-8
        assert report["converged"]

    def test_zero_k_rejected_as_usage(self, toy_csv, capsys):
        code = main(["fit", "--input", str(toy_csv), "--k", "0", "--d", "0.1"])
        assert code == EXIT_USAGE
        assert "k must be positive" in capsys.readouterr().err

    def test_full_rank_pcltl_matches_ltl(self, toy_csv, capsys):
        code = main([
            "fit", "--input", str(toy_csv), "--r", "3", "--k", "0.9",
            "--d", "0.2", "--format", "json",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        ltl = np.array(report["coefficients"]["ltl"])
        pcltl = np.array(report["coefficients"]["pcltl"])
        assert np.max(np.abs(ltl - pcltl)) < 1e-10

    @pytest.mark.parametrize(
        "flags, k_source, d_source",
        [
            ([], "rule", "rule"),
            (["--k", "0.9"], "user", "rule"),
            (["--d", "0.2"], "rule", "user"),
            (["--k", "0.9", "--d", "0.2"], "user", "user"),
        ],
    )
    def test_parameter_sources(self, toy_csv, capsys, flags, k_source, d_source):
        code = main(["fit", "--input", str(toy_csv), *flags, "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["k_source"], report["d_source"]) == (k_source, d_source)

    def test_report_contents(self, toy_csv, capsys):
        code = main(["fit", "--input", str(toy_csv), "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["coefficients"]) == {"ml", "ltl", "pclr", "pcltl"}
        assert report["k_source"] == "rule" and report["d_source"] == "rule"
        assert report["condition_number"] >= 1.0
        assert len(report["eigenvalues"]) == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == EXIT_DATA

    def test_non_finite_cell_is_data_error(self, toy_csv, capsys):
        lines = toy_csv.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"
        toy_csv.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(toy_csv)]) == EXIT_DATA
        assert "line 5: non-finite cell" in capsys.readouterr().err

    def test_fewer_rows_than_covariates_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("1,0.5,0.1,0.2\n0,-0.3,0.4,0.9\n")
        assert main(["fit", "--input", str(path)]) == EXIT_DATA
        assert "2 data rows for 3 covariates" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_defaults_are_the_library_defaults(self, command):
        args = cli.build_parser().parse_args([command, "--input", "x.csv"])
        assert args.tol == FitConfig().tolerance
        assert args.ptv == SimulationConfig(n=200, p=4, rho=0.8).ptv_threshold
        if command == "fit":
            assert args.estimators == list(EstimatorKind)

    def test_usage_error_exit_code(self):
        assert main(["fit"]) == EXIT_USAGE  # --input is required

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["fit"], "the following arguments are required: --input"),
            (["fit", "--input", "x.csv", "--bogus"], "unrecognized arguments: --bogus"),
            (["simulate", "--reps", "1.5"], "argument --reps: invalid int value: '1.5'"),
            (["simulate", "--p", "abc"], "argument --p: invalid"),
            (["compare", "--input", "x.csv", "--format", "xml"],
             "argument --format: invalid choice: 'xml'"),
            (["fit", "--input", "x.csv", "--estimators", "ml,foo"],
             "argument --estimators: token 'foo' names an unknown estimator "
             "(choose from ml, ltl, pclr, pcltl)"),
            (["compare", "--input", "x.csv", "--pair", "pcltl:bogus"],
             "argument --pair: token 'pcltl:bogus' names an unknown estimator "
             "(choose from ml, ltl, pclr, pcltl)"),
            # a leading NAME=value sets the environment, as in a shell
            (["LIULOGIT_SEED=x", "simulate", "--p", "3", "--n", "80", "--reps", "5"],
             "LIULOGIT_SEED must be an integer, got 'x'"),
            (["fit", "--config", "{tmp}/absent.cfg"],
             "cannot read config file {tmp}/absent.cfg: No such file or directory"),
            (["fit", "--input", "{csv}", "--r", "0"], "r must be an integer in [1, 3], got 0"),
            (["fit", "--input", "{csv}", "--tol", "inf"],
             "tolerance must be finite and positive"),
            (["simulate", "--workers", "0", "--out", "{tmp}/out"],
             "--workers must be at least 1, got 0"),
            (["simulate", "--p", "4,4", "--reps", "2"], "p_values lists 4 more than once"),
            (["simulate", "--n", "200,500,200", "--reps", "2"],
             "n_values lists 200 more than once"),
            (["simulate", "--rho", "0.9,0.9", "--reps", "2"],
             "rho_values lists 0.9 more than once"),
            # --beta-file alone chooses the coefficient vector
            (["compare", "--input", "{csv}", "--beta-source", "file"],
             "unrecognized arguments: --beta-source file"),
            # a given r leaves the threshold unread, yet it is still checked
            (["fit", "--input", "{csv}", "--r", "2", "--ptv", "-1"],
             "ptv_threshold must lie in (0, 1]"),
            (["fit", "--input", "{csv}", "--ptv", "2", "--r", "2"],
             "ptv_threshold must lie in (0, 1]"),
            (["compare", "--input", "{csv}", "--r", "2", "--ptv", "2"],
             "ptv_threshold must lie in (0, 1]"),
        ],
    )
    def test_usage_error_names_its_reason(self, toy_csv, tmp_path, monkeypatch,
                                          capsys, argv, reason):
        places = {"tmp": tmp_path, "csv": toy_csv}
        argv = [token.format(**places) for token in argv]
        while "=" in argv[0]:
            monkeypatch.setenv(*argv.pop(0).split("=", 1))
        assert main(argv) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("usage error: ")
        assert reason.format(**places) in lines[0]

    @pytest.mark.parametrize(
        "flag, value, line",
        [
            ("--p", "abc", "usage error: argument --p: invalid value 'abc': "
                           "expected comma-separated integers"),
            ("--rho", "0.9,x", "usage error: argument --rho: invalid value "
                               "'0.9,x': expected comma-separated numbers"),
            ("--p", ",", "usage error: argument --p: invalid value ',': "
                         "expected comma-separated integers"),
        ],
    )
    def test_grid_list_error_names_the_flag(self, capsys, flag, value, line):
        assert main(["simulate", flag, value]) == EXIT_USAGE
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
    def test_delimited_rows_match_json(self, toy_csv, capsys, fmt, sep):
        assert main(["fit", "--input", str(toy_csv), "--format", "json"]) == EXIT_OK
        coefficients = json.loads(capsys.readouterr().out)["coefficients"]
        assert main(["fit", "--input", str(toy_csv), "--format", fmt]) == EXIT_OK
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == sep.join(("estimator", "coefficient_index", "value"))
        # json sorts the estimator names; the rows keep --estimators order
        rows = sorted(line.split(sep) for line in lines)
        assert rows == sorted(
            [name, str(i), repr(value)]
            for name, values in coefficients.items()
            for i, value in enumerate(values)
        )

    @pytest.mark.parametrize(
        "make, message",
        [
            # an exact copy of x2 makes X'VX singular at the first step
            (lambda X, y: (X[:, [0, 1, 1]], y),
             "numerical failure: X'VX singular or IRLS step non-finite "
             "at iteration 1"),
            # y = 1[x1 > 0] is completely separated: the ML estimate diverges
            (lambda X, y: (X, (X[:, 0] > 0).astype(float)),
             "numerical failure: IRLS did not converge in 100 iterations"),
        ],
    )
    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_numerical_failure_exit_code(self, toy_csv, tmp_path, capsys,
                                         make, message, command):
        data = parse_dataset(toy_csv)
        X, y = make(data.X, data.y)
        path = tmp_path / "failing.csv"
        write_dataset(Dataset(X=X, y=y), path, header=False)
        assert main([command, "--input", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_numerically_singular_line(self, tmp_path, capsys, command):
        # a column scaled by 1e8: IRLS converges on any BLAS kernel and the
        # decomposition of its final X'VX refuses it, naming both extreme
        # eigenvalues.  The smallest is rounding, so the expected line is
        # formatted from the estimation step's own eigenvalues on the file
        data, _ = random_dataset(120, 3, np.random.default_rng(5))
        path = tmp_path / "scaled.csv"
        write_dataset(Dataset(X=data.X * [1.0, 1.0, 1e8], y=data.y), path, header=False)
        parsed = parse_dataset(path)
        decomp = estimators._estimate_block(
            parsed.X, parsed.y[None], FitConfig(), SimulationConfig.ptv_threshold
        ).decomp
        smallest, largest = decomp.lambdas[0, -1], decomp.lambdas[0, 0]
        assert main([command, "--input", str(path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numerical failure: X'VX numerically singular (smallest eigenvalue "
            f"{smallest:.3e}, largest {largest:.3e}): collinear or badly scaled columns\n"
        )

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("fit", ["--ptv", "0"], "ptv_threshold must lie in (0, 1]"),
            ("fit", ["--r", "0"], "r must be an integer in [1, 3], got 0"),
            ("fit", ["--k", "0"], "k must be positive"),
            ("fit", ["--d", "nan"], "d must be finite"),
            ("compare", ["--r", "9"], "r must be an integer in [1, 3], got 9"),
            # the order: ptv, r, k, d
            ("compare", ["--d", "inf", "--k", "-1", "--r", "0", "--ptv", "2"],
             "ptv_threshold must lie in (0, 1]"),
            ("fit", ["--d", "inf", "--k", "-1", "--r", "0"],
             "r must be an integer in [1, 3], got 0"),
            ("fit", ["--d", "inf", "--k", "-1"], "k must be positive"),
        ],
    )
    def test_given_parameters_are_checked_before_irls(self, toy_csv, tmp_path, capsys,
                                                     command, flags, message):
        # X'VX is singular at IRLS's first step on this file, so a usage
        # error here was raised before IRLS ran
        data = parse_dataset(toy_csv)
        path = tmp_path / "duplicated.csv"
        write_dataset(Dataset(X=data.X[:, [0, 1, 1]], y=data.y), path, header=False)
        assert main([command, "--input", str(path), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("dense", [False, True], ids=["packed", "dense"])
    def test_one_gram_map_and_no_working_response(self, toy_csv, capsys, monkeypatch,
                                                  command, dense):
        # IRLS and the decomposition share the command's one map of X, and
        # no report reads a working response, so none is formed
        if dense:
            monkeypatch.setattr(model, "GRAM_CHUNK_BYTES", gram_chunk_budget(80, 3, 4))
        assert (model._gram_chunk_rows(3) < 80) == dense
        built = count_gram_maps(monkeypatch)
        formed = []
        monkeypatch.setattr(model, "working_response",
                            lambda *args, **kwargs: formed.append(args))
        assert main([command, "--input", str(toy_csv)]) == EXIT_OK
        assert built == [(80, 3)] and formed == []

    @pytest.mark.parametrize("seed", range(24))
    def test_duplicated_column_is_one_numerical_failure(self, seed, tmp_path, capsys):
        # whether IRLS or the eigendecomposition meets the singular X'VX
        path = tmp_path / "duplicated.csv"
        write_dataset(duplicated_column_data(seed), path, header=False)
        assert main(["fit", "--input", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1

    def test_overflowing_design_is_one_numerical_failure(self, toy_csv, tmp_path,
                                                          capsys):
        # x2 scaled by 1e200 overflows X'VX: an exit code, not a RuntimeWarning
        data = parse_dataset(toy_csv)
        path = tmp_path / "overflow.csv"
        write_dataset(Dataset(X=data.X * [1.0, 1e200, 1.0], y=data.y), path,
                      header=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--input", str(path)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numerical failure: X'VX singular or IRLS step non-finite at iteration 1\n"
        )

    @pytest.mark.parametrize("d", ["1e200", "1e308"])
    def test_huge_d_clamps_k_without_a_warning(self, toy_csv, capsys, d):
        # at d = 1e308 the k rule's terms overflow: k is clamped, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--input", str(toy_csv), "--d", d, "--format", "json"])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report["k_clamped"] and report["d"] == float(d)

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--d", "1e306"], "LTL"),
            (["--d", "1e308", "--format", "tsv"], "LTL"),
            (["--d", "1e306", "--estimators", "pcltl,ml,ltl"], "PCLTL"),
        ],
    )
    def test_overflowing_estimate_is_one_numerical_failure(self, tiny_scale_csv,
                                                           capsys, flags, name):
        # X'VX's eigenvalues are near 0.008, so this d overflows the LTL and
        # PCLTL estimates: the first requested one is named, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--input", str(tiny_scale_csv), *flags])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr() == (
            "", f"numerical failure: the {name} estimate is not finite\n"
        )

    def test_only_requested_estimates_are_checked(self, tiny_scale_csv, capsys):
        # ML and PCLR do not read d, so their estimates stay finite
        argv = ["fit", "--input", str(tiny_scale_csv), "--d", "1e306",
                "--estimators", "ml,pclr", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and list(json.loads(out)["coefficients"]) == ["ml", "pclr"]

    def test_zero_r_rejected_as_usage(self, toy_csv, capsys):
        assert main(["fit", "--input", str(toy_csv), "--r", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: r must be an integer in [1, 3], got 0\n"

    @pytest.mark.parametrize(
        "content, extra, message",
        [
            ("", [], "no data rows in {path}"),
            ("1\n0\n1\n", [], "line 1: need at least 2 columns, got 1"),
            ("1,0.5,0.2\n0,0.1,0.3\n", ["--response-col", "3"],
             "response column 3 out of range"),
        ],
    )
    def test_unreadable_layout_is_data_error(self, tmp_path, capsys,
                                            content, extra, message):
        path = tmp_path / "layout.csv"
        path.write_text(content)
        assert main(["fit", "--input", str(path), *extra]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: " + message.format(path=path))
        assert len(err.splitlines()) == 1

    def test_not_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("y,x1\n1,0.5\n0,café\n".encode("latin-1"))
        assert main(["fit", "--input", str(path), "--has-header"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: line 3: byte 0xe9 is not UTF-8 text\n"
        )

    def test_output_file(self, toy_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(toy_csv), "--format", "json",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["converged"]

    @pytest.mark.parametrize(
        "estimators, message",
        [
            ("ml,foo", "--estimators: token 'foo' names an unknown estimator "
                       "(choose from ml, ltl, pclr, pcltl)"),
            ("", "--estimators: invalid value '': expected comma-separated "
                 "estimators"),
            (" , ", "--estimators: invalid value ' , ': expected comma-separated "
                    "estimators"),
        ],
    )
    def test_bad_estimators_rejected_before_reading_data(
        self, tmp_path, capsys, estimators, message
    ):
        # the input file does not exist: a data error would mean the list
        # was checked only after parsing
        code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                     "--estimators", estimators])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_unreadable_input_is_data_error(self, toy_csv, monkeypatch, capsys,
                                            command):
        # the suite may run as root, for whom a chmod 000 file stays readable
        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(liulogit.io, "open", denied, raising=False)
        assert main([command, "--input", str(toy_csv)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: cannot read dataset file {toy_csv}: Permission denied\n"
        )

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        # the path exists, so the message is the OS reason, not "no such file"
        assert main(["fit", "--input", str(tmp_path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: cannot read dataset file {tmp_path}: "
        )

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_output_into_missing_directory(self, toy_csv, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.txt"
        code = main([command, "--input", str(toy_csv), "--output", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {out}: No such file or directory" in err
        assert len(err.strip().splitlines()) == 1


class TestSimulateCommand:
    def test_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["simulate"])
        assert StudyGrid(args.p, args.n, args.rho) == StudyGrid()
        config = SimulationConfig(n=200, p=4, rho=0.8)
        assert (args.reps, args.design_scaling, args.min_components,
                args.components) == (config.replications, config.design_scaling,
                                     config.min_components, config.components)

    def test_single_cell_layout(self, tmp_path):
        out = tmp_path / "study"
        code = main([
            "simulate", "--p", "4", "--n", "100", "--rho", "0.8",
            "--reps", "10", "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        text = (out / "table_p4.txt").read_text()
        for name in ("MLE", "LTL", "PCLR", "PCLTL"):
            assert name in text
        payload = json.loads((out / "study.json").read_text())
        assert payload["master_seed"] == 5
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["mse"]["ml"] > 0

    @pytest.mark.parametrize(
        "grid",
        [
            ["--p", "3", "--n", "80", "--rho", "0.8,0.9", "--reps", "8", "--seed", "21"],
            # the raw protocol drops 33 and 52 replications in the two n = 15
            # cells and selects r per replication
            ["--p", "4", "--n", "15,200", "--rho", "0.9,0.999", "--reps", "150",
             "--design-scaling", "raw", "--min-components", "1", "--seed", "11"],
            # the packed products of 14 000 rows exceed GRAM_CHUNK_BYTES at
            # p = 4 (13 107 rows fit), so this cell takes _GramMap's dense path
            ["--p", "4", "--n", "14000", "--rho", "0.9", "--reps", "70", "--seed", "5"],
        ],
        ids=["fixed", "raw", "dense"],
    )
    def test_byte_identical_reruns(self, tmp_path, capsys, grid):
        args = ["simulate", *grid]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2), "--workers", "2"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (out1 / "study.json").read_bytes() == (out2 / "study.json").read_bytes()

    def test_failed_cell_reported(self, tmp_path):
        # every replication of the rho = 0.6 cell diverges at n = 3
        args = ["simulate", "--p", "2", "--n", "3", "--rho", "0.5,0.6",
                "--reps", "4", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_NUMERIC
        assert main(args + ["--out", str(out2), "--workers", "2"]) == EXIT_NUMERIC
        payload = json.loads((out1 / "study.json").read_text())
        assert len(payload["cells"]) == 1
        (failure,) = payload["failures"]
        assert (failure["n"], failure["p"], failure["rho"]) == (3, 2, 0.6)
        assert "all 4 replications diverged" in failure["error"]
        assert (out1 / "study.json").read_bytes() == (out2 / "study.json").read_bytes()

    def test_refused_design_is_a_failed_cell(self, tmp_path, capsys):
        # at rho = 1 - 1e-14 the design's X'X is not positive definite: that
        # cell fails, the rho = 0.9 cell is kept, serial and parallel alike
        args = ["simulate", "--p", "4", "--n", "200", "--rho", "0.9,0.99999999999999",
                "--reps", "5", "--seed", "11"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_NUMERIC
        assert main(args + ["--out", str(out2), "--workers", "2"]) == EXIT_NUMERIC
        assert main(args) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert err == ""
        error = "design is rank deficient (n=200, p=4, rho=0.99999999999999)"
        assert f"FAILED cell n=200 p=4 rho=0.99999999999999: {error}" in out.splitlines()
        payload = json.loads((out1 / "study.json").read_text())
        assert [cell["rho"] for cell in payload["cells"]] == [0.9]
        assert payload["failures"] == [
            {"error": error, "n": 200, "p": 4, "rho": 0.99999999999999}
        ]
        assert (out1 / "study.json").read_bytes() == (out2 / "study.json").read_bytes()

    def test_failed_cell_listed_on_stdout(self, tmp_path, capsys):
        args = ["simulate", "--p", "2", "--n", "3", "--rho", "0.5,0.6",
                "--reps", "4", "--seed", "3"]
        assert main(args) == EXIT_NUMERIC
        lines = capsys.readouterr().out.splitlines()
        error = "all 4 replications diverged (n=3, p=2, rho=0.6)"
        assert f"FAILED cell n=3 p=2 rho=0.6: {error}" in lines
        assert json.loads(lines[-1])["failures"] == [
            {"error": error, "n": 3, "p": 2, "rho": 0.6}
        ]
        assert main(args + ["--out", str(tmp_path)]) == EXIT_NUMERIC
        assert lines[-1] + "\n" == (tmp_path / "study.json").read_text()

    def test_stdout_ends_with_study_json(self, tmp_path, capsys):
        args = ["simulate", "--p", "3", "--n", "80", "--rho", "0.8,0.9",
                "--reps", "5", "--seed", "2"]
        assert main(args) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "MLE" in stdout
        assert main(args + ["--out", str(tmp_path)]) == EXIT_OK
        study = (tmp_path / "study.json").read_text()
        assert stdout.splitlines()[-1] + "\n" == study

    @pytest.mark.parametrize(
        "extra, components, ptv",
        [
            # raw scaling leaves the count to the share rule, with its per-p PTV
            (["--design-scaling", "raw", "--min-components", "1"],
             [None, None], [0.75, 0.83]),
            # an explicit count pins every cell
            (["--components", "2"], [2, 2], [0.75, 0.83]),
        ],
    )
    def test_component_settings_reach_every_cell(self, tmp_path, extra,
                                                 components, ptv):
        code = main(["simulate", "--p", "4,6", "--n", "100", "--rho", "0.8",
                     "--reps", "5", "--seed", "4", "--out", str(tmp_path), *extra])
        assert code == EXIT_OK
        cells = json.loads((tmp_path / "study.json").read_text())["cells"]
        assert [cell["components"] for cell in cells] == components
        assert [cell["ptv_threshold"] for cell in cells] == ptv

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        # the 2000-replication default grid would take minutes: the
        # directory must be checked before any cell runs
        code = main(["simulate", "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"cannot create --out directory {out}: File exists" in (
            capsys.readouterr().err
        )

    def test_negative_workers_rejected_before_any_cell(self, tmp_path, monkeypatch,
                                                       capsys):
        def no_cells(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_cells", no_cells)
        out = tmp_path / "out"
        code = main(["simulate", "--p", "3", "--n", "80", "--reps", "5",
                     "--workers", "-3", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: --workers must be at least 1, got -3\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "env, flags, line",
        [
            (None, ["--seed", "-1"],
             "usage error: seed must be an integer >= 0, got -1\n"),
            ("-5", [],
             "usage error: LIULOGIT_SEED must be an integer >= 0, got -5\n"),
        ],
        ids=["flag", "env"],
    )
    def test_negative_seed_names_its_source(self, tmp_path, monkeypatch, capsys,
                                            env, flags, line):
        if env is not None:
            monkeypatch.setenv("LIULOGIT_SEED", env)
        out = tmp_path / "out"
        code = main(["simulate", "--p", "3", "--n", "80", "--rho", "0.8",
                     "--reps", "5", *flags, "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("LIULOGIT_SEED", "12x")
        code = main(["simulate", "--p", "3", "--n", "80", "--rho", "0.8", "--reps", "5"])
        assert code == EXIT_USAGE
        assert "LIULOGIT_SEED must be an integer, got '12x'" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIULOGIT_SEED", "314")
        out = tmp_path / "env"
        code = main(["simulate", "--p", "3", "--n", "80", "--rho", "0.8",
                     "--reps", "5", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads((out / "study.json").read_text())["master_seed"] == 314


COMPARE_COLUMNS = [
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
]

ALL_PAIRS = [f"{a.value}:{b.value}" for a in EstimatorKind for b in EstimatorKind]


class TestCompareCommand:
    def test_smoke_all_fields(self, toy_csv, capsys):
        code = main([
            "compare", "--input", str(toy_csv),
            "--pair", "pcltl:ml,pcltl:pclr,pcltl:ltl", "--format", "json",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["comparisons"]) == 3
        first = report["comparisons"][0]
        for field in ("theorem", "condition_value", "condition_holds",
                      "psd_dominates", "agreement", "smse_challenger",
                      "smse_incumbent", "beta_source"):
            assert field in first
        assert first["beta_source"] == "plug_in_mle"

    def test_each_estimator_msem_is_formed_once(self, toy_csv, monkeypatch, capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].kind)
            return asymptotic_msem(*args, **kwargs)

        monkeypatch.setattr(cli, "asymptotic_msem", counted)
        code = main(["compare", "--input", str(toy_csv),
                     "--pair", "pcltl:ml,pcltl:pclr,pcltl:ltl"])
        assert code == EXIT_OK
        # one report per estimator named in --pair, though pcltl is in all three
        assert len(calls) == 4 and set(calls) == set(EstimatorKind)

    def test_three_theorem_pairs_form_four_msems_and_three_psd_tests(
        self, toy_csv, monkeypatch, capsys
    ):
        # the theorems' oracle works in eigen-coordinates: every T-basis
        # MSEM and dense PSD test is one of compare's own
        calls = {"asymptotic_msem": 0, "psd_dominates": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            fn = getattr(liulogit.msem, name)
            for module in (liulogit.msem, cli):
                monkeypatch.setattr(module, name, counted(name, fn))
        code = main(["compare", "--input", str(toy_csv),
                     "--pair", "pcltl:ml,pcltl:pclr,pcltl:ltl"])
        assert code == EXIT_OK
        assert calls == {"asymptotic_msem": 4, "psd_dominates": 3}

    def test_beta_in_retained_span_satisfies_t33(self, toy_csv, tmp_path, capsys):
        # build a coefficient vector inside the retained eigenspace
        from liulogit import irls_fit, spectral_decompose

        data = parse_dataset(toy_csv)
        fit = irls_fit(data)
        decomp = spectral_decompose(data.X, fit.v_diag)
        beta = decomp.T[:, 0]
        beta_file = tmp_path / "beta.txt"
        beta_file.write_text("\n".join(repr(float(v)) for v in beta))
        code = main([
            "compare", "--input", str(toy_csv), "--pair", "pcltl:ltl",
            "--beta-file", str(beta_file),
            "--r", "2", "--format", "json",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        row = report["comparisons"][0]
        assert row["theorem"] == "T3_3"
        assert row["condition_holds"] is True
        assert row["beta_source"] == "true_beta"

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("pcltl:bogus", "'pcltl:bogus' names an unknown estimator"),
            ("pcltl", "'pcltl' is not of the form challenger:incumbent"),
            ("pcltl:ml,ltl:", "'ltl:' names an unknown estimator"),
        ],
    )
    def test_bad_pair_rejected_before_reading_data(self, tmp_path, capsys, pair, message):
        # the input file does not exist: a data error would mean the pair
        # was checked only after parsing
        code = main(["compare", "--input", str(tmp_path / "absent.csv"), "--pair", pair])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_empty_pair_tokens_are_skipped(self, toy_csv, capsys):
        args = ["compare", "--input", str(toy_csv), "--pair"]
        assert main(args + ["pcltl:ml"]) == EXIT_OK
        single = capsys.readouterr().out
        assert main(args + ["pcltl:ml,"]) == EXIT_OK
        assert capsys.readouterr().out == single

    def test_lone_beta_file_selects_true_beta(self, toy_csv, tmp_path, capsys):
        beta = np.array([0.5, -0.25, 0.125])
        beta_file = tmp_path / "beta.txt"
        beta_file.write_text("\n".join(repr(float(v)) for v in beta))
        code = main(["compare", "--input", str(toy_csv), "--pair", "pcltl:ml,ltl:pclr",
                     "--r", "2", "--k", "0.9", "--d", "0.2", "--beta-file",
                     str(beta_file), "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["beta_source"] == "true_beta"
        assert [row["beta_source"] for row in report["comparisons"]] == ["true_beta"] * 2

        data = parse_dataset(toy_csv)
        decomp = spectral_decompose(data.X, irls_fit(data).v_diag)
        params = ShrinkageParams(k=0.9, d=0.2)
        smse = {
            kind.value: asymptotic_msem(EstimatorSpec.of(kind, params, 2), decomp, beta).smse
            for kind in EstimatorKind
        }
        for row in report["comparisons"]:
            challenger, incumbent = row["pair"].split(":")
            assert (row["smse_challenger"], row["smse_incumbent"]) == (
                smse[challenger], smse[incumbent],
            )

    def test_empty_beta_file_name_rejected_before_reading_data(self, tmp_path, capsys):
        # an empty name is a file that cannot be read, not a plug-in run
        code = main(["compare", "--input", str(tmp_path / "absent.csv"),
                     "--beta-file", ""])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "data error: cannot read beta file : not found\n"


    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_every_pair_reads_its_theorem(self, toy_csv, capsys, pair):
        code = main(["compare", "--input", str(toy_csv), "--pair", pair, "--r", "2",
                     "--k", "0.9", "--d", "0.2", "--format", "json"])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["comparisons"]

        data = parse_dataset(toy_csv)
        fit = irls_fit(data)
        decomp = spectral_decompose(data.X, fit.v_diag)
        split, params, beta = decomp.split(2), ShrinkageParams(k=0.9, d=0.2), fit.beta
        specs = {
            "ml": EstimatorSpec(EstimatorKind.ML),
            "ltl": EstimatorSpec(EstimatorKind.LTL, params=params),
            "pclr": EstimatorSpec(EstimatorKind.PCLR, r=2),
            "pcltl": EstimatorSpec(EstimatorKind.PCLTL, params=params, r=2),
        }
        challenger, incumbent = (
            asymptotic_msem(specs[name], decomp, beta) for name in pair.split(":")
        )
        direct = psd_dominates(incumbent.msem, challenger.msem)
        assert row["psd_min_eigenvalue"] == direct.condition_value
        assert row["psd_dominates"] == direct.holds
        assert (row["smse_challenger"], row["smse_incumbent"]) == (
            challenger.smse, incumbent.smse,
        )

        theorems = {
            "pcltl:ml": lambda: theorem_3_1_condition(beta, split, params),
            "pcltl:pclr": lambda: theorem_3_2_condition(beta, split, params),
            "pcltl:ltl": lambda: theorem_3_3_condition(beta, split, params),
        }
        condition = [row[k] for k in ("condition_value", "condition_holds", "agreement")]
        if pair in theorems:
            verdict = theorems[pair]()
            assert row["theorem"] == verdict.theorem
            assert condition == [
                verdict.condition_value, verdict.holds, verdict.psd_oracle_agrees
            ]
        else:
            assert row["theorem"] == "direct_psd"
            assert condition == [None, None, None]

    @pytest.mark.parametrize("fmt, sep", [("tsv", "\t"), ("csv", ",")])
    def test_delimited_header_and_empty_cells(self, toy_csv, capsys, fmt, sep):
        code = main(["compare", "--input", str(toy_csv), "--pair", "ltl:ml,pcltl:ml",
                     "--format", fmt])
        assert code == EXIT_OK
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split(sep) == COMPARE_COLUMNS
        direct, theorem = (dict(zip(COMPARE_COLUMNS, l.split(sep))) for l in lines)
        assert (direct["pair"], direct["theorem"]) == ("ltl:ml", "direct_psd")
        for key in ("condition_value", "condition_holds", "agreement"):
            assert direct[key] == ""
            assert theorem[key] != ""
        assert theorem["theorem"] == "T3_1"

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_failed_t31_precondition_reads_empty_condition(self, toy_csv, capsys, fmt):
        # k = 0.1 < d = 0.5 breaks T3.1's precondition d < k
        code = main(["compare", "--input", str(toy_csv), "--pair", "pcltl:ml",
                     "--k", "0.1", "--d", "0.5", "--format", fmt])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "json":
            (row,) = json.loads(out)["comparisons"]
        else:
            header, line = out.splitlines()
            row = dict(zip(header.split("\t"), line.split("\t")))
        empty = None if fmt == "json" else ""
        assert row["theorem"] == "T3_1"
        assert (row["condition_value"], row["condition_holds"]) == (empty, empty)

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read beta file {path}: not found"),
            ("0.1\nabc\n0.3\n", "beta file {path} is not numeric"),
            ("0.1\nnan\n0.3\n", "beta file {path} holds non-finite values"),
            ("0.1\n0.2\n", "beta file {path} must hold 3 values, got 2"),
            ("", "beta file {path} must hold 3 values, got 0"),
        ],
    )
    def test_bad_beta_file_is_data_error(self, toy_csv, tmp_path, capsys,
                                         content, message):
        path = tmp_path / "beta.txt"
        if content is not None:
            path.write_text(content)
        code = main(["compare", "--input", str(toy_csv), "--beta-file", str(path)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert message.format(path=path) in err
        assert len(err.strip().splitlines()) == 1

    def test_large_finite_k_reads_t31(self, toy_csv, capsys):
        # (k + d)^2 overflows a float at k = 1e160: T3.1 must not square k
        code = main(["compare", "--input", str(toy_csv), "--pair", "pcltl:ml",
                     "--k", "1e160", "--format", "json"])
        assert code == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)["comparisons"]
        assert row["theorem"] == "T3_1" and row["agreement"] is True
        assert np.isfinite(row["condition_value"])

    @pytest.mark.parametrize("source", ["d", "beta_file", "estimates"])
    def test_overflowing_msem_is_one_numerical_failure(self, toy_csv, tiny_scale_csv,
                                                       tmp_path, capsys, source):
        # d = 1e200 or beta = (1e200, 0, 0) overflows PCLTL's error matrix; on
        # the 0.01-scaled file d = 1e306 also overflows the LTL and PCLTL
        # estimates, which compare forms without reading them
        data = toy_csv
        if source == "d":
            flags = ["--d", "1e200"]
        elif source == "estimates":
            data, flags = tiny_scale_csv, ["--d", "1e306"]
        else:
            path = tmp_path / "beta.txt"
            path.write_text("1e200 0 0\n")
            flags = ["--beta-file", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--input", str(data), *flags])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numerical failure: the MSEM of PCLTL is not finite\n"
        )

    @pytest.mark.parametrize(
        "flags",
        [
            ["--d", "1e200", "--pair", "pcltl:ml,pcltl:pclr,pcltl:ltl,ltl:ml"],
            ["--beta-file", "{beta}", "--pair", "pcltl:ml,pcltl:pclr"],
        ],
        ids=["d", "beta_file"],
    )
    def test_overflow_names_one_estimator_under_every_hash_seed(self, tmp_path, flags):
        # two MSEMs overflow here (PCLTL and LTL at d = 1e200, PCLTL and PCLR
        # at beta = (1e200, 0, 0)); the first kind --pair names is reported,
        # whatever order the process's string hashes give a set
        rng = np.random.default_rng(1)
        X = rng.standard_normal((300, 3))
        y = rng.random(300) < 1 / (1 + np.exp(-X @ [0.8, -0.5, 0.3]))
        data, beta = tmp_path / "data.csv", tmp_path / "beta.txt"
        np.savetxt(data, np.column_stack([y, X]), delimiter=",")
        beta.write_text("1e200 0 0\n")
        argv = [sys.executable, "-m", "liulogit.cli", "compare", "--input", str(data),
                *(flag.format(beta=beta) for flag in flags)]
        runs = [
            subprocess.Popen(argv, env=src_env(PYTHONHASHSEED=str(seed)),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for seed in range(8)
        ]
        errors = {run.communicate()[1] for run in runs}
        assert [run.returncode for run in runs] == [EXIT_NUMERIC] * 8
        assert errors == {"numerical failure: the MSEM of PCLTL is not finite\n"}

    def test_beta_length_is_checked_before_irls(self, tmp_path, capsys):
        # y = 1[x1 > 0] is completely separated, so IRLS would not converge
        rng = np.random.default_rng(72)
        X = rng.standard_normal((300, 3))
        data = tmp_path / "separated.csv"
        write_dataset(Dataset(X=X, y=(X[:, 0] > 0).astype(float)), data, header=False)
        beta = tmp_path / "beta.txt"
        beta.write_text("0.5\n-0.25\n")
        code = main(["compare", "--input", str(data), "--beta-file", str(beta)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: beta file {beta} must hold 3 values, got 2\n"
        )

    def test_tsv_format(self, toy_csv, capsys):
        code = main(["compare", "--input", str(toy_csv), "--pair", "pcltl:ml"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        header = out.splitlines()[0].split("\t")
        assert header[0] == "pair" and "smse_challenger" in header


@pytest.mark.parametrize(
    "argv",
    [["fit", "--input", "{csv}"],
     ["simulate", "--p", "4", "--n", "200", "--rho", "0.9", "--reps", "3"]],
    ids=["fit", "simulate"],
)
def test_closed_stdout_exits_quietly(toy_csv, argv):
    # stdout is a pipe whose read end is closed before the command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "liulogit.cli", *(a.format(csv=toy_csv) for a in argv)],
            env=src_env(), stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in result.stderr
    assert result.stderr == ""
    assert result.returncode == 141


PINNED_REPORTS = json.loads(
    (Path(__file__).parent / "cli_reports.json").read_text(encoding="utf-8")
)


def _assert_report_matches(got, want, where="report"):
    """Keys, strings, ints, bools and nulls exactly; floats to 1e-9 relative."""
    assert type(got) is type(want), f"{where}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        # the last IRLS step is about 3e-7 long, so rounding in the score
        # moves its norm by up to 3e-9 relative between OpenBLAS kernels;
        # every other float here moves by less than 1e-12
        rel = 1e-6 if where.endswith(".final_step_norm") else 1e-9
        assert got == pytest.approx(want, rel=rel, abs=0.0), where
    else:
        assert got == want, where


@pytest.fixture()
def single_factor_csv(tmp_path):
    """300 x 4 covariates sharing one factor (rho = 0.95), seed 11."""
    rng = np.random.default_rng(11)
    X = correlated_design(300, 4, 0.95, rng)
    eta = X @ np.array([0.6, -0.3, 0.2, 0.1])
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    path = tmp_path / "factor.csv"
    write_dataset(Dataset(X=X, y=y), path, header=False)
    return path


class TestPinnedReports:
    """``fit`` and ``compare`` reports against ``cli_reports.json``.

    The file holds the reports of the commands below, without their
    ``version``, as printed before ``compare`` lost ``--beta-source``
    (its β-file run then took ``--beta-source file``).
    """

    PAIRS = ["--pair", "pcltl:ml,pcltl:pclr,pcltl:ltl,ltl:ml"]

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("fit_rules", ["fit"]),
            ("fit_user", ["fit", "--r", "2", "--k", "0.7", "--d", "0.1"]),
            ("compare_plug_in", ["compare", *PAIRS]),
            ("compare_beta_file", ["compare", *PAIRS, "--beta-file", "{beta}"]),
        ],
    )
    # the default budget takes the 300 x 4 X'VX as one packed K v; a budget
    # of 50 rows' packed products takes the dense product of a larger design
    @pytest.mark.parametrize(
        "budget",
        [model.GRAM_CHUNK_BYTES, gram_chunk_budget(300, 4, 6)],
        ids=["packed", "dense"],
    )
    def test_report_is_pinned(self, single_factor_csv, tmp_path, capsys,
                              monkeypatch, name, argv, budget):
        monkeypatch.setattr(model, "GRAM_CHUNK_BYTES", budget)
        beta = tmp_path / "beta.txt"
        beta.write_text("0.5\n-0.25\n0.5\n0.0\n")
        argv = [token.format(beta=beta) for token in argv]
        code = main([*argv, "--input", str(single_factor_csv), "--format", "json"])
        assert code == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report.pop("version") == liulogit.__version__
        _assert_report_matches(report, PINNED_REPORTS[name], name)


class TestConfigFile:
    def test_config_supplies_defaults_cli_overrides(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("input = {}\nk = 0.9\nd = 0.2\nformat = json\n".format(toy_csv))
        code = main(["fit", "--config", str(cfg), "--d", "0.3"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == pytest.approx(0.9)
        assert report["d"] == pytest.approx(0.3)  # explicit flag wins
        assert report["k_source"] == "user"

    def test_negative_value_is_a_value(self, toy_csv, tmp_path, capsys):
        # a line is one --key=value token, so -1e-3 is not taken for a flag;
        # on the command line the same value is written --d=-1e-3
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {toy_csv}\nk = 0.9\nd = -1e-3\nformat = json\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        from_file = capsys.readouterr().out
        assert json.loads(from_file)["d"] == -1e-3
        argv = ["fit", "--input", str(toy_csv), "--k", "0.9", "--d=-1e-3"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == from_file

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path / "absent.cfg")]) == EXIT_USAGE
        message = capsys.readouterr().err
        assert "cannot read config file" in message and "absent.cfg" in message

    def test_not_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("input = café.csv\n".encode("latin-1"))
        assert main(["fit", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: config file {cfg} is not UTF-8 text: "
            "byte 0xe9 at offset 11\n"
        )

    def test_trailing_config_flag_is_usage_error(self, capsys):
        assert main(["fit", "--config"]) == EXIT_USAGE
        assert "--config needs a file name" in capsys.readouterr().err

    def test_malformed_config_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\ninput data.csv\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_USAGE
        assert "line 2: expected key = value" in capsys.readouterr().err

    def test_equals_form_applies_the_file(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {toy_csv}\nk = 0.9\nformat = json\n")
        assert main(["fit", f"--config={cfg}"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["k"], report["k_source"]) == (0.9, "user")

    def test_true_value_becomes_a_bare_switch(self, toy_csv, tmp_path, capsys):
        with_header = tmp_path / "header.csv"
        with_header.write_text("y,x1,x2,x3\n" + toy_csv.read_text())
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {with_header}\nformat = json\n")
        # the header line is data to a parse without --has-header
        assert main(["fit", "--config", str(cfg)]) == EXIT_DATA
        capsys.readouterr()
        cfg.write_text(cfg.read_text() + "has_header = true\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        from_file = capsys.readouterr().out
        assert main(["fit", "--input", str(toy_csv), "--format", "json"]) == EXIT_OK
        assert from_file == capsys.readouterr().out

    @pytest.mark.parametrize("value", ["false", "no", "No"])
    def test_false_value_leaves_the_switch_off(self, toy_csv, tmp_path, capsys,
                                               value):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {toy_csv}\nformat = json\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        without_line = capsys.readouterr().out
        cfg.write_text(cfg.read_text() + f"has_header = {value}\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == without_line

    def test_other_switch_value_names_file_line_and_key(self, toy_csv, tmp_path,
                                                         capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {toy_csv}\nhas_header = maybe\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: config file {cfg}, line 2: has_header takes true, "
            "yes, false or no, got 'maybe'\n"
        )

    def test_empty_equals_form_is_usage_error(self, toy_csv, capsys):
        assert main(["fit", "--input", str(toy_csv), "--config="]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --config needs a file name\n"

    @pytest.mark.parametrize("command", ["fit", "compare", "simulate"])
    def test_abbreviation_is_unrecognised(self, toy_csv, tmp_path, capsys, command):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("k = 0.9\n")
        argv = [command, "--conf", str(cfg)]
        if command != "simulate":
            argv += ["--input", str(toy_csv)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: unrecognized arguments: --conf {cfg}\n"
        )


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(args, **variables):
    """Stdout of a fresh interpreter on this checkout's ``src``, with the BLAS
    thread variables unset except those in ``variables``."""
    env = src_env(**variables)
    for name in set(BLAS_THREAD_VARIABLES) - set(variables):
        env.pop(name, None)
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout


class TestBlasThreads:
    """The command line chooses one BLAS thread before numpy loads, unless
    the user chose a count, so its output bits do not depend on the core
    count; ``import liulogit`` loads nothing and chooses nothing."""

    @pytest.fixture(scope="class")
    def dense_csv(self, tmp_path_factory):
        data, _ = random_dataset(50_000, 10, np.random.default_rng(11), rho=0.95)
        path = tmp_path_factory.mktemp("dense") / "dense.csv"
        write_dataset(data, path, header=False)
        return path

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_output_does_not_depend_on_the_thread_count(self, dense_csv, command):
        # this X'VX takes the dense path, whose product OpenBLAS splits
        # across its threads when it has more than one
        assert model._gram_chunk_rows(10) < 50_000
        argv = ["-m", "liulogit.cli", command, "--input", str(dense_csv)]
        assert run_python(argv) == run_python(argv, OPENBLAS_NUM_THREADS="1")

    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        # the first public name loads every library module, numpy with them
        code = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import liulogit\n"
            "print('numpy' in sys.modules, os.environ == before)\n"
            "liulogit.irls_fit\n"
            "print('numpy' in sys.modules, os.environ == before)"
        )
        assert run_python(["-c", code]).split() == ["False", "True", "True", "True"]

    @pytest.mark.parametrize(
        "first, variables, expected",
        [
            ("", {}, ["1", "None"]),
            ("import numpy\n", {}, ["None", "None"]),
            ("", {"OPENBLAS_NUM_THREADS": "3"}, ["3", "None"]),
            ("", {"OMP_NUM_THREADS": "2"}, ["None", "2"]),
        ],
        ids=["unset", "numpy-loaded", "openblas-chosen", "omp-chosen"],
    )
    def test_cli_chooses_one_thread_only_when_nobody_chose(self, first, variables,
                                                          expected):
        code = (
            f"{first}import os, liulogit.cli\n"
            f"print(*(os.environ.get(name) for name in {BLAS_THREAD_VARIABLES}))"
        )
        assert run_python(["-c", code], **variables).split() == expected

    def test_cli_import_loads_no_process_pool(self):
        code = (
            "import sys, liulogit.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules])"
        )
        assert run_python(["-c", code]).strip() == "[]"
