import argparse
import dataclasses
import inspect
import math

import numpy as np
import pytest

from sltr import evaluation
from sltr import io as sio
from sltr.cli import _build_parser, main
from sltr.data import Dataset
from sltr.evaluation import CvReport, auc, default_grid, kfold_cv
from sltr.exceptions import DivergenceError
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig, fit
from sltr.tensor import Tensor


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sim.ds"
    sio.write_dataset(path, generate(SimSpec(dims=(4, 3, 2), n=30, seed=5))[0])
    return path


def read_predictions(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "y_hat"
    return np.array([float(v) for v in lines[1:]])


def test_simulate_fit_predict_eval(tmp_path, capsys):
    sim = tmp_path / "sim"
    run(capsys, "simulate", "--dims", "4x3x2", "--n", 30, "--alpha", 0, "--seed", 5,
        "--out", sim)
    data, w_star = f"{sim}.ds", f"{sim}.wstar.tn"
    ds = sio.read_dataset(data)
    assert ds.dims == (4, 3, 2) and ds.n == 30

    fitted = tmp_path / "fit.tn"
    out = run(capsys, "fit", "--data", data, "--lambda", 1, "--tau", 1, "--max-iter", 50,
              "--threads", 1, "--out", fitted)
    assert out.splitlines()[0].split("\t") == ["mode", "iteration", "residual"]
    assert sio.read_tensor(fitted).dims == ds.dims

    # Noiseless data: the true coefficient predicts y bit for bit.
    pred = tmp_path / "pred.txt"
    run(capsys, "predict", "--model", w_star, "--data", data, "--out", pred)
    np.testing.assert_array_equal(read_predictions(pred).view(np.uint64), ds.y.view(np.uint64))
    assert run(capsys, "eval", "--pred", pred, "--truth", data, "--metric", "mse") == "0.0\n"

    fit_pred = tmp_path / "fit_pred.txt"
    run(capsys, "predict", "--model", fitted, "--data", data, "--out", fit_pred)
    assert float(run(capsys, "eval", "--pred", fit_pred, "--truth", data, "--metric", "mse")) > 0
    ce = float(run(capsys, "eval", "--pred", fitted, "--truth", w_star, "--metric", "ce"))
    assert np.isfinite(ce) and ce > 0


def test_error_exit_code(tmp_path, capsys):
    assert main(["predict", "--model", str(tmp_path / "missing.tn"), "--data",
                 str(tmp_path / "missing.ds"), "--out", str(tmp_path / "p.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_predict_rejects_a_model_of_other_dims(tmp_path, capsys):
    model, data = tmp_path / "w.tn", tmp_path / "data.ds"
    sio.write_tensor(model, Tensor.zeros((4,)))
    sio.write_dataset(data, Dataset((2, 2), np.ones((3, 4)), np.zeros(3)))
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "p.txt")]) == 1
    assert capsys.readouterr().err == "error: dims mismatch: (4,) vs (2, 2)\n"
    assert not (tmp_path / "p.txt").exists()


def test_predict_overflow_is_a_one_line_error(tmp_path, capsys):
    model, data = tmp_path / "w.tn", tmp_path / "data.ds"
    sio.write_tensor(model, Tensor((2,), [1e308, 1e308]))
    sio.write_dataset(data, Dataset((2,), [[1.0, 1.0]], [0.0]))
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "p.txt")]) == 1
    assert capsys.readouterr().err == "error: intermediate overflow in fsum\n"
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "predict", "cv", "eval"])
def test_subcommand_help(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: sltr {command}")


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["bench"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--paper-faithful-steps"], ["--rho", "1.5"], ["--gamma", "1"]],
                         ids=lambda flag: flag[0])
def test_removed_solver_flag_is_a_usage_error(flag, data, tmp_path, capsys):
    assert main(["fit", "--data", str(data), "--lambda", "1", "--tau", "1",
                 "--out", str(tmp_path / "w.tn"), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "w.tn").exists()
    assert main(["cv", "--data", str(data), *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def subcommand_flags(command):
    """The destinations of a subcommand's options, ``--help`` left out."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


def test_solver_flags_are_the_solver_config_fields():
    # A setting added to SolverConfig must reach both commands, and only as a field.
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert subcommand_flags("fit") - {"data", "out"} == fields | {"threads"}
    assert (subcommand_flags("cv") - {"data", "grid_file", "folds", "seed"}
            == fields - {"lam", "tau", "epsilon"} | {"threads"})


def test_nan_parameter_is_bad_input(data, tmp_path, capsys):
    assert main(["fit", "--data", str(data), "--lambda", "nan", "--tau", "1",
                 "--out", str(tmp_path / "w.tn")]) == 1
    assert capsys.readouterr().err == "error: lambda must be positive, got nan\n"
    assert not (tmp_path / "w.tn").exists()


def test_zero_threads_is_bad_input(data, tmp_path, capsys):
    assert main(["fit", "--data", str(data), "--lambda", "1", "--tau", "1", "--threads", "0",
                 "--out", str(tmp_path / "w.tn")]) == 1
    assert capsys.readouterr().err == "error: threads must be an integer >= 1, got 0\n"
    assert not (tmp_path / "w.tn").exists()


def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError at once for an allocation it cannot make, such as
    # the 146 TiB design matrix of --dims 10000000x2000000; nothing is allocated here.
    def no_memory(spec):
        raise MemoryError("Unable to allocate 146. TiB for an array")

    monkeypatch.setattr("sltr.cli.generate", no_memory)
    assert main(["simulate", "--dims", "10000000x2000000", "--n", "1",
                 "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 146. TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_fit_prints_residuals_and_one_certificate_per_mode(data, tmp_path, capsys):
    out = run(capsys, "fit", "--data", data, "--lambda", 0.5, "--tau", 1,
              "--out", tmp_path / "w.tn")
    sweeps, certificates = ([line.split("\t") for line in table.splitlines()]
                            for table in out.split("\n\n"))
    # Every solver flag left out takes its SolverConfig default.
    result = fit(sio.read_dataset(data), SolverConfig(lam=0.5, tau=1.0))
    assert sweeps == [["mode", "iteration", "residual"]] + [
        [str(m), str(it), repr(rel)]
        for m, trace in enumerate(result.trace, start=1)
        for it, rel in enumerate(trace.residuals, start=1)
    ]
    # The last column holds wall times, which differ from run to run: pin their form.
    seconds = [float(row.pop()) for row in certificates[1:]]
    assert all(math.isfinite(s) and s >= 0.0 for s in seconds)
    assert certificates == [
        ["mode", "sweeps", "objective", "linf_violation", "spectral_violation", "gap", "exit",
         "seconds"],
        ["backbone", "", "", "", "", "", ""],
    ] + [
        [str(m), str(len(trace)), repr(c.objective), repr(c.linf_violation),
         repr(c.spectral_violation), repr(c.gap), c.exit]
        for m, (trace, c) in enumerate(zip(result.trace, result.certificates), start=1)
    ]


def test_simulate_rejects_a_nan_noise_level(tmp_path, capsys):
    assert main(["simulate", "--dims", "3x2", "--n", "5", "--alpha", "nan",
                 "--out", str(tmp_path / "sim")]) == 1
    assert capsys.readouterr().err == "error: noise_alpha must be >= 0, got nan\n"
    assert not (tmp_path / "sim.ds").exists()


def test_cv_selects_the_api_cell(data, tmp_path, capsys):
    grid = [(1.0, 1.0, 1.0), (0.1, 0.1, 1.0), (10.0, 10.0, 1.0)]
    grid_file = tmp_path / "grid.tsv"
    grid_file.write_text("lambda\ttau\tepsilon\n"
                         + "".join("\t".join(map(str, cell)) + "\n" for cell in grid))
    out = run(capsys, "cv", "--data", data, "--grid-file", grid_file, "--folds", 3,
              "--seed", 2, "--max-iter", 30)
    header, *rows = [line.split("\t") for line in out.splitlines()]
    assert header == ["lambda", "tau", "epsilon", "mean_mse", "selected"]
    assert [tuple(float(v) for v in r[:3]) for r in rows] == grid

    report = kfold_cv(sio.read_dataset(data), grid,
                      SolverConfig(lam=1.0, tau=1.0, epsilon=1.0, max_iter=30), k=3, fold_seed=2)
    assert [float(r[3]) for r in rows] == list(report.per_cell)
    assert [r[4] for r in rows].count("1") == 1
    assert [tuple(float(v) for v in r[:3]) for r in rows if r[4] == "1"] == [report.selected]


def test_cv_warns_of_a_failed_cell(data, tmp_path, capsys, monkeypatch):
    real_fit = evaluation.fit

    def fit(train, cfg, threads):
        if cfg.lam == 0.1:
            raise DivergenceError("mode 2: non-finite residual at iteration 1")
        return real_fit(train, cfg, threads=threads)

    monkeypatch.setattr(evaluation, "fit", fit)
    grid_file = tmp_path / "grid.tsv"
    grid_file.write_text("lambda\ttau\tepsilon\n1.0\t1.0\t1.0\n0.1\t0.1\t1.0\n")
    assert main(["cv", "--data", str(data), "--grid-file", str(grid_file), "--folds", "3",
                 "--max-iter", "30"]) == 0
    out, err = capsys.readouterr()
    assert err == ("warning: cell (0.1, 0.1, 1.0) failed: "
                   "mode 2: non-finite residual at iteration 1\n")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert rows[1] == ["0.1", "0.1", "1.0", "nan", "0"]
    assert rows[0][3] != "nan" and rows[0][4] == "1"


def test_fit_reports_an_overflowing_ridge_system(tmp_path, capsys):
    data = tmp_path / "huge.ds"
    r = np.random.default_rng(7)
    sio.write_dataset(data, Dataset((3, 4), 1e160 * r.normal(size=(4, 12)), r.normal(size=4)))
    assert main(["fit", "--data", str(data), "--lambda", "1", "--tau", "1",
                 "--out", str(tmp_path / "w.tn")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ridge system overflowed") and err.count("\n") == 1
    assert not (tmp_path / "w.tn").exists()


def test_cv_rejects_a_two_column_grid_row(data, tmp_path, capsys):
    grid_file = tmp_path / "grid.tsv"
    grid_file.write_text("lambda\ttau\tepsilon\n1.0\t1.0\t1.0\n1.0\t1.0\n")
    assert main(["cv", "--data", str(data), "--grid-file", str(grid_file)]) == 1
    assert "grid row needs 3 columns" in capsys.readouterr().err


def test_eval_auc_matches_the_api(tmp_path, capsys):
    r = np.random.default_rng(3)
    scores = r.normal(size=40).tolist()
    labels = (np.array(scores) + r.normal(size=40) > 0).astype(int).tolist()
    pred, truth = tmp_path / "pred.txt", tmp_path / "truth.txt"
    pred.write_text("y_hat\n" + "".join(f"{v!r}\n" for v in scores))
    truth.write_text("label\n" + "".join(f"{v}\n" for v in labels))
    out = run(capsys, "eval", "--pred", pred, "--truth", truth, "--metric", "auc")
    assert out == f"{auc(scores, labels)!r}\n"


@pytest.mark.parametrize("dims", ["20xx5", "20,,5", "x20", "20x", "x"])
def test_dims_with_an_empty_field_are_a_usage_error(dims, tmp_path, capsys):
    assert main(["simulate", "--dims", dims, "--n", "1", "--out", str(tmp_path / "sim")]) == 2
    assert f"cannot parse dims {dims!r}; use e.g. 20x20x5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def subcommand_defaults(command):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.default for a in sub.choices[command]._actions}


def test_flag_defaults_are_the_api_defaults():
    # A default changed in SimSpec, SolverConfig, kfold_cv or fit reaches the flags.
    simulate, fit_flags, cv = (subcommand_defaults(c) for c in ("simulate", "fit", "cv"))
    spec = {f.name: f.default for f in dataclasses.fields(SimSpec)
            if f.default is not dataclasses.MISSING}
    assert spec == {"sparsity_pct": simulate["sparsity"], "noise_alpha": simulate["alpha"],
                    "seed": simulate["seed"], "low_rank": simulate["low_rank"]}
    for f in dataclasses.fields(SolverConfig):
        if f.default is not dataclasses.MISSING:
            assert fit_flags[f.name] == cv.get(f.name, f.default) == f.default, f.name
    cv_api, fit_api = (inspect.signature(func).parameters for func in (kfold_cv, fit))
    assert (cv["folds"], cv["seed"], cv["threads"], fit_flags["threads"]) == (
        cv_api["k"].default, cv_api["fold_seed"].default, cv_api["threads"].default,
        fit_api["threads"].default)


def test_cv_without_a_grid_file_searches_the_default_grid(data, capsys, monkeypatch):
    searched = []

    def fake_kfold_cv(ds, grid, cfg, k, fold_seed, threads):
        searched.append(grid)
        return CvReport(grid=tuple(grid), per_cell=tuple(map(float, range(len(grid)))),
                        selected=grid[0], fold_seed=fold_seed)

    monkeypatch.setattr("sltr.cli.kfold_cv", fake_kfold_cv)
    header, *rows = run(capsys, "cv", "--data", data).splitlines()
    assert searched == [default_grid()]
    assert len(rows) == len(default_grid()) and rows[0].endswith("\t0.0\t1")


def test_cv_grid_header_is_any_all_text_line(data, tmp_path, capsys):
    cells = "1.0\t1.0\t1.0\n\n0.1\t0.1\t1.0\n"
    outs = []
    for header in ("lambda\ttau\tepsilon\n", "l\tt\te\n", ""):
        grid_file = tmp_path / "grid.tsv"
        grid_file.write_text(header + cells)
        outs.append(run(capsys, "cv", "--data", data, "--grid-file", grid_file, "--folds", 2,
                        "--max-iter", 5))
    assert outs[0] == outs[1] == outs[2] and len(outs[0].splitlines()) == 3


GRID_ERRORS = {
    "empty": ("", "no grid rows in {path}"),
    "blank lines and a header alone": ("\nlambda\ttau\tepsilon\n\n", "no grid rows in {path}"),
    "a typo in the first row": ("1.0\t1.O\t1.0\n",
                                "non-numeric grid row in {path}: '1.0\\t1.O\\t1.0'"),
    "a second header": ("lambda\ttau\tepsilon\nl\tt\te\n1.0\t1.0\t1.0\n",
                        "non-numeric grid row in {path}: 'l\\tt\\te'"),
}


@pytest.mark.parametrize("text,message", GRID_ERRORS.values(), ids=GRID_ERRORS)
def test_cv_rejects_a_bad_grid_file(text, message, data, tmp_path, capsys):
    grid_file = tmp_path / "grid.tsv"
    grid_file.write_text(text)
    assert main(["cv", "--data", str(data), "--grid-file", str(grid_file)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=grid_file)}\n"


VALUES_ERRORS = {
    "a non-numeric row after data": ("y_hat\n1.0\nabc\n",
                                     "non-numeric value row in {path}: 'abc'"),
    "a second header": ("y_hat\nscore\n1.0\n", "non-numeric value row in {path}: 'score'"),
    "no numeric rows": ("y_hat\n\n", "no value rows in {path}"),
    "empty": ("", "no value rows in {path}"),
    "two columns": ("y_hat\n1.0\t2.0\n", "value row needs 1 column: '1.0\\t2.0'"),
}


@pytest.mark.parametrize("text,message", VALUES_ERRORS.values(), ids=VALUES_ERRORS)
def test_eval_rejects_a_bad_values_file(text, message, data, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text(text)
    assert main(["eval", "--pred", str(pred), "--truth", str(data), "--metric", "mse"]) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=pred)}\n"


def test_eval_rejects_the_wrong_kind_of_file(data, tmp_path, capsys):
    model = tmp_path / "w.tn"
    sio.write_tensor(model, Tensor.zeros((4, 3, 2)))
    assert main(["eval", "--pred", str(model), "--truth", str(data), "--metric", "mse"]) == 1
    assert capsys.readouterr().err == (
        f"error: {model} is a tensor file; expected predictions or a dataset\n")
    assert main(["eval", "--pred", str(model), "--truth", str(data), "--metric", "ce"]) == 1
    assert capsys.readouterr().err == "error: metric ce compares two tensor files\n"
