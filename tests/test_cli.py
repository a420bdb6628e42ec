import numpy as np

from sltr import io as sio
from sltr.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


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
    assert out.splitlines()[0].split("\t") == ["mode", "iteration", "relative_change",
                                               "objective"]
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


def test_bench_times_one_thread_against_k(capsys):
    out = run(capsys, "bench", "--dims-list", "3x3x2,4x3", "--n", 12, "--trials", 2,
              "--threads", 2, "--max-iter", 10)
    header, *rows = [line.split("\t") for line in out.splitlines()]
    assert header == ["dims", "n", "trials", "threads", "one_thread_mean_s", "one_thread_var",
                      "threads_mean_s", "threads_var", "speedup"]
    assert [r[:4] for r in rows] == [["3x3x2", "12", "2", "2"], ["4x3", "12", "2", "2"]]
    assert all(float(v) >= 0 for r in rows for v in r[4:])
