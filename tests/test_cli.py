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
