"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``predict``, ``cv``, ``bench``, ``eval``.
All report tables are tab-separated with a header row; binary artifacts use
the formats in :mod:`sltr.io`.  Exit code 0 on success, nonzero with a
one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io as sio
from .data import Dataset
from .evaluation import auc, coefficient_error, default_grid, kfold_cv, mse
from .exceptions import SltrError
from .simulate import SimSpec, generate
from .solver import SolverConfig, default_thread_count, fit, predict

__all__ = ["main"]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SltrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_dims(text: str):
    parts = text.replace(",", "x").split("x")
    try:
        dims = tuple(int(p) for p in parts if p)
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r}; use e.g. 20x20x5") from None
    if not dims:
        raise ValueError(f"cannot parse dims {text!r}; use e.g. 20x20x5")
    return dims


def _print_table(header, rows):
    print("\t".join(header))
    for row in rows:
        print("\t".join(repr(c) if isinstance(c, float) else str(c) for c in row))


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    return default_thread_count()


def _solver_config(args, lam, tau, epsilon) -> SolverConfig:
    return SolverConfig(
        lam=lam,
        tau=tau,
        epsilon=epsilon,
        rho=args.rho,
        gamma=args.gamma,
        max_iter=args.max_iter,
        tol=args.tol,
        paper_faithful_steps=getattr(args, "paper_faithful_steps", False),
    )


def _add_solver_flags(p, with_params=True):
    if with_params:
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="entrywise constraint radius")
        p.add_argument("--tau", type=float, required=True, help="spectral constraint radius")
        p.add_argument("--epsilon", type=float, default=1.0, help="backbone ridge parameter")
    p.add_argument("--rho", type=float, default=1.0, help="relaxation factor in (0, 2)")
    p.add_argument("--gamma", type=float, default=1.0, help="prox step size for the norm terms")
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--threads", type=int, default=None,
                   help="mode threads, one subproblem each (default: SLTR_THREADS, else 1); "
                        "pin BLAS to one thread (OPENBLAS_NUM_THREADS=1) when using more than one")


def _build_parser():
    parser = argparse.ArgumentParser(prog="sltr", description="Sparse + low-rank tensor regression")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--dims", required=True, type=_parse_dims, help="e.g. 20x20x5")
    p.add_argument("--n", required=True, type=int, help="sample count")
    p.add_argument("--sparsity", type=float, default=80.0, help="percent of zeroed coefficients")
    p.add_argument("--alpha", type=float, default=0.1, help="noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--low-rank", type=int, default=None,
                   help="build the coefficient from this many rank-1 terms")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.ds and <out>.wstar.tn")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the estimator on a dataset file")
    p.add_argument("--data", required=True)
    _add_solver_flags(p)
    p.add_argument("--paper-faithful-steps", action="store_true",
                   help="use 4*lambda prox steps for both norm terms")
    p.add_argument("--out", required=True, help="output coefficient tensor file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict responses with a fitted tensor")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output predictions text file")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("cv", help="cross-validated grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--grid-file", default=None,
                   help="TSV with header lambda/tau/epsilon (default: built-in grid)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="fold shuffle seed")
    _add_solver_flags(p, with_params=False)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("bench", help="fit timings on one mode thread against k")
    p.add_argument("--dims-list", required=True, help="comma list, e.g. 10x10x5,20x20x5")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--sparsity", type=float, default=80.0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--n", type=int, default=None, help="override the sample count")
    p.add_argument("--n-fraction", type=float, default=None,
                   help="samples as a fraction of prod(dims); default 0.08 (0.5 for 2-mode)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="k, the mode threads timed against one (default: the CPU count)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("eval", help="score predictions or coefficients")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--metric", required=True, choices=("mse", "ce", "auc"))
    p.set_defaults(func=_cmd_eval)

    return parser


def _cmd_simulate(args) -> int:
    spec = SimSpec(dims=args.dims, n=args.n, sparsity_pct=args.sparsity,
                   noise_alpha=args.alpha, seed=args.seed, low_rank=args.low_rank)
    ds, w_star = generate(spec)
    ds_path = f"{args.out}.ds"
    w_path = f"{args.out}.wstar.tn"
    sio.write_dataset(ds_path, ds)
    sio.write_tensor(w_path, w_star)
    _print_table(("artifact", "path"), [("dataset", ds_path), ("coefficient", w_path)])
    return 0


def _cmd_fit(args) -> int:
    ds = sio.read_dataset(args.data)
    cfg = _solver_config(args, args.lam, args.tau, args.epsilon)
    result = fit(ds, cfg, threads=_threads(args))
    sio.write_tensor(args.out, result.w_hat)
    rows = []
    for m, trace in enumerate(result.trace, start=1):
        rows.extend((m, it, rel, obj) for it, rel, obj in trace)
    _print_table(("mode", "iteration", "relative_change", "objective"), rows)
    return 0


def _cmd_predict(args) -> int:
    w = sio.read_tensor(args.model)
    ds = sio.read_dataset(args.data)
    yhat = predict(w, ds.samples())
    with open(args.out, "w") as fh:
        fh.write("y_hat\n")
        for v in yhat.tolist():
            fh.write(f"{v!r}\n")
    return 0


def _cmd_cv(args) -> int:
    ds = sio.read_dataset(args.data)
    grid = _read_grid(args.grid_file) if args.grid_file else default_grid()
    template = _solver_config(args, lam=1.0, tau=1.0, epsilon=1.0)
    report = kfold_cv(ds, grid, template, k=args.folds, fold_seed=args.seed,
                      threads=_threads(args))
    rows = [
        (lam, tau, eps, cell, int((lam, tau, eps) == report.selected))
        for (lam, tau, eps), cell in zip(report.grid, report.per_cell)
    ]
    _print_table(("lambda", "tau", "epsilon", "mean_mse", "selected"), rows)
    for cell, reason in report.failures:
        print(f"warning: cell {cell} failed: {reason}", file=sys.stderr)
    return 0


def _read_grid(path):
    cells = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"grid file {path} is empty")
    start = 1 if lines[0].lower().split("\t")[:1] == ["lambda"] else 0
    for ln in lines[start:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise ValueError(f"grid row needs 3 columns (lambda, tau, epsilon): {ln!r}")
        cells.append(tuple(float(p) for p in parts))
    return cells


def _cmd_bench(args) -> int:
    rows = []
    threads = max(1, args.threads) if args.threads is not None else os.cpu_count() or 1
    for dims_text in args.dims_list.split(","):
        dims = _parse_dims(dims_text)
        p_total = int(np.prod(dims))
        if args.n is not None:
            n = args.n
        else:
            frac = args.n_fraction if args.n_fraction is not None else (0.5 if len(dims) == 2 else 0.08)
            n = max(1, round(frac * p_total))
        cfg = SolverConfig(lam=args.lam, tau=args.tau, epsilon=args.epsilon, rho=args.rho,
                           gamma=args.gamma, max_iter=args.max_iter, tol=args.tol)
        one_times, k_times = [], []
        for trial in range(args.trials):
            ds, _ = generate(SimSpec(dims=dims, n=n, sparsity_pct=args.sparsity,
                                     noise_alpha=args.alpha, seed=args.seed + trial))
            t0 = time.perf_counter()
            fit(ds, cfg, threads=1)
            one_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            fit(ds, cfg, threads=threads)
            k_times.append(time.perf_counter() - t0)
        one_mean = float(np.mean(one_times))
        k_mean = float(np.mean(k_times))
        rows.append((dims_text.strip(), n, args.trials, threads,
                     one_mean, float(np.var(one_times)),
                     k_mean, float(np.var(k_times)),
                     one_mean / k_mean if k_mean > 0 else float("inf")))
    _print_table(
        ("dims", "n", "trials", "threads", "one_thread_mean_s", "one_thread_var",
         "threads_mean_s", "threads_var", "speedup"),
        rows,
    )
    return 0


def _sniff(path):
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == sio.TENSOR_MAGIC:
        return "tensor"
    if head == sio.DATASET_MAGIC:
        return "dataset"
    return "text"


def _read_values(path):
    kind = _sniff(path)
    if kind == "dataset":
        return sio.read_dataset(path).y
    if kind == "tensor":
        raise ValueError(f"{path} is a tensor file; expected predictions or a dataset")
    vals = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            try:
                vals.append(float(ln))
            except ValueError:
                if vals:
                    raise ValueError(f"non-numeric line in {path}: {ln!r}") from None
                # header line
    if not vals:
        raise ValueError(f"no numeric values in {path}")
    return np.array(vals)


def _cmd_eval(args) -> int:
    if args.metric == "ce":
        if _sniff(args.pred) != "tensor" or _sniff(args.truth) != "tensor":
            raise ValueError("metric ce compares two tensor files")
        value = coefficient_error(sio.read_tensor(args.pred), sio.read_tensor(args.truth))
    elif args.metric == "mse":
        value = mse(_read_values(args.truth), _read_values(args.pred))
    else:
        value = auc(_read_values(args.pred), _read_values(args.truth))
    print(repr(float(value)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
