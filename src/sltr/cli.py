"""Command-line interface.

Subcommands: ``simulate``, ``fit``, ``predict``, ``cv``, ``eval``.
All report tables are tab-separated with a header row; ``fit`` prints two,
the residual of every sweep and then one certificate row per mode, with an
empty line between them.  Binary artifacts use the formats in
:mod:`sltr.io`.  Exit code 0 on success, nonzero with a one-line diagnostic
on error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import io as sio
from .evaluation import auc, coefficient_error, default_grid, kfold_cv, mse
from .exceptions import SltrError
from .simulate import SimSpec, generate
from .solver import SolverConfig, fit, predict

__all__ = ["main"]

# The solver flags take their defaults from SolverConfig, so the two never disagree.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SolverConfig)}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SltrError, OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_dims(text: str):
    parts = text.replace(",", "x").split("x")
    try:
        dims = tuple(int(p) for p in parts if p)
    except ValueError:
        raise ValueError(f"cannot parse dims {text!r}; use e.g. 20x20x5") from None
    return dims  # SimSpec checks the sizes


def _print_table(header, rows):
    print("\t".join(header))
    for row in rows:
        print("\t".join(repr(c) if isinstance(c, float) else str(c) for c in row))


def _solver_config(args, lam, tau, epsilon) -> SolverConfig:
    return SolverConfig(lam=lam, tau=tau, epsilon=epsilon, max_iter=args.max_iter, tol=args.tol)


def _add_solver_flags(p, with_params=True):
    if with_params:
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="entrywise constraint radius")
        p.add_argument("--tau", type=float, required=True, help="spectral constraint radius")
        p.add_argument("--epsilon", type=float, default=_DEFAULTS["epsilon"],
                       help="backbone ridge parameter")
    p.add_argument("--max-iter", type=int, default=_DEFAULTS["max_iter"],
                   help="sweeps per mode subproblem at most (default: %(default)s)")
    p.add_argument("--tol", type=float, default=_DEFAULTS["tol"],
                   help="stop a mode once a sweep's residual, relative to the state, "
                        "is at most this (default: %(default)s)")
    p.add_argument("--threads", type=int, default=None,
                   help="mode threads, one subproblem each (default: 1); more pay only "
                        "where two modes are each large; "
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
    result = fit(ds, cfg, threads=args.threads)
    sio.write_tensor(args.out, result.w_hat)
    sweeps, certificates = [], []
    for m, trace in enumerate(result.trace, start=1):
        sweeps.extend((m, it, rel) for it, rel in enumerate(trace.residuals, start=1))
        c = trace.certificate
        certificates.append((m, len(trace), c.objective, c.linf_violation,
                             c.spectral_violation, c.gap, c.exit))
    _print_table(("mode", "iteration", "residual"), sweeps)
    print()
    _print_table(("mode", "sweeps", "objective", "linf_violation", "spectral_violation", "gap",
                  "exit"), certificates)
    return 0


def _cmd_predict(args) -> int:
    w = sio.read_tensor(args.model)
    ds = sio.read_dataset(args.data)
    if w.dims != ds.dims:
        raise ValueError(f"dims mismatch: {w.dims} vs {ds.dims}")
    yhat = predict(w, ds.x)
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
                      threads=args.threads)
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
