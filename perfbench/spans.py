"""In-memory spans recorded around calls into ``sltr``'s public functions.

The package itself is not instrumented.  :class:`Tracer` replaces the module
attributes that each layer calls through (``sltr.solver.prox_l1`` is what the
PPXA loop calls, ``sltr.prox.svd`` is what the prox operators call, ...) with
wrappers that record a span per call, and puts every original back when the
traced region ends.

A span is ``(sid, name, parent, op, t0, t1, info)``.  ``parent`` is the span
open on the calling thread; a call made on a worker thread with no open span
takes as parent the innermost span of the thread that opened the operation,
which is blocked waiting for its workers (``fit`` maps the mode subproblems
over a thread pool).  ``info`` carries what a layer hook read from the
arguments or the result: bytes touched, sweeps, useful-work counts.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

import sltr.evaluation
import sltr.io
import sltr.linalg
import sltr.prox
import sltr.rng
import sltr.simulate
import sltr.solver
from sltr.data import Dataset

SETUP_OP = -1  # op id of set-up spans; timed operations are numbered from 0
FIT_SPANS = ("solver.fit", "evaluation.fit")
# Calls that only hand work down to the layers; their self time is not a layer's.
CALL_SPANS = FIT_SPANS + ("evaluation.kfold_cv",)
SVD_SPANS = ("prox.svd", "linalg.singular_values")


def _svd_info(args, out, local):
    m, n = np.shape(args[0])
    k = min(m, n)
    local.last_s = out.s
    return 8 * (m * n + k * (m + n + 1))


def _singular_values_info(args, out, local):
    m, n = np.shape(args[0])
    return 8 * (m * n + min(m, n))


def _nuclear_info(args, out, local):
    # The svd span just closed on this thread holds the spectrum that was thresholded.
    s = local.last_s
    return int(np.count_nonzero(s > args[1])), int(s.size)


def _spectral_info(args, out, local):
    return out is args[0]


def _subproblem_info(args, out, local):
    sweeps = len(out[1])
    return sweeps, sweeps >= args[3].max_iter


def _file_size_info(args, out, local):
    return os.path.getsize(args[0])


# (owner, attribute, span name, info hook).  The owner is the namespace the
# caller looks the name up in, so each entry catches exactly one layer edge.
TARGETS = (
    (sltr.solver, "fit", "solver.fit", None),
    (sltr.solver, "predict", "solver.predict", None),
    (sltr.solver, "backbone", "solver.backbone", None),
    (sltr.solver, "solve_subproblem", "solver.solve_subproblem", _subproblem_info),
    (sltr.solver, "prox_l1", "solver.prox_l1", None),
    (sltr.solver, "prox_nuclear", "solver.prox_nuclear", _nuclear_info),
    (sltr.solver, "project_linf_ball", "solver.project_linf_ball", None),
    (sltr.solver, "project_spectral_ball", "solver.project_spectral_ball", _spectral_info),
    (sltr.solver, "nuclear_norm", "solver.nuclear_norm", None),
    (sltr.solver, "inner", "solver.inner", None),
    (sltr.prox, "svd", "prox.svd", _svd_info),
    (sltr.linalg, "singular_values", "linalg.singular_values", _singular_values_info),
    (sltr.rng, "normals", "rng.normals", None),
    (sltr.simulate, "generate", "simulate.generate", None),
    (sltr.io, "write_dataset", "io.write_dataset", _file_size_info),
    (sltr.io, "read_dataset", "io.read_dataset", _file_size_info),
    (sltr.evaluation, "kfold_cv", "evaluation.kfold_cv", None),
    (sltr.evaluation, "fit", "evaluation.fit", None),
    (sltr.evaluation, "predict", "evaluation.predict", None),
    (Dataset, "sample", "data.sample", None),
)


class Tracer:
    """Records spans while installed; thread-safe for one operation at a time."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None
        self._op_stack = None
        self._originals = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, hook):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        info = t1 = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            if hook is not None:
                info = hook(args, out, self._local)
            return out
        finally:
            if t1 is None:
                t1 = time.perf_counter()
            stack.pop()
            # next() on a count and list.append are single atomic calls, so
            # worker threads need no lock here.
            self.spans.append((sid, name, parent, self._op, t0, t1, info))

    def _wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block, then restore each one."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, hook in targets:
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, hook))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id, name="op"):
        """Root span of one operation (or of set-up); spans opened inside belong to it."""
        stack = self._stack()
        self._op, self._op_stack = op_id, stack
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, 0, op_id, t0, t1, None))
            self._op, self._op_stack = None, None

    def save(self, path):
        """Write the spans as a compressed ``.npz`` (names stored once, by index)."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path,
            names=np.array(names),
            sid=np.array(cols[0], dtype=np.int64),
            name=np.array([index[n] for n in cols[1]], dtype=np.int32),
            parent=np.array(cols[2], dtype=np.int64),
            op=np.array(cols[3], dtype=np.int64),
            t0=np.array(cols[4], dtype=np.float64),
            t1=np.array(cols[5], dtype=np.float64),
        )


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, traced_ops):
    """Per-layer metrics from spans: per traced operation unless the name says otherwise.

    ``traced_ops`` are the op ids of the timed traced operations.  Set-up
    spans (any other op id) only feed the per-call ``rng``, ``simulate`` and
    ``io`` metrics, which are averaged over calls wherever they happened.
    """
    ops = set(traced_ops)
    n_ops = max(1, len(ops))
    children = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)

    def dur(s):
        return s[5] - s[4]

    def self_time(s):
        return dur(s) - union_length([(c[4], c[5]) for c in children.get(s[0], ())])

    in_ops = [s for s in spans if s[3] in ops]
    named = {}
    for s in in_ops:
        named.setdefault(s[1], []).append(s)

    def total(name):
        return sum(dur(s) for s in named.get(name, ())) / n_ops

    def calls(name):
        return len(named.get(name, ())) / n_ops

    svd = [s for n in SVD_SPANS for s in named.get(n, ())]
    nuclear = named.get("solver.prox_nuclear", [])
    nuclear_active = sum(s[6][0] for s in nuclear if s[6] is not None)
    nuclear_total = sum(s[6][1] for s in nuclear if s[6] is not None)
    spectral = named.get("solver.project_spectral_ball", [])
    subproblems = named.get("solver.solve_subproblem", [])
    fits = [s for n in FIT_SPANS for s in named.get(n, ())]

    mode_max, imbalance = [], []
    for f in fits:
        modes = [dur(c) for c in children.get(f[0], ()) if c[1] == "solver.solve_subproblem"]
        if modes:
            mode_max.append(max(modes))
            imbalance.append(max(modes) / (sum(modes) / len(modes)))

    eval_fit_ids = {s[0] for s in named.get("evaluation.fit", ())}
    eval_backbone = [s for s in named.get("solver.backbone", ()) if s[2] in eval_fit_ids]

    generates = [s for s in spans if s[1] == "simulate.generate"]
    normals = [s for s in spans if s[1] == "rng.normals"]
    writes = [s for s in spans if s[1] == "io.write_dataset"]
    reads = [s for s in spans if s[1] == "io.read_dataset"]
    io_bytes = sum(s[6] or 0 for s in writes + reads)
    io_time = sum(dur(s) for s in writes + reads)

    roots = [s for s in in_ops if s[2] == 0]
    root_time = sum(dur(s) for s in roots)
    # Wall time of the operations that no layer span covers: the self time
    # of each root and of each call that only hands work down.
    unaccounted = sum(self_time(s) for s in roots) + sum(
        self_time(s) for n in CALL_SPANS for s in named.get(n, ()))

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "linalg.backbone_s": (total("solver.backbone"), "s"),
        "linalg.backbone_calls": (calls("solver.backbone"), "count"),
        "linalg.svd_calls": (len(svd) / n_ops, "count"),
        "linalg.svd_s": (sum(dur(s) for s in svd) / n_ops, "s"),
        "linalg.svd_bytes": (sum(s[6] or 0 for s in svd) / n_ops, "bytes"),
        "prox.l1_s": (total("solver.prox_l1"), "s"),
        "prox.l1_calls": (calls("solver.prox_l1"), "count"),
        "prox.nuclear_s": (total("solver.prox_nuclear"), "s"),
        "prox.nuclear_calls": (calls("solver.prox_nuclear"), "count"),
        "prox.linf_s": (total("solver.project_linf_ball"), "s"),
        "prox.linf_calls": (calls("solver.project_linf_ball"), "count"),
        "prox.spectral_s": (total("solver.project_spectral_ball"), "s"),
        "prox.spectral_calls": (calls("solver.project_spectral_ball"), "count"),
        "prox.nuclear_active_frac": (ratio(nuclear_active, nuclear_total), "ratio"),
        "prox.spectral_exit_frac": (
            ratio(sum(1 for s in spectral if s[6]), len(spectral)), "ratio"),
        "solver.sweeps": (sum(s[6][0] for s in subproblems if s[6]) / n_ops, "count"),
        "solver.unconverged_frac": (
            ratio(sum(1 for s in subproblems if s[6] and s[6][1]), len(subproblems)), "ratio"),
        "solver.trace_objective_s": (total("solver.nuclear_norm"), "s"),
        "solver.mode_s.max": (mean(mode_max), "s"),
        "solver.mode_imbalance": (mean(imbalance), "ratio"),
        "solver.sweep_self_s": (sum(self_time(s) for s in subproblems) / n_ops, "s"),
        "solver.fit_self_s": (sum(self_time(s) for s in fits) / n_ops, "s"),
        "tensor.inner_calls": (calls("solver.inner"), "count"),
        "tensor.inner_s": (total("solver.inner"), "s"),
        "data.sample_calls": (calls("data.sample"), "count"),
        "rng.normals_s": (ratio(sum(dur(s) for s in normals), len(generates)), "s"),
        "simulate.responses_self_s": (mean([self_time(s) for s in generates]), "s"),
        "io.write_s": (mean([dur(s) for s in writes]), "s"),
        "io.read_s": (mean([dur(s) for s in reads]), "s"),
        "io.bytes": (mean([s[6] or 0 for s in writes]), "bytes"),
        "io.mb_per_s": (ratio(io_bytes / 1e6, io_time), "MB/s"),
        "evaluation.fits": (calls("evaluation.fit"), "count"),
        "evaluation.backbone_s": (sum(dur(s) for s in eval_backbone) / n_ops, "s"),
        "evaluation.predict_s": (total("evaluation.predict"), "s"),
        "trace.spans": (len(in_ops) / n_ops, "count"),
        "trace.accounted_frac": (ratio(root_time - unaccounted, root_time), "ratio"),
    }

