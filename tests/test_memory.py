"""Peak memory of the data path, as multiples of the design matrix it makes or reads.

Each producer writes its samples into the array the ``Dataset`` keeps, so the
design matrix is held once; what is left over is the block buffers of the
random stream and of ``dot_rows``.  tracemalloc sees numpy's allocations.
"""

import tracemalloc

import numpy as np
import pytest

from sltr import io as sio
from sltr.evaluation import kfold_cv
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig

SPEC = SimSpec((20, 20, 10), n=200, seed=0)  # a 6.4 MB design matrix


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def dataset():
    return generate(SPEC)[0]


def test_generate():
    (ds, _), peak = traced_peak(generate, SPEC)
    assert peak <= 1.3 * ds.x.nbytes


def test_read_dataset(dataset, tmp_path):
    path = tmp_path / "d.ds"
    sio.write_dataset(path, dataset)
    back, peak = traced_peak(sio.read_dataset, path)
    assert np.array_equal(back.x, dataset.x)
    assert peak <= 1.05 * back.x.nbytes


def test_subset(dataset):
    sub, peak = traced_peak(dataset.subset, np.arange(0, dataset.n, 2))
    assert peak <= 1.05 * sub.x.nbytes


def test_kfold_cv_holds_one_split(dataset):
    cfg = SolverConfig(lam=1.0, tau=1.0, max_iter=5)
    _, peak = traced_peak(kfold_cv, dataset, [(1.0, 1.0, 1.0)], cfg)
    assert peak <= 1.5 * dataset.x.nbytes
