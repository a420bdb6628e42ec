"""Peak memory of the data path, as multiples of the array it makes or reads.

Each producer writes its samples into the array the ``Dataset`` keeps, so the
design matrix is held once; what is left over is the block buffers of the
random stream and of ``dot_rows``.  A tensor the package builds keeps the
array it was built in, and a sample is a view of its row.  The backbone holds
its Gram matrix and no array the size of the design matrix, and a fitted
dataset keeps one P-entry backbone per epsilon and no Gram matrix.
tracemalloc sees numpy's allocations.
"""

import gc
import math
import tracemalloc
import types

import numpy as np
import pytest

from sltr import io as sio
from sltr.data import Dataset
from sltr.evaluation import kfold_cv
from sltr.linalg import backbone
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig, fit
from sltr.tensor import Tensor, fold

SPEC = SimSpec((20, 20, 10), n=200, seed=0)  # a 6.4 MB design matrix
DIMS = (100, 100, 50)  # a 4 MB tensor


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


def test_read_responses(dataset, tmp_path):
    # The samples are skipped, never read: the peak is a small part of y's 1.6 KB.
    path = tmp_path / "d.ds"
    sio.write_dataset(path, dataset)
    y, peak = traced_peak(sio.read_responses, path)
    assert np.array_equal(y, dataset.y)
    assert peak <= 0.01 * dataset.x.nbytes


def test_decode_dataset(dataset):
    # The buffer is read in place: wrapping anything but bytes would copy it first.
    back, peak = traced_peak(sio.decode_dataset, sio.encode_dataset(dataset))
    assert np.array_equal(back.x, dataset.x)
    assert peak <= 1.05 * back.x.nbytes


def test_backbone(dataset):
    _, peak = traced_peak(backbone, dataset.x, dataset.y, 1.0, dataset.dims)
    assert peak <= 0.1 * dataset.x.nbytes


def held_arrays(obj) -> list:
    """Every numpy array that ``obj`` reaches through its attributes and containers."""
    seen, todo, arrays = set(), [obj], []
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            arrays.append(o)
        todo.extend(gc.get_referents(o))
    return arrays


@pytest.mark.parametrize("epsilons", [(1.0,), (1.0, 0.1, 10.0)], ids=["1-epsilon", "3-epsilons"])
def test_a_fitted_dataset_keeps_one_tensor_per_epsilon(dataset, epsilons):
    ds = Dataset(dataset.dims, dataset.x, dataset.y)
    for eps in (*epsilons, *epsilons):
        fit(ds, SolverConfig(lam=1.0, tau=1.0, epsilon=eps, max_iter=5))
    kept = [a for a in held_arrays(ds) if not (a is ds.x or a is ds.y)]
    n, p = ds.x.shape
    assert sorted(a.size for a in kept) == [p] * len(epsilons)
    assert min(n, p) ** 2 not in [a.size for a in held_arrays(ds)]


def test_subset(dataset):
    sub, peak = traced_peak(dataset.subset, np.arange(0, dataset.n, 2))
    assert peak <= 1.05 * sub.x.nbytes


def test_kfold_cv_holds_one_split(dataset):
    cfg = SolverConfig(lam=1.0, tau=1.0, max_iter=5)
    _, peak = traced_peak(kfold_cv, dataset, [(1.0, 1.0, 1.0)], cfg)
    assert peak <= 1.5 * dataset.x.nbytes


@pytest.fixture(scope="module")
def tensor():
    return Tensor(DIMS, np.random.default_rng(0).normal(size=math.prod(DIMS)))


def test_read_tensor(tensor, tmp_path):
    path = tmp_path / "t.tn"
    sio.write_tensor(path, tensor)
    back, peak = traced_peak(sio.read_tensor, path)
    assert np.array_equal(back.data, tensor.data)
    assert peak <= 1.05 * back.data.nbytes


def test_decode_tensor(tensor):
    back, peak = traced_peak(sio.decode_tensor, sio.encode_tensor(tensor))
    assert np.array_equal(back.data, tensor.data)
    assert peak <= 1.05 * back.data.nbytes


def test_fold(tensor):
    a = np.random.default_rng(1).normal(size=(DIMS[0], math.prod(DIMS[1:])))
    t, peak = traced_peak(fold, a, 1, DIMS)
    assert peak <= 1.05 * t.data.nbytes


def test_samples_copy_nothing():
    # Rows of 9,000 entries, as in the benchmark's data workload: each sample
    # is a tensor over a view of its row, a few hundred bytes of objects.
    ds = generate(SimSpec((30, 30, 10), n=100, seed=0))[0]
    samples, peak = traced_peak(lambda: [ds.sample(i) for i in range(ds.n)])
    assert len(samples) == ds.n
    assert peak <= 0.01 * ds.x.nbytes
