"""The size rule: every mode size, count and mode index is an integer in bounds.

Each entry point that takes one is called with it set to a value, the rest of
its arguments valid.  A float, a ``bool``, zero or a negative number raises
:class:`ValueError` with the rule's message, rather than being truncated,
clamped or read as 1; a Python or numpy integer in bounds is accepted.  An
empty ``dims`` raises at every entry point that takes one.  A seed is any
integer, negative too, by the same rule: a float, a ``bool`` or a string
raises rather than being read as an integer.  A random stream id and a count
of draws or indices may be 0, and follow the rule with that bound.
"""

import numpy as np
import pytest

from sltr import rng
from sltr.data import Dataset
from sltr.evaluation import fold_indices, kfold_cv
from sltr.linalg import backbone
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig, fit, solve_subproblem
from sltr.tensor import Tensor, fold, unfold

CFG = SolverConfig(lam=1.0, tau=1.0, max_iter=5)
DS = generate(SimSpec((3, 2), n=8, seed=0))[0]

# Each takes the value under test; a mode size sits beside a 2, and a mode
# index addresses a 2 x 2 x 2 tensor, so 3 is in bounds everywhere.
ENTRY_POINTS = {
    "Tensor dims": lambda v: Tensor((v, 2), np.zeros(6)),
    "Tensor.zeros dims": lambda v: Tensor.zeros((v, 2)),
    "Dataset dims": lambda v: Dataset((v, 2), np.zeros((1, 6)), [0.0]),
    "unfold mode": lambda v: unfold(Tensor.zeros((2, 2, 2)), v),
    "fold dims": lambda v: fold(np.zeros((3, 2)), 1, (v, 2)),
    "fold mode": lambda v: fold(np.zeros((2, 4)), v, (2, 2, 2)),
    "backbone dims": lambda v: backbone(np.ones((2, 6)), [1.0, 2.0], 1.0, (v, 2)),
    "solve_subproblem dims": lambda v: solve_subproblem(1, np.ones((3, 2)), (v, 2), CFG),
    "solve_subproblem mode": lambda v: solve_subproblem(v, np.ones((2, 4)), (2, 2, 2), CFG),
    "SimSpec dims": lambda v: SimSpec(dims=(v, 2), n=1),
    "SimSpec n": lambda v: SimSpec(dims=(2,), n=v),
    "SimSpec low_rank": lambda v: SimSpec(dims=(2, 2), n=1, low_rank=v),
    "SolverConfig max_iter": lambda v: SolverConfig(lam=1.0, tau=1.0, max_iter=v),
    "fit threads": lambda v: fit(DS, CFG, threads=v),
    "fold_indices k": lambda v: fold_indices(10, v, 0),
    "kfold_cv k": lambda v: kfold_cv(DS, [(1.0, 1.0, 1.0)], CFG, k=v),
}

# Each takes a whole dims tuple.
DIMS_ENTRY_POINTS = {
    "Tensor": lambda d: Tensor(d, np.zeros(1)),
    "Tensor.zeros": Tensor.zeros,
    "Dataset": lambda d: Dataset(d, np.ones((2, 1)), [1.0, 2.0]),
    "fold": lambda d: fold(np.zeros((1, 1)), 1, d),
    "backbone": lambda d: backbone(np.ones((2, 1)), [1.0, 2.0], 1.0, d),
    "solve_subproblem": lambda d: solve_subproblem(1, np.ones((1, 1)), d, CFG),
    "SimSpec": lambda d: SimSpec(dims=d, n=1),
}

# Each takes a seed.
SEED_ENTRY_POINTS = {
    "SimSpec seed": lambda v: SimSpec(dims=(2,), n=1, seed=v),
    "fold_indices fold_seed": lambda v: fold_indices(6, 2, v),
    "kfold_cv fold_seed": lambda v: kfold_cv(DS, [(1.0, 1.0, 1.0)], CFG, k=2, fold_seed=v),
    "uniforms seed": lambda v: rng.uniforms(v, 0, 3),
    "normals seed": lambda v: rng.normals(v, 0, 3),
    "shuffled_indices seed": lambda v: rng.shuffled_indices(5, 2, v, 0),
}

# Each takes a stream id or a count, which may be 0.
STREAM_AND_COUNT_ENTRY_POINTS = {
    "uniforms stream": lambda v: rng.uniforms(0, v, 3),
    "normals stream": lambda v: rng.normals(0, v, 3),
    "shuffled_indices stream": lambda v: rng.shuffled_indices(5, 2, 0, v),
    "uniforms n": lambda v: rng.uniforms(0, 0, v),
    "normals n": lambda v: rng.normals(0, 0, v),
    "shuffled_indices n": lambda v: rng.shuffled_indices(v, 0, 0, 0),
    "shuffled_indices k": lambda v: rng.shuffled_indices(5, v, 0, 0),
}


@pytest.mark.parametrize("value", [2.5, True, 0, -1], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_bad_size_raises(entry, value):
    with pytest.raises(ValueError, match="must be an integer >= "):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [3, np.int64(3)], ids=["int", "np.int64"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_an_integer_size_is_accepted(entry, value):
    ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_a_bad_seed_raises(entry, value):
    with pytest.raises(ValueError, match=r"seed must be an integer, got "):
        SEED_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [-1, 0, np.int64(3)], ids=repr)
@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
def test_an_integer_seed_is_accepted(entry, value):
    SEED_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [2.5, True, -1], ids=repr)
@pytest.mark.parametrize("entry", STREAM_AND_COUNT_ENTRY_POINTS)
def test_a_bad_stream_or_count_raises(entry, value):
    with pytest.raises(ValueError, match="must be an integer >= 0, got "):
        STREAM_AND_COUNT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", [0, 3, np.int64(3)], ids=repr)
@pytest.mark.parametrize("entry", STREAM_AND_COUNT_ENTRY_POINTS)
def test_a_stream_or_count_from_zero_is_accepted(entry, value):
    STREAM_AND_COUNT_ENTRY_POINTS[entry](value)


def test_kfold_cv_records_the_seed_it_used():
    report = kfold_cv(DS, [(1.0, 1.0, 1.0)], CFG, k=2, fold_seed=np.int64(3))
    assert type(report.fold_seed) is int and report.fold_seed == 3


@pytest.mark.parametrize("entry", DIMS_ENTRY_POINTS)
def test_empty_dims_raise(entry):
    # An order-0 dataset would also be written to a file that no reader accepts.
    with pytest.raises(ValueError, match="one or more mode sizes"):
        DIMS_ENTRY_POINTS[entry](())


def test_a_0d_array_is_not_a_tensor():
    with pytest.raises(ValueError, match="one or more mode sizes"):
        Tensor.from_array(np.float64(3))


def test_accepted_sizes_are_python_ints():
    assert [type(p) for p in Tensor((np.int64(3), 2), np.zeros(6)).dims] == [int, int]
    assert [type(p) for p in SimSpec(dims=(np.int64(3),), n=1).dims] == [int]


def test_fit_checks_threads_before_any_work(monkeypatch):
    def no_backbone(*args):
        raise AssertionError("the backbone ran before threads were checked")

    monkeypatch.setattr("sltr.solver.backbone", no_backbone)
    with pytest.raises(ValueError, match="threads must be an integer >= 1, got 0"):
        fit(DS, CFG, threads=0)
