"""Tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench -q
"""

import json
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from sltr.exceptions import DivergenceError  # noqa: E402
from sltr.solver import SolverConfig  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "fit_30x30x10": replace(workloads.WORKLOADS["fit_30x30x10"], dims=(4, 3, 2), n=12,
                            cfg=SolverConfig(lam=1.0, tau=1.0, epsilon=1.0, max_iter=20)),
    "cv_10x10x5": replace(workloads.WORKLOADS["cv_10x10x5"], dims=(3, 3, 2), n=10, datasets=2,
                          cfg=SolverConfig(lam=1.0, tau=1.0, max_iter=20)),
    "data_30x30x10": replace(workloads.WORKLOADS["data_30x30x10"], dims=(4, 3, 2), n=12),
}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    record, _ = run.measure(TINY[name], seed=3, seconds=0, trace=trace, workdir=str(tmp_path))
    assert record["failures"] == []
    metrics = record["per_layer"] if trace else record["end_to_end"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v, float) for v, _ in metrics.values())


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.TARGETS]
    run.measure(TINY["cv_10x10x5"], seed=0, seconds=0, trace=1, workdir=str(tmp_path))
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_fit_spans_nest_under_the_fit():
    wl = TINY["fit_30x30x10"]
    st = wl.build(0, None)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op(0):
        wl.op(st, 0)
    by_sid = {s[0]: s for s in tracer.spans}
    subproblems = [s for s in tracer.spans if s[1] == "solver.solve_subproblem"]
    assert len(subproblems) == 3
    assert all(by_sid[s[2]][1] == "solver.fit" for s in subproblems)
    layers = spans.layer_metrics(tracer.spans, [0])
    assert layers["trace.accounted_frac"][0] > 0.8


def test_accounted_frac_drops_when_the_mode_layers_go_untraced():
    wl = TINY["fit_30x30x10"]
    st = wl.build(0, None)
    tracer = spans.Tracer()
    outer = [t for t in spans.TARGETS if t[2] in ("solver.fit", "solver.backbone")]
    with tracer.installed(outer), tracer.op(0):
        wl.op(st, 0)
    assert spans.layer_metrics(tracer.spans, [0])["trace.accounted_frac"][0] < 0.5


def test_spans_from_many_threads_are_all_recorded():
    box = types.SimpleNamespace(work=lambda x: x + 1)
    tracer = spans.Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.installed([(box, "work", "box.work", None)]), tracer.op(0):
            with ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(lambda: [box.work(i) for i in range(2000)])
                           for _ in range(8)]
                for f in futures:
                    f.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert sum(1 for s in tracer.spans if s[1] == "box.work") == 8 * 2000
    assert len({s[0] for s in tracer.spans}) == len(tracer.spans)


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


class _Flaky:
    """Operation 0 raises a package error; operation 1 returns a wrong output."""

    name = "flaky"
    op_label = "flaky_s"

    def build(self, seed, workdir):
        return None

    def op(self, st, k):
        if k == 0:
            raise DivergenceError("diverged")
        return k

    def check(self, st, k, out):
        return ["wrong output"] if out == 1 else []

    def report(self, st):
        return {}


def test_failed_operations_are_counted_with_their_reasons(tmp_path):
    record, _ = run.measure(_Flaky(), seed=0, seconds=0, trace=0, workdir=str(tmp_path))
    assert record["failures"] == [(0, "DivergenceError: diverged"), (1, "wrong output")]
    assert (record["attempted"], record["failed"]) == (2, 2)
    assert record["report"]["failed_frac"] == (1.0, "ratio")


def test_bit_checks_see_signed_zero():
    assert workloads.same_bits([0.0, 1.5], [0.0, 1.5])
    assert not workloads.same_bits([0.0], [-0.0])
