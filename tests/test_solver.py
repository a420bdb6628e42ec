import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sltr.linalg
from sltr import io as sio
from sltr import solver
from sltr.data import Dataset
from sltr.evaluation import kfold_cv
from sltr.exceptions import DivergenceError, NumericalError
from sltr.linalg import backbone, nuclear_norm, spectral_norm
from sltr.prox import (
    ConstraintCenter,
    project_linf_ball,
    project_spectral_ball,
    prox_l1,
    prox_nuclear,
)
from sltr.simulate import SimSpec, generate
from sltr.solver import (
    SolverConfig,
    fit,
    objective_and_gaps,
    predict,
    solve_subproblem,
)
from sltr.tensor import Tensor, inner, unfold

from oracles import certified_ppxa_reference, ppxa_reference, same_bits


def base_cfg(**kw):
    defaults = dict(lam=0.5, tau=1.0)
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("lam", 0.0),
            ("tau", -1.0),
            ("epsilon", 0.0),
            ("max_iter", 0),
            ("tol", 0.0),
            ("lam", math.nan),
            ("tau", math.nan),
            ("epsilon", math.nan),
            ("tol", math.nan),
            ("max_iter", 2.5),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            replace(base_cfg(), **{field: value})

    def test_infinite_radii_accepted(self):
        cfg = base_cfg(lam=math.inf, tau=math.inf)
        assert cfg.lam == cfg.tau == math.inf


class TestSubproblem:
    def test_inactive_constraints_descend(self):
        r = np.random.default_rng(0)
        center = r.normal(size=(4, 6))
        scale = float(np.max(np.abs(center)))
        cfg = base_cfg(lam=50 * scale, tau=50 * scale * 5, tol=1e-9, max_iter=5000)
        w, trace = solve_subproblem(1, center, (4, 6), cfg)
        ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
        _, _, g_inf, g_spec = objective_and_gaps(w, ctr)
        assert g_inf <= 0 and g_spec <= 0
        assert np.sum(np.abs(w)) <= np.sum(np.abs(center))

    def test_zero_center_is_immediate(self):
        w, trace = solve_subproblem(2, np.zeros((3, 8)), (4, 3, 2), base_cfg())
        assert len(trace) == 0
        np.testing.assert_array_equal(w, np.zeros((3, 8)))

    @pytest.mark.parametrize("slack", [1.0, 1.5])
    def test_zero_optimum_is_returned_without_a_sweep(self, slack):
        # ||c||_inf <= lam and ||c||_spec <= tau: 0 is feasible, so it is the optimum.
        center = np.random.default_rng(14).normal(size=(5, 6))
        linf, spec = float(np.max(np.abs(center))), spectral_norm(center)
        w, trace = solve_subproblem(1, center, (5, 6), base_cfg(lam=slack * linf, tau=slack * spec))
        assert len(trace) == 0 and trace.residuals == ()
        np.testing.assert_array_equal(w.view(np.uint64), np.zeros((5, 6)).view(np.uint64))
        assert trace.certificate == solver.Certificate(0.0, 0.0, 0.0, 0.0, "zero")
        # Just outside either ball, 0 is infeasible and the solver sweeps.
        for lam, tau in ((np.nextafter(linf, 0), spec), (linf, np.nextafter(spec, 0))):
            _, trace = solve_subproblem(1, center, (5, 6), base_cfg(lam=lam, tau=tau))
            assert len(trace) > 0 and trace.certificate.exit == "converged"

    def test_matches_convex_solver_on_fixed_instance(self):
        cp = pytest.importorskip("cvxpy")
        r = np.random.default_rng(7)
        center = r.normal(size=(4, 3))
        lam, tau = 0.4, 0.8
        cfg = base_cfg(lam=lam, tau=tau, tol=1e-10, max_iter=20000)
        w, _ = solve_subproblem(1, center, (4, 3), cfg)
        var = cp.Variable((4, 3))
        problem = cp.Problem(
            cp.Minimize(cp.norm1(cp.vec(var, order="F")) + cp.normNuc(var)),
            [cp.max(cp.abs(var - center)) <= lam, cp.sigma_max(var - center) <= tau],
        )
        problem.solve(solver=cp.CLARABEL)
        assert problem.status == "optimal"
        ours = np.sum(np.abs(w)) + np.sum(np.linalg.svd(w, compute_uv=False))
        assert ours <= problem.value + 1e-3
        assert abs(ours - problem.value) <= 1e-3
        assert np.linalg.norm(w - var.value) <= 1e-4
        _, _, g_inf, g_spec = objective_and_gaps(w, ConstraintCenter(center, lam, tau))
        assert g_inf <= 1e-6 and g_spec <= 1e-6

    def test_center_shape_checked(self):
        with pytest.raises(ValueError):
            solve_subproblem(1, np.zeros((3, 8)), (4, 3, 2), base_cfg())
        with pytest.raises(ValueError):
            solve_subproblem(4, np.zeros((2, 12)), (4, 3, 2), base_cfg())

    def test_non_finite_center_raises(self):
        center = np.zeros((2, 2))
        center[0, 0] = np.nan
        with pytest.raises(NumericalError):
            solve_subproblem(1, center, (2, 2), base_cfg())

    def test_centre_near_the_largest_double_is_solved_at_unit_scale(self):
        # Unscaled, the three copies would sum past the largest double on the
        # first sweep; at unit scale the answer is the unit answer scaled back.
        center = np.full((3, 4), 1.5e308)
        center[1] *= -1.0
        k = 1 - math.frexp(1.5e308)[1]
        w, trace = solve_subproblem(1, center, (3, 4), base_cfg(lam=0.5e308, tau=1e308))
        wu, unit = solve_subproblem(1, np.ldexp(center, k), (3, 4),
                                    base_cfg(lam=math.ldexp(0.5e308, k), tau=math.ldexp(1e308, k)))
        assert len(unit) > 1 and unit.certificate.exit == "converged"
        assert np.all(np.isfinite(w))
        np.testing.assert_array_equal(np.ldexp(wu, -k).view(np.uint64), w.view(np.uint64))
        assert trace.residuals == unit.residuals
        # Scaled back, the objective is past the largest double and reads inf.
        cert = unit.certificate
        assert math.frexp(cert.objective)[1] - k > 1024
        assert trace.certificate == replace(
            cert,
            objective=math.inf,
            linf_violation=math.ldexp(cert.linf_violation, -k),
            spectral_violation=math.ldexp(cert.spectral_violation, -k),
            gap=math.ldexp(cert.gap, -k),
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_trace_holds_the_finite_sweeps(self, monkeypatch):
        calls = []

        # The l-inf clamp is the last operator of the merged l1 term: a value
        # injected into prox_l1's output would be clamped away.
        def clamp_failing_on_sweep_5(v, ctr):
            calls.append(1)
            out = project_linf_ball(v, ctr)
            if len(calls) == 5:
                out[0, 0] = np.inf
            return out

        center = np.random.default_rng(1).normal(size=(4, 6))
        cfg = base_cfg(tol=1e-12)
        _, expected = solve_subproblem(1, center, (4, 6), replace(cfg, max_iter=4))
        monkeypatch.setattr(solver, "project_linf_ball", clamp_failing_on_sweep_5)
        with pytest.raises(DivergenceError, match="at iteration 5") as err:
            solve_subproblem(1, center, (4, 6), cfg)
        assert err.value.trace == list(expected.residuals)

    def test_growing_change_raises_with_the_trace_through_that_sweep(self, monkeypatch):
        calls = []

        def clamp_jumping_on_sweep_5(v, ctr):
            calls.append(1)
            out = project_linf_ball(v, ctr)
            return out * 1e12 if len(calls) == 5 else out

        center = np.random.default_rng(1).normal(size=(4, 6))
        cfg = base_cfg(tol=1e-12)
        _, expected = solve_subproblem(1, center, (4, 6), replace(cfg, max_iter=4))
        monkeypatch.setattr(solver, "project_linf_ball", clamp_jumping_on_sweep_5)
        with pytest.raises(DivergenceError, match="by iteration 5") as err:
            solve_subproblem(1, center, (4, 6), cfg)
        trace = err.value.trace
        assert len(trace) == 5 and trace[:4] == list(expected.residuals)
        assert trace[4] > 1e6 * trace[0]

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_change_is_non_increasing(self, seed, monkeypatch):
        # The relaxed PPXA map is averaged, so its step never makes the move
        # longer: the absolute residual ||rho d|| of every sweep is at most
        # that of the sweep before it, sweep by sweep, not only as a mean
        # over ten sweeps.
        sizes, sweep = [], solver._sweep

        def recording(problem, y):
            p, d = sweep(problem, y)
            sizes.append(float(np.linalg.norm(solver._RHO * d)))
            return p, d

        monkeypatch.setattr(solver, "_sweep", recording)
        center = np.random.default_rng(seed).normal(size=(6, 8))
        cfg = base_cfg(lam=0.3, tau=1.0, tol=1e-12, max_iter=2000)
        _, trace = solve_subproblem(1, center, (6, 8), cfg)
        assert trace.certificate.exit == "converged" and len(sizes) == len(trace) > 300
        assert np.all(np.diff(sizes) <= 1e-14 * sizes[0])

    def test_cv_dataset_8_solves_stay_bounded(self, monkeypatch):
        # Dataset 8 of the benchmark's cv_10x10x5 workload, cell (1, 1, 10):
        # an uncapped extrapolation once drove the relative residual of
        # modes 1 and 2 to 1,582 and 1,445 here, and an earlier form of the
        # loop overflowed.  Every solve of the cell stays below a relative
        # residual of 1 and exits certified or at the exact zero.
        traces, solve = [], solver.solve_subproblem

        def recording(*args):
            w, trace = solve(*args)
            traces.append(trace)
            return w, trace

        monkeypatch.setattr(solver, "solve_subproblem", recording)
        ds, _ = generate(SimSpec(dims=(10, 10, 5), n=40, seed=8))
        report = kfold_cv(ds, [(1.0, 1.0, 10.0)], SolverConfig(lam=1.0, tau=1.0), k=5, fold_seed=8)
        assert report.failures == () and len(traces) == 15
        assert all(t.certificate.exit in ("converged", "zero") and max(t.residuals, default=0.0) < 1.0
                   for t in traces)

    @pytest.mark.parametrize("radius", [1e-9, 1e-6])
    def test_tiny_radii_exit_feasible_and_certified(self, radius):
        # With the step at the centre's rms entry, 1e-9 stopped after one
        # sweep 1.71 tau outside the spectral ball, and 1e-6 stalled there at
        # any tol.  Now each exit is feasible to rounding, and it is
        # converged only with a certified gap: here the centre's own bound
        # ||c||_1 - mn lam + ||c||_* - min(m, n) tau certifies it.
        center = np.random.default_rng(0).normal(size=(6, 8))
        cfg = base_cfg(lam=radius, tau=radius, tol=1e-8, max_iter=20000)
        w, trace = solve_subproblem(1, center, (6, 8), cfg)
        cert = trace.certificate
        _, _, g_inf, g_spec = objective_and_gaps(w, ConstraintCenter(center, radius, radius))
        rounding = 4 * np.finfo(float).eps * float(np.max(np.abs(center)))
        assert max(g_inf, g_spec, cert.linf_violation, cert.spectral_violation) <= rounding
        if cert.exit == "converged":
            assert 0.0 <= cert.gap <= cfg.tol * cert.objective
        else:
            assert cert.exit == "max_iter" and len(trace) == cfg.max_iter
        assert cert.exit == "converged" and len(trace) <= 10

    def test_radii_past_the_double_range_at_unit_scale(self):
        center = np.random.default_rng(0).normal(size=(6, 8))
        # Radii that overflow at unit scale are infinite there: 0 is the answer.
        w, trace = solve_subproblem(1, center * 1e-10, (6, 8), base_cfg(lam=1e305, tau=1e305))
        assert trace.certificate.exit == "zero" and not w.any()
        # Radii that underflow at unit scale act as the smallest positive double there.
        k = 1 - math.frexp(float(np.max(np.abs(4 * center))))[1]
        w, trace = solve_subproblem(1, 4 * center, (6, 8), base_cfg(lam=5e-324, tau=5e-324))
        smallest = math.ldexp(5e-324, -k)
        wu, unit = solve_subproblem(1, 4 * center, (6, 8), base_cfg(lam=smallest, tau=smallest))
        assert k < 0 and trace.certificate.exit == "converged"
        np.testing.assert_array_equal(w.view(np.uint64), wu.view(np.uint64))
        assert trace == unit

    @pytest.mark.parametrize("k", [-1000, -600, -400, -40, -20, -6, 0, 6, 20, 40, 400, 600, 1000])
    def test_scaled_problem_has_the_scaled_answer(self, k):
        # Scaling (c, lam, tau) by s scales the optimum by s; with a power of
        # two, every iterate scales exactly, so the run is the same bit for bit.
        center = np.random.default_rng(0).normal(size=(10, 50)) * 0.3
        s = 2.0**k
        w, trace = solve_subproblem(1, center, (10, 50), base_cfg(lam=0.1, tau=1.0))
        ws, scaled = solve_subproblem(1, s * center, (10, 50), base_cfg(lam=0.1 * s, tau=s))
        assert len(trace) > 1 and trace.certificate.exit == "converged"
        np.testing.assert_array_equal((ws / s).view(np.uint64), w.view(np.uint64))
        assert scaled.residuals == trace.residuals
        cert = scaled.certificate
        assert replace(
            cert,
            objective=cert.objective / s,
            linf_violation=cert.linf_violation / s,
            spectral_violation=cert.spectral_violation / s,
            gap=cert.gap / s,
        ) == trace.certificate

    def test_tiny_centre_is_solved_at_unit_scale(self):
        # Entries near 1e-170 square to 0, so an unscaled step or ||y|| would
        # underflow; the answer is the unit-scale answer scaled back exactly.
        center = np.random.default_rng(0).standard_normal((6, 8)) * 1e-170
        k = 1 - math.frexp(float(np.max(np.abs(center))))[1]
        w, trace = solve_subproblem(1, center, (6, 8), base_cfg(lam=1e-171, tau=1e-171))
        wu, unit = solve_subproblem(1, np.ldexp(center, k), (6, 8),
                                    base_cfg(lam=math.ldexp(1e-171, k), tau=math.ldexp(1e-171, k)))
        assert 1.0 <= np.max(np.abs(np.ldexp(center, k))) < 2.0
        assert len(unit) > 1 and unit.certificate.exit == "converged"
        np.testing.assert_array_equal(np.ldexp(wu, -k).view(np.uint64), w.view(np.uint64))
        assert trace.residuals == unit.residuals
        cert = unit.certificate
        assert trace.certificate == replace(
            cert,
            objective=math.ldexp(cert.objective, -k),
            linf_violation=math.ldexp(cert.linf_violation, -k),
            spectral_violation=math.ldexp(cert.spectral_violation, -k),
            gap=math.ldexp(cert.gap, -k),
        )


def c_sum(a):
    """The sum of the entries of ``a`` in C order."""
    return float(np.sum(np.ravel(a, order="C")))


def l1_box_conjugate_reference(z, ctr):
    """Conjugate of ``||w||_1`` on the l-inf ball, at ``z``, with ``lam`` finite.

    ``z u - |u|`` is concave and piecewise linear in ``u``, so its supremum
    over ``[a, b] = [c - lam, c + lam]`` is reached at ``a`` or at ``b``, or at
    the kink 0 when ``a <= 0 <= b``.
    """
    assert math.isfinite(ctr.lam)
    a, b = ctr.c - ctr.lam, ctr.c + ctr.lam
    ends = np.maximum(z * a - np.abs(a), z * b - np.abs(b))
    return c_sum(np.where((a <= 0.0) & (b >= 0.0), np.maximum(ends, 0.0), ends))


def certificate_reference(y, p, ctr, step, tol, k):
    """The exit ``(x, certificate)`` of a sweep, computed from its definition one term at a time.

    The terms are ``||w||_1`` on the l-inf ball, ``||w||_*`` and the spectral
    ball's indicator; ``lam`` must be finite.  ``x`` is the better, by
    objective, of ``p1`` and ``p3`` each drawn along the segment to the
    centre into both balls.  ``k`` is the unit-scale exponent of the centre,
    at which the exit's rounding floor of ``c.size`` ulps of 2 is taken.
    """
    best = None
    for point in (p[0], p[2]):
        d = point - ctr.c
        theta = 1.0
        if np.max(np.abs(d)) > ctr.lam:
            theta = min(theta, ctr.lam / float(np.max(np.abs(d))))
        if spectral_norm(d) > ctr.tau:
            theta = min(theta, ctr.tau / spectral_norm(d))
        x = ctr.c + theta * d if theta < 1.0 else point
        objective = c_sum(np.abs(x)) + nuclear_norm(x)
        if best is None or objective < best[0]:
            best = objective, x
    objective, x = best
    z = [(y_i - p_i) / step for y_i, p_i in zip(y, p)]
    z2 = z[1] / max(1.0, spectral_norm(z[1]))
    r = z[0] + z2 + z[2]
    into_z1 = (-l1_box_conjugate_reference(z[0] - r, ctr) - c_sum(ctr.c * z[2])
               - ctr.tau * nuclear_norm(z[2]))
    into_z3 = (-l1_box_conjugate_reference(z[0], ctr) + c_sum(ctr.c * (z[0] + z2))
               - ctr.tau * nuclear_norm(z[2] - r))
    dual = max(into_z1, into_z3)
    if objective - dual > tol * objective:
        # ||w||_1 >= ||c||_1 - mn lam and ||w||_* >= ||c||_* - min(m, n) tau for every feasible w.
        dual = max(dual, (c_sum(np.abs(ctr.c)) - ctr.c.size * ctr.lam)
                   + (nuclear_norm(ctr.c) - min(ctr.c.shape) * ctr.tau))
    gap = objective - dual
    floor = math.ldexp(ctr.c.size, -50 - k)
    return x, solver.Certificate(
        objective=objective,
        linf_violation=max(float(np.max(np.abs(x - ctr.c))) - ctr.lam, 0.0),
        spectral_violation=max(spectral_norm(x - ctr.c) - ctr.tau, 0.0),
        gap=gap,
        exit="converged" if 0.0 <= gap <= max(tol * objective, floor) else "max_iter",
    )


def _feasible_points(center, lam, tau, r):
    """The centre, and random points clamped into the l-inf ball then scaled into the spectral one."""
    points = [center]
    for scale in (0.1, 1.0, 10.0):
        d = np.clip(scale * r.normal(size=center.shape), -lam, lam)
        points.append(center + d * min(1.0, tau / np.linalg.norm(d, 2)))
    return points


def consensus_of_last_plain_step(y, p):
    """The mean of the copies after the plain step of the sweep ``(y, p)``."""
    y, p = np.stack(y), np.stack(p)
    d = (2.0 * p.sum(axis=0) - y.sum(axis=0)) / 3 - p
    return (y + solver._RHO * d).sum(axis=0) / 3


class TestCertificate:
    """The exit certificate and the certified loop against their definitions, and against the primal problem."""

    CONSTANTS = (solver._FIRST_CHECK, solver._NEXT_CHECK, solver._RECHECK)

    @staticmethod
    def _ops(center, cfg):
        """``(ctr, step, ops)`` of the three-copy splitting around ``center``."""
        ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
        # The centre's rms entry, capped by the larger radius's rms entry and
        # floored at one ulp of the centre's largest entry scaled into [1, 2),
        # times the step factor.
        rms = float(np.linalg.norm(center)) / math.sqrt(center.size)
        floor = math.ldexp(2.0**-52, math.frexp(float(np.max(np.abs(center))))[1] - 1)
        step = solver._STEP_FACTOR * max(min(rms, max(cfg.lam, cfg.tau / math.sqrt(max(center.shape)))),
                                         floor)
        ops = (
            lambda w: project_linf_ball(prox_l1(w, step), ctr),
            lambda w: prox_nuclear(w, step),
            lambda w: project_spectral_ball(w, ctr),
        )
        return ctr, step, ops

    def _reference(self, center, cfg, carry=False):
        """``(x, residuals, certificate, carried)`` of the reference loop on ``center``."""
        ctr, step, ops = self._ops(center, cfg)
        k = 1 - math.frexp(float(np.max(np.abs(center))))[1]

        def certify(y, p):
            cert = certificate_reference(y, p, ctr, step, cfg.tol, k)[1]
            return cert.exit == "converged", cfg.tol * cert.objective / cert.gap if cert.gap > 0.0 else 0.0

        residuals, y, p, carried = certified_ppxa_reference(
            center, ops, solver._RHO, cfg.max_iter, certify, self.CONSTANTS, carry)
        x, certificate = certificate_reference(y, p, ctr, step, cfg.tol, k)
        return x, residuals, certificate, carried

    @staticmethod
    def _instance(kind):
        r = np.random.default_rng(6 if kind in ("converged", "tight") else 5)
        if kind == "full_rank":
            return r.normal(size=(10, 50)), base_cfg(lam=0.1, tau=0.1, tol=1e-12, max_iter=40)
        if kind == "rank_two":
            # A rank-deficient centre.
            return (r.normal(size=(10, 2)) @ r.normal(size=(2, 50)),
                    base_cfg(lam=0.1, tau=0.1, tol=1e-12, max_iter=40))
        if kind == "tight":
            # A long run: 209 sweeps to a converged exit.
            return r.normal(size=(6, 8)), base_cfg(lam=0.3, tau=1.0, tol=1e-8, max_iter=2000)
        return r.normal(size=(6, 8)), base_cfg(lam=0.3, tau=1.0)

    @pytest.mark.parametrize("kind", ["full_rank", "rank_two"])
    def test_matches_direct_computation(self, kind, monkeypatch):
        center, cfg = self._instance(kind)
        lapack, per_certificate = [], []
        singular_values = sltr.linalg.singular_values
        monkeypatch.setattr(sltr.linalg, "singular_values",
                            lambda a: lapack.append(1) or singular_values(a))
        certificate_of = solver._certificate

        def counting(*args):
            before = len(lapack)
            out = certificate_of(*args)
            per_certificate.append(len(lapack) - before)
            return out

        monkeypatch.setattr(solver, "_certificate", counting)
        w, trace = solve_subproblem(1, center, (10, 50), cfg)
        lapack_calls = len(lapack)
        x, residuals, certificate, _ = self._reference(center, cfg)

        assert len(trace) == cfg.max_iter and trace.certificate.exit == "max_iter"
        assert trace.residuals == tuple(residuals)
        np.testing.assert_array_equal(w.view(np.uint64), x.view(np.uint64))
        assert repr(trace.certificate) == repr(certificate)
        # Checks in mid-run, and the sweeps make no LAPACK call: each certificate
        # takes the spectral norms of p1 - c and p3 - c, the nuclear norms of the
        # two drawn-in points, the spectral norm of the chosen one's distance to
        # c when it was drawn in, and the spectral norm of z2 and the nuclear
        # norms of z3 and z3 - r; the first failed gap adds the centre's.
        assert len(per_certificate) > 2 and sum(per_certificate) == lapack_calls
        assert set(per_certificate) <= {7, 8, 9}

    def test_converged_run_matches_reference(self):
        center, cfg = self._instance("converged")
        w, trace = solve_subproblem(1, center, (6, 8), cfg)
        x, residuals, certificate, _ = self._reference(center, cfg)
        assert 1 < len(trace) < cfg.max_iter and trace.certificate.exit == "converged"
        assert trace.residuals == tuple(residuals)
        np.testing.assert_array_equal(w.view(np.uint64), x.view(np.uint64))
        assert repr(trace.certificate) == repr(certificate)

    def test_long_run_matches_reference(self):
        center, cfg = self._instance("tight")
        w, trace = solve_subproblem(1, center, (6, 8), cfg)
        x, residuals, certificate, _ = self._reference(center, cfg)
        assert len(trace) > 200 and trace.certificate.exit == "converged"
        assert trace.residuals == tuple(residuals)
        np.testing.assert_array_equal(w.view(np.uint64), x.view(np.uint64))
        assert repr(trace.certificate) == repr(certificate)

    @pytest.mark.parametrize("kind", ["full_rank", "rank_two", "converged", "tight"])
    def test_agrees_with_the_carried_consensus_recursion(self, kind, monkeypatch):
        # The mean of the copies is the iterate that the paper's recursion
        # carries.  Late residuals differ by rounding (cancellation in the
        # step), so the sweeps and the consensus iterate of the last sweep are
        # compared, not the residuals.  The instances of the tests above.
        center, cfg = self._instance(kind)
        sweeps, certificate_of = [], solver._certificate
        monkeypatch.setattr(solver, "_certificate",
                            lambda problem, y, p, tol: sweeps.append((y.copy(), p))
                            or certificate_of(problem, y, p, tol))
        _, trace = solve_subproblem(1, center, center.shape, cfg)
        k = 1 - math.frexp(float(np.max(np.abs(center))))[1]
        x = np.ldexp(consensus_of_last_plain_step(*sweeps[-1]), -k)
        _, residuals, _, carried = self._reference(center, cfg, carry=True)
        assert len(trace) == len(residuals)
        assert np.linalg.norm(x - carried) <= 1e-13 * np.linalg.norm(carried)

    @pytest.mark.parametrize("seed", [1, 2, 6])
    def test_certificate_does_not_depend_on_memory_layout(self, seed):
        # np.sum of the same entries in C and in F order can differ in the
        # last bit (it does for |c| at these seeds); the certificate's sums
        # read every matrix in C order.
        r = np.random.default_rng(seed)
        center = r.normal(size=(9, 40))
        assert float(np.sum(np.abs(center))) != float(np.sum(np.abs(np.asfortranarray(center))))
        problem = solver._unit_problem(1, center, (9, 40), base_cfg(lam=0.2, tau=1.0))
        y = np.stack([problem.ctr.c + 0.1 * r.normal(size=(9, 40)) for _ in range(3)])
        p, _ = solver._sweep(problem, y)
        exits = []
        for order in "CF":
            ctr = ConstraintCenter(np.asarray(problem.ctr.c, order=order), problem.ctr.lam,
                                   problem.ctr.tau)
            x, cert = solver._certificate(replace(problem, ctr=ctr), np.asarray(y, order=order),
                                          np.asarray(p, order=order), 1e-2)
            exits.append((x.tobytes(), repr(cert), objective_and_gaps(np.asarray(y[0], order=order), ctr)))
        assert exits[0] == exits[1]

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        lam=st.floats(1e-3, 3.0),
        tau=st.floats(1e-3, 6.0),
        max_iter=st.integers(1, 60),
    )
    def test_weak_duality(self, seed, shape, lam, tau, max_iter):
        # Stopped at any sweep, the dual value lies below the objective of every feasible point.
        r = np.random.default_rng(seed)
        center = r.normal(size=shape) * r.uniform(0.1, 5.0)
        cfg = base_cfg(lam=lam, tau=tau, max_iter=max_iter)
        _, trace = solve_subproblem(1, center, shape, cfg)
        cert = trace.certificate
        dual = cert.objective - cert.gap
        for w in _feasible_points(center, lam, tau, r):
            primal = float(np.sum(np.abs(w))) + float(np.sum(np.linalg.svd(w, compute_uv=False)))
            assert dual <= primal + 1e-9 * max(1.0, primal)

    @pytest.mark.parametrize("lam,tau", [(math.inf, 1.0), (0.5, math.inf)])
    def test_infinite_radius_leaves_a_finite_gap(self, lam, tau):
        # The dual of an unbounded ball must be 0, and costs nothing there.
        center = np.random.default_rng(3).normal(size=(4, 5))
        cfg = base_cfg(lam=lam, tau=tau, tol=1e-8, max_iter=5000)
        _, trace = solve_subproblem(1, center, (4, 5), cfg)
        assert trace.certificate.exit == "converged"
        assert abs(trace.certificate.gap) <= 1e-7 * trace.certificate.objective

    # Bounds stated for tol = 1e-8 on these instances: each violation within
    # tol * ||c||_F, and the gap within tol * objective either way.
    @pytest.mark.parametrize(
        "name,lam,tau",
        [
            ("spectral_ball_binds", 10.0, 1.0),
            ("both_balls_bind", 0.5, 1.0),
            ("tiny_radii_pin_to_centre", 1e-6, 1e-6),
        ],
    )
    def test_exit_bounds_on_fixed_instances(self, name, lam, tau):
        center = np.random.default_rng(21).normal(size=(6, 8))
        tol = 1e-8
        cfg = base_cfg(lam=lam, tau=tau, tol=tol, max_iter=20000)
        w, trace = solve_subproblem(1, center, (6, 8), cfg)
        cert = trace.certificate
        assert cert.exit == "converged"
        assert max(cert.linf_violation, cert.spectral_violation) <= tol * np.linalg.norm(center)
        assert abs(cert.gap) <= tol * cert.objective
        s = np.linalg.svd(w - center, compute_uv=False)
        if name == "spectral_ball_binds":
            assert s[0] >= tau - tol * np.linalg.norm(center)
            assert np.max(np.abs(w - center)) < lam / 2
        if name == "tiny_radii_pin_to_centre":
            # The step is capped by the radii: at the centre's rms entry this
            # instance runs all 20,000 sweeps and ends 1.7 tau outside the ball.
            assert len(trace) <= 100
            assert np.max(np.abs(w - center)) <= 2 * lam
            l1_nuclear = np.sum(np.abs(center)) + np.sum(np.linalg.svd(center, compute_uv=False))
            assert cert.objective == pytest.approx(l1_nuclear, rel=1e-5)


def four_copy_reference(center, cfg, step):
    """Objective and duality gap of the four-copy splitting, the l-inf ball a term of its own.

    Runs :func:`ppxa_reference` on ``prox_l1`` and ``prox_nuclear`` with prox
    step ``step``, and the two projections.  The dual of that splitting:
    maximise ``-<c, z3 + z4> - lam ||z3||_1 - tau ||z4||_*`` over
    ``||z1||_inf <= 1``, ``||z2||_spec <= 1`` and ``z1 + z2 + z3 + z4 = 0``;
    ``z1`` is clamped, ``z2`` scaled, and the residual absorbed into ``z3``
    or ``z4``.
    """
    ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
    ops = (
        lambda w: prox_l1(w, step),
        lambda w: prox_nuclear(w, step),
        lambda w: project_linf_ball(w, ctr),
        lambda w: project_spectral_ball(w, ctr),
    )
    x, _, y, p = ppxa_reference(center, ops, solver._RHO, cfg.tol, cfg.max_iter)
    z = [(y_i - p_i) / step for y_i, p_i in zip(y, p)]
    z1 = np.clip(z[0], -1.0, 1.0)
    z2 = z[1] / max(1.0, spectral_norm(z[1]))
    r = z1 + z2 + z[2] + z[3]
    linear = float(np.sum(ctr.c * (z1 + z2)))
    into_z3 = linear - ctr.lam * float(np.sum(np.abs(z[2] - r))) - ctr.tau * nuclear_norm(z[3])
    into_z4 = linear - ctr.lam * float(np.sum(np.abs(z[2]))) - ctr.tau * nuclear_norm(z[3] - r)
    objective = float(np.sum(np.abs(x))) + nuclear_norm(x)
    return objective, objective - max(into_z3, into_z4)


class TestThreeCopySplitting:
    """The l1 prox and the l-inf clamp as one term: the four-copy optimum, in fewer sweeps."""

    @staticmethod
    def _case(name):
        """``(m, center, dims, cfg)`` of a mode subproblem at tol 1e-8."""
        if name == "lambda_binds_10x10x5":
            # The (0.1, 1, 1) cell of the benchmark's cv_10x10x5 dataset 0, mode 1.
            ds, _ = generate(SimSpec(dims=(10, 10, 5), n=40, seed=0))
            m, lam = 1, 0.1
        else:
            # Mode 3 of the benchmark's fit_30x30x10 dataset, seed 0.
            ds, _ = generate(SimSpec(dims=(30, 30, 10), n=720, seed=0))
            m, lam = 3, 1.0
        bb = backbone(ds.x, ds.y, 1.0, ds.dims)
        cfg = SolverConfig(lam=lam, tau=1.0, tol=1e-8, max_iter=20000)
        return m, unfold(bb.tensor, m), ds.dims, cfg

    @pytest.mark.parametrize("name", ["lambda_binds_10x10x5", "seed0_30x30x10_mode3"])
    def test_same_optimum_as_four_copy_oracle(self, name):
        m, center, dims, cfg = self._case(name)
        _, trace = solve_subproblem(m, center, dims, cfg)
        cert = trace.certificate
        objective, gap = four_copy_reference(center, cfg, step=1.0)
        assert cert.exit == "converged"
        # Each objective lies above the optimum and each dual value below it,
        # so each objective is within its own gap above the other.
        assert -gap <= cert.objective - objective <= cert.gap

    def test_few_sweeps_where_the_linf_ball_binds(self):
        # The four-copy splitting takes 5,661 sweeps here.
        m, center, dims, cfg = self._case("lambda_binds_10x10x5")
        _, trace = solve_subproblem(m, center, dims, cfg)
        assert trace.certificate.exit == "converged" and len(trace) <= 400


def _signed_permutation(n, r):
    return np.eye(n)[r.permutation(n)] * r.choice([-1.0, 1.0], size=n)


class TestExactOptimum:
    """The solver against a closed-form optimum: centres ``c = P D Q``.

    ``P`` and ``Q`` are random signed permutation matrices and ``D`` is
    rectangular diagonal, with diagonal ``d``.  Let ``mu = min(lam, tau)``.
    The unique optimum is ``w* = P soft(D, mu) Q``, with objective
    ``f* = 2 sum_i max(|d_i| - mu, 0)``.  Proof: signed permutations keep
    the l1, nuclear, l-infinity and spectral norms, so take ``P = Q = I``.
    For any feasible ``w``, ``|w_ii - d_i|`` is at most ``||w - c||_inf <= lam``
    and at most ``|e_i' (w - c) e_i| <= ||w - c||_spec <= tau``, so
    ``|w_ii| >= max(|d_i| - mu, 0)``.  Both ``||w||_1`` and ``||w||_*`` are at
    least ``sum_i |w_ii| = <S, w>``, ``S`` the diagonal signs of ``w`` (the
    second since ``||S||_spec <= 1``), so the objective is at least ``f*``.
    ``soft(D, mu)`` is feasible, since ``D - soft(D, mu)`` is diagonal with
    entries of size at most ``mu``, and it reaches ``f*``.  Equality in
    ``||w||_1 >= sum_i |w_ii|`` forces every off-diagonal entry to 0, and then
    each ``w_ii`` is the point of ``[d_i - mu, d_i + mu]`` nearest 0: the
    optimum is unique.  Here ``d`` runs from 3 down by factors of 0.6, so
    ``|d_1| > mu`` makes 0 infeasible, and on the 6 x 9 shapes some ``d_i``
    fall below ``mu`` and are answered with 0.  The tall and 1-column shapes
    run the spectral kernel on the transpose of a wide matrix.
    """

    SHAPES = {"wide": (6, 9), "tall": (9, 6), "row": (1, 7), "column": (7, 1)}
    RADII = {"lam<tau": (0.5, 1.0), "lam>tau": (1.0, 0.5), "lam=tau": (0.7, 0.7),
             "lam=inf": (math.inf, 0.8), "tau=inf": (0.8, math.inf)}

    def solve(self, shape, radii, k, tol):
        """``(w, w*, f*, objective, gap)``, solved scaled by ``2**k`` and scaled back."""
        m, n = self.SHAPES[shape]
        r = np.random.default_rng(m * 10 + n)
        d = 3.0 * 0.6 ** np.arange(min(m, n))  # 3 down to 0.23
        mu = min(self.RADII[radii])
        p, q = _signed_permutation(m, r), _signed_permutation(n, r)
        diag = np.zeros((m, n))
        np.fill_diagonal(diag, d)
        w_star = p @ (np.sign(diag) * np.maximum(np.abs(diag) - mu, 0.0)) @ q
        f_star = 2.0 * float(np.sum(np.maximum(d - mu, 0.0)))
        lam, tau = (math.ldexp(v, k) for v in self.RADII[radii])
        cfg = SolverConfig(lam=lam, tau=tau, tol=tol, max_iter=20000)
        w, trace = solve_subproblem(1, np.ldexp(p @ diag @ q, k), (m, n), cfg)
        cert = trace.certificate
        assert cert.exit == "converged"
        objective, gap = (math.ldexp(v, -k) for v in (cert.objective, cert.gap))
        return np.ldexp(w, -k), w_star, f_star, objective, gap

    # 1e-9 reaches 1.1e-9 at worst, and the default 1e-3 reaches 1.0e-3.
    @pytest.mark.parametrize("k", [0, 300, -300, 700, -700])
    @pytest.mark.parametrize("radii", RADII)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_tight_solve_reaches_the_optimum(self, shape, radii, k):
        w, w_star, f_star, objective, gap = self.solve(shape, radii, k, tol=1e-9)
        assert np.linalg.norm(w - w_star) <= 1e-8 * np.linalg.norm(w_star)
        # Every dual value lies below f*, so the objective is within its own gap above it.
        assert -1e-8 * f_star <= objective - f_star <= gap

    @pytest.mark.parametrize("radii", RADII)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_default_tol_is_within_a_percent(self, shape, radii):
        w, w_star, *_ = self.solve(shape, radii, 0, tol=SolverConfig(1.0, 1.0).tol)
        assert np.linalg.norm(w - w_star) <= 1e-2 * np.linalg.norm(w_star)


class TestFit:
    def _dataset(self, seed=1, dims=(6, 5, 4), n=40):
        ds, _ = generate(SimSpec(dims=dims, n=n, sparsity_pct=80.0, noise_alpha=0.1, seed=seed))
        return ds

    def test_tiny_radii_pin_to_backbone(self):
        ds = self._dataset()
        cfg = base_cfg(lam=1e-12, tau=1e-12, epsilon=1.0)
        result = fit(ds, cfg, threads=1)
        bb = backbone(ds.x, ds.y, cfg.epsilon, ds.dims)
        assert np.max(np.abs(result.w_hat.data - bb.tensor.data)) <= 1e-8

    def test_zero_coefficient_noiseless(self):
        ds, w_star = generate(SimSpec(dims=(3, 4), n=10, sparsity_pct=100.0, noise_alpha=0.0, seed=2))
        assert not w_star.data.any()
        result = fit(ds, base_cfg())
        np.testing.assert_array_equal(result.w_hat.data, np.zeros(12))
        assert result.iterations_used == (0, 0)
        assert [c.exit for c in result.certificates] == ["zero", "zero"]

    def test_parallel_and_sequential_bit_identical(self):
        ds = self._dataset(seed=3)
        cfg = base_cfg(lam=0.2, tau=0.6)
        seq = fit(ds, cfg, threads=1)
        par = fit(ds, cfg, threads=4)
        assert np.array_equal(seq.w_hat.data, par.w_hat.data)
        for a, b in zip(seq.per_mode, par.per_mode):
            assert np.array_equal(a.data, b.data)
        assert seq.trace == par.trace
        assert repr(seq.trace) == repr(par.trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_divergence_names_its_mode(self, threads, monkeypatch):
        # Mode 2 of 6 x 5 x 4 is the only 5 x 24 unfolding: an inf in its clamp
        # makes the first sweep's residual non-finite.
        def clamp_failing_on_mode_2(v, ctr):
            out = project_linf_ball(v, ctr)
            if out.shape == (5, 24):
                out[0, 0] = np.inf
            return out

        monkeypatch.setattr(solver, "project_linf_ball", clamp_failing_on_mode_2)
        with pytest.raises(DivergenceError) as err:
            fit(self._dataset(), base_cfg(), threads=threads)
        assert str(err.value) == "mode 2: non-finite residual at iteration 1"
        assert err.value.trace == []

    def test_averaging_identity(self):
        ds = self._dataset(seed=4)
        result = fit(ds, base_cfg(lam=0.3, tau=0.9))
        mean = np.mean([t.data for t in result.per_mode], axis=0)
        np.testing.assert_allclose(result.w_hat.data, mean, rtol=0, atol=1e-15)

    def test_feasibility_at_convergence(self):
        ds = self._dataset(seed=5)
        cfg = base_cfg(lam=0.25, tau=0.8, tol=1e-9, max_iter=20000)
        result = fit(ds, cfg)
        bb = backbone(ds.x, ds.y, cfg.epsilon, ds.dims)
        for m, w_m in enumerate(result.per_mode, start=1):
            ctr = ConstraintCenter(unfold(bb.tensor, m), cfg.lam, cfg.tau)
            _, _, g_inf, g_spec = objective_and_gaps(unfold(w_m, m), ctr)
            assert g_inf <= 1e-6 and g_spec <= 1e-6

    def test_trace_and_convergence_metadata(self):
        ds = self._dataset(seed=6)
        cfg = base_cfg(lam=0.3, tau=0.9, tol=1e-3, max_iter=1000)
        result = fit(ds, cfg)
        assert all(result.converged)
        for mode_trace, used in zip(result.trace, result.iterations_used):
            assert len(mode_trace) == used == len(mode_trace.residuals)
            cert = mode_trace.certificate
            assert cert.exit == "converged"
            # Converged means certified: the gap is a true bound within tol of the objective.
            assert 0.0 <= cert.gap <= cfg.tol * cert.objective

    def test_max_iter_exit_reports_not_converged(self):
        ds = self._dataset(seed=7)
        result = fit(ds, base_cfg(lam=0.2, tau=0.5, tol=1e-14, max_iter=3))
        assert result.iterations_used == (3, 3, 3)
        assert not any(result.converged)
        assert [c.exit for c in result.certificates] == ["max_iter"] * 3

    @pytest.mark.parametrize("lam,tau", [(0.1, 1.0), (0.5, 0.5)])
    def test_tight_fit_is_certified_optimal(self, lam, tau):
        # Each mode's exit certificate shows a feasible answer within 1e-8 of
        # the optimum: the end-to-end optimality check that needs no outside solver.
        ds, _ = generate(SimSpec(dims=(6, 5, 4), n=30, seed=0))
        result = fit(ds, base_cfg(lam=lam, tau=tau, tol=1e-9, max_iter=20000))
        for cert in result.certificates:
            assert cert.exit == "converged"
            assert cert.linf_violation <= 1e-8 * lam
            assert cert.spectral_violation <= 1e-8 * tau
            assert abs(cert.gap) <= 1e-8 * cert.objective

    @pytest.fixture(scope="class")
    def seed0_fits(self):
        # The 30x30x10 dataset and settings of the benchmark's fit workload, seed 0.
        ds, _ = generate(SimSpec(dims=(30, 30, 10), n=720, seed=0))
        bb = backbone(ds.x, ds.y, 1.0, ds.dims)
        fits = {tol: fit(ds, SolverConfig(lam=1.0, tau=1.0, epsilon=1.0, tol=tol))
                for tol in (1e-3, 1e-4)}
        return bb, fits

    def test_seed0_fit_meets_its_constraints(self, seed0_fits):
        # Stopping on the consensus iterate alone let mode 3 stop at sweep 4,
        # outside its spectral ball by 2.31; stopping on the residual left it
        # 0.0029 outside.  Each answer is now drawn into both balls, so every
        # violation is rounding of the radius 1.
        bb, fits = seed0_fits
        for tol, result in fits.items():
            for m, (w_m, cert) in enumerate(zip(result.per_mode, result.certificates), start=1):
                ctr = ConstraintCenter(unfold(bb.tensor, m), 1.0, 1.0)
                _, _, g_inf, g_spec = objective_and_gaps(unfold(w_m, m), ctr)
                assert (max(g_inf, 0.0), max(g_spec, 0.0)) == (
                    cert.linf_violation, cert.spectral_violation)
                assert max(g_inf, g_spec) <= 4 * np.finfo(float).eps
                assert cert.exit == "converged" and 0.0 <= cert.gap <= tol * cert.objective


class TestGramReuse:
    """Every fit of a dataset after the first at an epsilon takes its kept backbone, same bits."""

    # P <= N gives the primal system, P > N the dual one.
    SHAPES = {"primal": ((3, 3, 2), 40), "dual": ((6, 5, 4), 40)}

    def _dataset(self, shape, seed=3):
        dims, n = self.SHAPES[shape]
        return generate(SimSpec(dims=dims, n=n, seed=seed))[0]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("shape", ["primal", "dual"])
    def test_warm_fit_equals_a_fit_on_a_fresh_dataset(self, shape, threads):
        ds = self._dataset(shape)
        cfg = base_cfg(lam=0.2, tau=0.6)
        fit(ds, cfg, threads=threads)  # keeps the backbone on ds
        warm = fit(ds, cfg, threads=threads)
        cold = fit(Dataset(ds.dims, ds.x, ds.y), cfg, threads=threads)
        assert same_bits(warm.w_hat.data, cold.w_hat.data)
        assert all(same_bits(a.data, b.data) for a, b in zip(warm.per_mode, cold.per_mode))
        assert repr(warm.trace) == repr(cold.trace)

    def _fit_all_at_once(self, ds, cfg, count):
        """The results of ``count`` threads that fit ``ds`` at the same moment."""
        start, results = threading.Barrier(count), [None] * count

        def run(i):
            start.wait(timeout=30)
            results[i] = fit(ds, cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        return results

    @pytest.mark.parametrize("shape", ["primal", "dual"])
    def test_threads_fitting_a_fresh_dataset_at_once_all_get_the_same_bits(self, shape):
        # Threads that race to keep the backbone may each solve it; every one gets the same bits.
        ds = self._dataset(shape)
        cfg = base_cfg(lam=0.2, tau=0.6)
        results = self._fit_all_at_once(ds, cfg, 8)
        cold = fit(Dataset(ds.dims, ds.x, ds.y), cfg)
        for r in results:
            assert same_bits(r.w_hat.data, cold.w_hat.data)
            assert all(same_bits(a.data, b.data) for a, b in zip(r.per_mode, cold.per_mode))
            assert repr(r.trace) == repr(cold.trace)

    def _counting_backbone(self, monkeypatch):
        """The ``(N, epsilon)`` of every backbone that ``fit`` solves from now on."""
        real, made = solver.backbone, []

        def counting(x, y, epsilon, dims):
            made.append((x.shape[0], epsilon))
            return real(x, y, epsilon, dims)

        monkeypatch.setattr(solver, "backbone", counting)
        return made

    @pytest.mark.parametrize("cells,epsilons", [(1, (1.0,)), (3, (1.0,)), (4, (1.0, 0.5))],
                             ids=["1-cell", "3-cells-1-epsilon", "4-cells-2-epsilons"])
    def test_kfold_cv_makes_one_backbone_per_fold_and_epsilon(self, cells, epsilons, monkeypatch):
        made = self._counting_backbone(monkeypatch)
        ds = self._dataset("dual")
        grid = [(0.5 * (i + 1), 1.0, epsilons[i % len(epsilons)]) for i in range(cells)]
        kfold_cv(ds, grid, base_cfg(max_iter=50), k=4)
        # The folds train on 30 rows each, so (N, epsilon) pairs repeat across folds only.
        assert sorted(made) == sorted((30, e) for e in epsilons for _ in range(4))

    def test_datasets_made_from_a_fitted_one_solve_their_own(self, tmp_path, monkeypatch):
        ds = self._dataset("primal")
        fit(ds, base_cfg())
        sio.write_dataset(tmp_path / "d.ds", ds)
        made_from = [ds.subset(range(ds.n)), Dataset(ds.dims, ds.x, ds.y),
                     sio.read_dataset(tmp_path / "d.ds")]
        made = self._counting_backbone(monkeypatch)
        for other in [ds, *made_from]:
            fit(other, base_cfg())
        assert len(made) == len(made_from)

    def _cold_and_warm(self, ds):
        """The errors of a first and a second fit of ``ds``."""
        errors = []
        for _ in range(2):
            with pytest.raises(NumericalError) as err:
                fit(ds, base_cfg())
            errors.append(str(err.value))
        return errors

    @pytest.mark.parametrize("shape", ["primal", "dual"])
    def test_non_finite_design_raises_on_every_fit(self, shape):
        ds = self._dataset(shape)
        x = ds.x.copy()
        x[2, 1] = np.nan
        bad = Dataset(ds.dims, x, ds.y)
        assert self._cold_and_warm(bad) == ["backbone requires finite design and responses"] * 2

    @pytest.mark.parametrize("shape", ["primal", "dual"])
    def test_overflowing_ridge_system_raises_on_every_fit(self, shape):
        ds = self._dataset(shape)
        big = Dataset(ds.dims, 1e160 * ds.x, ds.y)
        errors = self._cold_and_warm(big)
        assert errors[0] == errors[1]
        assert errors[0].startswith("ridge system overflowed")


class TestFitSeconds:
    def test_one_time_for_the_backbone_and_one_per_mode(self):
        ds = generate(SimSpec(dims=(6, 5, 4), n=30, seed=0))[0]
        result = fit(ds, base_cfg())
        assert len(result.seconds) == 1 + len(ds.dims)
        assert all(isinstance(s, float) and 0.0 <= s < 60.0 for s in result.seconds)

    def test_times_take_no_part_in_equality_or_repr(self):
        ds = generate(SimSpec(dims=(6, 5, 4), n=30, seed=0))[0]
        result = fit(ds, base_cfg())
        assert replace(result, seconds=(-1.0,)) == result
        assert "seconds" not in repr(result)


class TestPredict:
    def test_zero_model(self):
        ds, _ = generate(SimSpec(dims=(3, 3), n=4, seed=8))
        w = Tensor.zeros((3, 3))
        np.testing.assert_array_equal(predict(w, ds.x), np.zeros(4))

    def test_self_normalized_sample(self):
        r = np.random.default_rng(9)
        w = Tensor((2, 3), r.normal(size=6))
        x = w.data / float(w.data @ w.data)
        assert predict(w, x[np.newaxis, :])[0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_vectorized_dot_oracle(self):
        r = np.random.default_rng(10)
        w = Tensor((3, 2, 2), r.normal(size=12))
        x = r.normal(size=(5, 12))
        expected = np.array([inner(w, Tensor(w.dims, row)) for row in x])
        np.testing.assert_array_equal(predict(w, x).view(np.uint64), expected.view(np.uint64))

    def test_dims_mismatch(self):
        w = Tensor.zeros((2, 2))
        with pytest.raises(ValueError):
            predict(w, np.zeros((1, 5)))

    def test_empty_iterable(self):
        out = predict(Tensor.zeros((2, 3)), np.zeros((0, 6)))
        assert out.dtype == np.float64 and out.shape == (0,)


class TestObjectiveAndGaps:
    def test_at_center(self):
        ctr = ConstraintCenter(np.ones((2, 3)), 0.5, 1.5)
        l1, nuc, g_inf, g_spec = objective_and_gaps(ctr.c, ctr)
        assert (g_inf, g_spec) == (-0.5, -1.5)
        assert l1 == 6.0

    def test_on_linf_boundary(self):
        ctr = ConstraintCenter(np.zeros((2, 2)), 0.5, 1.5)
        w = ctr.c + 0.5
        _, _, g_inf, _ = objective_and_gaps(w, ctr)
        assert g_inf == 0.0

    def test_matches_norm_oracles(self):
        r = np.random.default_rng(12)
        ctr = ConstraintCenter(r.normal(size=(3, 4)), 0.4, 0.9)
        w = r.normal(size=(3, 4))
        l1, nuc, g_inf, g_spec = objective_and_gaps(w, ctr)
        assert l1 == pytest.approx(np.sum(np.abs(w)), rel=1e-14)
        assert nuc == pytest.approx(np.sum(np.linalg.svd(w, compute_uv=False)), rel=1e-12)
        assert g_inf == pytest.approx(np.max(np.abs(w - ctr.c)) - 0.4, rel=1e-12)
        assert g_spec == pytest.approx(
            np.linalg.svd(w - ctr.c, compute_uv=False)[0] - 0.9, rel=1e-12
        )
