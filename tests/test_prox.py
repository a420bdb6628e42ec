import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltr.linalg import spectral_norm
from sltr.prox import (
    ConstraintCenter,
    project_linf_ball,
    project_spectral_ball,
    prox_l1,
    prox_nuclear,
)

from oracles import nuclear_subgradient_residual, scalar_prox_min


def _mat(seed, shape=(3, 3), scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=shape)


def _center(seed, shape=(3, 3), lam=0.5, tau=1.0):
    return ConstraintCenter(_mat(seed + 1000, shape), lam, tau)


class TestProxL1:
    def test_closed_form_entries(self):
        v = np.array([[2.0, -0.5], [0.0, 1.0]])
        out = prox_l1(v, 1.0)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_tiny_gamma_is_identity(self):
        v = _mat(0)
        assert np.max(np.abs(prox_l1(v, 1e-300) - v)) < 1e-12

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            prox_l1(_mat(1), 0.0)

    def test_matches_scalar_minimization_oracle(self):
        v = _mat(2, (3, 3))
        out = prox_l1(v, 0.7)
        oracle = scalar_prox_min(v, 0.7)
        np.testing.assert_allclose(out, oracle, atol=1e-9)

    def test_first_order_optimality(self):
        v = _mat(3, (4, 5), scale=2.0)
        gamma = 0.6
        p = prox_l1(v, gamma)
        r = v - p
        nz = p != 0
        np.testing.assert_allclose(r[nz], gamma * np.sign(p[nz]), atol=1e-12)
        assert np.all(np.abs(r[~nz]) <= gamma + 1e-12)


class TestProxNuclear:
    def test_diagonal(self):
        out = prox_nuclear(np.diag([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_large_gamma_zeroes(self):
        v = _mat(4, (3, 5))
        out = prox_nuclear(v, spectral_norm(v) + 0.1)
        np.testing.assert_allclose(out, np.zeros_like(v), atol=1e-12)

    def test_optimality_conditions(self):
        v = _mat(5, (4, 6))
        gamma = 0.5
        p = prox_nuclear(v, gamma)

        def objective(w):
            return gamma * np.sum(np.linalg.svd(w, compute_uv=False)) + 0.5 * np.sum((w - v) ** 2)

        assert objective(p) <= objective(v) + 1e-12
        assert objective(p) <= objective(np.zeros_like(v)) + 1e-12
        assert nuclear_subgradient_residual(v, p, gamma) < 1e-8


class TestProjectLinf:
    def test_feasible_unchanged(self):
        ctr = _center(6, lam=2.0)
        v = ctr.c + 0.5
        np.testing.assert_array_equal(project_linf_ball(v, ctr), v)

    def test_clipping(self):
        ctr = ConstraintCenter(np.zeros((1, 1)), 1.0, 1.0)
        assert project_linf_ball(np.array([[5.0]]), ctr)[0, 0] == 1.0

    def test_idempotent_and_feasible(self):
        ctr = _center(7, lam=0.3)
        v = _mat(8, scale=3.0)
        p = project_linf_ball(v, ctr)
        # membership in the clipped bounds is exact; |p - c| re-rounds by 1 ulp
        assert np.all(p >= ctr.c - ctr.lam) and np.all(p <= ctr.c + ctr.lam)
        np.testing.assert_array_equal(project_linf_ball(p, ctr), p)

    def test_nearest_among_random_feasible_probes(self):
        r = np.random.default_rng(9)
        ctr = _center(9, lam=0.4)
        v = _mat(10, scale=2.5)
        p = project_linf_ball(v, ctr)
        d_p = np.linalg.norm(v - p)
        probes = ctr.c + ctr.lam * r.uniform(-1.0, 1.0, size=(200,) + ctr.c.shape)
        dists = np.linalg.norm(probes - v, axis=(1, 2))
        assert np.all(dists >= d_p - 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project_linf_ball(np.zeros((2, 2)), _center(11, (3, 3)))


class TestProjectSpectral:
    def test_feasible_unchanged(self):
        ctr = _center(12, tau=100.0)
        v = ctr.c + _mat(13, scale=0.1)
        # an early exit hands back the operand itself, not a copy
        assert project_spectral_ball(v, ctr) is v

    def test_diagonal_clipping(self):
        ctr = ConstraintCenter(np.zeros((2, 2)), 1.0, 2.0)
        v = np.diag([5.0, 1.0])
        out = project_spectral_ball(v, ctr)
        assert out is not v
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-12)

    def test_feasibility_idempotence_and_probes(self):
        r = np.random.default_rng(14)
        ctr = _center(14, (3, 5), tau=0.8)
        v = _mat(15, (3, 5), scale=2.0)
        p = project_spectral_ball(v, ctr)
        assert spectral_norm(p - ctr.c) <= ctr.tau + 1e-10
        again = project_spectral_ball(p, ctr)
        assert np.max(np.abs(again - p)) <= 1e-10
        d_p = np.linalg.norm(v - p)
        # random feasible probes: scale random offsets into the spectral ball
        for k in range(200):
            offset = r.normal(size=(3, 5))
            offset *= (ctr.tau * r.uniform()) / np.linalg.svd(offset, compute_uv=False)[0]
            probe = ctr.c + offset
            assert np.linalg.norm(probe - v) >= d_p - 1e-10

    def test_center_is_fixed_point_of_both(self):
        ctr = _center(16, lam=0.2, tau=0.5)
        np.testing.assert_array_equal(project_linf_ball(ctr.c, ctr), ctr.c)
        assert project_spectral_ball(ctr.c, ctr) is ctr.c


@pytest.mark.parametrize("k", [-700, -600, -300, 300, 600, 700])
def test_spectral_operators_scale_with_their_operands(k):
    # The two spectral operators commute with scaling by 2**k, far from unit
    # scale too, where a Gram product a a' would underflow or overflow.
    v = _mat(17, (5, 8))
    ctr = _center(17, (5, 8), tau=3.5)
    scaled = ConstraintCenter(np.ldexp(ctr.c, k), math.ldexp(ctr.lam, k), math.ldexp(ctr.tau, k))
    atol = 1e-12 * spectral_norm(v)
    shrunk = prox_nuclear(np.ldexp(v, k), math.ldexp(1.5, k))
    np.testing.assert_allclose(np.ldexp(shrunk, -k), prox_nuclear(v, 1.5), rtol=0, atol=atol)
    clipped = project_spectral_ball(np.ldexp(v, k), scaled)
    np.testing.assert_allclose(np.ldexp(clipped, -k), project_spectral_ball(v, ctr),
                               rtol=0, atol=atol)
    assert spectral_norm(np.ldexp(clipped - scaled.c, -k)) <= ctr.tau * (1 + 1e-10)


class TestMergedL1Term:
    """The solver's first operator, soft thresholding then the l-inf clamp, is one prox.

    It is the prox of ``gamma * ||.||_1`` plus the indicator of the l-inf ball:
    each entry minimises ``0.5 * (u - v)**2 + gamma * |u|`` over
    ``[c - lam, c + lam]``.  The minimiser of that convex function is the
    clipped stationary point of one of its pieces, or a kink, so it is one of
    the candidates ``a``, ``b``, 0 (when in the box) and ``clip(v -+ gamma)``.
    """

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(1e-3, 3.0),
        lam=st.floats(1e-3, 3.0),
        scale=st.floats(0.1, 5.0),
    )
    def test_each_entry_minimises_over_the_box(self, seed, gamma, lam, scale):
        r = np.random.default_rng(seed)
        v = scale * r.normal(size=(4, 5))
        ctr = ConstraintCenter(scale * r.normal(size=(4, 5)), lam, 1.0)
        u = project_linf_ball(prox_l1(v, gamma), ctr)
        a, b = ctr.c - lam, ctr.c + lam
        assert np.all((a <= u) & (u <= b))

        def cost(w):
            return 0.5 * (w - v) ** 2 + gamma * np.abs(w)

        candidates = [a, b, np.clip(0.0, a, b), np.clip(v - gamma, a, b), np.clip(v + gamma, a, b)]
        best = np.min([cost(w) for w in candidates], axis=0)
        assert np.all(cost(u) <= best + 1e-12 * (1.0 + best))


class TestNonExpansiveness:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2 ** 31))
    def test_all_four_operators(self, seed):
        r = np.random.default_rng(seed)
        shape = (4, 3)
        a = r.normal(size=shape)
        b = r.normal(size=shape)
        ctr = ConstraintCenter(r.normal(size=shape), 0.6, 1.1)
        pairs = [
            (prox_l1(a, 0.4), prox_l1(b, 0.4)),
            (prox_nuclear(a, 0.4), prox_nuclear(b, 0.4)),
            (project_linf_ball(a, ctr), project_linf_ball(b, ctr)),
            (project_spectral_ball(a, ctr), project_spectral_ball(b, ctr)),
        ]
        gap = np.linalg.norm(a - b)
        for pa, pb in pairs:
            assert np.linalg.norm(pa - pb) <= gap + 1e-10


class TestConstraintCenter:
    def test_radii_validation(self):
        with pytest.raises(ValueError):
            ConstraintCenter(np.zeros((2, 2)), 0.0, 1.0)
        with pytest.raises(ValueError):
            ConstraintCenter(np.zeros((2, 2)), 1.0, -1.0)

    def test_infinite_radii_accepted(self):
        ctr = ConstraintCenter(np.zeros((2, 2)), math.inf, math.inf)
        assert ctr.lam == ctr.tau == math.inf


@pytest.mark.parametrize("make", [
    lambda: ConstraintCenter(np.zeros((2, 2)), math.nan, 1.0),
    lambda: ConstraintCenter(np.zeros((2, 2)), 1.0, math.nan),
    lambda: prox_l1(_mat(1), math.nan),
    lambda: prox_nuclear(_mat(1), math.nan),
], ids=["center-lam", "center-tau", "prox_l1-gamma", "prox_nuclear-gamma"])
def test_nan_parameter_rejected(make):
    with pytest.raises(ValueError, match="must be positive"):
        make()
