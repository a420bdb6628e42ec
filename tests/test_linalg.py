import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import sltr.linalg
from sltr.exceptions import NumericalError
from sltr.linalg import (
    backbone,
    nuclear_norm,
    singular_values,
    spectral_norm,
    svd,
    tensor_nuclear_norm,
)
from sltr.tensor import Tensor, unfold

from oracles import same_bits


def _gram_singular_values(a):
    # independent path: the symmetric embedding [[0, A], [A', 0]] has
    # eigenvalues +/- the singular values of A
    n, p = a.shape
    block = np.zeros((n + p, n + p))
    block[:n, n:] = a
    block[n:, :n] = a.T
    evals = np.linalg.eigvalsh(block)
    return evals[::-1][: min(n, p)]


class TestSvd:
    # At threshold 0 the kernel keeps every nonzero singular triplet.
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]), above=0.0)
        np.testing.assert_allclose(f.s, [3.0, 1.0])

    def test_zeros(self):
        f = svd(np.zeros((3, 4)), above=0.0)
        assert f.s.shape == (0,) and f.u.shape == (3, 0) and f.v.shape == (4, 0)

    def test_reconstruction_and_ordering(self):
        r = np.random.default_rng(0)
        a = r.normal(size=(5, 7))
        f = svd(a, above=0.0)
        assert np.all(np.diff(f.s) <= 0) and np.all(f.s > 0)
        err = np.linalg.norm((f.u * f.s) @ f.v.T - a) / np.linalg.norm(a)
        assert err < 1e-10

    def test_sum_of_squares_is_squared_frobenius(self):
        r = np.random.default_rng(1)
        a = r.normal(size=(5, 7))
        assert np.sum(svd(a, above=0.0).s ** 2) == pytest.approx(np.sum(a * a), rel=1e-12)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.ones((2, 3))
            a[0, 0] = bad
            for above in (0.0, 0.5):
                with pytest.raises(NumericalError):
                    svd(a, above=above)
            with pytest.raises(NumericalError):
                nuclear_norm(a)


# Stated accuracy of the thresholded Gram kernel, as a multiple of ||A||_2:
# its soft-thresholded and clipped spectra and reconstructions.  eigh
# resolves an eigenvalue lam to a few ulps of lam_max, which costs about
# eps * sqrt(lam_max / lam) in the singular value; the kernel only uses
# eigenvalues above 1e-8 * lam_max, where that is eps * 1e4 ~ 2e-12.  The
# worst seen on these matrices is about 1e-13.
GRAM_TOL = 2e-12


def _with_spectrum(s, m, n, seed):
    """An m x n matrix whose singular values are ``s``, with random singular vectors."""
    r = np.random.default_rng(seed)
    u, _ = np.linalg.qr(r.normal(size=(m, len(s))))
    v, _ = np.linalg.qr(r.normal(size=(n, len(s))))
    return (u * np.asarray(s)) @ v.T


def _spectrum_at(t, offsets):
    """Singular values 1, 0.7, 0.2, 0.05 and ``t * (1 + d)`` for each offset ``d``, 0.2 < t < 0.7."""
    return sorted([1.0, 0.7, 0.2, 0.05] + [t * (1.0 + d) for d in offsets], reverse=True)


_R = np.random.default_rng(20)
ORACLE_MATRICES = {
    "tall": _R.normal(size=(40, 7)),
    "wide": _R.normal(size=(7, 40)),
    "one_row": _R.normal(size=(1, 30)),
    "one_column": _R.normal(size=(30, 1)),
    "zero": np.zeros((5, 8)),
    "rank3": _R.normal(size=(30, 3)) @ _R.normal(size=(3, 300)),
    "cond1e8": _with_spectrum(np.logspace(0, -8, 30), 30, 300, 21),
    "cond1e16": _with_spectrum(np.logspace(0, -16, 30), 300, 30, 22),
    "near_threshold": _with_spectrum(_spectrum_at(0.5, [1e-12]), 9, 40, 23),
    "cluster": _with_spectrum(_spectrum_at(0.5, [k * 1e-13 for k in range(-3, 4)] + [0.0] * 3),
                              40, 16, 24),
}
# Scaled by 2**k, the Gram product underflows (k = -600, -700) or overflows (600, 700);
# so does a a' of a matrix with one huge entry among small ones.
ORACLE_MATRICES.update({f"wide_2^{k}": np.ldexp(ORACLE_MATRICES["wide"], k)
                        for k in (-700, -600, -300, 300, 600, 700)})
ORACLE_MATRICES["huge_entry"] = np.array([[1e200, 0.0, 0.0], [1.0, 2.0, 3.0]])
# Where the two constructed spectra put a singular value on or around the threshold.
SPECIAL_THRESHOLDS = {
    "near_threshold": [0.5, 0.5 * (1 + 1e-12), 0.5 * (1 + 2e-12)],
    "cluster": [0.5 * (1 + k * 1e-13) for k in range(-4, 5)],
    "huge_entry": [1.0],
}


def _soft(u, s, v, t):
    return (u * np.maximum(s - t, 0.0)) @ v.T


class TestThresholdedSvd:
    """The thresholded kernel against the full LAPACK SVD (``np.linalg.svd``)."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    def test_matches_lapack(self, name):
        a = ORACLE_MATRICES[name]
        m, n = a.shape
        ref = np.linalg.svd(a, full_matrices=False)
        norm = ref.S[0] if ref.S[0] > 0 else 1.0
        thresholds = list(norm * np.logspace(-13, 0.1, 30)) + [0.0] + SPECIAL_THRESHOLDS.get(name, [])
        for t in thresholds:
            f = svd(a, above=t)
            k = f.s.size
            assert f.u.shape == (m, k) and f.v.shape == (n, k)
            assert np.all(f.s > t) and np.all(np.diff(f.s) <= 0)
            kept = np.zeros(min(m, n))
            kept[:k] = f.s - t
            # singular-value soft thresholding (prox_nuclear) and clipping (the spectral ball)
            assert np.max(np.abs(kept - np.maximum(ref.S - t, 0.0))) <= GRAM_TOL * norm
            shrunk = _soft(f.u, f.s, f.v, t)
            assert np.max(np.abs(shrunk - _soft(ref.U, ref.S, ref.Vh.T, t))) <= GRAM_TOL * norm
            clipped = (ref.U * np.minimum(ref.S, t)) @ ref.Vh
            assert np.max(np.abs((a - shrunk) - clipped)) <= GRAM_TOL * norm
            if t >= 1e-4 * norm:
                # Every kept eigenvalue is above 1e-8 * lam_max, so the Gram path ran, unless
                # the scale sent it to LAPACK; recomputed values keep their relative accuracy.
                np.testing.assert_allclose(f.s, ref.S[:k], rtol=1e-11)

    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (1, 30), (30, 1)], ids=str)
    def test_transpose_swaps_the_factors_bit_for_bit(self, shape, monkeypatch):
        # a.T is the transposed view.  LAPACK rounds a and a.T differently, so the Gram
        # path must answer every threshold here: at t >= 1e-4 ||a||_2 it does.
        def no_lapack(*args, **kwargs):
            raise AssertionError("the Gram path did not answer")

        monkeypatch.setattr(sltr.linalg, "_lapack_svd", no_lapack)
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        norm = np.linalg.svd(a, compute_uv=False)[0]
        for t in norm * np.array([1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.6, 0.9]):
            f, g = svd(a, above=t), svd(a.T, above=t)
            assert f.s.size > 0
            assert same_bits(g.s, f.s) and same_bits(g.u, f.v) and same_bits(g.v, f.u)

    def test_nothing_above_threshold_is_empty(self):
        a = _with_spectrum([2.0, 1.0], 3, 5, 25)
        for t in (3.0, 1e300):
            f = svd(a, above=t)
            assert f.s.shape == (0,) and f.u.shape == (3, 0) and f.v.shape == (5, 0)

    def test_eigensolver_failure_falls_back_to_lapack(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        a = ORACLE_MATRICES["wide"]
        ref = np.linalg.svd(a, full_matrices=False)
        t = ref.S[2]
        f = svd(a, above=t)
        np.testing.assert_array_equal(f.s, ref.S[ref.S > t])

    def test_lapack_failure_falls_back_to_gesvd(self, monkeypatch):
        a = ORACLE_MATRICES["cond1e16"]  # its small values keep the kernel off the Gram path
        u, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        f = svd(a, above=0.0)
        np.testing.assert_array_equal(f.s, s[s > 0])
        np.testing.assert_array_equal(f.v, vh[: f.s.size].T)
        np.testing.assert_array_equal(
            singular_values(a),
            scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd"))

    @pytest.mark.parametrize("above", [-1.0, np.nan])
    def test_invalid_threshold(self, above):
        with pytest.raises(ValueError):
            svd(np.eye(2), above=above)


class TestSpectralNuclear:
    def test_spectral_diag(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == 3.0
        assert spectral_norm(np.zeros((2, 5))) == 0.0

    def test_spectral_matches_svd_oracle(self):
        a = np.random.default_rng(2).normal(size=(6, 4))
        assert spectral_norm(a) == pytest.approx(_gram_singular_values(a)[0], rel=1e-10)

    def test_rank_one_unit_tensor(self):
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        t = Tensor.from_array(np.outer(u, v))
        assert tensor_nuclear_norm(t) == pytest.approx(1.0, abs=1e-12)

    def test_zero_tensor(self):
        assert tensor_nuclear_norm(Tensor.zeros((2, 3, 2))) == 0.0

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            tensor_nuclear_norm(Tensor((3,), [1.0, 2.0, 3.0]))

    def test_matches_per_mode_oracle(self):
        r = np.random.default_rng(3)
        t = Tensor((3, 4, 2), r.normal(size=24))
        expected = np.mean(
            [np.sum(_gram_singular_values(unfold(t, m))) for m in (1, 2, 3)]
        )
        assert tensor_nuclear_norm(t) == pytest.approx(expected, rel=1e-10)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2 ** 31))
    def test_norm_axioms(self, seed):
        r = np.random.default_rng(seed)
        dims = (3, 2, 4)
        a = Tensor(dims, r.normal(size=24))
        b = Tensor(dims, r.normal(size=24))
        alpha = float(r.normal())
        scaled = Tensor(dims, alpha * a.data)
        both = Tensor(dims, a.data + b.data)
        na, nb = tensor_nuclear_norm(a), tensor_nuclear_norm(b)
        assert tensor_nuclear_norm(scaled) == pytest.approx(abs(alpha) * na, rel=1e-10)
        assert tensor_nuclear_norm(both) <= na + nb + 1e-10

    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    def test_nuclear_matches_lapack_sum(self, name):
        a = ORACLE_MATRICES[name]
        assert nuclear_norm(a) == np.sum(np.linalg.svd(a, compute_uv=False))

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2 ** 31), log_cond=st.floats(0.0, 6.0),
           shape=st.sampled_from([(5, 100), (20, 60), (60, 20), (1, 9), (9, 1)]))
    def test_nuclear_matches_lapack_sum_on_random_spectra(self, seed, log_cond, shape):
        k = min(shape)
        r = np.random.default_rng(seed)
        spectrum = np.sort(10.0 ** r.uniform(-log_cond, 0.0, k))[::-1]
        a = _with_spectrum(spectrum, *shape, seed)
        assert nuclear_norm(a) == np.sum(np.linalg.svd(a, compute_uv=False))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2 ** 31))
    def test_nuclear_dominates_spectral(self, seed):
        a = np.random.default_rng(seed).normal(size=(4, 6))
        assert nuclear_norm(a) >= spectral_norm(a) >= 0.0


class TestStackedNuclearNorm:
    """``nuclear_norm`` takes one matrix: a stack is rejected, and each matrix gives its LAPACK sum."""

    @staticmethod
    def _stack(m, n, seed):
        r = np.random.default_rng(seed)
        k = min(m, n)
        return np.stack([
            r.normal(size=(m, n)),
            r.normal(size=(m, 2)) @ r.normal(size=(2, n)),  # rank 2
            np.zeros((m, n)),
            _with_spectrum(np.logspace(0, -3, k), m, n, seed),
            _with_spectrum(np.logspace(0, -5, k), m, n, seed + 1),
            r.normal(size=(m, n)) * 1e-200,  # its Gram matrix underflows
        ])

    @pytest.mark.parametrize("shape", [(10, 50), (50, 10), (6, 6), (1, 9), (9, 1)])
    def test_equals_per_matrix_bit_for_bit(self, shape):
        a = self._stack(*shape, seed=sum(shape))
        got = np.array([nuclear_norm(m) for m in a])
        expected = np.array([np.sum(np.linalg.svd(m, compute_uv=False)) for m in a])
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_matrix_gives_float(self):
        a = np.random.default_rng(0).normal(size=(4, 7))
        assert type(nuclear_norm(a)) is float

    def test_overflowing_gram_matrix_falls_back(self):
        # a a' would hold inf and finite entries; the LAPACK sum never forms it
        a = np.array([[1e200, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert nuclear_norm(a) == float(np.sum(np.linalg.svd(a, compute_uv=False)))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4, 5), (2, 3, 4)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(ValueError):
            nuclear_norm(np.ones(shape))


class TestBackbone:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 3.0, 0.5])
        bb = backbone(np.eye(4), y, 1e-6, (2, 2))
        np.testing.assert_allclose(bb.tensor.data, y / (1.0 + 1e-6), rtol=1e-12)

    def test_zero_responses(self):
        x = np.random.default_rng(4).normal(size=(5, 6))
        bb = backbone(x, np.zeros(5), 1.0, (3, 2))
        np.testing.assert_array_equal(bb.tensor.data, np.zeros(6))

    def test_woodbury_matches_direct(self):
        r = np.random.default_rng(5)
        x = r.normal(size=(4, 24))
        y = r.normal(size=4)
        eps = 0.7
        # oracle: direct P x P solve
        direct = np.linalg.solve(x.T @ x + eps * np.eye(24), x.T @ y)
        bb = backbone(x, y, eps, (4, 3, 2))
        err = np.linalg.norm(bb.tensor.data - direct) / np.linalg.norm(direct)
        assert err <= 1e-8

    @settings(deadline=None, max_examples=20)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 31))
    def test_woodbury_equivalence_random_shapes(self, n, seed):
        r = np.random.default_rng(seed)
        p = 15  # keep P != N both ways by varying n
        if n == p:
            n += 1
        x = r.normal(size=(n, p))
        y = r.normal(size=n)
        direct = np.linalg.solve(x.T @ x + 2.0 * np.eye(p), x.T @ y)
        bb = backbone(x, y, 2.0, (5, 3))
        assert np.linalg.norm(bb.tensor.data - direct) <= 1e-8 * max(1.0, np.linalg.norm(direct))

    def test_norm_decreases_in_epsilon(self):
        r = np.random.default_rng(6)
        x = r.normal(size=(10, 12))
        y = r.normal(size=10)
        norms = [
            np.linalg.norm(backbone(x, y, eps, (4, 3)).tensor.data)
            for eps in (0.1, 1.0, 10.0, 100.0, 1e4)
        ]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_invalid_inputs(self):
        x = np.zeros((3, 4))
        with pytest.raises(ValueError):
            backbone(x, np.zeros(2), 1.0, (2, 2))
        with pytest.raises(ValueError):
            backbone(x, np.zeros(3), 0.0, (2, 2))
        with pytest.raises(ValueError):
            backbone(x, np.zeros(3), 1.0, (5,))
        with pytest.raises(NumericalError):
            backbone(np.full((3, 4), np.inf), np.zeros(3), 1.0, (2, 2))

    @pytest.mark.parametrize("n", [4, 20])
    def test_overflowing_ridge_system_raises(self, n):
        # Finite entries whose Gram product overflows, in the dual (n = 4) and primal system.
        r = np.random.default_rng(7)
        with pytest.raises(NumericalError, match="ridge system overflowed"):
            backbone(1e160 * r.normal(size=(n, 12)), r.normal(size=n), 1.0, (3, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    def test_one_non_finite_entry_raises(self, bad, where):
        # One entry among finite ones, with entries of both signs around it.
        x = np.random.default_rng(0).normal(size=(5, 6))
        y = np.random.default_rng(1).normal(size=5)
        (x if where == "x" else y).flat[3] = bad
        with pytest.raises(NumericalError, match="finite"):
            backbone(x, y, 1.0, (2, 3))
