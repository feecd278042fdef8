"""PCA (Jacobi eigensolver), dominance, Silverman bandwidth, Gaussian KDE.

The eigensolver is cross-checked against two independent oracles: a
classical Jacobi iteration that always rotates the largest off-diagonal
element (implemented here with explicit rotation matrices, sharing no
code with the library), and numpy.linalg.eigh.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import etk
from etk.errors import (
    DegenerateData,
    DimensionMismatch,
    InsufficientData,
)
from etk.numerics import (
    _quartiles,
    dominant_coordinate,
    fit_kde,
    fit_pca,
    jacobi_eigh,
    kde_curve,
    kde_evaluate,
    project,
    silverman_bandwidth,
    KdeModel,
)

PHI_0 = 0.3989422804014327   # standard normal density at 0
PHI_1 = 0.24197072451914337  # ... and at 1


def greedy_jacobi(matrix, tol=1e-14, max_rotations=10_000):
    """Classical Jacobi oracle: rotate the largest off-diagonal entry."""
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_rotations):
        off = np.abs(a - np.diag(np.diag(a)))
        p, q = np.unravel_index(int(off.argmax()), off.shape)
        if off[p, q] <= tol:
            break
        theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
        t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        rot = np.eye(n)
        rot[p, p] = rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        a = rot.T @ a @ rot
        v = v @ rot
    return np.diag(a).copy(), v


def random_covariance(rng, k, n=200):
    data = rng.normal(size=(n, k)) @ rng.normal(size=(k, k))
    centered = data - data.mean(axis=0)
    return centered.T @ centered / n


class TestJacobiEigh:
    def test_diagonal_matrix_is_a_fixed_point(self):
        d = np.diag([3.0, 1.0, 2.0])
        eigvals, eigvecs = jacobi_eigh(d)
        assert eigvals.tolist() == [3.0, 1.0, 2.0]
        assert np.array_equal(eigvecs, np.eye(3))

    def test_2x2_analytic(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1.
        eigvals, eigvecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert sorted(eigvals) == pytest.approx([1.0, 3.0], abs=1e-14)
        for j in range(2):
            assert abs(eigvecs[:, j] @ eigvecs[:, j] - 1.0) < 1e-14

    def test_matches_greedy_oracle_on_random_covariances(self):
        rng = np.random.default_rng(42)
        for k in (2, 5, 9):
            cov = random_covariance(rng, k)
            mine, _ = jacobi_eigh(cov)
            oracle, _ = greedy_jacobi(cov)
            scale = max(1.0, float(np.abs(oracle).max()))
            assert np.allclose(np.sort(mine), np.sort(oracle),
                               atol=1e-12 * scale, rtol=0.0)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.normal(size=(6, 6))
            sym = m + m.T
            mine, vecs = jacobi_eigh(sym)
            ref = np.linalg.eigvalsh(sym)
            assert np.allclose(np.sort(mine), ref, atol=1e-12)
            # Reconstruction is the gap-independent correctness check:
            # near-degenerate pairs mix their eigenvectors arbitrarily,
            # but V diag(w) V^T must still reproduce the matrix.
            rebuilt = vecs @ np.diag(mine) @ vecs.T
            assert float(np.abs(rebuilt - sym).max()) < 1e-10

    def test_eigenvectors_orthonormal(self):
        cov = random_covariance(np.random.default_rng(3), 9)
        _, vecs = jacobi_eigh(cov)
        assert np.allclose(vecs.T @ vecs, np.eye(9), atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            jacobi_eigh(np.zeros((2, 3)))


class TestFitPca:
    def axis_data(self):
        # Variance 0.5 along x, 0.125 along y: ratios 0.8 / 0.2.
        return [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.5), (0.0, -0.5)]

    def test_analytic_2d_example(self):
        model = fit_pca(self.axis_data())
        assert model.explained_variance == pytest.approx([0.5, 0.125], abs=1e-15)
        assert model.explained_ratio == pytest.approx([0.8, 0.2], abs=1e-15)
        assert model.components[0] == pytest.approx([1.0, 0.0], abs=1e-15)
        assert model.components[1] == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_sign_rule_flips_negative_leaders(self):
        # Data along the line y = -x: the first component's largest
        # coordinate must come out positive.
        data = [(1.0, -1.0), (-1.0, 1.0), (2.0, -2.0), (-2.0, 2.0)]
        model = fit_pca(data)
        lead = model.components[0]
        assert max(lead, key=abs) > 0

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        model = fit_pca(rng.normal(size=(100, 6)))
        c = model.components
        assert np.allclose(c @ c.T, np.eye(6), atol=1e-9)

    def test_trace_conservation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 7)) * rng.uniform(0.5, 4.0, size=7)
        model = fit_pca(x)
        centered = x - x.mean(axis=0)
        trace = float((centered ** 2).sum() / len(x))
        assert float(model.explained_variance.sum()) == pytest.approx(trace, rel=1e-12)
        assert float(model.explained_ratio.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_from_full_projection(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 5))
        model = fit_pca(x)
        for row in x:
            coords = project(model, row, dims=5)
            rebuilt = model.mean + coords @ model.components
            assert np.allclose(rebuilt, row, atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 4))
        shift = np.array([10.0, -3.0, 0.5, 100.0])
        base = fit_pca(x)
        moved = fit_pca(x + shift)
        assert np.allclose(moved.mean, base.mean + shift, atol=1e-12)
        assert np.allclose(moved.explained_variance, base.explained_variance,
                           atol=1e-9)
        assert np.allclose(moved.components, base.components, atol=1e-9)

    def test_descending_order(self):
        rng = np.random.default_rng(6)
        model = fit_pca(rng.normal(size=(120, 9)) * np.arange(1, 10))
        ev = model.explained_variance
        assert all(ev[i] >= ev[i + 1] for i in range(len(ev) - 1))

    def test_single_vector_rejected(self):
        with pytest.raises(InsufficientData):
            fit_pca([(1.0, 2.0)])

    def test_identical_vectors_rejected(self):
        with pytest.raises(DegenerateData):
            fit_pca([(1.0, 2.0)] * 10)

    def test_projection_shape_checks(self):
        model = fit_pca(self.axis_data())
        with pytest.raises(DimensionMismatch):
            project(model, (1.0, 2.0, 3.0))
        with pytest.raises(DimensionMismatch):
            project(model, (1.0, 2.0), dims=3)

    def test_batch_projection_shape_checks(self):
        model = fit_pca(self.axis_data())
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros((2, 4, 2)))
        with pytest.raises(DimensionMismatch):
            project(model, np.zeros((4, 2)), dims=3)
        assert project(model, np.empty((0, 2))).shape == (0, 2)

    def test_batch_projection_matches_each_row_bit_for_bit(self):
        rng = np.random.default_rng(12)
        x = rng.dirichlet(np.ones(9), size=500)
        model = fit_pca(x)
        for dims in (1, 2, 9):
            batch = project(model, x, dims=dims)
            assert batch.shape == (500, dims)
            rows = np.array([project(model, row, dims=dims) for row in x])
            assert np.array_equal(batch, rows)

    def test_projection_of_axis_points(self):
        model = fit_pca(self.axis_data())
        assert project(model, (1.0, 0.0))[0] == pytest.approx(1.0, abs=1e-15)
        assert project(model, (0.0, 0.5))[1] == pytest.approx(0.5, abs=1e-15)


class TestDominantCoordinate:
    def test_clear_leader(self):
        assert dominant_coordinate((0.9, 0.1, 0.05)) == (1, 0.9)

    def test_leader_keeps_its_sign(self):
        assert dominant_coordinate((-0.9, 0.1)) == (1, -0.9)

    def test_near_tie_gives_none(self):
        assert dominant_coordinate((0.7, 0.7, 0.0)) is None

    def test_boundary_ratio_is_inclusive(self):
        assert dominant_coordinate((0.8, 0.4)) == (1, 0.8)

    def test_all_zero_gives_none(self):
        assert dominant_coordinate((0.0, 0.0, 0.0)) is None

    def test_single_coordinate(self):
        assert dominant_coordinate((0.5,)) == (1, 0.5)

    def test_custom_ratio(self):
        assert dominant_coordinate((0.75, 0.25), dominance_ratio=1.5) == (1, 0.75)
        assert dominant_coordinate((0.75, 0.25), dominance_ratio=4.0) is None


class TestSilvermanBandwidth:
    def test_two_point_value(self):
        # std = sqrt(0.5), IQR = 0.5; the IQR term wins.
        expected = 0.9 * (0.5 / 1.34) * 2 ** -0.2
        h = silverman_bandwidth([0.0, 1.0])
        assert h == pytest.approx(expected, rel=1e-15)
        assert h == pytest.approx(0.29235, abs=5e-6)

    def test_std_wins_when_smaller(self):
        # Evenly spread data has IQR/1.34 above the std, so std wins.
        data = list(np.arange(10.0))
        std = float(np.std(data, ddof=1))
        iqr = float(np.percentile(data, 75) - np.percentile(data, 25))
        assert std < iqr / 1.34
        assert silverman_bandwidth(data) == pytest.approx(
            0.9 * std * 10 ** -0.2, rel=1e-12)

    def test_zero_iqr_falls_back_to_std(self):
        data = [0.0] * 7 + [10.0]
        h = silverman_bandwidth(data)
        expected = 0.9 * float(np.std(data, ddof=1)) * 8 ** -0.2
        assert h == pytest.approx(expected, rel=1e-12)

    def test_homogeneous_under_scaling(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=40)
        for a in (0.1, 2.5, 1000.0):
            assert silverman_bandwidth(a * data) == pytest.approx(
                a * silverman_bandwidth(data), rel=1e-9)

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateData):
            silverman_bandwidth([3.0, 3.0, 3.0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(InsufficientData):
            silverman_bandwidth([1.0])

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324]) | st.floats(-1e300, 1e300),
                    min_size=2, max_size=40))
    def test_quartiles_are_np_percentile_bit_for_bit(self, values):
        """Ties of 0.0 and -0.0 included: both partition alike and take the same order."""
        x = np.array(values)
        assert np.array(_quartiles(x)).tobytes() == np.percentile(x, [75.0, 25.0]).tobytes()

    def test_analyze_does_not_import_numpy_ma(self, tmp_path):
        """np.percentile imports numpy.ma, ~17 ms in every analyze that fits a KDE."""
        code = ("import sys\n"
                "from etk.cli import main\n"
                "out = sys.argv[1]\n"
                "assert main(['synth', '--out', out + '/c', '--count', '3', '--rounds', '2',\n"
                "             '--round-s', '20']) == 0\n"
                "assert main(['analyze', out + '/c', '--out', out + '/a']) == 0\n"
                "assert open(out + '/a/kde.csv').read().count('\\n') > 1, 'no KDE was fit'\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(etk.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestKde:
    def test_kernel_value_at_zero(self):
        model = fit_kde([0.0], bandwidth=1.0)
        assert kde_evaluate(model, 0.0) == pytest.approx(PHI_0, abs=1e-15)

    def test_kernel_value_at_one(self):
        model = fit_kde([0.0], bandwidth=1.0)
        assert kde_evaluate(model, 1.0) == pytest.approx(PHI_1, abs=1e-15)

    def test_two_symmetric_samples(self):
        model = fit_kde([-1.0, 1.0], bandwidth=1.0)
        assert kde_evaluate(model, 0.0) == pytest.approx(PHI_1, abs=1e-15)
        edge = 0.5 * (PHI_0 + math.exp(-2.0) / math.sqrt(2 * math.pi))
        assert kde_evaluate(model, 1.0) == pytest.approx(edge, abs=1e-15)

    def test_bandwidth_defaults_to_silverman(self):
        data = [0.0, 1.0, 2.0, 4.0]
        assert fit_kde(data).bandwidth == silverman_bandwidth(data)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            data = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=30)
            model = fit_kde(data)
            h = model.bandwidth
            xs = np.linspace(data.min() - 8 * h, data.max() + 8 * h, 4001)
            dens = np.array([kde_evaluate(model, x) for x in xs])
            assert float(np.trapezoid(dens, xs)) == pytest.approx(1.0, abs=1e-4)

    def test_curve_grid_and_values(self):
        model = fit_kde([0.0, 2.0], bandwidth=0.5)
        xs, dens = kde_curve(model)
        assert len(xs) == 256 and len(dens) == 256
        assert xs[0] == pytest.approx(0.0 - 1.5)
        assert xs[-1] == pytest.approx(2.0 + 1.5)
        assert (dens >= 0.0).all()
        for i in (0, 31, 128, 255):
            assert dens[i] == pytest.approx(kde_evaluate(model, xs[i]), abs=1e-15)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_kde([], bandwidth=1.0)

    @pytest.mark.parametrize("bandwidth", [1e308, 1e-320])
    def test_curve_that_is_not_finite_rejected(self, bandwidth):
        # 1e308 overflows the grid's end; 1e-320 the density at a sample.
        with pytest.raises(DegenerateData, match="non-finite"):
            kde_curve(fit_kde([0.0, 2.0], bandwidth=bandwidth))

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            KdeModel(samples=(1.0,), bandwidth=0.0)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=20),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_density_never_negative(self, samples, bandwidth):
        model = fit_kde(samples, bandwidth=bandwidth)
        _, dens = kde_curve(model, points=64)
        assert (dens >= 0.0).all()
