"""Dependency-light numerics: PCA via Jacobi rotations and Gaussian KDE.

The distribution vectors this package analyzes are 9-dimensional, so a
cyclic Jacobi eigensolver on the 9x9 covariance is exact enough and
keeps the pipeline free of LAPACK version drift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, DimensionMismatch, InsufficientData

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 64
DOMINANCE_RATIO = 2.0
KDE_GRID_POINTS = 256


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Principal axes of a vector cloud.

    `components[i]` is the i-th unit eigenvector (rows, descending
    eigenvalue); `explained_variance` uses the 1/n covariance
    convention and `explained_ratio` divides by the covariance trace.
    """
    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    explained_ratio: np.ndarray

    @property
    def k(self) -> int:
        return len(self.mean)


def jacobi_eigh(matrix: np.ndarray, tol: float = JACOBI_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps all upper-triangle pivots until the off-diagonal Frobenius
    norm drops below `tol`. Returns (eigenvalues, eigenvectors) with
    eigenvectors in columns, unsorted.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    v = np.eye(n)
    diag_mask = ~np.eye(n, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        # Sum the off-diagonal squares directly: subtracting the diagonal
        # mass from the total cancels catastrophically and can report
        # convergence a full sweep early.
        off_sq = float((a[diag_mask] ** 2).sum())
        if off_sq < tol * tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                theta = float(a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e154:
                    # theta^2 would overflow; the rotation tends to 1/(2*theta)
                    t = 0.5 / theta
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    return np.diag(a).copy(), v


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make each component's largest-magnitude coordinate positive."""
    out = components.copy()
    for i in range(len(out)):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def fit_pca(vectors) -> PcaModel:
    """PCA of a list of equal-length vectors.

    Covariance uses the 1/n convention; components are sorted by
    descending eigenvalue and sign-fixed so the largest-magnitude
    coordinate of each is positive, making projections reproducible.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch("vectors must form a 2-D array")
    n, k = x.shape
    if n < 2:
        raise InsufficientData(f"need at least 2 vectors, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    trace = float(np.trace(cov))
    if trace <= 0.0 or not (np.abs(centered) > 0).any():
        raise DegenerateData("all vectors identical: covariance is zero")
    eigvals, eigvecs = jacobi_eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    components = _fix_signs(eigvecs[:, order].T)
    return PcaModel(mean=mean, components=components,
                    explained_variance=eigvals,
                    explained_ratio=eigvals / trace)


def project(model: PcaModel, vector, dims: int = 2) -> np.ndarray:
    """Coordinates on the first `dims` principal axes.

    `vector` is one vector of shape (k,), giving shape (dims,), or an
    (n, k) batch of row vectors, giving (n, dims). A batch is projected
    as n stacked matrix-vector products: with numpy 2.4 on OpenBLAS they
    give each row the same bits as projecting it alone (see
    tests/test_numerics.py), where `D @ C.T` and `einsum` differed in
    the last bit.
    """
    v = np.asarray(vector, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != model.k:
        raise DimensionMismatch(f"vector has shape {v.shape}, model expects "
                                f"({model.k},) or (n, {model.k})")
    if dims > len(model.components):
        raise DimensionMismatch(f"model has {len(model.components)} components, asked for {dims}")
    components = model.components[:dims]
    if v.ndim == 1:
        return components @ (v - model.mean)
    return np.matmul(components, (v - model.mean)[:, :, None])[:, :, 0]


def dominant_coordinate(component, dominance_ratio: float = DOMINANCE_RATIO):
    """(1-based index, loading) of the dominant coordinate, else None.

    A coordinate dominates when its magnitude is at least
    dominance_ratio times the second-largest magnitude.
    """
    c = np.asarray(component, dtype=float)
    mags = np.abs(c)
    top = int(np.argmax(mags))
    if mags[top] == 0.0:
        return None
    if len(c) > 1:
        second = float(np.partition(mags, -2)[-2])
        if mags[top] < dominance_ratio * second:
            return None
    return top + 1, float(c[top])


def _quartiles(x: np.ndarray) -> list[np.float64]:
    """`np.percentile(x, [75, 25])` of a NaN-free x, bit for bit.

    `np.percentile` imports numpy.ma (~17 ms) through `np.unique`. This
    is its linear method step by step: the same partition, then each
    quartile interpolated between its two neighbouring order statistics,
    from the upper one when the weight t is at least 0.5.
    """
    at = (len(x) - 1) * np.array([0.75, 0.25])
    lo = np.floor(at).astype(np.intp)
    part = np.partition(x, sorted({0, -1, *lo.tolist(), *(lo + 1).tolist()}))
    return [b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
            for a, b, t in zip(part[lo], part[lo + 1], at - lo)]


def silverman_bandwidth(samples) -> float:
    """Silverman's rule: 0.9 * min(std, IQR/1.34) * n^(-1/5).

    `std` divides by n-1. A zero IQR with positive std falls back to
    the std alone so the bandwidth stays positive.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InsufficientData(f"need at least 2 samples, got {x.size}")
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise DegenerateData("samples have zero spread")
    q75, q25 = _quartiles(x)
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0.0 else std
    return 0.9 * scale * x.size ** (-0.2)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian kernel density estimate: samples plus one bandwidth."""
    samples: tuple[float, ...]
    bandwidth: float

    def __post_init__(self):
        if not self.samples:
            raise ValueError("KdeModel needs at least one sample")
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


def fit_kde(samples, bandwidth: float | None = None) -> KdeModel:
    """KDE with an explicit bandwidth or Silverman's rule when omitted."""
    data = tuple(float(s) for s in samples)
    h = float(bandwidth) if bandwidth is not None else silverman_bandwidth(data)
    return KdeModel(samples=data, bandwidth=h)


def kde_evaluate(model: KdeModel, x: float) -> float:
    """Density (1/(n*h)) * sum(phi((x - s_i)/h)) at one point."""
    s = np.asarray(model.samples, dtype=float)
    z = (float(x) - s) / model.bandwidth
    return float(np.exp(-0.5 * z * z).sum() / (len(s) * model.bandwidth * math.sqrt(2.0 * math.pi)))


def kde_curve(model: KdeModel, points: int = KDE_GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Density on a uniform grid spanning min-3h to max+3h.

    Raises `DegenerateData` when the grid or a density is not finite,
    as when h is near the largest or smallest positive float.
    """
    s = np.asarray(model.samples, dtype=float)
    h = model.bandwidth
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(s.min() - 3.0 * h, s.max() + 3.0 * h, points)
        z = (xs[:, None] - s[None, :]) / h
        dens = np.exp(-0.5 * z * z).sum(axis=1) / (len(s) * h * math.sqrt(2.0 * math.pi))
    if not (np.isfinite(xs).all() and np.isfinite(dens).all()):
        raise DegenerateData(f"bandwidth {h!r} gives a non-finite density curve")
    return xs, dens
