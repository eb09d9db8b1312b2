"""Dense complex linear-algebra kernel.

Everything downstream (radius estimation, bound evaluation, the harness)
reduces to the primitives here: Hermitian eigendecomposition, operator
absolute values, spectral calculus on positive semidefinite matrices,
operator norms and quadratic forms.  All operations are pure functions of
immutable inputs.

A batch of forms <Ax_k, y_k> = y_k* A x_k over row vectors is one matrix
product ``ys.conj() @ a`` (a BLAS GEMM) followed by a row-wise dot with
``xs``, so the O(m d^2) work runs at BLAS-3 speed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EigenFailure,
    FunctionRangeError,
    NotPsd,
)

# The numerical checks every verdict rests on.  The tolerances are relative:
# to max(1, max|m_ij|) for HERM_TOL and EIGEN_TOL, to max(1, top eigenvalue)
# for PSD_TOL.
HERM_TOL = 1e-10  # max|M - M*| allowed in the Hermitian test
PSD_TOL = 1e-9  # most negative eigenvalue treated as roundoff before NotPsd
EIGEN_TOL = 1e-9  # max|V diag(w) V* - H| allowed for an eigendecomposition
DIM_CAP = 64  # largest matrix dimension accepted


def as_complex_matrix(m) -> np.ndarray:
    """Validate and return a square, finite complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DomainError("empty matrix")
    if a.shape[0] > DIM_CAP:
        raise DomainError(f"dimension {a.shape[0]} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    return a


def require_same_dim(*mats: np.ndarray) -> int:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"operands have mixed dimensions {sorted(dims)}")
    return dims.pop()


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_hermitian(m: np.ndarray) -> bool:
    return max_abs(m - m.conj().T) <= HERM_TOL * max(1.0, max_abs(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2, the real part in the Cartesian decomposition."""
    return (m + m.conj().T) / 2.0


def skew_part(m: np.ndarray) -> np.ndarray:
    """(M - M*)/(2i), the imaginary part in the Cartesian decomposition."""
    return (m - m.conj().T) / 2.0j


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, orthonormal eigenvector columns) with
    H = V diag(w) V*.  Raises DomainError if the input is not Hermitian
    within ``HERM_TOL`` and EigenFailure if the solver fails or the
    reconstruction error exceeds ``EIGEN_TOL``.
    """
    a = as_complex_matrix(h)
    if not is_hermitian(a):
        raise DomainError("matrix is not Hermitian within tolerance")
    a = hermitian_part(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    resid = max_abs((v * w) @ v.conj().T - a)
    if resid > EIGEN_TOL * max(1.0, max_abs(a)):
        raise EigenFailure(f"eigen reconstruction error {resid:.3e}")
    return w, v


class PsdMatrix:
    """A positive semidefinite matrix with its eigensystem cached.

    Eigenvalues are ascending and clamped at zero (values in
    [-PSD_TOL*scale, 0) are treated as roundoff); anything more negative
    raises NotPsd.  The cache makes fractional powers and general spectral
    functions cheap.
    """

    __slots__ = ("mat", "eigvals", "eigvecs")

    def __init__(self, mat: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray):
        self.mat = mat
        self.eigvals = eigvals
        self.eigvecs = eigvecs

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "PsdMatrix":
        a = as_complex_matrix(m)
        if not is_hermitian(a):
            raise NotPsd("matrix is not Hermitian, hence not PSD")
        w, v = hermitian_eigen(a)
        floor = -PSD_TOL * max(1.0, float(w[-1]))
        if w[0] < floor:
            raise NotPsd(f"eigenvalue {w[0]:.3e} below PSD tolerance {floor:.3e}")
        w = np.maximum(w, 0.0)
        return cls((v * w) @ v.conj().T, w, v)

    @classmethod
    def from_eigensystem(cls, eigvals: np.ndarray, eigvecs: np.ndarray) -> "PsdMatrix":
        w = np.maximum(np.asarray(eigvals, dtype=np.float64), 0.0)
        v = np.asarray(eigvecs, dtype=np.complex128)
        return cls((v * w) @ v.conj().T, w, v)

    def power(self, s: float) -> "PsdMatrix":
        """Spectral power A^s for s >= 0, with the 0^0 = 1 convention."""
        if s < 0:
            raise DomainError(f"psd power requires s >= 0, got {s}")
        w = np.power(self.eigvals, float(s))
        return PsdMatrix((self.eigvecs * w) @ self.eigvecs.conj().T, w, self.eigvecs)

    def apply(self, phi: Callable[[float], float]) -> "PsdMatrix":
        """Spectral calculus V diag(phi(w)) V* for a nonnegative scalar phi."""
        vals = np.array([float(phi(float(t))) for t in self.eigvals])
        if not np.isfinite(vals).all():
            raise FunctionRangeError("phi produced a non-finite value on the spectrum")
        if np.any(vals < -1e-14 * max(1.0, float(np.max(np.abs(vals))))):
            raise FunctionRangeError("phi produced a negative value on the spectrum")
        vals = np.maximum(vals, 0.0)
        order = np.argsort(vals, kind="stable")
        w = vals[order]
        v = self.eigvecs[:, order]
        return PsdMatrix((v * w) @ v.conj().T, w, v)

    def norm(self) -> float:
        """Operator norm, i.e. the largest eigenvalue."""
        return float(self.eigvals[-1])

    def quad(self, x: np.ndarray) -> float:
        """Real quadratic form <Ax, x> clamped at zero."""
        return max(float(np.vdot(x, self.mat @ x).real), 0.0)

    def quad_many(self, xs: np.ndarray) -> np.ndarray:
        """Quadratic forms for a batch of row vectors, clamped at zero."""
        return np.maximum(_row_forms(self.mat, xs, xs).real, 0.0)


def abs_pair(t) -> tuple[PsdMatrix, PsdMatrix]:
    """(|T|, |T*|) from a single SVD: |T| = V S V*, |T*| = U S U*."""
    a = as_complex_matrix(t)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    s = np.maximum(s, 0.0)
    order = np.argsort(s, kind="stable")
    s = s[order]
    v = vh.conj().T[:, order]
    uu = u[:, order]
    return PsdMatrix.from_eigensystem(s, v), PsdMatrix.from_eigensystem(s, uu)


def abs_op(t) -> PsdMatrix:
    """Operator absolute value |T| = (T*T)^(1/2)."""
    return abs_pair(t)[0]


def abs_adj(t) -> PsdMatrix:
    """|T*| = (TT*)^(1/2)."""
    return abs_pair(t)[1]


def psd_power(a, s: float) -> PsdMatrix:
    """Spectral power of a PSD matrix (accepts PsdMatrix or an array)."""
    p = a if isinstance(a, PsdMatrix) else PsdMatrix.from_matrix(a)
    return p.power(s)


def spectral_apply(a, phi) -> PsdMatrix:
    """Apply a nonnegative scalar function to a PSD matrix spectrally."""
    p = a if isinstance(a, PsdMatrix) else PsdMatrix.from_matrix(a)
    return p.apply(phi)


def op_norm(t) -> float:
    """Operator norm, the largest singular value."""
    a = as_complex_matrix(t)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return float(s[0])


def quad_form(a: np.ndarray, x: np.ndarray) -> complex:
    """<Ax, x> with the inner product linear in its first argument."""
    a = np.asarray(a, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"matrix dim {a.shape[1]} vs vector dim {x.shape[0]}")
    return complex(np.vdot(x, a @ x))


def _row_forms(a: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """y_k* A x_k for each row k: one GEMM, then a row-wise dot."""
    return np.einsum("mj,mj->m", ys.conj() @ a, xs)


def quad_forms_many(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """<Ax_k, x_k> for a batch of row vectors x_k.  Complex output."""
    return _row_forms(a, xs, xs)


def pair_forms_many(a: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """<Ax_k, y_k> for batches of row vectors.  Complex output."""
    return _row_forms(a, xs, ys)
