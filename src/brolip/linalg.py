"""Hermitian positive-definite solves via Cholesky factorization.

The factorization and the diagonal blocks of the triangular solves run on
numpy's LAPACK. The rank-deficiency contract stays under our control: after
factoring, a pivot L[j, j]^2 at or below 1e-12 times the matrix trace raises
`SingularParameter` instead of silently regularizing, because downstream
orthogonality certificates depend on the solve being exact. When LAPACK
itself rejects the matrix, an unblocked elimination re-runs it only to find
the failing pivot. Non-finite entries are rejected before factoring.

All routines accept a stack of matrices (leading batch axes) and work for
float64 and complex128 alike; `np.conj` on real data is the identity.
Substitution is blocked so the heavy lifting happens in large batched
matmuls.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DivergedError, ShapeError, SingularParameter
from .tensor import CTensor, as_complex_array, record_alloc

PIVOT_REL_TOL = 1e-12
_BLOCK = 48


def _conj_t(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _singular(j: int, bad: np.ndarray, pivot: np.ndarray,
              trace: np.ndarray) -> SingularParameter:
    """Error for pivot j; `bad`, `pivot` and `trace` are per batch member."""
    idx = tuple(np.argwhere(bad)[0])
    bad_pivot = float(pivot[idx])
    est = np.inf if bad_pivot <= 0 else float(trace[idx]) / bad_pivot
    return SingularParameter(j, est)


def _chol_panel(work: np.ndarray, tol: np.ndarray, trace: np.ndarray) -> None:
    """Unblocked elimination in place; raises at the first failing pivot.

    Only locates the pivot after LAPACK has rejected the matrix, so the
    factor itself is not kept.
    """
    n = work.shape[-1]
    for j in range(n):
        pivot = work[..., j, j].real
        bad = pivot <= tol
        if np.any(bad):
            raise _singular(j, bad, pivot, trace)
        if j + 1 < n:
            col = work[..., j + 1:, j] / np.sqrt(pivot)[..., None]
            work[..., j + 1:, j + 1:] -= col[..., :, None] * np.conj(col)[..., None, :]


def _check_finite(a: np.ndarray) -> None:
    finite = np.isfinite(a)
    if finite.all():
        return
    bad = np.argwhere(~finite)
    first = bad[np.argmin(bad[:, -1])]  # smallest column, then C order
    *member, row, col = (int(i) for i in first)
    where = f"row {row}, column {col}" + (f" of batch member {tuple(member)}"
                                          if member else "")
    raise DivergedError(col, f"Cholesky input has a non-finite entry "
                             f"{a[tuple(first)]} at {where}")


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with a = L @ L^H, batched over leading axes.

    Raises SingularParameter when any pivot L[j, j]^2 falls at or below
    PIVOT_REL_TOL * trace(a) for its batch member. The error carries the
    smallest failing pivot index over the batch (the first member in C order
    at that index) and a trace/pivot condition estimate (inf for a pivot
    <= 0). Raises DivergedError, before factoring, on a non-finite entry.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"expected square trailing dims, got {a.shape}")
    _check_finite(a)
    n = a.shape[-1]
    trace = np.einsum("...ii->...", a).real
    tol = PIVOT_REL_TOL * np.maximum(trace, 0.0)
    try:
        out = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        _chol_panel(np.array(a, dtype=np.result_type(a, float)), tol, trace)
        raise  # the elimination found no pivot at or below tol
    record_alloc(out.size)
    pivot = np.diagonal(out, axis1=-2, axis2=-1).real ** 2
    bad = pivot <= tol[..., None]
    if bad.any():
        j = int(np.argmax(bad.reshape(-1, n).any(axis=0)))
        raise _singular(j, bad[..., j], pivot[..., j], trace)
    return out


def _solve_lower_small(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.array(b, copy=True, dtype=np.result_type(l.dtype, b.dtype))
    for i in range(l.shape[-1]):
        if i:
            x[..., i:i + 1, :] -= l[..., i:i + 1, :i] @ x[..., :i, :]
        x[..., i, :] /= l[..., i, i][..., None]
    return x


def _blocks(n: int):
    return [(j0, min(j0 + _BLOCK, n)) for j0 in range(0, n, _BLOCK)]


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b by blocked forward substitution (L lower, batched).

    Diagonal blocks are solved by LAPACK and the off-diagonal updates run
    as large matmuls, the standard BLAS-3 substitution layout.
    """
    n = l.shape[-1]
    if n <= _BLOCK:
        out = _solve_lower_small(l, b)
        record_alloc(out.size)
        return out
    out = np.empty(np.broadcast_shapes(l.shape[:-2] + (1, 1), b.shape[:-2] + (1, 1))[:-2]
                   + b.shape[-2:], dtype=np.result_type(l.dtype, b.dtype))
    record_alloc(out.size)
    for j0, j1 in _blocks(n):
        acc = b[..., j0:j1, :]
        if j0:
            acc = acc - l[..., j0:j1, :j0] @ out[..., :j0, :]
        out[..., j0:j1, :] = np.linalg.solve(l[..., j0:j1, j0:j1], acc)
    return out


def solve_upper_conj(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^H x = b by blocked back substitution against the lower factor."""
    n = l.shape[-1]
    if n <= _BLOCK:
        x = np.array(b, copy=True, dtype=np.result_type(l.dtype, b.dtype))
        record_alloc(x.size)
        for i in range(n - 1, -1, -1):
            if i + 1 < n:
                x[..., i:i + 1, :] -= _conj_t(l[..., i + 1:, i:i + 1]) @ x[..., i + 1:, :]
            x[..., i, :] /= np.conj(l[..., i, i])[..., None]
        return x
    out = np.empty(np.broadcast_shapes(l.shape[:-2] + (1, 1), b.shape[:-2] + (1, 1))[:-2]
                   + b.shape[-2:], dtype=np.result_type(l.dtype, b.dtype))
    record_alloc(out.size)
    for j0, j1 in reversed(_blocks(n)):
        acc = b[..., j0:j1, :]
        if j1 < n:
            acc = acc - _conj_t(l[..., j1:, j0:j1]) @ out[..., j1:, :]
        out[..., j0:j1, :] = np.linalg.solve(_conj_t(l[..., j0:j1, j0:j1]), acc)
    return out


def solve_hpd(a: np.ndarray, b: np.ndarray, factor: np.ndarray | None = None) -> np.ndarray:
    """Solve a x = b for Hermitian positive-definite a (batched).

    Cholesky factorization followed by the two triangular solves; a
    precomputed factor can be passed to reuse it.
    """
    l = cholesky(a) if factor is None else factor
    return solve_upper_conj(l, solve_lower(l, b))


def hermitian_deviation(a: np.ndarray) -> float:
    ah = _conj_t(a)
    return float(np.max(np.abs(a - ah))) if a.size else 0.0


def hermitian_solve(a, b, herm_tol: float = 1e-10) -> CTensor:
    """Solve a X = b where a is an n x n Hermitian positive-definite CTensor.

    The deviation from Hermitian symmetry must stay within `herm_tol`
    (scaled by the magnitude of a). Non-positive pivots raise
    SingularParameter with the pivot index and a condition estimate.
    """
    a_arr = as_complex_array(a)
    b_arr = as_complex_array(b)
    if a_arr.ndim != 2 or a_arr.shape[0] != a_arr.shape[1]:
        raise ShapeError(f"coefficient matrix must be square 2D, got {a_arr.shape}")
    if b_arr.ndim != 2 or b_arr.shape[0] != a_arr.shape[0]:
        raise ShapeError(
            f"rhs shape {b_arr.shape} incompatible with matrix {a_arr.shape}")
    scale = max(1.0, float(np.max(np.abs(a_arr))) if a_arr.size else 0.0)
    if hermitian_deviation(a_arr) > herm_tol * scale:
        raise ContractError("matrix is not Hermitian within tolerance")
    return CTensor(solve_hpd(a_arr, b_arr))


def eigvals_sym(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric/Hermitian matrix, ascending."""
    return np.linalg.eigvalsh(w)


def cond_spd(a: np.ndarray) -> float:
    """2-norm condition number of a symmetric PSD matrix (inf if singular)."""
    vals = np.linalg.eigvalsh(a)
    lo, hi = float(vals[0]), float(vals[-1])
    if lo <= 0.0:
        return float("inf")
    return hi / lo
