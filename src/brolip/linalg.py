"""Hermitian positive-definite solves via Cholesky factorization, and the
block reflector `reflect` built on them from a Gram's factor.

The factorization runs on numpy's LAPACK; the triangular solves are one
blocked substitution of our own, with no LU anywhere. The rank-deficiency
contract stays under our control: after factoring, a pivot L[j, j]^2 at or
below 1e-12 times the matrix trace raises `SingularParameter` instead of
silently regularizing, because downstream orthogonality certificates depend
on the solve being exact. When LAPACK itself rejects the matrix, an
unblocked elimination re-runs it only to find the failing pivot. Non-finite
entries are rejected before factoring: one sum of the entries, with the
element-wise search that names the entry run only when that sum is not
finite.

The block reflector `reflect` applies I - 2 V G^{-1} V^H from G's factor
L in whichever association needs fewer triangular solves for x's shape:
through B = L^{-1} V^H when x has more than half as many columns as V has
rows (certify, PGD, a reflector matrix), else through G^{-1} V^H x.

A conv's per-frequency Grams come from its k x k taps, not from its
spectrum (`gram_factor_taps`): one c-deep product of the taps with
themselves, real for a real kernel, then one GEMM with the cached tap-pair
weights of the frequencies.

All routines take and return ndarrays, accept a stack of matrices
(leading batch axes) and work for float64 and complex128 alike; `np.conj`
on real data is the identity, so `adjoint`, the library's one conjugate
transpose, is a view of real data. `solve_hpd` is the general Hermitian
positive-definite solve (Cholesky, then both substitutions); its callers
pass Hermitian matrices by construction, so it checks no symmetry.
Substitution is blocked so the heavy lifting happens in large batched
matmuls; within a diagonal block it runs row by row.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergedError, ShapeError, SingularParameter
from .fft import half_tap_pairs
from .tensor import record_alloc

PIVOT_REL_TOL = 1e-12
_BLOCK = 48


def adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose (batched); for a real array a view, so numpy
    computes V^T V as a symmetric product and a real VJP copies nothing."""
    return np.swapaxes(a, -1, -2).conj()


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
    # any non-finite entry makes the sum non-finite; a finite matrix whose
    # sum overflows (numpy warns) passes the element-wise search below
    if np.isfinite(a.sum()):
        return
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


def _substitute(l: np.ndarray, b: np.ndarray, upper: bool) -> np.ndarray:
    """x with L x = b by forward substitution, or with L^H x = b by back
    substitution (`upper`), batched over leading axes.

    Blocked: each block of rows first subtracts its coupling to the solved
    blocks in one large matmul, then solves its diagonal block row by row,
    so no diagonal block is ever LU-factored. Rows of L^H are conjugated
    columns of L.
    """
    n = l.shape[-1]
    # C order whatever b's layout (reflect passes a transposed one), so each
    # row of x is contiguous
    x = np.array(b, dtype=np.result_type(l.dtype, b.dtype), order="C", copy=True)
    record_alloc(x.size)
    starts = range(0, n, _BLOCK)
    for j0 in (reversed(starts) if upper else starts):
        j1 = min(j0 + _BLOCK, n)
        if upper:
            if j1 < n:
                x[..., j0:j1, :] -= adjoint(l[..., j1:, j0:j1]) @ x[..., j1:, :]
            for i in range(j1 - 1, j0 - 1, -1):
                if i + 1 < j1:
                    x[..., i:i + 1, :] -= adjoint(l[..., i + 1:j1, i:i + 1]) @ x[..., i + 1:j1, :]
                x[..., i, :] /= np.conj(l[..., i, i])[..., None]
        else:
            if j0:
                x[..., j0:j1, :] -= l[..., j0:j1, :j0] @ x[..., :j0, :]
            for i in range(j0, j1):
                if i > j0:
                    x[..., i:i + 1, :] -= l[..., i:i + 1, j0:i] @ x[..., j0:i, :]
                x[..., i, :] /= l[..., i, i][..., None]
    return x


def solve_lower(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b by blocked forward substitution (L lower, batched)."""
    return _substitute(l, b, upper=False)


def solve_upper_conj(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^H x = b by blocked back substitution against the lower factor."""
    return _substitute(l, b, upper=True)


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for Hermitian positive-definite a (batched).

    Cholesky factorization followed by the two triangular solves.
    """
    l = cholesky(a)
    return solve_upper_conj(l, solve_lower(l, b))


def gram_factor(v: np.ndarray) -> np.ndarray:
    """Cholesky factor L of the Gram matrix V^H V = L L^H (batched).

    Raises SingularParameter, as `cholesky` does, when V loses column rank.
    """
    return cholesky(adjoint(v) @ v)


def gram_factor_taps(v: np.ndarray, p: int) -> np.ndarray:
    """Cholesky factors (m, n, n) of the Grams of a kernel's spectrum.

    `v` holds the k x k taps V_t (c, n) of a kernel (c, n, k, k). Its
    spectrum at the m half-plane frequencies f of the p x p grid is
    vf(f) = sum_t F[f, t] V_t with F = `half_tap_dft(p, k)`, so
    vf(f)^H vf(f) = sum_{t, t'} conj(F[f, t]) F[f, t'] V_t^H V_t'. The taps
    laid out as Vs (c, k^2 n) give every V_t^H V_t' in one product Vs^H Vs,
    symmetric and real for a real kernel; one GEMM with
    `half_tap_pairs(p, k)` (m, k^4) sums them per frequency. Raises as
    `cholesky` does.
    """
    c, n, k, _ = v.shape
    taps = v.transpose(0, 2, 3, 1).reshape(c, k * k * n)
    pairs = (adjoint(taps) @ taps).reshape(k * k, n, k * k, n)
    pairs = pairs.transpose(0, 2, 1, 3).reshape(k ** 4, n * n)
    return cholesky((half_tap_pairs(p, k) @ pairs).reshape(-1, n, n))


def reflect(v: np.ndarray, factor: np.ndarray, x: np.ndarray
            ) -> tuple[np.ndarray, tuple[np.ndarray | None, np.ndarray]]:
    """Block reflector y = x - 2 V G^{-1} V^H x, G = V^H V = L L^H.

    `factor` is L (`gram_factor(v)`), so no Gram is formed or factored
    here. Batched over leading axes; `x` broadcasts against them (an
    identity `x` yields the reflector matrix itself). V is c x n and x has
    b columns; the product is associated by shape, whichever needs fewer
    triangular solves:
    - c < 2b: B = L^{-1} V^H, one solve over c right-hand sides, then
      y = x - 2 B^H (B x). Returns y and (B, B x).
    - otherwise: S = L^{-H} L^{-1} V^H x, two solves over b right-hand
      sides, then y = x - 2 V S. Returns y and (None, S).
    The taped adjoint reuses the second output.
    """
    if v.shape[-2] < 2 * x.shape[-1]:
        b = solve_lower(factor, adjoint(v))
        u = b @ x
        y = adjoint(b) @ u
        y *= -2.0
        y += x
        return y, (b, u)
    # V^H x, conjugating the narrower operand: (x^H V)^H copies x and the
    # product instead of V when x has fewer columns than V
    s = adjoint(adjoint(x) @ v) if x.shape[-1] < v.shape[-1] else adjoint(v) @ x
    s = solve_lower(factor, s)  # rebinding frees V^H x before the second solve
    s = solve_upper_conj(factor, s)
    return x - 2.0 * (v @ s), (None, s)


def cond_spd(a: np.ndarray) -> float:
    """2-norm condition number of a symmetric PSD matrix (inf if singular)."""
    vals = np.linalg.eigvalsh(a)
    lo, hi = float(vals[0]), float(vals[-1])
    if lo <= 0.0:
        return float("inf")
    return hi / lo
