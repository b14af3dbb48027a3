"""Orthogonal and semi-orthogonal operator constructions.

The central construction is the block reflector W = I - 2 V (V^T V)^{-1} V^T
built from an unconstrained low-rank parameter V: W is symmetric, orthogonal,
and involutory, with n eigenvalues -1 and m-n eigenvalues +1. One primitive
applies it, `linalg.reflect` (taped: `tape.t_reflect`), from the Cholesky
factor L of V^H V; the dense W (`reflector`, which the dense layers and
`block_reflector` run) is that primitive applied to the identity,
which goes through B = L^{-1} V^H as I - 2 B^H B. The
convolutional variant applies it per spatial frequency after a unitary 2D
DFT, which yields a real, orthogonal multi-channel circular convolution.
The kernel's spectrum is the DFT of its k x k taps, one matmul with the tap
DFT matrix in frequency-major layout. Each frequency's Gram, whose Cholesky
factor the reflector needs, comes from the taps too, never from the
spectrum: every tap pair's product V_t^H V_t' in one c-deep product, then
one GEMM with the cached tap-pair weights (`linalg.gram_factor_taps`).
A real kernel and a real input have conjugate-symmetric spectra, so the
reflector at -f is the conjugate of the one at f: the conv builds and applies
it only at the half-plane representatives (`fft.HalfPlane`). The input's
transform to those rows, and the real inverse of the mirrored result, are
one real GEMM each with the cached `fft.real_window` tables. Those are the
`fft.real_half` tables of the padded grid at the input's pixels and at the
output's, so the zero pad and the crop are no separate step: a conv is
rdft_half, reflect, irdft_half for every k. The output's
imaginary residue is read from the s0 self-conjugate rows of the output
spectrum, the only rows the inverse does not pair into a real sum. The
conv functions take and return feature-major (c s^2, B) batches, the one
layout of the models' activations; `bro_conv_forward` alone reads and
returns (B, c, s, s) images. Every conv is prepare, then apply:
conv_apply takes the operator conv_prepare built, never a raw kernel.

Two competing constructions are provided for comparison: the Cayley
transform of a skew-symmetrized parameter (`cayley_transform`, batched, is
shared with the per-frequency benchmark), and the Newton-iteration polar
orthogonalization. The Newton iteration is written once, batched
(`newton_iterates`); the dense `lot_orthogonalize` adds its per-iteration
conditioning diagnostics, since the iteration carries no orthogonality
guarantee for ill-conditioned parameters, and the per-frequency benchmark
runs the same iteration. The oracle for the FFT path is the explicit matrix
of a k = 1 conv, W kron I: the same c x c reflector at every pixel.

At desk scale a conv is also a small fixed linear map (Sedghi et al.
2019): for c s^2 <= 1024, `conv_matrix` runs the spectral path once on the
identity basis and returns the conv's dense matrix A, and
`conv_matrix_apply` applies it to a feature-major batch as one GEMM, A x,
whose adjoint is the transposed GEMM. Its residue gate bounds every input
at once, so it is no looser than the per-call one.
A frozen conv layer takes this path only up to `models.DENSE_CONV_MAX`,
the size to which it was measured to pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ContractError, DivergedError, ShapeError
from .fft import half_tap_dft, imag_residue, pixel_residue
from .tensor import Tensor, as_real_array
from .tape import EagerOps, _samples

CONV_IMAG_TOL = 1e-9
_MATERIALIZE_CAP = 1024


@dataclass
class BroParam:
    """Unconstrained m x n parameter of a dense block reflector.

    Requires 1 <= n < m (a full-rank square V degenerates to -I, and no
    column to the identity) and full column rank, which is verified by
    attempting a Cholesky factorization of V^T V.
    """

    v: np.ndarray
    m: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        self.v = as_real_array(self.v)
        if self.v.ndim != 2:
            raise ShapeError(f"parameter must be 2D, got shape {self.v.shape}")
        self.m, self.n = self.v.shape
        if self.n >= self.m:
            raise ContractError(
                f"need n < m for a non-degenerate reflector, got {self.m}x{self.n}")
        if self.n < 1:
            raise ContractError(f"need at least one column, got {self.m}x{self.n}")
        linalg.gram_factor(self.v)  # full column rank or SingularParameter


@dataclass
class BroConvKernel:
    """Unconstrained kernel of an orthogonal circular convolution.

    v has shape (c, n, k, k) with rank 1 <= n <= c and odd kernel size k. The
    kernel is used as given; the identity residual I + (alpha / depth_norm) V
    of deep stacks belongs to the layer (`models.BroConvLayer`).
    """

    v: np.ndarray

    def __post_init__(self):
        self.v = as_real_array(self.v)
        if self.v.ndim != 4 or self.v.shape[2] != self.v.shape[3]:
            raise ShapeError(f"kernel must be (c, n, k, k), got {self.v.shape}")
        c, n, k, _ = self.v.shape
        if not 1 <= n <= c:
            raise ContractError(
                f"rank n={n} must not exceed channels c={c}, nor be below 1")
        if k % 2 == 0:
            raise ContractError(f"kernel size must be odd, got k={k}")

    @property
    def channels(self) -> int:
        return self.v.shape[0]

    @property
    def ksize(self) -> int:
        return self.v.shape[2]


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial bookkeeping for one convolution application."""

    channels_in: int
    channels_out: int
    spatial: int
    kernel: int
    keep_padding: bool = False

    @property
    def half_pad(self) -> int:
        return self.kernel // 2

    @property
    def padded_size(self) -> int:
        return self.spatial + 2 * self.half_pad

    @property
    def output_size(self) -> int:
        return self.padded_size if self.keep_padding else self.spatial


def reflector(ops, v):
    """The m x m block reflector W = I - 2 V (V^T V)^{-1} V^T of an m x n
    backend value V, the one dense-reflector builder: `ops.reflect` applied
    to the identity, from the Cholesky factor of V's value, so a recorded W
    differentiates through `tape.t_reflect` without refactoring. Rank
    deficiency raises `SingularParameter`."""
    value = ops.value(v)
    return ops.reflect(v, linalg.gram_factor(value), ops.constant(np.eye(value.shape[0])))


def block_reflector(v: np.ndarray) -> np.ndarray:
    """`reflector` of a full-column-rank matrix V, eagerly.

    Accepts square V (degenerating to -I); rank deficiency raises
    SingularParameter from the internal Cholesky factorization.
    """
    return reflector(EagerOps, as_real_array(v))


def bro_orthogonalize(p: BroParam) -> Tensor:
    """Orthogonal, symmetric m x m operator derived from a BroParam."""
    return Tensor(block_reflector(p.v))


def identity_kernel(c: int, n: int, k: int) -> np.ndarray:
    """Convolution kernel acting as the identity parameterization seed.

    The Kronecker delta sits at the kernel center on the first min(c, n)
    channel pairs; remaining entries are zero.
    """
    out = np.zeros((c, n, k, k))
    center = k // 2
    for i in range(min(c, n)):
        out[i, i, center, center] = 1.0
    return out


class ConvOperator(NamedTuple):
    """Parameter side of an orthogonal convolution, per spatial frequency.

    `vf` is the kernel spectrum at the m half-plane representatives of the
    padded p x p grid (`fft.half_plane(p).rep`), (m, c, n), computed by
    `conv_prepare` straight from the k x k taps; it is a backend value (a
    tape variable when recorded). `factor` is the Cholesky factor of each
    frequency's Gram vf^H vf, (m, n, n), built from the taps' pairwise
    products rather than from `vf` (`linalg.gram_factor_taps`), plain data
    computed once from the kernel's value. Applying the operator, or
    differentiating it, never refactors. `conv_prepare` builds one only for
    a real kernel: the half plane holds only for a conjugate-symmetric
    spectrum.
    """

    vf: object
    factor: np.ndarray


def tap_spectrum(ops, v, size: int):
    """Spectrum of a kernel `v` (c, n, k, k) at the half-plane rows of a size x size grid.

    One matmul of the cached half-plane tap DFT `half_tap_dft(size, k)`
    (m, k^2) with the kernel's taps laid out (k^2, c n), reshaped to
    (m, c, n): the representative rows of the unitary `fft2` of the kernel
    zero-padded to size x size, already frequency-major, without the pad,
    the full transform or a layout copy. Backend-generic.
    """
    c, n, k, _ = ops.value(v).shape
    taps = ops.reshape(ops.transpose(v, (2, 3, 0, 1)), (k * k, c * n))
    dft = half_tap_dft(size, k)
    return ops.reshape(ops.matmul(ops.constant(dft), taps), (dft.shape[0], c, n))


def conv_prepare(ops, v_eff, geom: ConvGeometry) -> ConvOperator:
    """The per-frequency operator of the kernel `v_eff` (c, n, k, k).

    The spectrum is `tap_spectrum` over the padded grid. The Grams
    vf^H vf are not formed from the spectrum: `linalg.gram_factor_taps`
    sums the taps' pairwise products V_t^H V_t' with the cached weights
    `half_tap_pairs(p, k)` and factors the result. It raises
    `ContractError` for a complex kernel, before either is computed,
    `DivergedError` for a non-finite kernel and `SingularParameter` when a
    frequency's spectrum loses column rank.
    """
    size = geom.padded_size
    value = ops.value(v_eff)
    _require_real("kernel", _imag_max(value))
    vf = tap_spectrum(ops, v_eff, size)
    return ConvOperator(vf, linalg.gram_factor_taps(value, size))


def _imag_max(a: np.ndarray) -> float:
    return float(np.abs(a.imag).max()) if np.iscomplexobj(a) and a.size else 0.0


def _require_real(name: str, worst: float) -> None:
    """Raise `ContractError` when `name`'s largest imaginary magnitude is nonzero."""
    if worst:
        raise ContractError(
            f"{name} has imaginary residue {worst:.3e}; the conv needs a real "
            "kernel and input, whose spectra are conjugate-symmetric")


def _reflected_spectrum(ops, op: ConvOperator, x, geom: ConvGeometry):
    """The reflector applied to the half-plane spectrum of the padded
    feature-major batch `x` (c s^2, B), (m, c, B)."""
    _require_real("input", _imag_max(ops.value(x)))
    return ops.reflect(op.vf, op.factor, ops.rdft_half(x, geom.padded_size, geom.spatial))


def conv_apply(ops, op: ConvOperator, x, geom: ConvGeometry):
    """Orthogonal circular convolution of a batch, backend-generic.

    `op` is the `ConvOperator` that `conv_prepare` built for `geom`. `x`, a
    backend value, is a feature-major (c s^2, B) batch of s x s images, and
    so is the output, (c s_out^2, B). The reflector is applied per spatial
    frequency on the channel axis, at the half-plane representatives only;
    the output is the real inverse transform of their mirror. `x` must be
    real (`ContractError` otherwise, before any transform). The imaginary
    part the inverse of the mirror would carry, read exactly from the output
    spectrum's self-conjugate rows (`fft.imag_residue`) and linear in `x`,
    must stay below CONV_IMAG_TOL * max(1, max|x|).
    """
    yf = _reflected_spectrum(ops, op, x, geom)
    xv = ops.value(x)
    worst = imag_residue(ops.value(yf), geom.padded_size)
    tol = CONV_IMAG_TOL * max(1.0, float(np.abs(xv).max()) if xv.size else 0.0)
    if worst > tol:
        raise ContractError(
            f"imaginary residue {worst:.3e} exceeds {tol:.1e}; "
            "parameterization should produce a real output")
    return ops.irdft_half(yf, geom.padded_size, geom.output_size)


def conv_matrix(ops, op: ConvOperator, geom: ConvGeometry):
    """The dense (c s_out^2, c s^2) matrix A of a prepared conv: column j is the conv of e_j.

    Runs the spectral path of `conv_apply` once, on the identity basis of
    c s^2 inputs as a feature-major batch, so a feature-major batch
    x (c s^2, B) convolves as A @ x. Limited to c s^2 <= 1024. The gate is
    the basis form of `conv_apply`'s: with R_j the imaginary residue that
    basis input j leaves at each pixel class and channel (through
    `fft.pixel_residue`, whose maximum is `fft.imag_residue`), it requires
    max over class and channel of sum_j |R_j| <= CONV_IMAG_TOL. Since the
    residue is linear in the input, every x then has residue at most
    CONV_IMAG_TOL * max|x|, no looser than the per-call gate.
    """
    dim = geom.channels_in * geom.spatial ** 2
    if dim > _MATERIALIZE_CAP:
        raise ContractError(f"size cap exceeded: c*s^2 = {dim} > {_MATERIALIZE_CAP}")
    # the identity is its own transpose: as the transposed view of its
    # contiguous rows, the transform reads it in place
    basis = ops.constant(np.eye(dim).T)
    yf = _reflected_spectrum(ops, op, basis, geom)
    residue = pixel_residue(ops.value(yf), geom.padded_size)   # (classes, c, dim)
    bound = float(np.abs(residue).sum(axis=-1).max())
    if bound > CONV_IMAG_TOL:
        raise ContractError(
            f"imaginary residue over the basis {bound:.3e} exceeds {CONV_IMAG_TOL:.1e}; "
            "parameterization should produce a real output")
    return ops.irdft_half(yf, geom.padded_size, geom.output_size)


def conv_matrix_apply(ops, m, x, geom: ConvGeometry):
    """The conv whose `conv_matrix` is `m`, applied to a real feature-major
    batch (c s^2, B) as one GEMM, `m` @ x, whose input adjoint on a tape is
    the transposed GEMM. A complex input raises `ContractError`, as in
    `conv_apply`.
    """
    _require_real("input", _imag_max(ops.value(x)))
    return ops.matmul(m, x)


def bro_conv_forward(kernel: BroConvKernel, x, geom: ConvGeometry) -> Tensor:
    """Apply the orthogonal convolution parameterized by `kernel.v`.

    Accepts a single (c, s, s) input or a batch (B, c, s, s), and returns
    the same form; the kernel is used as given, prepared, then applied. This
    is the only function that reads or returns image batches: the batch
    enters `conv_apply` as
    the transposed view of its contiguous samples, which the transform
    reads without a copy, and the feature-major output leaves through one
    transposing copy.
    """
    arr = as_real_array(x)
    single = arr.ndim == 3
    if single:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
        raise ShapeError(f"input must be (c, s, s) or (B, c, s, s), got {arr.shape}")
    if geom.channels_in != geom.channels_out:
        raise ContractError("convolution path is dimension-preserving; "
                            "use a semi-orthogonal layer for channel changes")
    if arr.shape[1] != kernel.channels or arr.shape[1] != geom.channels_in:
        raise ShapeError(
            f"channel mismatch: input {arr.shape[1]}, kernel {kernel.channels}, "
            f"geometry {geom.channels_in}")
    if arr.shape[2] != geom.spatial or geom.kernel != kernel.ksize:
        raise ShapeError("geometry does not match input or kernel")
    b, c, s = arr.shape[:3]
    size = geom.output_size
    cols = np.ascontiguousarray(arr).reshape(b, c * s * s).T
    op = conv_prepare(EagerOps, kernel.v, geom)
    out = _samples(conv_apply(EagerOps, op, cols, geom)).reshape(b, c, size, size)
    return Tensor(out[0] if single else out)


def cayley_transform(v: np.ndarray) -> np.ndarray:
    """Cayley transform W = (I - A)(I + A)^{-1} of A = (v - v^H)/2, batched.

    I + A is always invertible for skew-Hermitian A; the solve is routed
    through the Hermitian positive-definite system I - A^2 = I + A^H A.
    """
    a = 0.5 * (v - linalg.adjoint(v))
    eye = np.eye(v.shape[-1])
    return linalg.solve_hpd(eye - a @ a, (eye - a) @ (eye - a))


def cayley_orthogonalize(v) -> Tensor:
    """Cayley transform of a real square parameter (`cayley_transform`)."""
    v = as_real_array(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"expected a square matrix, got {v.shape}")
    return Tensor(cayley_transform(v))


def newton_iterates(v: np.ndarray, iters: int):
    """Coupled Newton iteration towards the polar factor V (V^H V)^{-1/2}, batched.

    `v` is (..., m, n). Y_0 = V^H V is scaled by its Frobenius norm (the
    scaling is folded into V as vn, so a converged Z still yields the polar
    factor), Z_0 = I, then Y_{i+1} = Y_i (3I - Z_i Y_i)/2 and
    Z_{i+1} = (3I - Z_i Y_i) Z_i / 2. Yields (vn, Z_i) after each iteration;
    vn @ Z_i is the i-th estimate. Raises `DivergedError` at the first
    non-finite iterate.
    """
    if iters < 1:
        raise ContractError("need at least one iteration")
    gram = linalg.adjoint(v) @ v
    fro = np.linalg.norm(gram, axis=(-2, -1), keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = gram / fro
        vn = v / np.sqrt(fro)
    eye = np.eye(gram.shape[-1])
    z = np.broadcast_to(eye, y.shape).astype(y.dtype)
    for i in range(1, iters + 1):
        t = 3.0 * eye - z @ y
        y = 0.5 * (y @ t)
        z = 0.5 * (t @ z)
        if not np.all(np.isfinite(z)):
            raise DivergedError(i, "non-finite Newton iterate")
        yield vn, z


def lot_orthogonalize(v, iters: int) -> tuple[Tensor, list[float]]:
    """Newton-iteration polar orthogonalization W = V (V^T V)^{-1/2}.

    Runs `newton_iterates` on the square parameter. Returns the final V Z
    product and the condition number of W^T W after each iteration; there
    is no orthogonality guarantee, the trace is the product.
    """
    v = as_real_array(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"expected a square matrix, got {v.shape}")
    conds: list[float] = []
    for vn, z in newton_iterates(v, iters):
        w = vn @ z
        conds.append(linalg.cond_spd(w.T @ w))
    return Tensor(w), conds


def materialize_conv_matrix(kernel: BroConvKernel, s: int) -> Tensor:
    """Explicit (c s^2) x (c s^2) matrix of the circular convolution.

    Restricted to the no-extra-pad path (k = 1) and to c s^2 <= 1024; used
    as the structural oracle for the FFT path. A k = 1 kernel has the same
    spectrum at every frequency (Sedghi et al. 2019), so the conv applies one
    c x c reflector W = I - 2 V (V^T V)^{-1} V^T at every pixel. W is
    evaluated by that formula through `linalg.solve_hpd`, independently of
    `linalg.reflect`. Row/column blocks follow the per-channel row-major
    vectorization, so the matrix is W kron I_{s^2}.
    """
    if kernel.ksize != 1:
        raise ContractError("materialization covers the k=1 (no extra pad) path")
    c = kernel.channels
    dim = c * s * s
    if dim > _MATERIALIZE_CAP:
        raise ContractError(f"size cap exceeded: c*s^2 = {dim} > {_MATERIALIZE_CAP}")

    v = kernel.v[:, :, 0, 0]
    w = np.eye(c) - 2.0 * (v @ linalg.solve_hpd(v.T @ v, v.T))
    return Tensor(np.kron(w, np.eye(s * s)))
