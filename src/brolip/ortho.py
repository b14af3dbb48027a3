"""Orthogonal and semi-orthogonal operator constructions.

The central construction is the block reflector W = I - 2 V (V^T V)^{-1} V^T
built from an unconstrained low-rank parameter V: W is symmetric, orthogonal,
and involutory, with n eigenvalues -1 and m-n eigenvalues +1. One primitive
applies it, `linalg.reflect` (taped: `tape.t_reflect`), from the Cholesky
factor of V^H V; the dense W is that primitive applied to the identity. The
convolutional variant applies it per spatial frequency after a unitary 2D
DFT, which yields a real, orthogonal multi-channel circular convolution.
The kernel's spectrum is the DFT of its k x k taps, one matmul with the tap
DFT matrix in frequency-major layout.
A real kernel and a real input have conjugate-symmetric spectra, so the
reflector at -f is the conjugate of the one at f: the conv builds and applies
it only at the half-plane representatives (`fft.HalfPlane`). The input's
transform to those rows, and the real inverse of the mirrored result, are
one real GEMM each with the cached `fft.real_half` tables; the output's
imaginary residue is read from the s0 self-conjugate rows of the output
spectrum, the only rows the inverse does not pair into a real sum.

Two competing constructions are provided for comparison: the Cayley
transform of a skew-symmetrized parameter (`cayley_transform`, batched, is
shared with the per-frequency benchmark), and the Newton-iteration polar
orthogonalization (with its per-iteration conditioning diagnostics, since
the iteration carries no orthogonality guarantee for ill-conditioned
parameters). A brute-force circulant materialization serves as the oracle
for the FFT path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ContractError, DivergedError, ShapeError
from .fft import fft2, half_tap_dft, ifft2, imag_residue
from .tensor import Tensor, as_real_array
from .tape import EagerOps

CONV_IMAG_TOL = 1e-9
_MATERIALIZE_CAP = 1024


@dataclass
class BroParam:
    """Unconstrained m x n parameter of a dense block reflector.

    Requires n < m (a full-rank square V degenerates to -I) and full column
    rank, which is verified by attempting a Cholesky factorization of V^T V.
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
        linalg.gram_factor(self.v)  # full column rank or SingularParameter


@dataclass
class BroConvKernel:
    """Unconstrained kernel of an orthogonal circular convolution.

    v has shape (c, n, k, k) with rank n <= c and odd kernel size k.
    `alpha` and `depth_norm` parameterize the identity residual
    re-parameterization V <- I + (alpha / depth_norm) V used by deep stacks.
    """

    v: np.ndarray
    alpha: float = 1.0
    depth_norm: float = 1.0

    def __post_init__(self):
        self.v = as_real_array(self.v)
        if self.v.ndim != 4 or self.v.shape[2] != self.v.shape[3]:
            raise ShapeError(f"kernel must be (c, n, k, k), got {self.v.shape}")
        c, n, k, _ = self.v.shape
        if n > c:
            raise ContractError(f"rank n={n} must not exceed channels c={c}")
        if k % 2 == 0:
            raise ContractError(f"kernel size must be odd, got k={k}")
        if not self.depth_norm > 0:
            raise ContractError("depth_norm must be positive")

    @property
    def channels(self) -> int:
        return self.v.shape[0]

    @property
    def rank(self) -> int:
        return self.v.shape[1]

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


def block_reflector(v: np.ndarray) -> np.ndarray:
    """W = I - 2 V (V^T V)^{-1} V^T for a full-column-rank matrix V.

    Accepts square V (degenerating to -I); rank deficiency raises
    SingularParameter from the internal Cholesky factorization.
    """
    v = as_real_array(v)
    return linalg.reflect(v, linalg.gram_factor(v), np.eye(v.shape[0]))[0]


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


def identity_residual(kernel: BroConvKernel) -> Tensor:
    """Effective parameter I + (alpha / depth_norm) V, built eagerly."""
    ik = identity_kernel(kernel.channels, kernel.rank, kernel.ksize)
    return Tensor(ik + (kernel.alpha / kernel.depth_norm) * kernel.v)


class ConvOperator(NamedTuple):
    """Parameter side of an orthogonal convolution, per spatial frequency.

    `vf` is the kernel spectrum at the m half-plane representatives of the
    padded p x p grid (`fft.half_plane(p).rep`), (m, c, n), computed by
    `conv_prepare` straight from the k x k taps; it is a backend value (a
    tape variable when recorded). `factor` is the Cholesky factor of each
    frequency's Gram vf^H vf, (m, n, n), and `kernel_imag` the kernel's
    largest imaginary magnitude; both are plain data, computed once from
    the spectrum's value. Applying the operator, or differentiating it,
    never refactors. `conv_apply` requires `kernel_imag` to be 0: the half
    plane holds only for a real kernel.
    """

    vf: object
    factor: np.ndarray
    kernel_imag: float


def conv_prepare(ops, v_eff, geom: ConvGeometry) -> ConvOperator:
    """The per-frequency operator of the kernel `v_eff` (c, n, k, k).

    The spectrum is one matmul of the cached half-plane tap DFT
    `half_tap_dft(p, k)` (m, k^2) with the kernel's taps laid out (k^2, c n):
    it equals the representative rows of the unitary `fft2` of the kernel
    zero-padded to p x p, already frequency-major, without the pad, the
    p x p transform or a layout copy.
    """
    size = geom.padded_size
    c = geom.channels_in
    k = geom.kernel
    value = ops.value(v_eff)
    n = value.shape[1]
    taps = ops.reshape(ops.transpose(v_eff, (2, 3, 0, 1)), (k * k, c * n))
    dft = half_tap_dft(size, k)
    vf = ops.reshape(ops.matmul(ops.constant(dft), taps), (dft.shape[0], c, n))
    return ConvOperator(vf, linalg.gram_factor(ops.value(vf)), _imag_max(value))


def _imag_max(a: np.ndarray) -> float:
    return float(np.abs(a.imag).max()) if np.iscomplexobj(a) and a.size else 0.0


def conv_apply(ops, v_eff, x, geom: ConvGeometry):
    """Orthogonal circular convolution of a batched input, backend-generic.

    `x` is (B, c, s, s) and `v_eff` is either the kernel (c, n, k, k) or the
    `ConvOperator` that `conv_prepare` built from it; both are backend
    values (ndarrays for the eager backend, tape variables when recording).
    The parameterization is applied per spatial frequency on the channel
    axis, at the half-plane representatives only; the output is the real
    inverse transform of their mirror. Both the kernel and `x` must be real
    (`ContractError` otherwise, before any transform). The imaginary part
    the inverse of the mirror would carry, read exactly from the output
    spectrum's self-conjugate rows (`fft.imag_residue`) and linear in `x`,
    must stay below CONV_IMAG_TOL * max(1, max|x|).
    """
    op = v_eff if isinstance(v_eff, ConvOperator) else conv_prepare(ops, v_eff, geom)
    xv = ops.value(x)
    for name, worst in (("kernel", op.kernel_imag), ("input", _imag_max(xv))):
        if worst:
            raise ContractError(
                f"{name} has imaginary residue {worst:.3e}; the conv needs a real "
                "kernel and input, whose spectra are conjugate-symmetric")
    kp = geom.half_pad
    size = geom.padded_size

    xp = ops.pad_last2(x, kp, kp) if kp else x
    xf = ops.rdft_half(xp)                              # (m, c, B)

    yf = ops.reflect(op.vf, op.factor, xf)

    worst = imag_residue(ops.value(yf), size)
    tol = CONV_IMAG_TOL * max(1.0, float(np.abs(xv).max()) if xv.size else 0.0)
    if worst > tol:
        raise ContractError(
            f"imaginary residue {worst:.3e} exceeds {tol:.1e}; "
            "parameterization should produce a real output")
    y = ops.irdft_half(yf, size)                        # (B, c, p, p)
    if not geom.keep_padding and kp:
        y = ops.crop_last2(y, kp)
    return y


def bro_conv_forward(kernel: BroConvKernel, x, geom: ConvGeometry) -> Tensor:
    """Apply the orthogonal convolution parameterized by `kernel.v`.

    Accepts a single (c, s, s) input or a batch (B, c, s, s). The kernel is
    used as given; the identity residual re-parameterization is a separate,
    explicit step.
    """
    arr = as_real_array(x)
    single = arr.ndim == 3
    if single:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
        raise ShapeError(f"input must be (c, s, s) or (B, c, s, s), got {arr.shape}")
    if geom.channels_in != geom.channels_out:
        raise ContractError("convolution path is dimension-preserving; "
                            "use semi-orthogonal truncation for channel changes")
    if arr.shape[1] != kernel.channels or arr.shape[1] != geom.channels_in:
        raise ShapeError(
            f"channel mismatch: input {arr.shape[1]}, kernel {kernel.channels}, "
            f"geometry {geom.channels_in}")
    if arr.shape[2] != geom.spatial or geom.kernel != kernel.ksize:
        raise ShapeError("geometry does not match input or kernel")
    out = conv_apply(EagerOps, kernel.v, arr, geom)
    return Tensor(out[0] if single else out)


def semi_ortho_truncate(w, c_out: int, c_in: int, ortho_tol: float = 1e-8) -> Tensor:
    """Truncate a c x c orthogonal matrix to its leading c_out x c_in block.

    Expanding blocks (c_in < c_out) keep orthonormal columns and preserve
    norms; reducing blocks keep orthonormal rows and never expand norms.
    """
    w = as_real_array(w)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"expected a square matrix, got {w.shape}")
    c = w.shape[0]
    if max(c_out, c_in) != c:
        raise ContractError(
            f"max(c_out, c_in) = {max(c_out, c_in)} must equal matrix size {c}")
    dev = np.linalg.norm(w.T @ w - np.eye(c))
    if dev > ortho_tol:
        raise ContractError(f"matrix fails orthogonality check ({dev:.3e})")
    return Tensor(w[:c_out, :c_in])


def cayley_transform(v: np.ndarray) -> np.ndarray:
    """Cayley transform W = (I - A)(I + A)^{-1} of A = (v - v^H)/2, batched.

    I + A is always invertible for skew-Hermitian A; the solve is routed
    through the Hermitian positive-definite system I - A^2 = I + A^H A.
    """
    a = 0.5 * (v - np.swapaxes(v, -1, -2).conj())
    eye = np.eye(v.shape[-1])
    return linalg.solve_hpd(eye - a @ a, (eye - a) @ (eye - a))


def cayley_orthogonalize(v) -> Tensor:
    """Cayley transform of a real square parameter (`cayley_transform`)."""
    v = as_real_array(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"expected a square matrix, got {v.shape}")
    return Tensor(cayley_transform(v))


def lot_orthogonalize(v, iters: int) -> tuple[Tensor, list[float]]:
    """Newton-iteration polar orthogonalization W = V (V^T V)^{-1/2}.

    Runs the coupled iteration Y_{i+1} = Y_i (3I - Z_i Y_i)/2,
    Z_{i+1} = (3I - Z_i Y_i) Z_i / 2 from Y_0 = V^T V scaled by its
    Frobenius norm (the scaling is folded into V so a converged Z still
    yields the polar factor). Returns the final V Z product and the
    condition number of W^T W after each iteration; there is no
    orthogonality guarantee, the trace is the product.
    """
    v = as_real_array(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ShapeError(f"expected a square matrix, got {v.shape}")
    if iters < 1:
        raise ContractError("need at least one iteration")
    m = v.shape[0]
    gram = v.T @ v
    fnorm = float(np.linalg.norm(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        y = gram / fnorm
        vn = v / np.sqrt(fnorm)
    eye = np.eye(m)
    z = eye.copy()
    conds: list[float] = []
    w = vn @ z
    for i in range(1, iters + 1):
        t = 3.0 * eye - z @ y
        y = 0.5 * (y @ t)
        z = 0.5 * (t @ z)
        w = vn @ z
        if not np.all(np.isfinite(w)):
            raise DivergedError(i, "non-finite iterate")
        conds.append(linalg.cond_spd(w.T @ w))
    return Tensor(w), conds


def materialize_conv_matrix(kernel: BroConvKernel, s: int) -> Tensor:
    """Explicit (c s^2) x (c s^2) matrix of the circular convolution.

    Restricted to the no-extra-pad path (k = 1) and to c s^2 <= 1024; used
    as the structural oracle for the FFT path. Row/column blocks follow the
    per-channel row-major vectorization, and each (c_out, c_in) block is the
    doubly circulant matrix of the effective spatial kernel.
    """
    if kernel.ksize != 1:
        raise ContractError("materialization covers the k=1 (no extra pad) path")
    c = kernel.channels
    dim = c * s * s
    if dim > _MATERIALIZE_CAP:
        raise ContractError(f"size cap exceeded: c*s^2 = {dim} > {_MATERIALIZE_CAP}")

    n = kernel.rank
    emb = np.zeros((c, n, s, s))
    emb[:, :, 0, 0] = kernel.v[:, :, 0, 0]
    vf = fft2(emb)                                    # (c, n, s, s)
    vf = vf.transpose(2, 3, 0, 1).reshape(s * s, c, n)
    vh = np.conj(np.swapaxes(vf, -1, -2))
    sol = linalg.solve_hpd(vh @ vf, vh)               # (s^2, n, c)
    wf = np.eye(c)[None] - 2.0 * (vf @ sol)           # (s^2, c, c)

    # Effective spatial kernels: the frequency response equals the
    # unnormalized DFT of the kernel, hence the extra 1/s on the unitary
    # inverse transform.
    wf_img = wf.reshape(s, s, c, c).transpose(2, 3, 0, 1)
    h = ifft2(wf_img) / s
    if float(np.max(np.abs(h.imag))) > 1e-9:
        raise ContractError("effective spatial kernel has imaginary residue")
    h = h.real

    p = np.arange(s * s)
    pr, pc = p // s, p % s
    dr = (pr[:, None] - pr[None, :]) % s
    dc = (pc[:, None] - pc[None, :]) % s
    out = np.empty((dim, dim))
    for co in range(c):
        for ci in range(c):
            out[co * s * s:(co + 1) * s * s, ci * s * s:(ci + 1) * s * s] = \
                h[co, ci][dr, dc]
    return Tensor(out)
