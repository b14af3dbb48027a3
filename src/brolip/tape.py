"""Minimal reverse-mode differentiation tape.

Nodes are appended in execution order, each saving its forward value and a
vector-Jacobian closure. A node requires grad when any of its inputs does;
the backward pass is a single reverse sweep that visits every node at most
once, skips nodes without a grad-requiring input, and propagates no
cotangent into an input that does not require grad. Values are float64 or
complex128 ndarrays.
Complex cotangents follow the real-pairing convention (d/d re + i d/d im),
under which the adjoint of a complex-linear map is its conjugate transpose;
with that convention the same matmul and reflector rules cover both dtypes.
A real operand of a complex result (matmul, reflect, rdft_half) gets the
real part. A VJP's conjugate transpose is `linalg.adjoint`, a view for a
real operand, not a conjugated copy. The spatial primitives take and
return feature-major (c s^2, B) batches of s x s images, the one layout of
the models' activations. `rdft_half` takes an unpadded s x s signal and
`irdft_half` returns a centred window of the p x p image: the zero pad and
the crop are the rows and columns their tables (`fft.real_window`) keep,
so neither is a primitive. Both multiply the batch's (B c, s^2) image
rows, since their bits are those of that row order: `_samples` reads them
through at most one transposing copy, and `_columns` writes them back
through one, with no node for either. `transpose` returns a contiguous
copy for the same reason: a GEMM can round a transposed view unlike the
same values stored contiguously.
The block reflector is one node, `t_reflect`, with a closed-form adjoint
that reuses the forward's Cholesky factor, so no VJP factors, and the
B = L^{-1} V^H the forward formed, if it did.

The pair ops work on reshape views and move no axis: maxmin reads its
input flat in runs, a feature-major batch's channels as blocks of s^2 B
contiguous entries, and pairs consecutive runs; l2_pool sums the
(q, p, q, p) patches of the batch's image copy.
maxmin writes max(o, e) into each pair's even slot and min(e, o) into its
odd one; each ufunc returns its second operand on equal inputs,
so a tie keeps its entries in place, signed zeros included, and a NaN
reaches both slots of its pair. The VJP routes the cotangent through the
forward's e >= o mask.

Layer math is written once against two backends with the same primitive
names: `EagerOps` binds each name straight to its ndarray form, `TapeOps`
to its `t_*` recorder, so neither adds a call between the math and the
primitive.

A tape instance is single-threaded; independent tapes may run in parallel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fft, linalg
from .errors import ContractError
from .linalg import adjoint
from .tensor import record_alloc


@dataclass(frozen=True)
class Var:
    tape: "Tape"
    idx: int

    @property
    def value(self) -> np.ndarray:
        return self.tape.nodes[self.idx].value

    @property
    def requires_grad(self) -> bool:
        return self.tape.nodes[self.idx].requires_grad


class _Node:
    __slots__ = ("op", "value", "inputs", "vjp", "requires_grad")

    def __init__(self, op, value, inputs, vjp, requires_grad):
        self.op = op
        self.value = value
        self.inputs = inputs
        self.vjp = vjp
        self.requires_grad = requires_grad


class Tape:
    def __init__(self):
        self.nodes: list[_Node] = []

    def leaf(self, value, requires_grad: bool = True) -> Var:
        """A variable holding `value` as float64 or complex128, contiguous:
        an array that is neither C- nor F-contiguous is copied. An
        F-contiguous one, such as a network's feature-major view of its
        contiguous samples, is kept, so that a recorded forward reads the
        memory order, and with it the bits, of the eager one."""
        arr = np.asarray(value)
        target = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = arr.astype(target, copy=False)
        if arr.ndim and not (arr.flags["C_CONTIGUOUS"] or arr.flags["F_CONTIGUOUS"]):
            arr = np.ascontiguousarray(arr)
        return self._append("leaf", arr, (), None, requires_grad)

    def constant(self, value) -> Var:
        """A leaf that requires no grad, holding `value` as given.

        Unlike `leaf`, it makes no contiguous copy: an operator prepared
        eagerly keeps its memory layout, and with it the exact bits BLAS
        returns for it, which a contiguous copy can change.
        """
        return self._append("leaf", np.asarray(value), (), None, False)

    def _append(self, op, value, inputs, vjp, requires_grad=False) -> Var:
        record_alloc(value.size)
        nodes = self.nodes
        for j in inputs:
            if nodes[j].requires_grad:
                requires_grad = True
                break
        nodes.append(_Node(op, value, inputs, vjp, requires_grad))
        return Var(self, len(nodes) - 1)

    def backward(self, out: Var, seed=None) -> dict[int, np.ndarray]:
        """Cotangents of every grad-requiring leaf, keyed by node index."""
        if out.tape is not self:
            raise ContractError("output variable belongs to a different tape")
        if seed is None:
            if out.value.shape != ():
                raise ContractError("backward without a seed needs a scalar output")
            seed = np.ones((), dtype=np.float64)
        nodes = self.nodes
        grads: dict[int, np.ndarray] = {out.idx: np.asarray(seed)}
        leaf_grads: dict[int, np.ndarray] = {}
        for i in range(out.idx, -1, -1):
            g = grads.pop(i, None)
            if g is None:
                continue
            node = nodes[i]
            if not node.requires_grad:
                continue
            if node.vjp is None:
                leaf_grads[i] = g
                continue
            for j, gj in zip(node.inputs, node.vjp(g)):
                if gj is None or not nodes[j].requires_grad:
                    continue
                if j in grads:
                    grads[j] = grads[j] + gj
                else:
                    grads[j] = gj
        return leaf_grads


# ---------------------------------------------------------------------------
# Primitives. Each appends one node with its VJP closure.

def _cotangent(g, real_input):
    """The cotangent of an input: its real part when the input is real."""
    return np.ascontiguousarray(g.real) if real_input else g


def t_add(a: Var, b: Var) -> Var:
    return a.tape._append("add", a.value + b.value, (a.idx, b.idx),
                          lambda g: (g, g))


def t_scale(a: Var, c: float) -> Var:
    return a.tape._append("scale", a.value * c, (a.idx,), lambda g: (g * c,))


def t_mul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    return a.tape._append("mul", av * bv, (a.idx, b.idx),
                          lambda g: (g * np.conj(bv), g * np.conj(av)))


def t_scale_by(a: Var, s: Var) -> Var:
    """Multiply a tensor by a learned scalar (0-d variable)."""
    av, sv = a.value, s.value
    if sv.shape != ():
        raise ContractError("scale factor must be a 0-d variable")

    def vjp(g):
        ga = g * sv
        gs = np.asarray(np.sum(np.real(g * np.conj(av))))
        return ga, gs

    return a.tape._append("scale_by", av * sv, (a.idx, s.idx), vjp)


def t_matmul(a: Var, b: Var) -> Var:
    av, bv = a.value, b.value
    if av.ndim != bv.ndim or av.shape[:-2] != bv.shape[:-2]:
        raise ContractError(
            f"matmul needs matching batch dims, got {av.shape} @ {bv.shape}")

    # flags, not the variables: a closure holding a Var would make the tape
    # a reference cycle that only the cyclic garbage collector frees
    a_grad, b_grad = a.requires_grad, b.requires_grad
    a_real, b_real = av.dtype != np.complex128, bv.dtype != np.complex128

    def vjp(g):
        ga = _cotangent(g @ adjoint(bv), a_real) if a_grad else None
        gb = _cotangent(adjoint(av) @ g, b_real) if b_grad else None
        return ga, gb

    return a.tape._append("matmul", av @ bv, (a.idx, b.idx), vjp)


def _transpose(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The axes permuted, as a contiguous copy: a GEMM it feeds reads the
    memory order a contiguous operand has, and with it the same bits."""
    return np.ascontiguousarray(np.transpose(a, axes))


def t_transpose(a: Var, axes: tuple[int, ...]) -> Var:
    inv = tuple(np.argsort(axes))
    return a.tape._append("transpose", _transpose(a.value, axes), (a.idx,),
                          lambda g: (_transpose(g, inv),))


def t_reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.value.shape
    return a.tape._append("reshape", np.reshape(a.value, shape), (a.idx,),
                          lambda g: (np.reshape(g, old),))


def _freq_major(flat: np.ndarray, b: int, c: int) -> np.ndarray:
    """(B c, 2m) interleaved float rows -> complex, frequency-major (m, c, B)."""
    return np.ascontiguousarray(
        flat.view(np.complex128).reshape(b, c, -1).transpose(2, 1, 0))


def _batch_major(a: np.ndarray) -> np.ndarray:
    """Complex (m, c, B) -> its interleaved float view, batch-major (B c, 2m)."""
    m, c, b = a.shape
    rows = np.ascontiguousarray(a.transpose(2, 1, 0), dtype=np.complex128)
    return rows.view(np.float64).reshape(b * c, 2 * m)


# Entries per block of `_samples`' transposing copy: 2^12 (32 KB) keeps a
# block's source in a 48 KB L1 cache. At c s^2 = 16384, B = 16 (a 2-vCPU
# Xeon host) the copy takes 0.29 ms against 0.80 ms unblocked and 0.40 ms
# in blocks of 2^16; a batch that fits in one block is copied in one step.
_SAMPLES_BLOCK = 1 << 12


def _samples(a: np.ndarray) -> np.ndarray:
    """The contiguous (B, d) samples of a feature-major (d, B) batch: a view
    when the batch is itself the transposed view of contiguous samples,
    otherwise the transposing copy, made in blocks of rows."""
    if a.T.flags["C_CONTIGUOUS"]:
        return a.T
    step = max(1, _SAMPLES_BLOCK // max(1, a.shape[1]))
    out = np.empty(a.shape[::-1], a.dtype)
    for i in range(0, a.shape[0], step):
        out[:, i:i + step] = a[i:i + step].T
    return out


def _columns(a: np.ndarray) -> np.ndarray:
    """A (B, ...) batch -> its contiguous feature-major (d, B) form."""
    return np.ascontiguousarray(a.reshape(a.shape[0], math.prod(a.shape[1:])).T)


def _rdft_half(a: np.ndarray, p: int, s: int) -> np.ndarray:
    """A feature-major (c s^2, B) batch of real s x s images -> the
    representative rows, (m, c, B), of their zero-padding to the centred
    window of a p x p grid.

    One real GEMM of the (B c, s^2) image rows, read through `_samples`,
    with the `fft.real_window` forward rows, whose float product is the
    complex result viewed in place. `a` must be real-valued.
    """
    b, c = a.shape[1], a.shape[0] // (s * s)
    rows = _samples(a.real).reshape(b * c, s * s)
    return _freq_major(rows @ fft.real_window(p, s)[0], b, c)


def _irdft_half(a: np.ndarray, p: int, s: int) -> np.ndarray:
    """(m, c, B) representative rows -> the centred s x s window of the real
    p x p image of their mirror, feature-major (c s^2, B)."""
    _, c, b = a.shape
    rows = _batch_major(a) @ fft.real_window(p, s)[1]
    return _columns(rows.reshape(b, c, s * s))


def t_rdft_half(a: Var, p: int, s: int) -> Var:
    """Half-plane spectrum of a zero-padded real signal; the VJP is the
    transposed GEMM with the same rows.

    Under the real pairing the interleaved float view of a complex
    cotangent is the cotangent of the float product, so neither adjoint
    needs complex arithmetic.
    """
    def vjp(g):
        rows = _batch_major(g) @ fft.real_window(p, s)[0].T
        return (_columns(rows.reshape(g.shape[2], g.shape[1], s * s)),)

    return a.tape._append("rdft_half", _rdft_half(a.value, p, s), (a.idx,), vjp)


def t_irdft_half(a: Var, p: int, s: int) -> Var:
    """Window of the real image of a half-plane spectrum; the VJP is the
    transposed GEMM with the same columns."""
    _, c, b = a.value.shape

    def vjp(g):
        rows = _samples(g.real).reshape(b * c, s * s)
        return (_freq_major(rows @ fft.real_window(p, s)[1].T, b, c),)

    return a.tape._append("irdft_half", _irdft_half(a.value, p, s), (a.idx,), vjp)


def t_reflect(v: Var, factor: np.ndarray, x: Var) -> Var:
    """Block reflector y = x - 2 V S, S = G^{-1} V^H x, as one node.

    `factor`, the Cholesky factor L of G = V^H V = L L^H
    (`linalg.gram_factor` of `v.value`, or for a conv spectrum
    `linalg.gram_factor_taps` of its kernel), is plain data, not a node;
    the forward is `linalg.reflect` and both adjoints reuse what it kept.
    With T = G^{-1} V^H ybar and P = V G^{-1} V^H: xbar = ybar - 2 V T, the
    reflector applied to ybar, and vbar = -2 (I - P)(ybar S^H + x T^H) =
    -((ybar + xbar) S^H + (x + y) T^H), since W = I - 2P. When the forward
    went through B = L^{-1} V^H and u = B x, then S = L^{-H} u and
    T = L^{-H} B ybar: xbar = ybar - 2 B^H (B ybar) takes no solve, and
    vbar = -((ybar + xbar) u^H + (x + y)(B ybar)^H) L^{-1} one right-side
    solve, only when V requires grad.
    """
    vv, xv = v.value, x.value
    y, (b, kept) = linalg.reflect(vv, factor, xv)
    v_grad, x_grad = v.requires_grad, x.requires_grad
    v_real, x_real = vv.dtype != np.complex128, xv.dtype != np.complex128

    def vjp(g):
        # `kept` and `t` are S and T, or u and B ybar
        if b is None:
            gx, (_, t) = linalg.reflect(vv, factor, g)
        else:
            t = b @ g
            gx = adjoint(b) @ t
            gx *= -2.0
            gx += g
        if not v_grad:
            return None, _cotangent(gx, x_real) if x_grad else None
        gv = -((g + gx) @ adjoint(kept) + (xv + y) @ adjoint(t))
        if b is not None:  # gv L^{-1} = (L^{-H} gv^H)^H
            gv = adjoint(linalg.solve_upper_conj(factor, adjoint(gv)))
        return _cotangent(gv, v_real), _cotangent(gx, x_real) if x_grad else None

    return v.tape._append("reflect", y, (v.idx, x.idx), vjp)


def _pairs(a: np.ndarray, run: int) -> np.ndarray:
    """`a` read flat in runs of `run` entries and viewed as (pairs, 2, run),
    so that runs 2i and 2i + 1 meet: a feature-major (c s^2, B) batch with
    run s^2 B pairs its channels, each half a contiguous block. Every size
    is spelled out so that an empty array still reshapes; run 0 tiles only
    an empty one.
    """
    size, rest = divmod(a.size, run) if run else (0, a.size)
    if rest:
        raise ContractError(f"maxmin runs of {run} do not tile {a.size} entries")
    if size % 2:
        raise ContractError(f"maxmin needs an even number of runs, got {size} of {run}")
    return a.reshape(size // 2, 2, run)


def _maxmin(a: np.ndarray, run: int) -> np.ndarray:
    # the operand order is the tie rule: each ufunc returns its second
    # operand on equal inputs, so a tie keeps e even and o odd
    pairs = _pairs(a, run)
    e, o = pairs[:, :1], pairs[:, 1:]
    out = np.empty(pairs.shape, a.dtype)
    np.maximum(o, e, out=out[:, :1])
    np.minimum(e, o, out=out[:, 1:])
    return out.reshape(a.shape)


def t_maxmin(a: Var, run: int) -> Var:
    pairs = _pairs(a.value, run)
    take_e = pairs[:, :1] >= pairs[:, 1:]

    def vjp(g):
        gp = _pairs(g, run)
        return (np.where(take_e, gp, gp[:, ::-1]).reshape(g.shape),)

    return a.tape._append("maxmin", _maxmin(a.value, run), (a.idx,), vjp)


def _l2_pool_fwd(a: np.ndarray, p: int, s: int):
    """Norms of the p x p patches of a feature-major (c s^2, B) batch of
    s x s images -> (c q^2, B), q = s / p. Also returns the norms as
    (B, c, q, q) and the (B, c, q, p, q, p) patch view they were summed
    over, of the batch's contiguous image copy (`_samples`): numpy sums a
    patch's contiguous entries in an order that no reduction over the
    batch's own layout repeats, and the copy keeps the image order's bits."""
    c, rest = divmod(a.shape[0], s * s)
    if rest or s % p:
        raise ContractError(
            f"l2_pool needs {a.shape[0]} rows to hold {s} x {s} images in patches of {p}")
    q = s // p
    blocks = _samples(a).reshape(a.shape[1], c, q, p, q, p)
    norms = np.sqrt(np.sum(blocks * blocks, axis=(-3, -1)))
    return _columns(norms), norms, blocks


def t_l2_pool(a: Var, p: int, s: int) -> Var:
    out, norms, blocks = _l2_pool_fwd(a.value, p, s)

    def vjp(g):
        # g / norm broadcast over each patch's (q, 1, q, 1) slot; 0 on a zero patch
        safe = np.where(norms > 0, norms, 1.0)
        coeff = (g.T.reshape(norms.shape) / safe)[..., None, :, None]
        grad = np.where(norms[..., None, :, None] > 0, coeff * blocks, 0.0)
        return (_columns(grad),)

    return a.tape._append("l2_pool", out, (a.idx,), vjp)


def _row_normalize_fwd(w: np.ndarray):
    norms = np.linalg.norm(w, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return w / safe[:, None], norms, safe


def t_row_normalize(w: Var) -> Var:
    out, norms, safe = _row_normalize_fwd(w.value)

    def vjp(g):
        inner = np.sum(g * out, axis=1, keepdims=True)
        grad = (g - inner * out) / safe[:, None]
        return (np.where(norms[:, None] > 0, grad, g),)

    return w.tape._append("row_normalize", out, (w.idx,), vjp)


def _slice2d(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return np.ascontiguousarray(a[:rows, :cols])


def t_slice2d(a: Var, rows: int, cols: int) -> Var:
    full = a.value.shape

    def vjp(g):
        out = np.zeros(full, dtype=g.dtype)
        out[:rows, :cols] = g
        return (out,)

    return a.tape._append("slice2d", _slice2d(a.value, rows, cols), (a.idx,), vjp)


def t_sum(a: Var) -> Var:
    shape = a.value.shape
    return a.tape._append("sum", np.asarray(np.sum(a.value)), (a.idx,),
                          lambda g: (np.broadcast_to(g, shape).copy(),))


def t_custom_scalar(z: Var, fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
                    name: str = "custom_scalar") -> Var:
    """Scalar node whose gradient w.r.t. z comes from `fn` analytically."""
    value, dz = fn(z.value)
    return z.tape._append(name, np.asarray(float(value)), (z.idx,),
                          lambda g: (np.asarray(g) * dz,))


def grad_check(f: Callable[[Var], Var], x, h: float = 1e-5) -> float:
    """Max relative disagreement between tape and central-difference gradients.

    `f` builds a scalar from a single leaf variable. Returns
    max_i |analytic_i - numeric_i| / max(1, |analytic_i|); NaN from `f`
    propagates into the result.
    """
    if h <= 0:
        raise ContractError("step size must be positive")
    x0 = np.ascontiguousarray(x, dtype=np.float64)
    tape = Tape()
    leaf = tape.leaf(x0)
    out = f(leaf)
    if out.value.shape != ():
        raise ContractError("grad_check needs a scalar-valued function")
    analytic = tape.backward(out).get(leaf.idx)
    if analytic is None:
        analytic = np.zeros_like(x0)
    analytic = np.real(analytic)

    def value_at(arr):
        t = Tape()
        return float(f(t.leaf(arr)).value)

    flat = x0.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        up = value_at(bumped.reshape(x0.shape))
        bumped[i] -= 2 * h
        down = value_at(bumped.reshape(x0.shape))
        numeric[i] = (up - down) / (2 * h)
    err = np.abs(analytic.reshape(-1) - numeric) / np.maximum(1.0, np.abs(analytic.reshape(-1)))
    worst = float(np.max(err)) if err.size else 0.0
    return worst


# ---------------------------------------------------------------------------
# Twin op backends: the layer/convolution math is written once against this
# interface and runs either eagerly on ndarrays or recorded on a tape; each
# name is the primitive itself, with no forwarding call in between.

def _first(forward):
    """The eager form of a forward that also returns what its VJP keeps."""
    def first(*args, **kwargs):
        return forward(*args, **kwargs)[0]
    return staticmethod(first)


class EagerOps:
    """Executes the primitive set directly on ndarrays."""

    constant = value = staticmethod(np.asarray)
    add = staticmethod(operator.add)
    scale = scale_by = staticmethod(operator.mul)
    matmul = staticmethod(operator.matmul)
    transpose = staticmethod(_transpose)
    reshape = staticmethod(np.reshape)
    rdft_half = staticmethod(_rdft_half)
    irdft_half = staticmethod(_irdft_half)
    reflect = _first(linalg.reflect)
    maxmin = staticmethod(_maxmin)
    l2_pool = _first(_l2_pool_fwd)
    row_normalize = _first(_row_normalize_fwd)
    slice2d = staticmethod(_slice2d)


class TapeOps:
    """Records the primitive set on a tape for later backpropagation."""

    value = staticmethod(operator.attrgetter("value"))
    add = staticmethod(t_add)
    scale = staticmethod(t_scale)
    scale_by = staticmethod(t_scale_by)
    matmul = staticmethod(t_matmul)
    transpose = staticmethod(t_transpose)
    reshape = staticmethod(t_reshape)
    rdft_half = staticmethod(t_rdft_half)
    irdft_half = staticmethod(t_irdft_half)
    reflect = staticmethod(t_reflect)
    maxmin = staticmethod(t_maxmin)
    l2_pool = staticmethod(t_l2_pool)
    row_normalize = staticmethod(t_row_normalize)
    slice2d = staticmethod(t_slice2d)

    def __init__(self, tape: Tape):
        self.constant = tape.constant
