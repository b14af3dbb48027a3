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
real part. The block reflector is one node, `t_reflect`, with a closed-form
adjoint that reuses the forward's Cholesky factor, so no VJP factors.

A tape instance is single-threaded; independent tapes may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fft, linalg
from .errors import ContractError
from .tensor import Tensor, record_alloc


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
        arr = np.asarray(value)
        target = np.complex128 if arr.dtype == np.complex128 else np.float64
        arr = arr.astype(target, copy=False)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
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


def tape_backward(t: Tape, output_node: Var) -> dict[int, Tensor]:
    """Gradient of a scalar output with respect to every leaf on the tape."""
    if output_node.value.shape != ():
        raise ContractError("output node must be scalar-valued")
    raw = t.backward(output_node)
    return {idx: Tensor(np.real(g)) for idx, g in raw.items()}


# ---------------------------------------------------------------------------
# Primitives. Each appends one node with its VJP closure.

def _swap(a):
    return np.swapaxes(a, -1, -2)


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
        ga = _cotangent(g @ np.conj(_swap(bv)), a_real) if a_grad else None
        gb = _cotangent(np.conj(_swap(av)) @ g, b_real) if b_grad else None
        return ga, gb

    return a.tape._append("matmul", av @ bv, (a.idx, b.idx), vjp)


def t_transpose(a: Var, axes: tuple[int, ...]) -> Var:
    inv = tuple(np.argsort(axes))
    return a.tape._append("transpose", np.transpose(a.value, axes), (a.idx,),
                          lambda g: (np.transpose(g, inv),))


def t_reshape(a: Var, shape: tuple[int, ...]) -> Var:
    old = a.value.shape
    return a.tape._append("reshape", np.reshape(a.value, shape), (a.idx,),
                          lambda g: (np.reshape(g, old),))


def t_conj(a: Var) -> Var:
    return a.tape._append("conj", np.conj(a.value), (a.idx,),
                          lambda g: (np.conj(g),))


def t_real(a: Var) -> Var:
    return a.tape._append("real", np.ascontiguousarray(a.value.real), (a.idx,),
                          lambda g: (g.astype(np.complex128),))


def _pad_last2(a: np.ndarray, before: int, after: int) -> np.ndarray:
    # zeros plus a slice assignment: the bits of np.pad at a tenth of its cost
    rows, cols = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (rows + before + after, cols + before + after), a.dtype)
    out[..., before:before + rows, before:before + cols] = a
    return out


def _crop_last2(a: np.ndarray, border: int) -> np.ndarray:
    if border == 0:
        return a
    return a[..., border:-border, border:-border]


def t_pad_last2(a: Var, before: int, after: int) -> Var:
    def vjp(g):
        top = before
        bot = g.shape[-1] - after
        return (g[..., top:bot, top:bot],)

    return a.tape._append("pad", _pad_last2(a.value, before, after), (a.idx,), vjp)


def t_crop_last2(a: Var, border: int) -> Var:
    return a.tape._append("crop", np.ascontiguousarray(_crop_last2(a.value, border)),
                          (a.idx,),
                          lambda g: (_pad_last2(g, border, border),))


def _freq_major(flat: np.ndarray, b: int, c: int) -> np.ndarray:
    """(B c, 2m) interleaved float rows -> complex, frequency-major (m, c, B)."""
    return np.ascontiguousarray(
        flat.view(np.complex128).reshape(b, c, -1).transpose(2, 1, 0))


def _batch_major(a: np.ndarray) -> np.ndarray:
    """Complex (m, c, B) -> its interleaved float view, batch-major (B c, 2m)."""
    m, c, b = a.shape
    rows = np.ascontiguousarray(a.transpose(2, 1, 0), dtype=np.complex128)
    return rows.view(np.float64).reshape(b * c, 2 * m)


def _rdft_half(a: np.ndarray) -> np.ndarray:
    """Real (B, c, p, p) signal -> its spectrum's representative rows, (m, c, B).

    One real GEMM with the `fft.real_half` forward table, whose float
    product is the complex result viewed in place. `a` must be real-valued.
    """
    b, c, p, _ = a.shape
    return _freq_major(a.real.reshape(b * c, p * p) @ fft.real_half(p).forward, b, c)


def _irdft_half(a: np.ndarray, p: int) -> np.ndarray:
    """(m, c, B) representative rows -> the real (B, c, p, p) image of their mirror."""
    _, c, b = a.shape
    return (_batch_major(a) @ fft.real_half(p).inverse).reshape(b, c, p, p)


def t_rdft_half(a: Var) -> Var:
    """Half-plane spectrum of a real signal; the VJP is the transposed GEMM.

    Under the real pairing the interleaved float view of a complex
    cotangent is the cotangent of the float product, so neither adjoint
    needs complex arithmetic.
    """
    b, c, p, _ = a.value.shape

    def vjp(g):
        return ((_batch_major(g) @ fft.real_half(p).forward.T).reshape(b, c, p, p),)

    return a.tape._append("rdft_half", _rdft_half(a.value), (a.idx,), vjp)


def t_irdft_half(a: Var, p: int) -> Var:
    """Real image of a half-plane spectrum; the VJP is the transposed GEMM."""
    _, c, b = a.value.shape

    def vjp(g):
        return (_freq_major(g.real.reshape(b * c, p * p) @ fft.real_half(p).inverse.T, b, c),)

    return a.tape._append("irdft_half", _irdft_half(a.value, p), (a.idx,), vjp)


def t_reflect(v: Var, factor: np.ndarray, x: Var) -> Var:
    """Block reflector y = x - 2 V S, S = G^{-1} V^H x, as one node.

    `factor`, the Cholesky factor of G = V^H V (`linalg.gram_factor` of
    `v.value`), is plain data, not a node; the forward is `linalg.reflect`
    and both adjoints reuse the factor. With T = G^{-1} V^H ybar and
    P = V G^{-1} V^H: xbar = ybar - 2 V T, the reflector applied to ybar,
    and vbar = -2 (I - P)(ybar S^H + x T^H) = -((ybar + xbar) S^H +
    (x + y) T^H), since W = I - 2P.
    """
    vv, xv = v.value, x.value
    y, s = linalg.reflect(vv, factor, xv)
    v_grad, x_grad = v.requires_grad, x.requires_grad
    v_real, x_real = vv.dtype != np.complex128, xv.dtype != np.complex128

    def vjp(g):
        gx, t = linalg.reflect(vv, factor, g)
        gv = -((g + gx) @ np.conj(_swap(s)) + (xv + y) @ np.conj(_swap(t))) if v_grad else None
        return (_cotangent(gv, v_real) if v_grad else None,
                _cotangent(gx, x_real) if x_grad else None)

    return v.tape._append("reflect", y, (v.idx, x.idx), vjp)


def _maxmin_fwd(a: np.ndarray, axis: int):
    m = np.moveaxis(a, axis, 0)
    if m.shape[0] % 2:
        raise ContractError(f"maxmin needs an even size along axis {axis}")
    e, o = m[0::2], m[1::2]
    take_e = e >= o
    out = np.empty_like(m)
    out[0::2] = np.where(take_e, e, o)
    out[1::2] = np.where(take_e, o, e)
    return np.moveaxis(out, 0, axis), take_e


def _maxmin_bwd(g: np.ndarray, take_e: np.ndarray, axis: int) -> np.ndarray:
    gm = np.moveaxis(g, axis, 0)
    ge, go = gm[0::2], gm[1::2]
    out = np.empty_like(gm)
    out[0::2] = np.where(take_e, ge, go)
    out[1::2] = np.where(take_e, go, ge)
    return np.moveaxis(out, 0, axis)


def t_maxmin(a: Var, axis: int) -> Var:
    out, take_e = _maxmin_fwd(a.value, axis)
    return a.tape._append("maxmin", out, (a.idx,),
                          lambda g: (_maxmin_bwd(g, take_e, axis),))


def _l2_pool_fwd(a: np.ndarray, p: int):
    s = a.shape[-1]
    if a.shape[-2] != s or s % p:
        raise ContractError(f"l2_pool needs square spatial dims divisible by {p}")
    q = s // p
    blocks = a.reshape(a.shape[:-2] + (q, p, q, p))
    blocks = np.moveaxis(blocks, -3, -2)          # (..., q, q, p, p)
    norms = np.sqrt(np.sum(blocks * blocks, axis=(-1, -2)))
    return norms, blocks


def _l2_pool_bwd(g: np.ndarray, norms: np.ndarray, blocks: np.ndarray, p: int):
    safe = np.where(norms > 0, norms, 1.0)
    coeff = (g / safe)[..., None, None]
    grad_blocks = np.where(norms[..., None, None] > 0, coeff * blocks, 0.0)
    grad_blocks = np.moveaxis(grad_blocks, -2, -3)
    q = norms.shape[-1]
    return grad_blocks.reshape(norms.shape[:-2] + (q * p, q * p))


def t_l2_pool(a: Var, p: int) -> Var:
    norms, blocks = _l2_pool_fwd(a.value, p)
    return a.tape._append("l2_pool", norms, (a.idx,),
                          lambda g: (_l2_pool_bwd(g, norms, blocks, p),))


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


def t_slice2d(a: Var, rows: int, cols: int) -> Var:
    full = a.value.shape

    def vjp(g):
        out = np.zeros(full, dtype=g.dtype)
        out[:rows, :cols] = g
        return (out,)

    return a.tape._append("slice2d", np.ascontiguousarray(a.value[:rows, :cols]),
                          (a.idx,), vjp)


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
# interface and runs either eagerly on ndarrays or recorded on a tape.

class EagerOps:
    """Executes the primitive set directly on ndarrays."""

    @staticmethod
    def constant(a):
        return np.asarray(a)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def scale(a, c):
        return a * c

    @staticmethod
    def scale_by(a, s):
        return a * float(s)

    @staticmethod
    def matmul(a, b):
        return a @ b

    @staticmethod
    def transpose(a, axes):
        return np.transpose(a, axes)

    @staticmethod
    def reshape(a, shape):
        return np.reshape(a, shape)

    @staticmethod
    def pad_last2(a, before, after):
        return _pad_last2(a, before, after)

    @staticmethod
    def crop_last2(a, border):
        return np.ascontiguousarray(_crop_last2(a, border))

    @staticmethod
    def rdft_half(a):
        return _rdft_half(a)

    @staticmethod
    def irdft_half(a, p):
        return _irdft_half(a, p)

    @staticmethod
    def reflect(v, factor, x):
        return linalg.reflect(v, factor, x)[0]

    @staticmethod
    def maxmin(a, axis):
        return _maxmin_fwd(a, axis)[0]

    @staticmethod
    def l2_pool(a, p):
        return _l2_pool_fwd(a, p)[0]

    @staticmethod
    def row_normalize(w):
        return _row_normalize_fwd(w)[0]

    @staticmethod
    def slice2d(a, rows, cols):
        return np.ascontiguousarray(a[:rows, :cols])

    @staticmethod
    def value(a):
        return a


class TapeOps:
    """Records the primitive set on a tape for later backpropagation."""

    def __init__(self, tape: Tape):
        self.tape = tape

    def constant(self, a):
        return self.tape.constant(a)

    def add(self, a, b):
        return t_add(a, b)

    def scale(self, a, c):
        return t_scale(a, c)

    def scale_by(self, a, s):
        return t_scale_by(a, s)

    def matmul(self, a, b):
        return t_matmul(a, b)

    def transpose(self, a, axes):
        return t_transpose(a, axes)

    def reshape(self, a, shape):
        return t_reshape(a, shape)

    def pad_last2(self, a, before, after):
        return t_pad_last2(a, before, after)

    def crop_last2(self, a, border):
        return t_crop_last2(a, border)

    def rdft_half(self, a):
        return t_rdft_half(a)

    def irdft_half(self, a, p):
        return t_irdft_half(a, p)

    def reflect(self, v, factor, x):
        return t_reflect(v, factor, x)

    def maxmin(self, a, axis):
        return t_maxmin(a, axis)

    def l2_pool(self, a, p):
        return t_l2_pool(a, p)

    def row_normalize(self, w):
        return t_row_normalize(w)

    def slice2d(self, a, rows, cols):
        return t_slice2d(a, rows, cols)

    @staticmethod
    def value(a):
        return a.value
