"""Miniature norm-controlled networks built from the orthogonal layer zoo.

Every layer kind here carries Lipschitz constant exactly one: orthogonal
convolutions and dense reflectors preserve norms, channel-pairwise
max/min sorting permutes entries, patchwise l2 pooling contracts, and
truncated reflectors are semi-orthogonal. Both dense kinds are one class,
`BroDenseLayer`, on an m x n `BroParam`: `bro_dense` applies the whole
m x m reflector (`ortho.reflector`), `semi_ortho` its leading d_out x d_in
block, m = max(d_out, d_in). Layer math is written against
the twin op backends, so one implementation serves eager inference and
taped training. Each layer splits into `prepare(ops, params)`, which
builds its parameter-side operator, and `apply(ops, operator, x)`;
`forward` is the two in sequence. `Network.prepare` builds every
operator eagerly and keeps them, with a copy of the parameters, until a
parameter's value changes: an eager forward applies the kept operators,
and an attack on a frozen network records only `apply`, so certify,
evaluate and every PGD call share one prepare per parameter state. A conv
whose kernel takes no gradient (every eager forward, and
`Network.prepare`) prepares its dense matrix when c s^2 <=
`DENSE_CONV_MAX` and applies it as one GEMM; a conv being trained, or a
larger one, keeps its `ConvOperator`: per pixel at k = 1, per frequency
otherwise.

Activations travel between layers feature-major, (d, B), one column per
sample, from the network's input to its (C, B) logits; `Network` takes
its input as the transposed view of the contiguous samples, and `forward`
hands the logits back as (B, C). A dense layer (`bro_dense`,
`semi_ortho`, `lln_head`) prepares its d_out x d_in weight W itself and
applies W x. maxmin pairs channel blocks of s^2 B contiguous
entries, so each half of a pair is one run. A layer that needs the image
shape recorded it at build time and passes it to its primitive, which
takes only this layout and reads the batch's image rows itself. No layer
records a transpose outside a conv's kernel taps, nor a reshape outside a
conv's taps and a k = 1 conv's (c, s^2 B) pixel matrix, the one view
of the batch that its per-pixel reflect takes. There
are no bias terms anywhere: they would not change any Lipschitz constant
but would complicate the margin bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from .certify import compose_lipschitz
from .errors import ContractError
from .ortho import (BroConvKernel, BroParam, ConvGeometry, ConvOperator, conv_apply,
                    conv_matrix, conv_matrix_apply, conv_prepare, identity_kernel,
                    reflector)
from .tape import EagerOps, Tape, TapeOps, Var
from .tensor import as_real_array

# Largest c s^2 at which a frozen conv layer runs as its dense matrix.
# `Network.prepare` builds the matrix once per parameter state, so a call
# pays only the GEMM. Per layer, k = 3, rank 1, one OpenBLAS thread on a
# 2-vCPU Xeon host (p10 of 30-200 calls, three runs), GEMM A x against the
# spectral apply, both on a feature-major batch: at c s^2 = 128 (c = 2,
# s = 8) 0.13-0.20 against 0.84-1.27 ms at batch 256 and 0.004-0.005
# against 0.05 ms at batch 1; at 256 (c = 4, s = 8) 0.65-0.79 against
# 1.09-1.65 and 0.007-0.011 against 0.034-0.054 ms; at 512 (c = 8, s = 8)
# 2.0-3.0 against 2.5-2.6 and 0.044-0.063 against 0.038-0.062 ms. The build
# costs 0.42-0.54, 1.1-1.8 and 7.6-10.6 ms at those sizes against 0.03-0.05
# ms for the spectral operator, so one pass of 256 samples per parameter
# state, `brolip certify`'s default and only pass, still loses from 256 on
# (1.1 + 0.65 against 1.09 ms at best). The switch cannot read the batch: an
# attack's prepared matrix must match the recorded per-step forward bit for
# bit, whatever the batch.
DENSE_CONV_MAX = 128


@dataclass
class LayerSpec:
    """Declarative layer description; `args` is JSON-serializable."""

    kind: str
    args: dict = field(default_factory=dict)


def _constants(ops, operator):
    """A prepared operator (None, an array, or a `ConvOperator`) with its
    backend values as constants."""
    if operator is None:
        return None
    if isinstance(operator, ConvOperator):
        return operator._replace(vf=ops.constant(operator.vf))
    return ops.constant(operator)


class _Layer:
    """`forward` is `apply` after `prepare`; a layer without parameters
    prepares no operator. Every layer kind is 1-Lipschitz."""

    lipschitz = 1.0

    def params(self):
        return {}

    def prepare(self, ops, p):
        return None

    def forward(self, ops, p, x):
        return self.apply(ops, self.prepare(ops, p), x)


class _Linear(_Layer):
    """Dense-style layer whose operator is its d_out x d_in weight matrix W,
    applied to a feature-major batch as W x."""

    def apply(self, ops, w, x):
        return ops.matmul(w, x)

    def out_shape(self, shape):
        if math.prod(shape) != self.d_in:
            raise ContractError(f"{self.kind} layer expects {self.d_in} inputs, got {shape}")
        return (self.d_out,)


class _ResidualReflector(_Layer):
    """Reflector layer on a parameter `v`; with `residual` the reflector is
    built from I + (alpha / depth_norm) V, where `identity()` is I."""

    def __init__(self, v, alpha, residual: bool, depth_norm: float):
        self.v = as_real_array(v)
        self.alpha = np.asarray(float(alpha))
        self.residual = residual
        self.depth_norm = float(depth_norm)

    def params(self):
        out = {"v": self.v}
        if self.residual:
            out["alpha"] = self.alpha
        return out

    def effective(self, ops, p):
        v = p["v"]
        if self.residual:
            scaled = ops.scale(ops.scale_by(v, p["alpha"]), 1.0 / self.depth_norm)
            v = ops.add(ops.constant(self.identity()), scaled)
        return v


class BroConvLayer(_ResidualReflector):
    kind = "bro_conv"

    def __init__(self, v, alpha, geom: ConvGeometry, residual: bool, depth_norm: float):
        super().__init__(v, alpha, residual, depth_norm)
        self.geom = geom

    def identity(self):
        return identity_kernel(*self.v.shape[:2], self.v.shape[2])

    def prepare(self, ops, p):
        """The conv's `ConvOperator` while its kernel takes a gradient or
        c s^2 exceeds `DENSE_CONV_MAX`; otherwise its dense matrix
        (`conv_matrix`), which `apply` runs as one GEMM. A training step
        applies its operator to one batch (32 by default), so a matrix
        built there would cost a basis conv of c s^2 inputs per step."""
        v = self.effective(ops, p)
        op = conv_prepare(ops, v, self.geom)
        g = self.geom
        if (isinstance(v, Var) and v.requires_grad) or \
                g.channels_in * g.spatial ** 2 > DENSE_CONV_MAX:
            return op
        return conv_matrix(ops, op, g)

    def apply(self, ops, operator, x):
        run = conv_apply if isinstance(operator, ConvOperator) else conv_matrix_apply
        return run(ops, operator, x, self.geom)

    def out_shape(self, shape):
        c, s, _ = shape
        if (c, s) != (self.geom.channels_in, self.geom.spatial):
            raise ContractError(f"conv layer expects {self.geom}, got input {shape}")
        return (c, self.geom.output_size, self.geom.output_size)


class BroDenseLayer(_ResidualReflector, _Linear):
    """Dense block reflector of an m x n parameter: `bro_dense` applies the
    whole m x m reflector, `semi_ortho` its leading d_out x d_in block,
    m = max(d_out, d_in), which is semi-orthogonal."""

    def __init__(self, kind, v, alpha, residual: bool, depth_norm: float,
                 d_out: int, d_in: int):
        super().__init__(v, alpha, residual, depth_norm)
        if self.v.shape[0] != max(d_out, d_in):
            raise ContractError(f"parameter rows {self.v.shape[0]} must equal "
                                f"max(d_out, d_in) = {max(d_out, d_in)}")
        self.kind, self.d_out, self.d_in = kind, d_out, d_in

    def identity(self):
        return np.eye(*self.v.shape)

    def prepare(self, ops, p):
        w = reflector(ops, self.effective(ops, p))
        if self.d_out == self.d_in == self.v.shape[0]:
            return w
        return ops.slice2d(w, self.d_out, self.d_in)


class MaxMinLayer(_Layer):
    """Sorts channel pairs: on a feature-major (c s^2, B) batch, channel
    blocks of `run` B entries pair up, `run` = s^2; after a dense layer
    `run` is 1 and rows pair up."""

    kind = "maxmin"

    def __init__(self, run: int):
        self.run = run

    def apply(self, ops, operator, x):
        return ops.maxmin(x, self.run * ops.value(x).shape[1])

    def out_shape(self, shape):
        if shape[0] % 2:
            raise ContractError("maxmin needs an even channel count")
        return shape


class L2PoolLayer(_Layer):
    kind = "l2_pool"

    def __init__(self, patch: int, spatial: int):
        if patch < 1:
            raise ContractError(f"l2_pool patch must be at least 1, got p={patch}")
        self.patch = patch
        self.spatial = spatial

    def apply(self, ops, operator, x):
        return ops.l2_pool(x, self.patch, self.spatial)

    def out_shape(self, shape):
        c, s, _ = shape
        if s % self.patch:
            raise ContractError(f"patch {self.patch} does not divide spatial size {s}")
        return (c, s // self.patch, s // self.patch)


class LLNHead(_Linear):
    """Classification head whose weight rows are unit-normalized on use."""

    kind = "lln_head"

    def __init__(self, w):
        self.w = as_real_array(w)
        self.d_out, self.d_in = self.w.shape

    def params(self):
        return {"w": self.w}

    def prepare(self, ops, p):
        return ops.row_normalize(p["w"])


def _freeze(operator):
    """A prepared operator with its arrays marked read-only."""
    for arr in (operator if isinstance(operator, ConvOperator) else (operator,)):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return operator


class Network:
    """An ordered layer stack with its specs, seed, and shape bookkeeping.

    `prepare` keeps the operators it last built, with a copy of the
    parameters it built them from (`_prepared`).
    """

    def __init__(self, specs, layers, input_shape, seed):
        self.specs = list(specs)
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.seed = seed
        self._prepared = None

    # -- parameter plumbing -------------------------------------------------
    def parameters(self):
        """(layer_index, name, array) triples in declaration order."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out.append((i, name, arr))
        return out

    def backbone_bound(self) -> float:
        """Composed constant of the layers before the head."""
        backbone = takewhile(lambda l: l.kind != "lln_head", self.layers)
        return compose_lipschitz((l.kind, l.lipschitz) for l in backbone)

    def head_rows(self):
        """The unit-normalized head rows the forward applies: the head's
        read-only operator from `prepare()`, the same array object. None
        without a head."""
        if not self.layers or self.layers[-1].kind != "lln_head":
            return None
        return self.prepare()[-1]

    def classes(self) -> int:
        last = self.layers[-1]
        if last.kind == "lln_head":
            return last.w.shape[0]
        raise ContractError("network has no classification head")

    # -- forward passes -----------------------------------------------------
    def _coerce_batch(self, x):
        """`x`, a batch of `input_shape` samples, one sample, or a batch of
        flat (B, d) samples, as the feature-major (d, B) batch every layer
        takes, one column per sample: the transposed view of the contiguous
        (B, d) samples. No layer copies it into its own order: a GEMM reads
        it through BLAS's transpose flag, and the spectral transform's image
        rows are a view of it."""
        arr = as_real_array(x)
        if arr.ndim == len(self.input_shape):
            arr = arr[None]
        d = math.prod(self.input_shape)
        if arr.shape[1:] != self.input_shape and arr.shape[1:] != (d,):
            raise ContractError(
                f"input shape {arr.shape[1:]} does not match {self.input_shape}")
        return np.ascontiguousarray(arr.reshape(arr.shape[0], d)).T

    def forward(self, x) -> np.ndarray:
        """Eager batch forward to contiguous (B, C) logits: each layer
        applies its operator from `prepare()` to the feature-major batch."""
        cur = self._coerce_batch(x)
        for layer, operator in zip(self.layers, self.prepare()):
            cur = layer.apply(EagerOps, operator, cur)
        return np.ascontiguousarray(cur.T)

    def prepare(self) -> tuple:
        """Every layer's operator, built eagerly from the current parameters.

        While every parameter equals (`np.array_equal`) the copy taken at
        the last build, the operators of that build are returned again,
        the same objects. Any change of value, such as a training step's
        in-place update or a direct edit, rebuilds them, and so does a NaN,
        which equals nothing. The operators' arrays are read-only and share
        no memory with a parameter.
        """
        params = [arr for _, _, arr in self.parameters()]
        kept = self._prepared
        if kept is not None and len(kept[0]) == len(params) \
                and all(map(np.array_equal, kept[0], params)):
            return kept[1]
        # drop the stale operators first, so a rebuild never holds two sets
        self._prepared = kept = None
        operators = tuple(_freeze(layer.prepare(EagerOps, layer.params()))
                          for layer in self.layers)
        self._prepared = ([arr.copy() for arr in params], operators)
        return operators

    def forward_tape(self, tape: Tape, x, frozen=None):
        """Recorded forward; returns (logits, input var, {(i, name): var}).

        The input enters feature-major, (d, B), as in `forward`, and the
        logits leave as (C, B), one column per sample. Without `frozen`,
        every parameter is a grad-requiring leaf and the input a constant.
        `frozen` is a `prepare()` result: the input is then the only grad
        leaf, the operators enter as constants, the tape records only the
        input side and the dict is empty.
        """
        ops = TapeOps(tape)
        x_var = tape.leaf(self._coerce_batch(x), requires_grad=frozen is not None)
        param_vars: dict[tuple[int, str], Var] = {}
        cur = x_var
        if frozen is not None:
            if len(frozen) != len(self.layers):
                raise ContractError(f"{len(frozen)} prepared operators for "
                                    f"{len(self.layers)} layers")
            for layer, operator in zip(self.layers, frozen):
                cur = layer.apply(ops, _constants(ops, operator), cur)
            return cur, x_var, param_vars
        for i, layer in enumerate(self.layers):
            bound = {}
            for name, arr in layer.params().items():
                var = tape.leaf(arr)
                param_vars[(i, name)] = var
                bound[name] = var
            cur = layer.forward(ops, bound, cur)
        return cur, x_var, param_vars


# spec arguments that count something; none of them may be negative
_SIZES = ("c", "n", "k", "s", "m", "d_in", "d_out", "p", "classes")


def _make_layer(spec: LayerSpec, in_shape, rng) -> tuple[object, tuple]:
    kind, a = spec.kind, spec.args
    for name in _SIZES:
        if name in a and a[name] < 0:
            raise ContractError(f"{name}={a[name]} is negative")
    if kind == "bro_conv":
        c, n, k = a["c"], a["n"], a["k"]
        keep = bool(a.get("keep_padding", False))
        residual = bool(a.get("residual", False))
        depth_norm = float(a.get("depth_norm", 1.0))
        if len(in_shape) != 3:
            raise ContractError("bro_conv needs an image-shaped input")
        if "s" in a and a["s"] != in_shape[1]:
            raise ContractError(
                f"declared spatial size {a['s']} does not match input {in_shape}")
        geom = ConvGeometry(c, c, in_shape[1], k, keep_padding=keep)
        v = BroConvKernel(rng.standard_normal((c, n, k, k)) / np.sqrt(c)).v
        layer = BroConvLayer(v, a.get("alpha", 1.0), geom, residual, depth_norm)
    elif kind in ("bro_dense", "semi_ortho"):
        square = kind == "bro_dense"
        d_out, d_in = (a["m"], a["m"]) if square else (a["d_out"], a["d_in"])
        m = max(d_out, d_in)
        n = a["n"] if square else a.get("n", max(1, m // 4))
        res = a if square else {}  # semi_ortho reads no residual key
        v = BroParam(rng.standard_normal((m, n)) / np.sqrt(m)).v
        layer = BroDenseLayer(kind, v, res.get("alpha", 1.0), bool(res.get("residual", False)),
                              float(res.get("depth_norm", 1.0)), d_out, d_in)
    elif kind == "maxmin":
        layer = MaxMinLayer(math.prod(in_shape[1:]))
    elif kind == "l2_pool":
        layer = L2PoolLayer(int(a["p"]), in_shape[-1])
    elif kind == "lln_head":
        classes, d_in = a["classes"], a["d_in"]
        w = rng.standard_normal((classes, d_in)) / np.sqrt(d_in)
        layer = LLNHead(w)
    else:
        raise ContractError(f"unknown layer kind {kind!r}")
    return layer, layer.out_shape(in_shape)


def build_model(specs, seed: int, input_shape=None) -> Network:
    """Instantiate and initialize a network from layer specs.

    Reflector parameters draw i.i.d. Gaussians at scale 1/sqrt(width); no
    iteration has to converge, so no special initialization is needed.
    Geometry is validated by walking shapes through the stack. A missing or
    mistyped spec argument raises `ContractError` naming the layer, and so
    does one out of range: a negative size, a conv kernel breaking
    `BroConvKernel`'s contract, a dense rank breaking `BroParam`'s, or an
    l2_pool patch below 1.
    """
    specs = list(specs)
    if not specs:
        raise ContractError("need at least one layer")
    if input_shape is None:
        first = specs[0]
        if first.kind == "bro_conv":
            input_shape = (first.args["c"], first.args["s"], first.args["s"])
        elif first.kind == "bro_dense":
            input_shape = (first.args["m"],)
        elif first.kind == "lln_head":
            input_shape = (first.args["d_in"],)
        else:
            raise ContractError("cannot infer input shape; pass input_shape")
    rng = np.random.default_rng(seed)
    layers = []
    shape = tuple(input_shape)
    for i, spec in enumerate(specs):
        try:
            layer, shape = _make_layer(spec, shape, rng)
        except (LookupError, TypeError) as exc:
            raise ContractError(f"layer {i} ({spec.kind}) has a missing or mistyped "
                                f"argument in {spec.args}: {exc!r}") from exc
        except ValueError as exc:  # ContractError among them
            raise ContractError(f"layer {i} ({spec.kind}) rejects {spec.args}: {exc}") from exc
        layers.append(layer)
    return Network(specs, layers, input_shape, seed)


def lipconvnet_mini(channels=2, spatial=4, classes=2, rank=1, kernel=3,
                    hidden=None) -> list[LayerSpec]:
    """Two orthogonal convolutions with pairwise sorting, then a truncated
    reflector into a normalized head."""
    flat = channels * spatial * spatial
    hidden = hidden or max(classes, flat // 2)
    return [
        LayerSpec("bro_conv", {"c": channels, "n": rank, "k": kernel, "s": spatial}),
        LayerSpec("maxmin", {}),
        LayerSpec("bro_conv", {"c": channels, "n": rank, "k": kernel, "s": spatial}),
        LayerSpec("maxmin", {}),
        LayerSpec("semi_ortho", {"d_in": flat, "d_out": hidden}),
        LayerSpec("lln_head", {"classes": classes, "d_in": hidden}),
    ]


def bronet_mini(channels=2, spatial=4, classes=2, rank=1, kernel=3,
                backbone=2, dense=2, pool=2) -> list[LayerSpec]:
    """Residual-reparameterized conv backbone, l2-pool neck, dense stack."""
    specs = []
    for _ in range(backbone):
        specs.append(LayerSpec("bro_conv", {
            "c": channels, "n": rank, "k": kernel, "s": spatial,
            "residual": True, "depth_norm": float(np.sqrt(backbone))}))
        specs.append(LayerSpec("maxmin", {}))
    specs.append(LayerSpec("l2_pool", {"p": pool}))
    width = channels * (spatial // pool) ** 2
    for _ in range(dense):
        specs.append(LayerSpec("bro_dense", {
            "m": width, "n": max(1, width // 4),
            "residual": True, "depth_norm": float(np.sqrt(dense))}))
        specs.append(LayerSpec("maxmin", {}))
    specs.append(LayerSpec("lln_head", {"classes": classes, "d_in": width}))
    return specs
