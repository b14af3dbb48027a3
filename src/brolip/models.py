"""Miniature norm-controlled networks built from the orthogonal layer zoo.

Every layer kind here carries Lipschitz constant exactly one: orthogonal
convolutions and dense reflectors preserve norms, channel-pairwise
max/min sorting permutes entries, patchwise l2 pooling contracts, and
truncated reflectors are semi-orthogonal. Layer math is written against
the twin op backends, so one implementation serves eager inference and
taped training. Each layer splits into `prepare(ops, params)`, which
builds its parameter-side operator, and `apply(ops, operator, x)`;
`forward` is the two in sequence, and an attack on a frozen network
prepares every operator once and records only `apply`.

Inputs are batch-first; dense-style layers flatten image-shaped inputs
implicitly. There are no bias terms anywhere: they would not change any
Lipschitz constant but would complicate the margin bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .certify import LipschitzModel
from .errors import ContractError
from .ortho import (ConvGeometry, ConvOperator, conv_apply, conv_prepare,
                    identity_kernel)
from .tape import EagerOps, Tape, TapeOps, Var
from .tensor import as_real_array


@dataclass
class LayerSpec:
    """Declarative layer description; `args` is JSON-serializable."""

    kind: str
    args: dict = field(default_factory=dict)


def _flatten(ops, x):
    shape = ops.value(x).shape
    if len(shape) == 2:
        return x
    return ops.reshape(x, (shape[0], int(np.prod(shape[1:]))))


def _reflector(ops, veff, m):
    """W = I - 2 V (V^T V)^{-1} V^T as backend ops (m x m): the reflector
    applied to the identity."""
    factor = linalg.gram_factor(ops.value(veff))
    return ops.reflect(veff, factor, ops.constant(np.eye(m)))


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
    prepares no operator."""

    def prepare(self, ops, p):
        return None

    def forward(self, ops, p, x):
        return self.apply(ops, self.prepare(ops, p), x)


class _Linear(_Layer):
    """Dense-style layer whose operator is its transposed weight matrix."""

    def apply(self, ops, wt, x):
        return ops.matmul(_flatten(ops, x), wt)


class BroConvLayer(_Layer):
    kind = "bro_conv"
    lipschitz = 1.0

    def __init__(self, v, alpha, geom: ConvGeometry, residual: bool, depth_norm: float):
        self.v = as_real_array(v)
        self.alpha = np.asarray(float(alpha))
        self.geom = geom
        self.residual = residual
        self.depth_norm = float(depth_norm)

    def params(self):
        out = {"v": self.v}
        if self.residual:
            out["alpha"] = self.alpha
        return out

    def prepare(self, ops, p):
        v = p["v"]
        if self.residual:
            ik = identity_kernel(*self.v.shape[:2], self.v.shape[2])
            scaled = ops.scale(ops.scale_by(v, p["alpha"]), 1.0 / self.depth_norm)
            v = ops.add(ops.constant(ik), scaled)
        return conv_prepare(ops, v, self.geom)

    def apply(self, ops, operator, x):
        return conv_apply(ops, operator, x, self.geom)

    def out_shape(self, shape):
        c, s, _ = shape
        if (c, s) != (self.geom.channels_in, self.geom.spatial):
            raise ContractError(f"conv layer expects {self.geom}, got input {shape}")
        size = self.geom.padded_size if self.geom.keep_padding else s
        return (c, size, size)


class BroDenseLayer(_Linear):
    kind = "bro_dense"
    lipschitz = 1.0

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

    def prepare(self, ops, p):
        m, n = self.v.shape
        v = p["v"]
        if self.residual:
            scaled = ops.scale(ops.scale_by(v, p["alpha"]), 1.0 / self.depth_norm)
            v = ops.add(ops.constant(np.eye(m, n)), scaled)
        return ops.transpose(_reflector(ops, v, m), (1, 0))

    def out_shape(self, shape):
        if int(np.prod(shape)) != self.v.shape[0]:
            raise ContractError(f"dense layer of width {self.v.shape[0]} fed {shape}")
        return (self.v.shape[0],)


class SemiOrthoLayer(_Linear):
    kind = "semi_ortho"
    lipschitz = 1.0

    def __init__(self, v, d_out: int, d_in: int):
        self.v = as_real_array(v)
        self.d_out = d_out
        self.d_in = d_in
        if self.v.shape[0] != max(d_out, d_in):
            raise ContractError("parameter rows must equal max(d_out, d_in)")

    def params(self):
        return {"v": self.v}

    def prepare(self, ops, p):
        w = _reflector(ops, p["v"], self.v.shape[0])
        return ops.transpose(ops.slice2d(w, self.d_out, self.d_in), (1, 0))

    def out_shape(self, shape):
        if int(np.prod(shape)) != self.d_in:
            raise ContractError(f"semi-orthogonal layer expects {self.d_in} inputs, "
                                f"got {shape}")
        return (self.d_out,)


class MaxMinLayer(_Layer):
    kind = "maxmin"
    lipschitz = 1.0

    def params(self):
        return {}

    def apply(self, ops, operator, x):
        return ops.maxmin(x, axis=1)

    def out_shape(self, shape):
        if shape[0] % 2:
            raise ContractError("maxmin needs an even channel count")
        return shape


class L2PoolLayer(_Layer):
    kind = "l2_pool"
    lipschitz = 1.0

    def __init__(self, patch: int):
        self.patch = patch

    def params(self):
        return {}

    def apply(self, ops, operator, x):
        return ops.l2_pool(x, self.patch)

    def out_shape(self, shape):
        c, s, _ = shape
        if s % self.patch:
            raise ContractError(f"patch {self.patch} does not divide spatial size {s}")
        return (c, s // self.patch, s // self.patch)


class LLNHead(_Linear):
    """Classification head whose weight rows are unit-normalized on use."""

    kind = "lln_head"
    lipschitz = 1.0

    def __init__(self, w):
        self.w = as_real_array(w)

    def params(self):
        return {"w": self.w}

    def prepare(self, ops, p):
        return ops.transpose(ops.row_normalize(p["w"]), (1, 0))

    def out_shape(self, shape):
        if int(np.prod(shape)) != self.w.shape[1]:
            raise ContractError(f"head expects {self.w.shape[1]} features, got {shape}")
        return (self.w.shape[0],)


class Network:
    """An ordered layer stack with its specs, seed, and shape bookkeeping."""

    def __init__(self, specs, layers, input_shape, seed):
        self.specs = list(specs)
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.seed = seed

    # -- parameter plumbing -------------------------------------------------
    def parameters(self):
        """(layer_index, name, array) triples in declaration order."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out.append((i, name, arr))
        return out

    def lipschitz_model(self) -> LipschitzModel:
        return LipschitzModel([(l.kind, l.lipschitz) for l in self.layers])

    def backbone_bound(self) -> float:
        bound = 1.0
        for layer in self.layers:
            if layer.kind == "lln_head":
                break
            bound *= layer.lipschitz
        return bound

    def head_rows(self):
        """Unit-normalized head rows as applied, or None without a head."""
        last = self.layers[-1] if self.layers else None
        if last is None or last.kind != "lln_head":
            return None
        return EagerOps.row_normalize(last.w)

    def classes(self) -> int:
        last = self.layers[-1]
        if last.kind == "lln_head":
            return last.w.shape[0]
        raise ContractError("network has no classification head")

    # -- forward passes -----------------------------------------------------
    def _coerce_batch(self, x):
        arr = as_real_array(x)
        if arr.ndim == len(self.input_shape):
            arr = arr[None]
        if arr.shape[1:] != self.input_shape:
            if arr.ndim == 2 and int(np.prod(self.input_shape)) == arr.shape[1]:
                arr = arr.reshape((arr.shape[0],) + self.input_shape)
            else:
                raise ContractError(
                    f"input shape {arr.shape[1:]} does not match {self.input_shape}")
        return arr

    def forward(self, x) -> np.ndarray:
        """Eager batch forward to logits."""
        cur = self._coerce_batch(x)
        for layer in self.layers:
            cur = layer.forward(EagerOps, layer.params(), cur)
        return cur

    def prepare(self) -> list:
        """Every layer's operator, built eagerly from the current parameters."""
        return [layer.prepare(EagerOps, layer.params()) for layer in self.layers]

    def forward_tape(self, tape: Tape, x, frozen=None):
        """Recorded forward; returns (logits, input var, {(i, name): var}).

        Without `frozen`, every parameter is a grad-requiring leaf and the
        input a constant. `frozen` is a `prepare()` result: the input is
        then the only grad leaf, the operators enter as constants, the
        tape records only the input side and the dict is empty.
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


def _make_layer(spec: LayerSpec, in_shape, rng) -> tuple[object, tuple]:
    kind, a = spec.kind, spec.args
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
        v = rng.standard_normal((c, n, k, k)) / np.sqrt(c)
        layer = BroConvLayer(v, a.get("alpha", 1.0), geom, residual, depth_norm)
    elif kind == "bro_dense":
        m, n = a["m"], a["n"]
        residual = bool(a.get("residual", False))
        depth_norm = float(a.get("depth_norm", 1.0))
        v = rng.standard_normal((m, n)) / np.sqrt(m)
        layer = BroDenseLayer(v, a.get("alpha", 1.0), residual, depth_norm)
    elif kind == "semi_ortho":
        d_in, d_out = a["d_in"], a["d_out"]
        c = max(d_in, d_out)
        n = a.get("n", max(1, c // 4))
        if n >= c:
            raise ContractError("semi-orthogonal rank must stay below max dim")
        v = rng.standard_normal((c, n)) / np.sqrt(c)
        layer = SemiOrthoLayer(v, d_out, d_in)
    elif kind == "maxmin":
        layer = MaxMinLayer()
    elif kind == "l2_pool":
        layer = L2PoolLayer(int(a["p"]))
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
    Geometry is validated by walking shapes through the stack.
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
    for spec in specs:
        layer, shape = _make_layer(spec, shape, rng)
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
