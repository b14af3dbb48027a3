"""Deterministic minibatch trainer and the l2 projected-gradient attacker.

Plain SGD with momentum: fewer moving parts than adaptive optimizers, and
with a fixed seed the whole run is bit-reproducible on one platform. Loss
scalars enter the tape through their analytic batch gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .certify import build_report
from .errors import ContractError, DivergedError
from .losses import LossConfig
from .models import Network
from .tape import Tape, t_custom_scalar
from .tensor import as_real_array

LOSS_KINDS = {
    "la": losses.la_loss_mean,
    "ce": losses.ce_loss_mean,
    "ce_cr": losses.ce_cr_loss_mean,
}


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.9
    schedule: str = "constant"  # constant | cosine
    loss: str = "la"            # la | ce | ce_cr
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    radii: tuple[float, ...] = (0.1,)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ContractError(f"unknown loss {self.loss!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ContractError(f"unknown schedule {self.schedule!r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ContractError("batch_size >= 1 and epochs >= 0 required")


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    accuracy: float
    mean_margin: float
    certified: dict[str, float]
    grad_ratio: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)


def _lr_at(cfg: TrainConfig, epoch: int) -> float:
    if cfg.schedule == "cosine" and cfg.epochs > 1:
        return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / (cfg.epochs - 1)))
    return cfg.learning_rate


def evaluate(net: Network, x, y, radii) -> EpochRecord:
    """Eager evaluation: accuracy, mean margin, certified accuracy per radius."""
    logits = net.forward(x)
    labels = np.asarray(y, dtype=np.int64)
    report = build_report(logits, labels, net.backbone_bound(),
                          head_rows=net.head_rows())
    eps = report.radii()
    correct = report.correct()
    certified = {f"{r:g}": float(np.mean(correct & (eps >= r))) for r in radii}
    return EpochRecord(-1, float("nan"), float(np.mean(correct)),
                       float(np.mean(report.margin)), certified, float("nan"))


def train(net: Network, data, cfg: TrainConfig) -> TrainLog:
    """Minibatch SGD through the tape; returns the per-epoch log."""
    x, y = data
    x = as_real_array(x)
    labels = np.asarray(y, dtype=np.int64).reshape(-1)
    if x.shape[0] == 0:
        raise ContractError("empty training set")
    if x.shape[0] != labels.shape[0]:
        raise ContractError("inputs and labels disagree on sample count")
    loss_fn = LOSS_KINDS[cfg.loss]
    rng = np.random.default_rng(cfg.seed)
    params = net.parameters()
    velocity = [np.zeros_like(arr) for _, _, arr in params]

    # first/last reflector parameters, for the gradient-flow diagnostic
    flow_keys = [(i, name) for i, name, _ in params
                 if name == "v" and net.layers[i].kind in ("bro_conv", "bro_dense")]
    flow_pair = (flow_keys[0], flow_keys[-1]) if len(flow_keys) >= 2 else None

    log = TrainLog()
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        lr = _lr_at(cfg, epoch)
        order = rng.permutation(n)
        batch_losses = []
        grad_ratio = float("nan")
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            tape = Tape()
            logits, _, param_vars = net.forward_tape(tape, x[idx])
            loss_var = t_custom_scalar(
                logits, lambda z: loss_fn(z, labels[idx], cfg.loss_cfg),
                name=f"{cfg.loss}_loss")
            loss_val = float(loss_var.value)
            if not math.isfinite(loss_val):
                raise DivergedError(epoch, f"non-finite loss in batch at {start}")
            grads = tape.backward(loss_var)
            if flow_pair is not None:
                g0 = grads.get(param_vars[flow_pair[0]].idx)
                g1 = grads.get(param_vars[flow_pair[1]].idx)
                if g0 is not None and g1 is not None:
                    denom = float(np.linalg.norm(g1))
                    grad_ratio = float(np.linalg.norm(g0)) / denom if denom else float("inf")
            batch_losses.append(loss_val)
            for (i, name, arr), vel in zip(params, velocity):
                g = grads.get(param_vars[(i, name)].idx)
                if g is None:
                    continue
                vel *= cfg.momentum
                vel += g
                arr -= lr * vel
        record = evaluate(net, x, labels, cfg.radii)
        record.epoch = epoch
        record.mean_loss = float(np.mean(batch_losses)) if batch_losses else float("nan")
        record.grad_ratio = grad_ratio
        log.records.append(record)
    return log


def _margin_sum(z: np.ndarray, labels: np.ndarray):
    m, runner = losses.margins_and_runners(z, labels)
    rows = np.arange(z.shape[0])
    dz = np.zeros_like(z)
    dz[rows, labels] = 1.0
    dz[rows, runner] -= 1.0
    return float(np.sum(m)), dz


def pgd_attack(net: Network, x, t, radius: float, steps: int) -> np.ndarray:
    """l2 projected gradient descent on the margin.

    Batched: `x` is (B, ...) or a single sample, `t` the true labels. Steps
    of size 2.5 * radius / steps walk against the margin gradient, each
    followed by projection onto the radius ball; the returned perturbation
    never exceeds the radius. The parameters are frozen: every layer's
    operator is prepared once per call, and each step records only the
    input side on its tape.
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ContractError(f"radius must be finite and non-negative, got {radius}")
    arr = net._coerce_batch(x)
    single = as_real_array(x).ndim == len(net.input_shape)
    labels = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if radius == 0.0 or steps <= 0:
        return arr[0] if single else arr
    step = 2.5 * radius / steps
    flatdims = tuple(range(1, arr.ndim))
    delta = np.zeros_like(arr)
    frozen = net.prepare()
    for _ in range(steps):
        tape = Tape()
        logits, x_var, _ = net.forward_tape(tape, arr + delta, frozen)
        obj = t_custom_scalar(logits, lambda z: _margin_sum(z, labels), name="margin_sum")
        grad = tape.backward(obj).get(x_var.idx)
        if grad is None:
            break
        norms = np.sqrt(np.sum(grad * grad, axis=flatdims, keepdims=True))
        direction = np.where(norms > 0, grad / np.where(norms > 0, norms, 1.0), 0.0)
        delta -= step * direction
        dnorm = np.sqrt(np.sum(delta * delta, axis=flatdims, keepdims=True))
        factor = np.minimum(1.0, radius / np.where(dnorm > 0, dnorm, 1.0))
        delta *= factor
    out = arr + delta
    return out[0] if single else out
