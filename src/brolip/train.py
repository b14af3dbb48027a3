"""Deterministic minibatch trainer and the l2 projected-gradient attacker.

Plain SGD with momentum: fewer moving parts than adaptive optimizers, and
with a fixed seed the whole run is bit-reproducible on one platform. Loss
scalars enter the tape through their analytic batch gradients, taken on a
(B, C) copy of the network's feature-major (C, B) logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .certify import build_report, check_grid
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
        check_grid(self.radii)  # evaluate reads its fractions off this grid's curve


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
    """Eager evaluation: accuracy, mean margin, and certified accuracy at
    each of the ascending `radii`, read from the report's curve."""
    report = build_report(net.forward(x), y, net.backbone_bound(),
                          head_rows=net.head_rows(), grid=radii)
    certified = {f"{r:g}": frac for r, frac in report.curve}
    return EpochRecord(-1, float("nan"), float(np.mean(report.correct())),
                       float(np.mean(report.margin)), certified, float("nan"))


def train(net: Network, data, cfg: TrainConfig) -> TrainLog:
    """Minibatch SGD through the tape; returns the per-epoch log."""
    x, y = data
    x = as_real_array(x)
    if x.shape[0] == 0:
        raise ContractError("empty training set")
    labels = losses.check_labels(y, x.shape[0], net.classes())
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
                logits, _by_columns(lambda z: loss_fn(z, labels[idx], cfg.loss_cfg)),
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


def _by_columns(fn):
    """`fn`, a scalar of (B, C) logits with its gradient, as a scalar of
    (C, B) logits: it reads a contiguous transposed copy and returns the
    gradient transposed back, contiguous, so the tape records no transpose."""
    def by_columns(z):
        value, dz = fn(np.ascontiguousarray(z.T))
        return value, np.ascontiguousarray(dz.T)
    return by_columns


def _margin_sum(z: np.ndarray, labels: np.ndarray):
    m, runner = losses.margins_and_runners(z, labels)
    rows = np.arange(z.shape[0])
    dz = np.zeros_like(z)
    dz[rows, labels] = 1.0
    dz[rows, runner] -= 1.0
    return float(np.sum(m)), dz


def _row_norms(a: np.ndarray, squares: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of `a` into `out` (B, 1); `squares` is scratch
    of `a`'s shape."""
    np.multiply(a, a, out=squares)
    np.sum(squares, axis=1, keepdims=True, out=out)
    return np.sqrt(out, out=out)


def pgd_attack(net: Network, x, t, radius: float, steps: int) -> np.ndarray:
    """l2 projected gradient descent on the margin.

    Batched: `x` is (B, ...) or a single sample, `t` the true labels. Steps
    of size 2.5 * radius / steps walk against the margin gradient, each
    followed by projection onto the radius ball; the returned perturbation
    never exceeds the radius. The parameters are frozen: the attack runs
    the operators `net.prepare()` keeps for them, built at most once per
    parameter state and shared with `net.forward`, and each step records
    only the input side on its tape. The network takes the batch
    feature-major, (d, B); `delta` stays sample-major, (B, d), and each step
    copies the input gradient into that layout and turns it into the step
    in place, with the norms, in buffers allocated once per call. The result
    takes the shape of `x`, flat (B, d) included. Before the first step,
    `ContractError` rejects a radius that is negative or not finite, a
    negative step count, and labels that are not one class index per sample
    (`losses.check_labels`: B of them, or one for a single sample).
    """
    if not (math.isfinite(radius) and radius >= 0):
        raise ContractError(f"radius must be finite and non-negative, got {radius}")
    if steps < 0:
        raise ContractError(f"steps must be non-negative, got {steps}")
    base = net._coerce_batch(x).T
    labels = losses.check_labels(t, len(base), net.classes())
    out = base
    if radius > 0.0 and steps > 0:
        step = 2.5 * radius / steps
        score = _by_columns(lambda z: _margin_sum(z, labels))
        delta = np.zeros(base.shape)
        g, squares = np.empty(base.shape), np.empty(base.shape)
        gnorm, dnorm = np.empty((len(base), 1)), np.empty((len(base), 1))
        frozen = net.prepare()
        for _ in range(steps):
            tape = Tape()
            logits, x_var, _ = net.forward_tape(tape, base + delta, frozen)
            grad = tape.backward(t_custom_scalar(logits, score, name="margin_sum")).get(x_var.idx)
            if grad is None:
                break
            np.copyto(g, grad.T)
            # the unit direction, 0 where the norm is 0 or NaN, times the step
            moving = _row_norms(g, squares, gnorm) > 0
            np.divide(g, gnorm, out=g, where=moving)
            np.copyto(g, 0.0, where=~moving)
            g *= step
            delta -= g
            # project onto the ball: scale by min(1, radius / |delta|), |0| read as 1
            _row_norms(delta, squares, dnorm)
            np.copyto(dnorm, 1.0, where=~(dnorm > 0))
            np.divide(radius, dnorm, out=dnorm)
            delta *= np.minimum(1.0, dnorm, out=dnorm)
        out = base + delta
    return out.reshape(np.shape(x))
