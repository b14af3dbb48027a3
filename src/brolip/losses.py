"""Margin-shaping losses and their exact gradients.

The annealed loss is -T (1 - p_t)^beta log(p_t) with
p = softmax((z - xi * onehot(t)) / T): the (1 - p_t)^beta factor anneals the
gradient of well-classified points toward zero so capacity is spent on the
rest. The competing baseline is cross-entropy minus a hinge on the margin,
gamma * max(margin, 0), whose derivative is discontinuous where the margin
crosses zero; the curve emitter below exposes both pathologies for the
two-class reduction.

Gradients are analytic. Softmax uses max subtraction; p_t is clamped at
1e-300 with a saturation flag rather than letting the loss hit infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .tensor import as_real_array

SATURATION_FLOOR = 1e-300


@dataclass(frozen=True)
class LossConfig:
    """Knobs shared by the loss family.

    temperature and offset shape the softmax; annealing is the exponent on
    (1 - p_t); cr_weight scales the margin hinge.
    """

    temperature: float = 0.75
    offset: float = 2.0
    annealing: float = 5.0
    cr_weight: float = 0.5

    def __post_init__(self):
        if not self.temperature > 0:
            raise ContractError("temperature must be positive")
        if self.offset < 0 or self.annealing < 0 or self.cr_weight < 0:
            raise ContractError("offset, annealing, and cr_weight must be >= 0")


class LossResult(NamedTuple):
    loss: float
    grad: np.ndarray
    saturated: bool = False


def _softmax_rows(u: np.ndarray) -> np.ndarray:
    shifted = u - np.max(u, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def integer_labels(labels, name: str = "label") -> np.ndarray:
    """`labels` flattened to int64. `ContractError`, carrying the index,
    names the first `name` that is not an integer value (0.9, NaN, inf)."""
    t = np.asarray(labels).reshape(-1)
    if t.dtype.kind not in "biu":
        t = as_real_array(t)
        bad = np.flatnonzero(~(np.isfinite(t) & (t == np.floor(t))))
        if bad.size:
            i = int(bad[0])
            raise ContractError(f"{name} {t[i]} of sample {i} is not an integer", sample=i)
    return t.astype(np.int64, copy=False)


def check_labels(labels, samples: int, classes: int) -> np.ndarray:
    """`labels` as int64 class indices, one per sample, (samples,).

    Raises `ContractError` when there are not `samples` of them, or naming
    the first sample whose label is not an integer value (`integer_labels`)
    or lies outside [0, classes). Every labelled entry point reads its
    labels here, so none truncates a fractional label.
    """
    t = np.asarray(labels).reshape(-1)
    if t.size != samples:
        raise ContractError(f"{t.size} labels for {samples} samples")
    t = integer_labels(t)
    bad = np.flatnonzero((t < 0) | (t >= classes))
    if bad.size:
        raise ContractError(f"label {t[bad[0]]} of sample {bad[0]} "
                            f"out of range for {classes} classes")
    return t


def check_logits(z: np.ndarray, t) -> np.ndarray:
    """The labels `t` of (B, K) logits `z`, checked by `check_labels`.
    Raises `ContractError` unless `z` is 2-D with at least two classes."""
    if z.ndim != 2 or z.shape[1] < 2:
        raise ContractError(f"need at least two classes, got logits shape {z.shape}")
    return check_labels(t, *z.shape)


def _la_batch(z: np.ndarray, t: np.ndarray, cfg: LossConfig):
    """Per-sample annealed loss values and gradients for a (B, K) batch."""
    t = check_logits(z, t)
    b, k = z.shape
    rows = np.arange(b)
    u = z.copy()
    u[rows, t] -= cfg.offset
    p = _softmax_rows(u / cfg.temperature)
    pt = p[rows, t]
    saturated = bool(np.any(pt < SATURATION_FLOOR))
    pt = np.maximum(pt, SATURATION_FLOOR)
    one_minus = 1.0 - pt
    log_pt = np.log(pt)
    beta = cfg.annealing

    # at beta = 0, x ** 0.0 is exactly 1 and lead is a signed zero, so the
    # bracket is exactly -1: plain cross-entropy at temperature T
    anneal = one_minus ** beta
    losses = -cfg.temperature * anneal * log_pt
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = beta * pt * one_minus ** (beta - 1.0) * log_pt
    bracket = np.where(one_minus > 0, lead, 0.0) - anneal
    onehot = np.zeros_like(z)
    onehot[rows, t] = 1.0
    grads = bracket[:, None] * (onehot - p)
    return losses, grads, saturated


def la_loss(z, t: int, cfg: LossConfig) -> LossResult:
    """Annealed loss and its gradient for one logit vector."""
    z = as_real_array(z).reshape(1, -1)
    losses, grads, saturated = _la_batch(z, np.asarray([t]), cfg)
    return LossResult(float(losses[0]), grads[0], saturated)


def la_loss_mean(z, t, cfg: LossConfig):
    """Batch-mean annealed loss; returns (value, d value/d z)."""
    z = as_real_array(z)
    losses, grads, _ = _la_batch(z, np.asarray(t), cfg)
    return float(np.mean(losses)), grads / z.shape[0]


def margins_and_runners(z: np.ndarray, t: np.ndarray):
    """Margins z_t - max_{k != t} z_k and the runner-up indices, batched."""
    b = z.shape[0]
    rows = np.arange(b)
    masked = z.copy()
    masked[rows, t] = -np.inf
    runner = np.argmax(masked, axis=1)
    return z[rows, t] - masked[rows, runner], runner


def _ce_cr_batch(z: np.ndarray, t: np.ndarray, cfg: LossConfig):
    t = check_logits(z, t)
    b = z.shape[0]
    rows = np.arange(b)
    p = _softmax_rows(z)
    pt = np.maximum(p[rows, t], SATURATION_FLOOR)
    onehot = np.zeros_like(z)
    onehot[rows, t] = 1.0
    ce = -np.log(pt)
    grads = p - onehot

    m, runner = margins_and_runners(z, t)
    active = m > 0  # the hinge subgradient at m == 0 takes the inactive branch
    losses = ce - cfg.cr_weight * np.maximum(m, 0.0)
    if cfg.cr_weight:
        hinge = np.zeros_like(z)
        hinge[rows, t] = 1.0
        hinge[rows, runner] -= 1.0
        grads = grads - cfg.cr_weight * np.where(active[:, None], hinge, 0.0)
    return losses, grads


def ce_cr_loss(z, t: int, cfg: LossConfig) -> LossResult:
    """Cross-entropy minus the margin hinge, with exact (sub)gradient."""
    z = as_real_array(z).reshape(1, -1)
    losses, grads = _ce_cr_batch(z, np.asarray([t]), cfg)
    return LossResult(float(losses[0]), grads[0], False)


def ce_cr_loss_mean(z, t, cfg: LossConfig):
    z = as_real_array(z)
    losses, grads = _ce_cr_batch(z, np.asarray(t), cfg)
    return float(np.mean(losses)), grads / z.shape[0]


def ce_loss_mean(z, t, cfg: LossConfig | None = None):
    """Plain cross-entropy batch mean (the cr_weight = 0 special case)."""
    plain = LossConfig(temperature=1.0, offset=0.0, annealing=0.0, cr_weight=0.0)
    z = as_real_array(z)
    losses, grads = _ce_cr_batch(z, np.asarray(t), plain)
    return float(np.mean(losses)), grads / z.shape[0]


def ramp_loss(m: float, tau: float) -> float:
    """Piecewise-linear margin penalty: 1 below zero, 0 above tau."""
    if not tau > 0:
        raise ContractError("ramp width must be positive")
    if m >= tau:
        return 0.0
    if m <= 0.0:
        return 1.0
    return 1.0 - m / tau


def cr_ramp_risks(margins, tau: float):
    """Batch-mean hinge risk (at gamma = 1/tau) and ramp risk.

    With tau set to the largest margin in the batch the two risks differ by
    exactly one, which is the identity the tests pin down.
    """
    margins = as_real_array(margins).reshape(-1)
    if not tau > 0:
        raise ContractError("ramp width must be positive")
    gamma = 1.0 / tau
    cr = float(np.mean(-gamma * np.maximum(margins, 0.0)))
    ramp = float(np.mean([ramp_loss(float(m), tau) for m in margins]))
    return cr, ramp


def loss_curves(cfg: LossConfig, grid) -> list[tuple[float, ...]]:
    """Two-class diagnostic curves as rows (p_t, la, la', ce, cecr, cecr').

    Derivatives are taken with respect to p_t. The hinge contribution to the
    combined loss switches on at p_t = 1/2 (where the two-class margin
    log(p/(1-p)) crosses zero), producing a jump of gamma/(p(1-p)) = 4*gamma
    in the derivative; the annealed derivative decays to zero as p_t -> 1.
    """
    rows = []
    temp, beta, gamma = cfg.temperature, cfg.annealing, cfg.cr_weight
    for p in np.asarray(grid, dtype=np.float64).reshape(-1):
        if not 0.0 < p < 1.0:
            raise ContractError("curve grid must lie strictly inside (0, 1)")
        om = 1.0 - p
        la = -temp * om ** beta * np.log(p)
        la_d = temp * beta * om ** (beta - 1.0) * np.log(p) - temp * om ** beta / p
        ce = -np.log(p)
        margin = np.log(p / om)
        cecr = ce - gamma * max(margin, 0.0)
        cecr_d = -1.0 / p - (gamma / (p * om) if p > 0.5 else 0.0)
        rows.append((float(p), float(la), float(la_d), float(ce),
                     float(cecr), float(cecr_d)))
    return rows


LOSS_CURVE_HEADER = "p_t,la,la_grad,ce,cecr,cecr_grad"
