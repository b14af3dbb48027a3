"""Margins, certified radii, Lipschitz composition, and report assembly.

For an L-Lipschitz logit map, a prediction with margin M (target logit
minus runner-up) is provably stable against any l2 perturbation smaller
than max(0, M / (sqrt(2) L)): a pairwise logit difference is at most
sqrt(2) L-Lipschitz. When the classifier head has explicit unit-norm rows,
the per-pair constant improves to L * ||w_t - w_j||, giving the sharper
head-aware radius implemented here.

`build_report` certifies a whole (N, C) batch with array operations and
holds the result as columns in `CertificationReport`. The per-sample
functions `margin`, `certified_radius` and `lln_certified_radius` are the
reference it is tested against, bit for bit; it does not call them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError
from .losses import check_labels, margins_and_runners
from .tensor import as_real_array

REPORT_VERSION = 1


def margin(logits, t: int) -> float:
    """Target logit minus the best competing logit; negative iff misclassified."""
    z = as_real_array(logits).reshape(-1)
    if z.size < 2:
        raise ContractError("margin needs at least two classes")
    if not 0 <= t < z.size:
        raise ContractError(f"label {t} out of range for {z.size} classes")
    rest = np.delete(z, t)
    return float(z[t] - np.max(rest))


def certified_radius(m: float, lipschitz_bound: float) -> float:
    """max(0, m / (sqrt(2) L)) for an L-Lipschitz logit map."""
    if not lipschitz_bound > 0:
        raise ContractError("Lipschitz bound must be positive")
    return max(0.0, m / (math.sqrt(2.0) * lipschitz_bound))


def lln_certified_radius(logits, t: int, head_rows, l_backbone: float) -> float:
    """Head-aware radius min_j (z_t - z_j) / (L ||w_t - w_j||).

    `head_rows` are the rows actually applied to the backbone features
    (unit-normalized for a normalized head). Pairs with identical rows and
    z_t > z_j can never flip and are skipped; if every pair is skipped the
    radius is unbounded and +inf is returned.
    """
    z = as_real_array(logits).reshape(-1)
    rows = as_real_array(head_rows)
    if rows.ndim != 2 or rows.shape[0] != z.size:
        raise ContractError(f"head rows {rows.shape} do not match {z.size} logits")
    if not l_backbone > 0:
        raise ContractError("backbone Lipschitz bound must be positive")
    if z.size < 2:
        raise ContractError("need at least two classes")
    if not 0 <= t < z.size:
        raise ContractError(f"label {t} out of range")
    best = math.inf
    for j in range(z.size):
        if j == t:
            continue
        gap = float(z[t] - z[j])
        dist = float(np.linalg.norm(rows[t] - rows[j]))
        if dist == 0.0:
            if gap > 0.0:
                continue  # identical rows, permanently dominated pair
            return 0.0
        best = min(best, gap / (l_backbone * dist))
    return max(0.0, best)


@dataclass
class LipschitzModel:
    """Ordered (operator kind, Lipschitz constant) pairs of one network."""

    layers: list[tuple[str, float]]

    @property
    def composed_bound(self) -> float:
        return compose_lipschitz(self)


def compose_lipschitz(model: LipschitzModel) -> float:
    """Product of the per-layer constants."""
    bound = 1.0
    for kind, constant in model.layers:
        if not constant > 0:
            raise ContractError(f"layer {kind!r} has non-positive constant")
        bound *= constant
    return bound


def radius_stats(radii) -> tuple[float, float, float]:
    """(median, population variance, Fisher-Pearson skewness) of the radii.

    The median, over all radii, uses the midpoint convention for even
    counts. An unbounded (+inf) radius has no moments, so the variance and
    the skewness m3 / m2^(3/2) are population moments of the finite radii
    only; skewness is 0 by convention when m2 = 0, and both are 0 when no
    radius is finite.
    """
    arr = np.sort(as_real_array(radii).reshape(-1))
    if arr.size == 0:
        raise ContractError("radius list must be non-empty")
    mid = arr.size // 2
    if arr.size % 2:
        med = float(arr[mid])
    else:
        med = float(0.5 * (arr[mid - 1] + arr[mid]))
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return med, 0.0, 0.0
    centered = finite - np.mean(finite)
    m2 = float(np.mean(centered ** 2))
    m3 = float(np.mean(centered ** 3))
    skew = 0.0 if m2 == 0.0 else m3 / m2 ** 1.5
    return med, m2, skew


@dataclass
class SampleRecord:
    true_label: int
    predicted: int
    margin: float
    radius: float


def _column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype).reshape(-1)
    col.setflags(write=False)
    return col


class CertificationReport:
    """Per-sample certificates as four read-only columns, plus the aggregates.

    `true_label`, `predicted`, `margin` and `radius` are 1-D arrays with
    one entry per sample. `records` presents the same columns as a tuple
    of `SampleRecord`, rebuilt on each access.
    """

    def __init__(self, records, lipschitz_bound: float, curve=None):
        recs = list(records)
        self._set_columns([r.true_label for r in recs], [r.predicted for r in recs],
                          [r.margin for r in recs], [r.radius for r in recs])
        self.lipschitz_bound = lipschitz_bound
        self.curve = [] if curve is None else curve

    @classmethod
    def from_columns(cls, true_label, predicted, margin, radius,
                     lipschitz_bound: float, curve=None) -> "CertificationReport":
        report = cls((), lipschitz_bound, curve)
        report._set_columns(true_label, predicted, margin, radius)
        return report

    def _set_columns(self, true_label, predicted, margin, radius) -> None:
        true_label, predicted = _column(true_label, np.int64), _column(predicted, np.int64)
        margin, radius = _column(margin, np.float64), _column(radius, np.float64)
        if not true_label.shape == predicted.shape == margin.shape == radius.shape:
            raise ContractError("report columns differ in length")
        if np.any(radius < 0):
            raise ContractError("negative certified radius in report")
        if np.any((predicted != true_label) & (radius != 0.0)):
            raise ContractError("misclassified sample with positive radius")
        self.true_label, self.predicted = true_label, predicted
        self.margin, self.radius = margin, radius

    @property
    def records(self) -> tuple[SampleRecord, ...]:
        return tuple(map(SampleRecord, self.true_label.tolist(), self.predicted.tolist(),
                         self.margin.tolist(), self.radius.tolist()))

    def radii(self) -> np.ndarray:
        return self.radius

    def correct(self) -> np.ndarray:
        """Boolean column: the prediction is the true label."""
        return self.predicted == self.true_label

    def stats(self) -> tuple[float, float, float]:
        return radius_stats(self.radius)

    def clean_accuracy(self) -> float:
        if not self.true_label.size:
            return 0.0
        return int(np.count_nonzero(self.correct())) / self.true_label.size

    def save(self, path) -> None:
        """Write the report as strict JSON lines: a header, then one record
        per sample. An unbounded (+inf) radius or median is written as null."""
        med, var, skew = self.stats()
        header = {
            "version": REPORT_VERSION,
            "kind": "certification-report",
            "lipschitz_bound": self.lipschitz_bound,
            "count": int(self.true_label.size),
            "clean_accuracy": self.clean_accuracy(),
            "stats": {"median": None if med == math.inf else med,
                      "variance": var, "skewness": skew},
            "curve": [[r, a] for r, a in self.curve],
        }
        unbounded = int(np.count_nonzero(np.isinf(self.radius)))
        if unbounded:
            # absent means 0, so a bounded report keeps the version-1 layout
            header["unbounded"] = unbounded
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, allow_nan=False) + "\n")
            for rec in self.records:
                fh.write(json.dumps({
                    "true": rec.true_label, "pred": rec.predicted,
                    "margin": rec.margin,
                    "radius": None if rec.radius == math.inf else rec.radius},
                    allow_nan=False) + "\n")

    @classmethod
    def load(cls, path) -> "CertificationReport":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty report file")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad report header: {exc}") from exc
        if header.get("version") != REPORT_VERSION:
            raise FormatError(f"unsupported report version {header.get('version')}")
        records = []
        for ln in lines[1:]:
            try:
                raw = json.loads(ln)
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad report record: {exc}") from exc
            # null, or the bare Infinity of earlier files, is an unbounded radius
            radius = math.inf if raw["radius"] is None else float(raw["radius"])
            records.append(SampleRecord(int(raw["true"]), int(raw["pred"]),
                                        float(raw["margin"]), radius))
        if len(records) != header.get("count"):
            raise FormatError("record count does not match header")
        curve = [(float(r), float(a)) for r, a in header.get("curve", [])]
        return cls(records, float(header["lipschitz_bound"]), curve)


def accuracy_radius_curve(report: CertificationReport, grid) -> list[tuple[float, float]]:
    """Fraction of samples that are correct and certified at each grid radius."""
    radii = np.asarray(grid, dtype=np.float64).reshape(-1)
    if np.any(np.diff(radii) < 0):
        raise ContractError("radius grid must be sorted ascending")
    if not report.true_label.size:
        return [(float(r), 0.0) for r in radii]
    eps = report.radii()
    correct = report.correct()
    out = []
    for r in radii:
        frac = float(np.mean(correct & (eps >= r)))
        out.append((float(r), frac))
    return out


def _head_aware_radii(z: np.ndarray, labels: np.ndarray, m: np.ndarray,
                      rows: np.ndarray, l_backbone: float) -> np.ndarray:
    """`lln_certified_radius` of every sample with m > 0, and 0 elsewhere."""
    c = rows.shape[0]
    # The scalar oracle's per-pair expression: a norm along an axis sums in
    # another order and need not give the same bits.
    dist = np.zeros((c, c))
    for a in range(c):
        for b in range(a + 1, c):
            dist[a, b] = dist[b, a] = np.linalg.norm(rows[a] - rows[b])
    d = dist[labels]
    gaps = z[np.arange(z.shape[0]), labels][:, None] - z
    # d == 0 is j == t or an identical row; with m > 0 its gap is positive,
    # so the pair can never flip and is skipped (+inf if every pair is).
    ratio = np.divide(gaps, l_backbone * d, out=np.full(z.shape, np.inf), where=d > 0)
    return np.where(m > 0, np.maximum(0.0, ratio.min(axis=1)), 0.0)


def build_report(logits, labels, lipschitz_bound: float, head_rows=None,
                 grid=None) -> CertificationReport:
    """Assemble a report from (N, C) batch logits, as array operations.

    Uses the head-aware bound when `head_rows` is given, otherwise the
    sqrt(2) formula. Misclassified samples get radius zero; ties count as
    correct with zero radius. Every column equals a per-sample loop over
    `margin`, `certified_radius` and `lln_certified_radius` bit for bit.
    """
    z = as_real_array(logits)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ContractError(f"need at least two classes, got logits shape {z.shape}")
    n, c = z.shape
    labels = check_labels(labels, n, c)
    if head_rows is not None:
        rows = as_real_array(head_rows)
        if rows.ndim != 2 or rows.shape[0] != c:
            raise ContractError(f"head rows {rows.shape} do not match {c} logits")
    if not lipschitz_bound > 0:
        raise ContractError("Lipschitz bound must be positive")
    finite = np.isfinite(z)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ContractError(f"non-finite logit {z[i, j]} at sample {i}, class {j}")
    m, _ = margins_and_runners(z, labels)
    # A tied argmax is resolved toward the true label: ties certify at
    # radius zero but still count as clean hits.
    pred = np.where(m >= 0, labels, np.argmax(z, axis=1))
    if head_rows is not None:
        radius = _head_aware_radii(z, labels, m, rows, lipschitz_bound)
    else:
        # 0 / d is +0.0, the scalar path's radius for m <= 0
        radius = np.where(m > 0, m, 0.0) / (math.sqrt(2.0) * lipschitz_bound)
    report = CertificationReport.from_columns(labels, pred, m, radius,
                                              float(lipschitz_bound))
    if grid is not None:
        report.curve = accuracy_radius_curve(report, grid)
    return report
