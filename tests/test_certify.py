"""Margins, radii, composition, distribution statistics, report IO."""

import json
import math

import numpy as np
import pytest

from brolip.certify import (CertificationReport, LipschitzModel, SampleRecord,
                            accuracy_radius_curve, build_report,
                            certified_radius, compose_lipschitz,
                            lln_certified_radius, margin, radius_stats)
from brolip.errors import ContractError, FormatError


class TestMargin:
    def test_examples(self):
        assert margin([3.0, 1.0, 0.0], 0) == pytest.approx(2.0)
        assert margin([1.0, 1.0], 0) == 0.0
        assert margin([0.0, 5.0, 2.0], 0) == pytest.approx(-5.0)

    def test_contracts(self):
        with pytest.raises(ContractError):
            margin([1.0], 0)
        with pytest.raises(ContractError):
            margin([1.0, 2.0], 2)


class TestCertifiedRadius:
    def test_examples(self):
        assert certified_radius(1.0, 1.0) == pytest.approx(0.70710678, abs=1e-8)
        assert certified_radius(-0.3, 1.0) == 0.0
        assert certified_radius(2.0, 4.0) == pytest.approx(0.35355339, abs=1e-8)

    def test_monotonicity(self):
        assert certified_radius(2.0, 1.0) > certified_radius(1.0, 1.0)
        assert certified_radius(1.0, 2.0) < certified_radius(1.0, 1.0)

    def test_bound_contract(self):
        with pytest.raises(ContractError):
            certified_radius(1.0, 0.0)


class TestHeadAwareRadius:
    def test_consistent_with_plain_bound(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])  # ||w0 - w1|| = sqrt(2)
        got = lln_certified_radius([1.0, 0.0], 0, rows, 1.0)
        assert got == pytest.approx(1.0 / math.sqrt(2.0))

    def test_misclassified_gives_zero(self):
        rows = np.eye(3)
        assert lln_certified_radius([0.0, 1.0, 0.0], 0, rows, 1.0) == 0.0

    def test_matches_pairwise_loop_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            rows = rng.standard_normal((3, 5))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            z = rng.standard_normal(3)
            t = int(rng.integers(3))
            want = math.inf
            for j in range(3):
                if j == t:
                    continue
                want = min(want, (z[t] - z[j]) /
                           (1.0 * np.linalg.norm(rows[t] - rows[j])))
            want = max(0.0, want)
            got = lln_certified_radius(z, t, rows, 1.0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_identical_dominated_rows_are_skipped(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert lln_certified_radius([1.0, 0.0], 0, rows, 1.0) == math.inf
        assert lln_certified_radius([0.0, 1.0], 0, rows, 1.0) == 0.0


class TestComposition:
    def test_examples(self):
        assert compose_lipschitz(LipschitzModel([("a", 1.0)] * 3)) == 1.0
        model = LipschitzModel([("a", 2.0), ("b", 0.5), ("c", 3.0)])
        assert compose_lipschitz(model) == pytest.approx(3.0)

    def test_positive_constants_required(self):
        with pytest.raises(ContractError):
            compose_lipschitz(LipschitzModel([("a", 0.0)]))

    def test_empirical_ratio_never_exceeds_bound(self):
        from brolip.models import build_model, lipconvnet_mini
        net = build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=0)
        bound = compose_lipschitz(net.lipschitz_model())
        assert bound == 1.0
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((1000, 2, 4, 4))
        x2 = x1 + rng.standard_normal((1000, 2, 4, 4)) * 0.5
        z1, z2 = net.forward(x1), net.forward(x2)
        num = np.linalg.norm(z1 - z2, axis=1)
        den = np.linalg.norm((x1 - x2).reshape(1000, -1), axis=1)
        assert np.all(num <= bound * den + 1e-9)


class TestRadiusStats:
    def test_constant_list(self):
        assert radius_stats([1.0, 1.0, 1.0]) == (1.0, 0.0, 0.0)

    def test_moment_formula_oracle(self):
        # (0, 0, 3): mean 1, m2 = 2, m3 = 2 -> skew = 2 / 2^1.5
        med, var, skew = radius_stats([0.0, 0.0, 3.0])
        assert med == 0.0
        assert var == pytest.approx(2.0)
        assert skew == pytest.approx(2.0 / 2.0 ** 1.5)

    def test_even_count_median_midpoint(self):
        med, _, _ = radius_stats([4.0, 1.0, 2.0, 3.0])
        assert med == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            radius_stats([])

    @pytest.mark.filterwarnings("error")
    def test_unbounded_radii_enter_only_the_median(self):
        # moments of the finite radii (0, 0, 3), as in the oracle above
        med, var, skew = radius_stats([np.inf, 0.0, 3.0, 0.0, np.inf])
        assert med == 3.0
        assert var == pytest.approx(2.0)
        assert skew == pytest.approx(2.0 / 2.0 ** 1.5)
        assert radius_stats([1.0, 2.0, np.inf]) == (2.0, 0.25, 0.0)
        assert radius_stats([np.inf, np.inf]) == (np.inf, 0.0, 0.0)


def _report(radii, correct):
    recs = [SampleRecord(0, 0 if ok else 1, 1.0 if ok else -1.0,
                         r if ok else 0.0)
            for r, ok in zip(radii, correct)]
    return CertificationReport(recs, 1.0)


class TestAccuracyRadiusCurve:
    def test_zero_radius_is_clean_accuracy(self):
        rep = _report([0.5, 0.2, 0.0, 0.1], [True, True, False, True])
        curve = accuracy_radius_curve(rep, [0.0])
        assert curve[0][1] == pytest.approx(0.75)

    def test_beyond_max_radius_is_zero(self):
        rep = _report([0.5, 0.2], [True, True])
        assert accuracy_radius_curve(rep, [10.0])[0][1] == 0.0

    def test_matches_counting_oracle_and_non_increasing(self):
        rng = np.random.default_rng(2)
        radii = rng.uniform(0, 1, size=40)
        correct = rng.uniform(size=40) > 0.3
        rep = _report(radii, correct)
        grid = np.sort(rng.uniform(0, 1.2, size=8))
        curve = accuracy_radius_curve(rep, grid)
        fracs = [a for _, a in curve]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))
        for (r, frac) in curve:
            want = sum(1 for rr, ok in zip(radii, correct)
                       if ok and rr >= r) / 40
            assert frac == pytest.approx(want)

    def test_unsorted_grid_rejected(self):
        rep = _report([0.5], [True])
        with pytest.raises(ContractError):
            accuracy_radius_curve(rep, [0.5, 0.1])


class TestReportAssembly:
    def test_misclassified_samples_get_zero_radius(self):
        z = np.array([[2.0, 0.0], [0.0, 3.0]])
        rep = build_report(z, [0, 0], 1.0)
        assert rep.records[0].radius > 0
        assert rep.records[1].radius == 0.0
        assert rep.records[1].predicted == 1

    def test_head_rows_route(self):
        rows = np.eye(2)
        z = np.array([[1.0, 0.0]])
        rep = build_report(z, [0], 1.0, head_rows=rows)
        assert rep.records[0].radius == pytest.approx(1 / math.sqrt(2))

    def test_invariant_enforced(self):
        with pytest.raises(ContractError):
            CertificationReport([SampleRecord(0, 1, -1.0, 0.5)], 1.0)
        with pytest.raises(ContractError):
            CertificationReport([SampleRecord(0, 0, 1.0, -0.1)], 1.0)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((20, 3))
        y = rng.integers(0, 3, size=20)
        rep = build_report(z, y, 1.0, grid=[0.0, 0.1, 0.2])
        path = tmp_path / "report.txt"
        rep.save(path)
        back = CertificationReport.load(path)
        assert back.lipschitz_bound == rep.lipschitz_bound
        assert back.curve == rep.curve
        assert len(back.records) == 20
        for a, b in zip(rep.records, back.records):
            assert (a.true_label, a.predicted) == (b.true_label, b.predicted)
            assert a.radius == b.radius and a.margin == b.margin

    def test_unbounded_radii_are_counted_in_the_header(self, tmp_path):
        # identical head rows certify the correct samples at +inf
        z = np.array([[2.0, 0.0], [1.0, 0.5], [0.0, 1.0]])
        rep = build_report(z, [0, 0, 0], 1.0, head_rows=np.ones((2, 2)) / math.sqrt(2))
        assert rep.radius.tolist() == [np.inf, np.inf, 0.0]
        path = tmp_path / "report.txt"
        rep.save(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["unbounded"] == 2
        assert header["stats"] == {"median": np.inf, "variance": 0.0, "skewness": 0.0}

    def test_corrupted_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not json\n")
        with pytest.raises(FormatError):
            CertificationReport.load(path)
        path.write_text('{"version": 99}\n')
        with pytest.raises(FormatError):
            CertificationReport.load(path)


def _scalar_columns(z, labels, bound, rows):
    """The per-sample reference: one loop over the scalar oracles."""
    cols = []
    for zi, t in zip(z, labels.tolist()):
        m = margin(zi, t)
        pred = t if m >= 0 else int(np.argmax(zi))
        if m <= 0:
            r = 0.0
        elif rows is not None:
            r = lln_certified_radius(zi, t, rows, bound)
        else:
            r = certified_radius(m, bound)
        cols.append((t, pred, m, r))
    t, pred, m, r = zip(*cols)
    return (np.array(t, dtype=np.int64), np.array(pred, dtype=np.int64),
            np.array(m), np.array(r))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _batch(c, seed, n=400):
    """Seeded logits with ties on the label and between two rivals."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)
    rival = (labels + 1 + rng.integers(0, c - 1, size=n)) % c
    tie = rng.random(n) < 0.2
    z[tie, rival[tie]] = z[tie, labels[tie]]
    top = np.flatnonzero(rng.random(n) < 0.1)
    z[top, rival[top]] = z[top].max(axis=1) + 0.5
    if c > 2:
        z[top, (rival[top] + 1) % c] = z[top, rival[top]]
    return z, labels


def _heads(c, seed):
    """A unit-row head with rows 0 and 1 identical, and an all-identical one."""
    rng = np.random.default_rng(seed + 100)
    rows = rng.standard_normal((c, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows[1] = rows[0]
    return {"pair": rows, "all": np.tile(rows[0], (c, 1))}


_ROUTES = [(c, head) for c in (2, 3, 10) for head in (None, "pair", "all")]


class TestBatchReport:
    @pytest.mark.parametrize("c,head", _ROUTES)
    def test_columns_equal_the_scalar_loop_bit_for_bit(self, c, head, tmp_path):
        z, labels = _batch(c, seed=c)
        rows = None if head is None else _heads(c, seed=c)[head]
        rep = build_report(z, labels, 0.7, head_rows=rows)
        t, pred, m, r = _scalar_columns(z, labels, 0.7, rows)
        assert np.array_equal(rep.true_label, t) and rep.true_label.dtype == np.int64
        assert np.array_equal(rep.predicted, pred) and rep.predicted.dtype == np.int64
        assert np.array_equal(_bits(rep.margin), _bits(m))
        assert np.array_equal(_bits(rep.radius), _bits(r))
        # the batch covers ties, misclassified samples and both skip rules
        assert np.any(rep.margin == 0.0) and np.any(rep.margin < 0)
        if head == "all":
            assert np.all(np.isinf(rep.radius[rep.margin > 0]))
        path = tmp_path / "report.txt"
        rep.save(path)
        back = CertificationReport.load(path)
        for name in ("true_label", "predicted"):
            assert np.array_equal(getattr(back, name), getattr(rep, name))
        for name in ("margin", "radius"):
            assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(rep, name)))

    @pytest.mark.parametrize("head", [False, True])
    @pytest.mark.parametrize("bad,where", [
        ([np.inf, 1.0, 0.0], "inf at sample 1, class 0"),
        ([np.nan, 0.0, 1.0], "nan at sample 1, class 0"),
        ([0.0, 1.0, -np.inf], "-inf at sample 1, class 2"),
    ])
    def test_non_finite_logits_fail_early(self, head, bad, where):
        z = np.array([[2.0, 0.0, 1.0], bad, [np.nan, 0.0, 0.0]])
        rows = np.eye(3) if head else None
        with pytest.raises(ContractError, match=f"non-finite logit {where}"):
            build_report(z, [0, 0, 0], 1.0, head_rows=rows)

    @pytest.mark.parametrize("z,labels,rows", [
        (np.eye(3), [0, -1, 2], None),
        (np.eye(3), [0, 3, 2], np.eye(3)),
        (np.ones((3, 1)), [0, 0, 0], None),
        (np.eye(3), [0, 1, 2], np.eye(2)),
    ], ids=["label-1", "label-C", "one-class", "head-rows"])
    def test_batch_contracts(self, z, labels, rows):
        with pytest.raises(ContractError):
            build_report(z, labels, 1.0, head_rows=rows)

    def test_columns_and_records_are_read_only(self):
        rep = build_report(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 0], 1.0)
        assert isinstance(rep.records, tuple)
        assert rep.records[1] == SampleRecord(0, 1, -1.0, 0.0)
        with pytest.raises(ValueError):
            rep.radius[0] = 5.0

    def test_report_file_in_the_version_1_format_loads_and_saves_unchanged(self, tmp_path):
        text = (
            '{"version": 1, "kind": "certification-report", "lipschitz_bound": 0.5, '
            '"count": 4, "clean_accuracy": 0.75, "stats": {"median": 0.3952847075210474, '
            '"variance": 3.8671875, "skewness": 1.065949198002195}, '
            '"curve": [[0.0, 0.75], [0.5, 0.5]]}\n'
            '{"true": 0, "pred": 0, "margin": 1.5, "radius": 4.743416490252569}\n'
            '{"true": 0, "pred": 1, "margin": -0.75, "radius": 0.0}\n'
            '{"true": 1, "pred": 1, "margin": 0.0, "radius": 0.0}\n'
            '{"true": 0, "pred": 0, "margin": 0.25, "radius": 0.7905694150420948}\n')
        path = tmp_path / "v1.txt"
        path.write_text(text)
        rep = CertificationReport.load(path)
        assert rep.true_label.tolist() == [0, 0, 1, 0]
        assert rep.predicted.tolist() == [0, 1, 1, 0]
        assert rep.margin.tolist() == [1.5, -0.75, 0.0, 0.25]
        assert rep.radius.tolist() == [4.743416490252569, 0.0, 0.0, 0.7905694150420948]
        assert rep.clean_accuracy() == 0.75
        # the logits that produced this file, through today's batch path
        z = np.array([[2.0, 0.5, -1.0], [0.25, 1.0, 0.0], [0.75, 0.75, 0.5],
                      [1.5, -0.5, 1.25]])
        rows = np.array([[0.6, 0.8], [0.0, 1.0], [0.0, 1.0]])
        fresh = build_report(z, [0, 0, 1, 0], 0.5, head_rows=rows, grid=[0.0, 0.5])
        out = tmp_path / "again.txt"
        fresh.save(out)
        assert out.read_text() == text
        rep.save(out)
        assert out.read_text() == text
