"""Trainer determinism, datasets, the attack, and margin-shaping effects."""

import numpy as np
import pytest

from brolip.certify import build_report
from brolip.data import toy_dataset
from brolip.errors import ContractError, DivergedError
from brolip.losses import LossConfig
from brolip.models import LayerSpec, build_model, bronet_mini, lipconvnet_mini
from brolip.train import TrainConfig, train, pgd_attack

BLOBS = dict(kind="blobs", n=128, d=32, seed=11)


def _blobs(delta=6.0, sigma=1.0):
    return toy_dataset(BLOBS["kind"], BLOBS["n"], BLOBS["d"], BLOBS["seed"],
                       delta=delta, sigma=sigma)


def _mini_net(seed=7):
    return build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=seed)


class TestToyDatasets:
    def test_blobs_linear_probe_reaches_full_accuracy(self):
        x, y = toy_dataset("blobs", 200, 16, seed=0, delta=10.0, sigma=0.1)
        onehot = np.eye(2)[y]
        w, *_ = np.linalg.lstsq(np.c_[x, np.ones(len(x))], onehot, rcond=None)
        pred = np.argmax(np.c_[x, np.ones(len(x))] @ w, axis=1)
        assert np.mean(pred == y) == 1.0

    def test_seed_repeat_identical(self):
        a = toy_dataset("two_rings", 64, 8, seed=3)
        b = toy_dataset("two_rings", 64, 8, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("n, classes", [(10000, 3), (4096, 2), (5, 2)])
    def test_blobs_are_class_means_plus_scaled_noise(self, n, classes):
        # the means are added in blocks of rows; the values are the
        # one-expression delta * basis[labels] + sigma * noise's, bit for bit
        x, y = toy_dataset("blobs", n, 8, seed=12, classes=classes, delta=3.0, sigma=0.7)
        rng = np.random.default_rng(12)
        basis = np.linalg.qr(rng.standard_normal((8, classes)))[0].T
        labels = np.arange(n) % classes
        rng.shuffle(labels)
        np.testing.assert_array_equal(y, labels)
        np.testing.assert_array_equal(x, 3.0 * basis[labels] + 0.7 * rng.standard_normal((n, 8)))

    def test_rings_geometry(self):
        x, y = toy_dataset("two_rings", 400, 8, seed=4)
        r = np.linalg.norm(x[:, :2], axis=1)
        assert abs(np.median(r[y == 0]) - 1.0) < 0.1
        assert abs(np.median(r[y == 1]) - 2.0) < 0.1
        assert np.all(x[:, 4] == 1.0)  # constant reference coordinate

    def test_empty_set_rejected_by_trainer(self):
        x, y = toy_dataset("blobs", 0, 8, seed=0)
        assert x.shape == (0, 8)
        with pytest.raises(ContractError):
            train(_mini_net(), (x.reshape(0, 2, 2, 2), y), TrainConfig(epochs=1))

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            toy_dataset("spirals", 10, 4, seed=0)


class TestTrainer:
    def test_zero_learning_rate_is_a_no_op(self):
        net = _mini_net()
        before = [p.copy() for _, _, p in net.parameters()]
        cfg = TrainConfig(seed=0, epochs=3, learning_rate=0.0, radii=(0.1,))
        log = train(net, _blobs(), cfg)
        for (_, _, p), b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)
        # each epoch shuffles batches, so the epoch mean differs only by
        # float summation order
        losses = [r.mean_loss for r in log.records]
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_identical_logs(self):
        cfg = TrainConfig(seed=5, epochs=8, learning_rate=0.1, radii=(0.1,))
        log1 = train(_mini_net(), _blobs(), cfg)
        log2 = train(_mini_net(), _blobs(), cfg)
        for a, b in zip(log1.records, log2.records):
            assert a.mean_loss == b.mean_loss
            assert a.accuracy == b.accuracy
            assert a.mean_margin == b.mean_margin
            assert a.certified == b.certified

    def test_regression_fixture(self):
        # frozen from the first verified run of this exact configuration;
        # accuracy values are count ratios so equality is exact on one
        # platform, the margin is pinned to float tolerance
        net = _mini_net(seed=7)
        cfg = TrainConfig(seed=5, epochs=200, batch_size=32, learning_rate=0.1,
                          loss="la", loss_cfg=LossConfig(), radii=(0.1,))
        log = train(net, _blobs(), cfg)
        last = log.records[-1]
        assert last.accuracy == 1.0
        assert last.certified["0.1"] == 1.0
        assert last.mean_margin == pytest.approx(4.496326847207859, abs=1e-9)
        first = log.records[0]
        assert first.accuracy == 0.9765625
        assert first.certified["0.1"] == 0.9296875

    def test_gradient_flow_ratio_bounded(self):
        cfg = TrainConfig(seed=5, epochs=20, learning_rate=0.1, radii=(0.1,))
        log = train(_mini_net(), _blobs(), cfg)
        for rec in log.records:
            assert 1e-2 <= rec.grad_ratio <= 1e2

    def test_nan_loss_aborts_with_diagnostic(self):
        net = _mini_net()
        x, y = _blobs()
        x = x.copy()
        x[0, 0] = np.nan
        with pytest.raises(DivergedError):
            train(net, (x, y), TrainConfig(seed=0, epochs=1))

    def test_cosine_schedule_runs(self):
        cfg = TrainConfig(seed=1, epochs=4, learning_rate=0.1, schedule="cosine")
        log = train(_mini_net(), _blobs(), cfg)
        assert len(log.records) == 4

    def test_config_contracts(self):
        with pytest.raises(ContractError):
            TrainConfig(loss="mse")
        with pytest.raises(ContractError):
            TrainConfig(schedule="linear")
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)


class TestPgdAttack:
    def test_zero_radius_returns_input(self):
        net = _mini_net()
        x, y = _blobs()
        out = pgd_attack(net, x[0].reshape(2, 4, 4), int(y[0]), 0.0, 25)
        np.testing.assert_array_equal(out, x[0].reshape(2, 4, 4))

    def test_perturbation_stays_inside_ball(self):
        net = _mini_net()
        x, y = _blobs()
        xs = x[:8].reshape(-1, 2, 4, 4)
        adv = pgd_attack(net, xs, y[:8], 0.7, 30)
        deltas = np.linalg.norm((adv - xs).reshape(8, -1), axis=1)
        assert np.all(deltas <= 0.7 + 1e-9)

    def test_linear_model_closed_form(self):
        # for a normalized-row linear head, the decision boundary sits at
        # distance margin / ||w0 - w1||; the attack must cross slightly
        # above it and must not cross slightly below it
        net = build_model([LayerSpec("lln_head", {"classes": 2, "d_in": 4})], seed=3)
        rows = net.head_rows()
        x = np.random.default_rng(4).standard_normal(4)
        z = net.forward(x)[0]
        t = int(np.argmax(z))
        m = z[t] - z[1 - t]
        dist = m / np.linalg.norm(rows[t] - rows[1 - t])
        adv = pgd_attack(net, x, t, 1.05 * dist, 80)
        assert int(np.argmax(net.forward(adv))) != t
        adv = pgd_attack(net, x, t, 0.95 * dist, 80)
        assert int(np.argmax(net.forward(adv))) == t

    def test_negative_radius_rejected(self):
        with pytest.raises(ContractError):
            pgd_attack(_mini_net(), np.zeros((2, 4, 4)), 0, -1.0, 5)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ContractError, match="finite"):
            pgd_attack(_mini_net(), np.zeros((2, 4, 4)), 0, radius, 5)

    @pytest.mark.parametrize("labels, cause", [
        ([0, -1, 1, 0], "label -1 of sample 1 out of range for 2 classes"),
        ([5, 0, 1, 0], "label 5 of sample 0 out of range for 2 classes"),
        ([0, 1, 0], "3 labels for 4 samples"),
        (1, "1 labels for 4 samples"),
    ], ids=["negative", "past-the-classes", "too-few", "scalar-for-a-batch"])
    def test_bad_labels_rejected_before_the_first_step(self, labels, cause):
        net = _mini_net()
        with pytest.raises(ContractError, match=cause):
            pgd_attack(net, np.zeros((4, 2, 4, 4)), labels, 0.5, 3)
        assert net._prepared is None  # rejected before any forward

    def test_a_single_sample_takes_one_label(self):
        net = _mini_net()
        x = np.random.default_rng(8).standard_normal((2, 4, 4))
        np.testing.assert_array_equal(pgd_attack(net, x, 1, 0.5, 3),
                                      pgd_attack(net, x, [1], 0.5, 3))
        with pytest.raises(ContractError, match="2 labels for 1 samples"):
            pgd_attack(net, x, [1, 0], 0.5, 3)
        with pytest.raises(ContractError, match="label 2 of sample 0"):
            pgd_attack(net, x, 2, 0.5, 3)

    def test_negative_steps_rejected(self):
        with pytest.raises(ContractError, match="steps must be non-negative, got -1"):
            pgd_attack(_mini_net(), np.zeros((2, 4, 4)), 0, 0.5, -1)


class TestMarginShaping:
    @pytest.mark.parametrize("seed,data_seed", [(0, 100), (2, 102)])
    def test_annealed_loss_reduces_skewness_on_rings(self, seed, data_seed):
        # pinned seeds: the annealed loss yields a less right-skewed
        # certified-radius distribution than both the plain and the
        # hinge-regularized cross-entropy
        stats = {}
        for loss in ("la", "ce"):
            net = build_model(
                bronet_mini(channels=2, spatial=2, classes=2, rank=1, pool=2),
                seed=seed)
            x, y = toy_dataset("two_rings", 256, 8, seed=data_seed)
            cfg = TrainConfig(seed=seed, epochs=300, batch_size=32,
                              learning_rate=0.05, loss=loss,
                              loss_cfg=LossConfig(cr_weight=0.1), radii=(0.05,))
            train(net, (x, y), cfg)
            rep = build_report(net.forward(x), y, net.backbone_bound(),
                               head_rows=net.head_rows())
            stats[loss] = rep.stats()
        assert stats["la"][2] <= stats["ce"][2]
