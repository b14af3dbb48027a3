"""Layer semantics, model assembly, and end-to-end norm control."""

import numpy as np
import pytest

from brolip import linalg
from brolip.errors import ContractError
from brolip.models import (LayerSpec, build_model, bronet_mini,
                           lipconvnet_mini)
from brolip.tape import (EagerOps, Tape, grad_check, t_l2_pool, t_maxmin, t_mul,
                         t_sum)


class TestMaxMin:
    def test_pair_sorting(self):
        out = EagerOps.maxmin(np.array([1.0, 2.0]), axis=0)
        np.testing.assert_array_equal(out, [2.0, 1.0])

    def test_tie(self):
        out = EagerOps.maxmin(np.array([3.0, 3.0]), axis=0)
        np.testing.assert_array_equal(out, [3.0, 3.0])

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 5, 5))
        out = EagerOps.maxmin(x, axis=0)
        # exact entry permutation; the norm itself only differs by the
        # float summation order
        np.testing.assert_array_equal(np.sort(out, axis=0), np.sort(x, axis=0))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-15)

    def test_odd_channels_rejected(self):
        with pytest.raises(ContractError):
            EagerOps.maxmin(np.zeros(3), axis=0)

    def test_gradient_off_ties(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((4, 3))

        def f(x):
            y = t_maxmin(x, axis=0)
            return t_sum(t_mul(y, y))

        assert grad_check(f, x0, h=1e-6) < 1e-7


class TestL2Pool:
    def test_patch_one_is_abs(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 3))
        out = EagerOps.l2_pool(x, 1)
        np.testing.assert_allclose(out, np.abs(x))
        assert abs(np.linalg.norm(out) - np.linalg.norm(x)) < 1e-12

    def test_three_four_five_patch(self):
        x = np.array([[[3.0, 4.0], [0.0, 0.0]]])
        out = EagerOps.l2_pool(x, 2)
        np.testing.assert_allclose(out, [[[5.0]]])

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 6, 6))
        out = EagerOps.l2_pool(x, 2)
        assert out.shape == (3, 3, 3)
        assert abs(np.linalg.norm(out) - np.linalg.norm(x)) < 1e-12

    def test_gradient_off_zero_patches(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((1, 4, 4)) + 2.5

        def f(x):
            y = t_l2_pool(x, 2)
            return t_sum(t_mul(y, y))

        assert grad_check(f, x0, h=1e-6) < 1e-7

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ContractError):
            EagerOps.l2_pool(np.zeros((1, 5, 5)), 2)


class TestBuildModel:
    def test_head_only_is_unit_bound_linear_classifier(self):
        net = build_model([LayerSpec("lln_head", {"classes": 3, "d_in": 5})], seed=0)
        assert net.lipschitz_model().composed_bound == 1.0
        rows = net.head_rows()
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
        x = np.random.default_rng(1).standard_normal((4, 5))
        np.testing.assert_allclose(net.forward(x), x @ rows.T, atol=1e-12)

    def test_lipconvnet_mini_bound_exactly_one(self):
        net = build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=0)
        assert net.lipschitz_model().composed_bound == 1.0
        kinds = [l.kind for l in net.layers]
        assert kinds == ["bro_conv", "maxmin", "bro_conv", "maxmin",
                         "semi_ortho", "lln_head"]

    def test_zero_input_gives_zero_logits(self):
        net = build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=1)
        assert np.all(net.forward(np.zeros((1, 2, 4, 4))) == 0.0)

    def test_geometry_mismatch_rejected(self):
        specs = [
            LayerSpec("bro_conv", {"c": 2, "n": 1, "k": 3, "s": 4}),
            LayerSpec("bro_dense", {"m": 7, "n": 2}),  # 2*4*4 = 32 != 7
        ]
        with pytest.raises(ContractError):
            build_model(specs, seed=0)

    def test_maxmin_needs_even_width(self):
        specs = [LayerSpec("bro_dense", {"m": 3, "n": 1}), LayerSpec("maxmin", {})]
        with pytest.raises(ContractError):
            build_model(specs, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            build_model([LayerSpec("conv1x1", {})], seed=0, input_shape=(4,))

    def test_bronet_mini_assembles(self):
        net = build_model(bronet_mini(channels=2, spatial=4, classes=2), seed=2)
        assert net.lipschitz_model().composed_bound == 1.0
        out = net.forward(np.random.default_rng(3).standard_normal((5, 2, 4, 4)))
        assert out.shape == (5, 2)

    def test_deterministic_init(self):
        a = build_model(lipconvnet_mini(), seed=5)
        b = build_model(lipconvnet_mini(), seed=5)
        for (i1, n1, p1), (i2, n2, p2) in zip(a.parameters(), b.parameters()):
            assert (i1, n1) == (i2, n2)
            np.testing.assert_array_equal(p1, p2)


class TestEndToEndNormControl:
    def test_thousand_random_pairs_within_bound(self):
        net = build_model(bronet_mini(channels=2, spatial=4, classes=2), seed=7)
        bound = net.lipschitz_model().composed_bound
        rng = np.random.default_rng(8)
        x1 = rng.standard_normal((1000, 2, 4, 4))
        x2 = x1 + 0.3 * rng.standard_normal((1000, 2, 4, 4))
        z1, z2 = net.forward(x1), net.forward(x2)
        num = np.linalg.norm(z1 - z2, axis=1)
        den = np.linalg.norm((x1 - x2).reshape(1000, -1), axis=1)
        assert np.all(num <= bound * den + 1e-9)

    def test_keep_padding_variant_forward(self):
        specs = [LayerSpec("bro_conv", {"c": 2, "n": 1, "k": 3, "s": 4,
                                        "keep_padding": True}),
                 LayerSpec("maxmin", {}),
                 LayerSpec("lln_head", {"classes": 2, "d_in": 2 * 6 * 6})]
        net = build_model(specs, seed=0)
        out = net.forward(np.random.default_rng(1).standard_normal((3, 2, 4, 4)))
        assert out.shape == (3, 2)


def test_taped_step_backward_never_factors(monkeypatch):
    # the forward factors each reflector's Gram once (two convs, one
    # semi-orthogonal layer); every VJP reuses those factors
    net = build_model(lipconvnet_mini(2, 4), 0)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3,) + net.input_shape)
    calls = []
    cholesky = linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(linalg, "cholesky", counted)
    tape = Tape()
    logits, _, params = net.forward_tape(tape, x)
    out = t_sum(t_mul(logits, tape.constant(rng.standard_normal(logits.value.shape))))
    assert len(calls) == 3
    grads = tape.backward(out)
    assert len(calls) == 3
    assert all(np.any(grads[var.idx]) for var in params.values())
