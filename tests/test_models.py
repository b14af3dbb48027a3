"""Layer semantics, model assembly, and end-to-end norm control."""

import numpy as np
import pytest

from brolip import linalg
from brolip.errors import ContractError
from brolip.models import (LayerSpec, _reflector, build_model, bronet_mini,
                           lipconvnet_mini)
from brolip.tape import (EagerOps, Tape, grad_check, t_l2_pool, t_maxmin, t_mul,
                         t_sum)


class TestMaxMin:
    # feature-major batches (d, B): run r B pairs features in blocks of r
    def test_pair_sorting(self):
        out = EagerOps.maxmin(np.array([[1.0], [2.0]]), 1)
        np.testing.assert_array_equal(out, [[2.0], [1.0]])

    def test_tie(self):
        out = EagerOps.maxmin(np.array([[3.0], [3.0]]), 1)
        np.testing.assert_array_equal(out, [[3.0], [3.0]])

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8 * 25, 3))  # 8 channels of 5 x 5, 3 samples
        out = EagerOps.maxmin(x, 25 * 3)
        # exact entry permutation; the norm itself only differs by the
        # float summation order
        np.testing.assert_array_equal(np.sort(out.reshape(8, 25, 3), axis=0),
                                      np.sort(x.reshape(8, 25, 3), axis=0))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-15)

    def test_odd_channels_rejected(self):
        with pytest.raises(ContractError):
            EagerOps.maxmin(np.zeros((3, 1)), 1)

    def test_gradient_off_ties(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((4, 3))

        def f(x):
            y = t_maxmin(x, 3)
            return t_sum(t_mul(y, y))

        assert grad_check(f, x0, h=1e-6) < 1e-7


class TestL2Pool:
    # feature-major batches (c s^2, B) of s x s images
    def test_patch_one_is_abs(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 3)).reshape(18, 1)
        out = EagerOps.l2_pool(x, 1, 3)
        np.testing.assert_allclose(out, np.abs(x))
        assert abs(np.linalg.norm(out) - np.linalg.norm(x)) < 1e-12

    def test_three_four_five_patch(self):
        x = np.array([[3.0], [4.0], [0.0], [0.0]])
        out = EagerOps.l2_pool(x, 2, 2)
        np.testing.assert_allclose(out, [[5.0]])

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 6, 6)).reshape(108, 1)
        out = EagerOps.l2_pool(x, 2, 6)
        assert out.shape == (27, 1)
        assert abs(np.linalg.norm(out) - np.linalg.norm(x)) < 1e-12

    def test_gradient_off_zero_patches(self):
        rng = np.random.default_rng(4)
        x0 = (rng.standard_normal((1, 4, 4)) + 2.5).reshape(16, 1)

        def f(x):
            y = t_l2_pool(x, 2, 4)
            return t_sum(t_mul(y, y))

        assert grad_check(f, x0, h=1e-6) < 1e-7

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ContractError, match="patches of 2"):
            EagerOps.l2_pool(np.zeros((25, 1)), 2, 5)
        with pytest.raises(ContractError, match="24 rows"):
            EagerOps.l2_pool(np.zeros((24, 1)), 1, 5)


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

    def test_complex_input_rejected(self):
        net = build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=1)
        x = np.ones((1, 2, 4, 4), dtype=np.complex64)
        x[0, 1, 2, 3] += 1e-3j
        with pytest.raises(ContractError, match="complex64"):
            net.forward(x)

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

    @pytest.mark.parametrize("args, cause", [
        ({"classes": 2}, "KeyError"), ({"classes": 2, "d_in": "4"}, "TypeError")])
    def test_missing_or_mistyped_argument_names_the_layer(self, args, cause):
        specs = [LayerSpec("bro_dense", {"m": 4, "n": 1}), LayerSpec("lln_head", args)]
        with pytest.raises(ContractError, match=f"layer 1 \\(lln_head\\).*{cause}"):
            build_model(specs, seed=0)

    @pytest.mark.parametrize("args, cause", [
        ({"k": 2}, "kernel size must be odd"), ({"n": 0}, "rank n=0"),
        ({"n": 3}, "rank n=3 must not exceed channels c=2")],
        ids=["even_kernel", "zero_rank", "rank_above_channels"])
    def test_conv_spec_goes_through_the_kernel_contract(self, args, cause):
        spec = LayerSpec("bro_conv", {"c": 2, "n": 1, "k": 3, "s": 4} | args)
        with pytest.raises(ContractError, match=cause):
            build_model([spec], seed=0)

    @pytest.mark.parametrize("n, cause", [
        (0, "at least one column"), (4, "need n < m"), (6, "need n < m")])
    def test_dense_spec_goes_through_the_param_contract(self, n, cause):
        specs = [LayerSpec("maxmin", {}), LayerSpec("bro_dense", {"m": 4, "n": n})]
        with pytest.raises(ContractError, match=f"layer 1 \\(bro_dense\\).*{cause}"):
            build_model(specs, seed=0, input_shape=(4,))

    @pytest.mark.parametrize("kind, args, name", [
        ("bro_conv", {"c": 2, "n": -1, "k": 3, "s": 4}, "n"),
        ("bro_conv", {"c": -2, "n": 1, "k": 3}, "c"),
        ("bro_conv", {"c": 2, "n": 1, "k": -1}, "k"),
        ("bro_conv", {"c": 2, "n": 1, "k": 3, "s": -4}, "s"),
        ("bro_dense", {"m": -32, "n": 1}, "m"),
        ("bro_dense", {"m": 32, "n": -1}, "n"),
        ("semi_ortho", {"d_in": 32, "d_out": -1}, "d_out"),
        ("semi_ortho", {"d_in": 32, "d_out": 8, "n": -2}, "n"),
        ("lln_head", {"classes": -2, "d_in": 32}, "classes"),
        ("l2_pool", {"p": -2}, "p")])
    def test_negative_size_names_the_layer(self, kind, args, name):
        specs = [LayerSpec("maxmin", {}), LayerSpec(kind, args)]
        with pytest.raises(ContractError,
                           match=f"layer 1 \\({kind}\\).*{name}={args[name]} is negative"):
            build_model(specs, seed=0, input_shape=(2, 4, 4))

    @pytest.mark.parametrize("p", [0, -2])
    def test_pool_patch_below_one_is_rejected(self, p):
        with pytest.raises(ContractError, match=f"p={p}"):
            build_model([LayerSpec("l2_pool", {"p": p})], seed=0, input_shape=(2, 4, 4))

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


@pytest.mark.parametrize("specs", [lipconvnet_mini(2, 4), bronet_mini(2, 2)],
                         ids=["lipconvnet", "bronet"])
def test_dense_reflectors_are_exactly_symmetric(specs):
    # lipconvnet's 32 x 32 semi-orthogonal and bronet's 8 x 8 dense reflectors
    reflectors = [(layer.v, layer.v.shape[0]) for layer in build_model(specs, 0).layers
                  if layer.kind in ("semi_ortho", "bro_dense")]
    assert reflectors
    for v, m in reflectors:
        w = _reflector(EagerOps, v, m)
        assert np.array_equal(w, w.T)
