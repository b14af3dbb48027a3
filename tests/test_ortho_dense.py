"""Dense orthogonalization constructions: reflector, Cayley, Newton."""

import numpy as np
import pytest

from brolip.errors import ContractError, DivergedError, SingularParameter
from brolip.models import BroConvLayer, BroDenseLayer
from brolip.ortho import (BroParam, ConvGeometry, block_reflector, bro_orthogonalize,
                          cayley_orthogonalize, identity_kernel, lot_orthogonalize,
                          BroConvKernel)
from brolip.tape import EagerOps

# Kaiming-scale draws (m = 64) where the Newton iteration is still far from
# orthogonal after 50 steps; found by sweeping seeds, then pinned.
LOT_BAD_SEEDS = (469559, 512304)


class TestBlockReflector:
    def test_axis_reflection(self):
        w = bro_orthogonalize(BroParam(np.array([[1.0], [0.0], [0.0]]))).array
        np.testing.assert_allclose(w, np.diag([-1.0, 1.0, 1.0]), atol=1e-14)

    def test_complex_parameter_rejected(self):
        # casting would drop the imaginary part and build a different reflector
        with pytest.raises(ContractError, match="complex128"):
            BroParam(np.array([[1.0], [1e-3j], [0.0]]))

    def test_square_full_rank_degenerates_to_negative_identity(self):
        v = np.random.default_rng(0).standard_normal((5, 5))
        w = block_reflector(v)
        np.testing.assert_allclose(w, -np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("m, n", [(8, 2), (32, 16), (64, 48)])
    def test_real_reflector_is_exactly_symmetric(self, m, n):
        # W = I - 2 B^T (B I): B I is B exactly (each entry one product with 1
        # plus products with 0), so entries (i, j) and (j, i) of B^T B sum the
        # same products, and numpy's GEMM sums them in the same order at
        # these sizes
        w = block_reflector(np.random.default_rng(m + n).standard_normal((m, n)))
        assert np.array_equal(w, w.T)

    def test_eigenvalue_counts(self):
        v = np.random.default_rng(1).standard_normal((8, 3))
        w = bro_orthogonalize(BroParam(v)).array
        vals = np.sort(np.linalg.eigvalsh(w))
        np.testing.assert_allclose(vals[:3], -1.0, atol=1e-8)
        np.testing.assert_allclose(vals[3:], 1.0, atol=1e-8)

    def test_orthogonal_symmetric_involutory(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            m = int(rng.integers(2, 33))
            n = int(rng.integers(1, m))
            w = bro_orthogonalize(BroParam(rng.standard_normal((m, n)))).array
            assert np.linalg.norm(w.T @ w - np.eye(m)) < 1e-10
            assert np.linalg.norm(w - w.T) < 1e-12
            x = rng.standard_normal(m)
            np.testing.assert_allclose(w @ (w @ x), x, atol=1e-9)

    def test_degenerate_shape_rejected_at_type_level(self):
        with pytest.raises(ContractError):
            BroParam(np.eye(4))

    def test_rank_deficient_parameter(self):
        v = np.random.default_rng(3).standard_normal((6, 3))
        v[:, 2] = v[:, 0]
        with pytest.raises(SingularParameter):
            BroParam(v)


class TestCayley:
    def test_zero_parameter_gives_identity(self):
        np.testing.assert_allclose(
            cayley_orthogonalize(np.zeros((3, 3))).array, np.eye(3), atol=1e-14)

    def test_two_by_two_closed_form(self):
        # A = [[0, 1], [-1, 0]]: (I - A)(I + A)^{-1} = [[0, -1], [1, 0]]
        w = cayley_orthogonalize(np.array([[0.0, 1.0], [-1.0, 0.0]])).array
        np.testing.assert_allclose(w, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(w.T @ w, np.eye(2), atol=1e-14)
        assert np.linalg.det(w) == pytest.approx(1.0)

    def test_random_orthogonality_and_rotation(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            w = cayley_orthogonalize(rng.standard_normal((16, 16))).array
            assert np.linalg.norm(w.T @ w - np.eye(16)) < 1e-10
            assert np.linalg.det(w) == pytest.approx(1.0, abs=1e-8)


class TestNewtonOrthogonalization:
    def test_identity_parameter(self):
        w, conds = lot_orthogonalize(np.eye(8), 12)
        np.testing.assert_allclose(w.array, np.eye(8), atol=1e-9)
        np.testing.assert_allclose(conds, 1.0, atol=1e-12)

    def test_identity_init_scheme_converges_fast(self):
        rng = np.random.default_rng(0)
        v = np.eye(32) + 0.01 * rng.standard_normal((32, 32))
        _, conds = lot_orthogonalize(v, 10)
        assert conds[-1] < 1.0 + 1e-6

    @pytest.mark.parametrize("seed", LOT_BAD_SEEDS)
    def test_kaiming_scale_can_stay_non_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((64, 64)) * np.sqrt(2.0 / 64)
        _, conds = lot_orthogonalize(v, 50)
        assert conds[-1] > 1.0 + 1e-2

    def test_zero_parameter_diverges(self):
        with pytest.raises(DivergedError) as info:
            lot_orthogonalize(np.zeros((4, 4)), 5)
        assert info.value.iteration >= 1

    def test_iteration_count_contract(self):
        with pytest.raises(ContractError):
            lot_orthogonalize(np.eye(3), 0)


class TestSemiOrthogonal:
    # the layer applies its prepared operator, the c_out x c_in block of
    # the reflector of v, to a feature-major batch as operator @ x
    def _layer(self, c, c_out, c_in, seed):
        rng = np.random.default_rng(seed)
        return BroDenseLayer("semi_ortho", rng.standard_normal((c, c // 2)), 1.0,
                             False, 1.0, c_out, c_in)

    def _block(self, c, c_out, c_in, seed):
        layer = self._layer(c, c_out, c_in, seed)
        return layer.prepare(EagerOps, layer.params())

    def test_square_truncation_is_identity_map(self):
        layer = self._layer(4, 4, 4, 0)
        np.testing.assert_allclose(layer.prepare(EagerOps, layer.params()),
                                   block_reflector(layer.v))

    def test_expanding_preserves_norms(self):
        t = self._block(4, 4, 2, 1)
        assert np.linalg.norm(t.T @ t - np.eye(2)) < 1e-10
        rng = np.random.default_rng(2)
        for trial in range(100):
            x = rng.standard_normal(2)
            assert abs(np.linalg.norm(t @ x) - np.linalg.norm(x)) < 1e-10

    def test_reducing_never_expands(self):
        t = self._block(4, 2, 4, 3)
        assert np.linalg.norm(t @ t.T - np.eye(2)) < 1e-10
        rng = np.random.default_rng(4)
        for trial in range(100):
            x = rng.standard_normal(4)
            assert np.linalg.norm(t @ x) <= np.linalg.norm(x) + 1e-12
        # equality on the row space
        x = t.T @ rng.standard_normal(2)
        assert abs(np.linalg.norm(t @ x) - np.linalg.norm(x)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractError):
            self._layer(4, 3, 2, 5)


class TestIdentityResidual:
    # the effective kernel I + (alpha / depth_norm) V that a residual conv
    # layer trains through
    def _effective(self, v, alpha, depth_norm):
        c, _, k, _ = v.shape
        layer = BroConvLayer(v, alpha, ConvGeometry(c, c, 4, k), residual=True,
                             depth_norm=depth_norm)
        return layer.effective(EagerOps, layer.params())

    def test_alpha_zero_is_identity_kernel(self):
        rng = np.random.default_rng(0)
        eff = self._effective(rng.standard_normal((3, 2, 3, 3)), 0.0, 2.0)
        np.testing.assert_array_equal(eff, identity_kernel(3, 2, 3))

    def test_alpha_equal_depth_norm_cancels(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((2, 1, 3, 3))
        eff = self._effective(v, 1.7, 1.7)
        np.testing.assert_array_equal(eff, identity_kernel(2, 1, 3) + (v * 1.7) * (1.0 / 1.7))
        np.testing.assert_allclose(eff, identity_kernel(2, 1, 3) + v, atol=1e-15)

    def test_alpha_zero_operator_reflects_embedded_block(self):
        # orthogonalizing the identity kernel gives channelwise -1 on the
        # first n channels and +1 on the rest, applied pointwise
        from brolip.ortho import bro_conv_forward
        kern = BroConvKernel(identity_kernel(3, 2, 3))
        geom = ConvGeometry(3, 3, 4, 3, keep_padding=False)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 4, 4))
        y = bro_conv_forward(kern, x, geom).array
        np.testing.assert_allclose(y[:2], -x[:2], atol=1e-12)
        np.testing.assert_allclose(y[2:], x[2:], atol=1e-12)
