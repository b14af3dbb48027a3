"""Hermitian solve contracts and the rank-deficiency error."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import brolip as bl
from brolip import linalg
from brolip.errors import DivergedError, ShapeError, SingularParameter
from brolip.fft import half_plane, half_tap_dft
from brolip.linalg import (PIVOT_REL_TOL, cholesky, gram_factor_taps, reflect, solve_hpd,
                           solve_lower, solve_upper_conj)
from brolip.ortho import ConvGeometry, conv_prepare
from brolip.tape import EagerOps, Tape, t_reflect, t_sum
from tape_helpers import t_real


@pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)])
def test_adjoint_of_a_real_array_is_a_view(shape):
    a = np.random.default_rng(40).standard_normal(shape)
    h = linalg.adjoint(a)
    assert np.shares_memory(h, a)
    np.testing.assert_array_equal(h, np.swapaxes(a, -1, -2))
    z = a + 1j * a[::-1]
    np.testing.assert_array_equal(linalg.adjoint(z), np.conj(np.swapaxes(z, -1, -2)))


def test_identity_matrix_returns_rhs():
    b = np.arange(6.0).reshape(3, 2) + 1j
    x = solve_hpd(np.eye(3), b)
    np.testing.assert_allclose(x, b, atol=1e-14)


def test_diagonal_case():
    a = np.diag([2.0, 4.0])
    b = np.array([[2.0], [8.0]])
    x = solve_hpd(a, b)
    np.testing.assert_allclose(x, [[1.0], [2.0]], atol=1e-14)


def test_projector_property():
    # X solving (V* V) X = V* makes V X the orthogonal projector onto col(V)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    a = v.conj().T @ v
    x = solve_hpd(a, v.conj().T)
    p = v @ x
    np.testing.assert_allclose(p @ p, p, atol=1e-10)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-10)


@pytest.mark.parametrize("n", [2, 8, 31, 48, 49, 64, 97])
def test_residual_bound_random_spd(n):
    rng = np.random.default_rng(n)
    for trial in range(3):
        g = rng.standard_normal((n, n + 2)) + 1j * rng.standard_normal((n, n + 2))
        a = g @ g.conj().T + 0.1 * np.eye(n)
        b = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        x = solve_hpd(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


def test_batched_solve_matches_loop():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 5, 8))
    a = g @ np.swapaxes(g, -1, -2) + np.eye(5)[None]
    b = rng.standard_normal((4, 5, 3))
    batched = solve_hpd(a, b)
    for i in range(4):
        np.testing.assert_allclose(batched[i], solve_hpd(a[i], b[i]), atol=1e-12)


def test_shape_errors():
    with pytest.raises(ShapeError):
        cholesky(np.zeros((2, 3)))


def test_singular_parameter_carries_diagnostics():
    v = np.random.default_rng(1).standard_normal((7, 4))
    a = v @ v.T  # rank 4 < 7
    with pytest.raises(SingularParameter) as info:
        cholesky(a)
    err = info.value
    assert err.pivot_index == 4
    assert err.cond_estimate > 1e10


def test_blocked_path_matches_small_path():
    # a size above the solve block threshold, factored by LAPACK in one call
    rng = np.random.default_rng(2)
    n = 100
    g = rng.standard_normal((n, n + 4)) + 1j * rng.standard_normal((n, n + 4))
    a = g @ g.conj().T + np.eye(n)
    l = cholesky(a)
    np.testing.assert_allclose(np.triu(l, 1), 0, atol=0)
    np.testing.assert_allclose(l @ l.conj().T, a, atol=1e-8 * np.linalg.norm(a))


def _panel_error(a):
    """SingularParameter from the unblocked elimination run on its own."""
    trace = np.einsum("...ii->...", a).real
    with pytest.raises(SingularParameter) as info:
        linalg._chol_panel(np.array(a, copy=True),
                           PIVOT_REL_TOL * np.maximum(trace, 0.0), trace)
    return info.value


def _gram_with_pivots(rng, n, pivots):
    """Complex L D L^H whose pivots are 1 except those given as {index: value}."""
    l = np.tril(0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))), -1)
    l += np.eye(n)
    d = np.ones(n)
    for j, p in pivots.items():
        d[j] = p
    return (l * d) @ l.conj().T


def test_batch_failure_reports_smallest_pivot_and_first_member(monkeypatch):
    rng = np.random.default_rng(5)
    n = 64
    # Failing pivots sit well below 1e-12 * trace (trace ~ 100) and well
    # above rounding noise, so the two eliminations agree on the estimate.
    fails = {(0, 1): {50: 3e-11}, (1, 0): {50: 5e-11}, (1, 2): {20: 4e-11, 60: 1e-11}}
    a = np.stack([np.stack([_gram_with_pivots(rng, n, fails.get((i, k), {}))
                            for k in range(3)]) for i in range(2)])
    panel = _panel_error(a)

    def no_panel(*args):
        raise AssertionError("the elimination runs only after LAPACK fails")

    monkeypatch.setattr(linalg, "_chol_panel", no_panel)
    with pytest.raises(SingularParameter) as info:
        cholesky(a)
    err = info.value
    # smallest failing index over the batch; first member in C order there
    assert err.pivot_index == panel.pivot_index == 20
    trace = np.trace(a[1, 2]).real
    np.testing.assert_allclose(err.cond_estimate, trace / 4e-11, rtol=1e-3)
    np.testing.assert_allclose(err.cond_estimate, panel.cond_estimate, rtol=1e-3)

    a[1, 2] = _gram_with_pivots(rng, n, {})
    with pytest.raises(SingularParameter) as info:
        cholesky(a)
    assert info.value.pivot_index == 50
    np.testing.assert_allclose(info.value.cond_estimate,
                               np.trace(a[0, 1]).real / 3e-11, rtol=1e-3)


def test_indefinite_matrix_takes_the_locator_path():
    rng = np.random.default_rng(6)
    n = 60
    a = _gram_with_pivots(rng, n, {55: -1.0})
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a)
    with pytest.raises(SingularParameter) as info:
        cholesky(np.stack([np.eye(n), a]))
    assert info.value.pivot_index == 55
    assert info.value.cond_estimate == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_named(bad):
    a = np.stack([np.eye(4), 2.0 * np.eye(4)]).astype(complex)
    a[1, 3, 2] = bad
    a[1, 2, 3] = bad
    with pytest.raises(DivergedError, match="non-finite") as info:
        cholesky(a)
    assert "row 3, column 2 of batch member (1,)" in str(info.value)
    assert info.value.iteration == 2
    with pytest.raises(DivergedError, match="non-finite"):
        solve_hpd(a[1], np.ones((4, 1)))


def test_finite_matrix_whose_sum_overflows_is_factored():
    # every entry, trace and pivot is finite; only the finite check's sum
    # over the batch overflows (numpy's warning is silenced here), which
    # must not read as a non-finite entry
    a = np.stack([1e307 * np.eye(2)] * 20)
    with np.errstate(over="ignore"):
        l = cholesky(a)
    np.testing.assert_allclose(l, np.sqrt(a), rtol=1e-15)  # a is diagonal


def _spectrum_gram(v, p):
    c, n, k, _ = v.shape
    vf = (half_tap_dft(p, k) @ v.transpose(2, 3, 0, 1).reshape(k * k, c * n))
    vf = vf.reshape(-1, c, n)
    return np.conj(np.swapaxes(vf, -1, -2)) @ vf


def _assert_taps_factor_the_spectrum_gram(v, p):
    l = gram_factor_taps(v, p)
    gram = _spectrum_gram(v, p)
    assert l.shape == (half_plane(p).rep.size,) + gram.shape[1:]
    scale = np.abs(gram).max()
    assert np.abs(l @ np.conj(np.swapaxes(l, -1, -2)) - gram).max() <= 1e-13 * scale
    return l, gram


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("s", [4, 5])
@pytest.mark.parametrize("complex_kernel", [False, True])
def test_gram_factor_taps_factors_the_spectrum_gram(k, s, complex_kernel):
    rng = np.random.default_rng(60 + 2 * k + s)
    v = rng.standard_normal((6, 3, k, k))
    if complex_kernel:
        v = v + 1j * rng.standard_normal((6, 3, k, k))
    p = s + 2 * (k // 2)
    l, gram = _assert_taps_factor_the_spectrum_gram(v, p)
    np.testing.assert_allclose(l, cholesky(gram), rtol=0,
                               atol=1e-13 * np.abs(l).max())


@settings(max_examples=30)
@given(c=st.integers(1, 16), n_frac=st.floats(0.0, 1.0), k=st.sampled_from([1, 3, 5]),
       s=st.integers(1, 6), complex_kernel=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_gram_factor_taps_property(c, n_frac, k, s, complex_kernel, seed):
    n = max(1, int(n_frac * c))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((c, n, k, k))
    if complex_kernel:
        v = v + 1j * rng.standard_normal((c, n, k, k))
    _assert_taps_factor_the_spectrum_gram(v, s + 2 * (k // 2))


def test_property_tests_run_under_the_shared_profile():
    # the conftest profile supplies what a test's @settings leaves out
    s = test_gram_factor_taps_property._hypothesis_internal_use_settings
    assert (s.derandomize, s.deadline, s.database, s.max_examples) == (True, None, None, 30)


def test_solve_hpd_matches_dense_solve_above_block_size():
    # n = 192 spans four diagonal blocks, each solved by LAPACK
    rng = np.random.default_rng(8)
    n = 192
    g = rng.standard_normal((3, n, n + 8)) + 1j * rng.standard_normal((3, n, n + 8))
    a = g @ np.conj(np.swapaxes(g, -1, -2))
    b = rng.standard_normal((3, n, 5)) + 1j * rng.standard_normal((3, n, 5))
    x = solve_hpd(a, b)
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-10


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [1, 47, 48, 49, 96, 97, 192])
def test_substitution_matches_dense_solve_across_block_edges(n):
    rng = np.random.default_rng(n)
    g = _cplx(rng, 3, n, n + 4)
    l = cholesky(g @ np.conj(np.swapaxes(g, -1, -2)))
    b = _cplx(rng, 3, n, 5)
    for got, tri in ((solve_lower(l, b), l),
                     (solve_upper_conj(l, b), np.conj(np.swapaxes(l, -1, -2)))):
        ref = np.linalg.solve(tri, b)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12


@pytest.mark.parametrize("n", [1, 47, 48, 49, 96, 97, 192])
def test_reflect_matches_the_hpd_formula_and_keeps_norms(n):
    rng = np.random.default_rng(n + 1)
    v, x = _cplx(rng, 2, n + 16, n), _cplx(rng, 2, n + 16, 3)
    vh = np.conj(np.swapaxes(v, -1, -2))
    y, _ = reflect(v, linalg.gram_factor(v), x)
    ref = x - 2.0 * (v @ solve_hpd(vh @ v, vh @ x))
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 1e-13
    np.testing.assert_allclose(np.linalg.norm(y, axis=-2), np.linalg.norm(x, axis=-2),
                               rtol=1e-13)


@settings(max_examples=60)
@given(m=st.integers(1, 3), c=st.integers(1, 12), n_frac=st.floats(0.0, 1.0),
       b=st.integers(1, 10), complex_v=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(m=2, c=8, n_frac=0.5, b=4, complex_v=False, seed=0)  # c = 2b
@example(m=1, c=6, n_frac=0.7, b=3, complex_v=True, seed=1)   # c = 2b
def test_reflect_either_association_matches_the_hpd_formula(m, c, n_frac, b,
                                                            complex_v, seed):
    # n < c except at c = 1, where the reflector is -I
    n = max(1, min(c - 1, int(n_frac * c)))
    rng = np.random.default_rng(seed)
    v, x = rng.standard_normal((m, c, n)), rng.standard_normal((m, c, b))
    if complex_v:
        v, x = v + 1j * rng.standard_normal(v.shape), x + 1j * rng.standard_normal(x.shape)
    y, (through_b, _) = reflect(v, linalg.gram_factor(v), x)
    assert (through_b is not None) == (c < 2 * b)
    vh = np.conj(np.swapaxes(v, -1, -2))
    ref = x - 2.0 * (v @ solve_hpd(vh @ v, vh @ x))
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    np.testing.assert_allclose(np.linalg.norm(y, axis=-2), np.linalg.norm(x, axis=-2),
                               rtol=1e-12)


_U = np.finfo(np.float64).eps / 2


def _gamma(k, u=_U):
    return k * u / (1 - k * u)


def _inner_product_gamma(k, complex_data, u=_U):
    """Bound on |fl(a^H b) - a^H b| / (|a|^T |b|) for a length-k inner product
    (Higham 2002, ch. 3), in any summation order, with or without FMA. A
    complex one is two real inner products of length 2k, over terms whose
    moduli |a_r b_r| + |a_i b_i| and |a_r b_i| + |a_i b_r| sum to at most
    |a| |b| each, so its real and imaginary errors are at most gamma_2k."""
    return np.sqrt(2.0) * _gamma(2 * k, u) if complex_data else _gamma(k, u)


def _near_dependent_kernel(rng, c, n, k):
    v = rng.standard_normal((c, n, k, k)) / np.sqrt(c)
    v[:, 1] = v[:, 0] + 1e-5 * rng.standard_normal((c, k, k))
    return v


@pytest.mark.parametrize("near_dependent", [False, True])
def test_reflector_orthogonality_defect_is_bounded_through_b(near_dependent):
    """||W^H W - I||_2 of each frequency's computed W against the defect of B.

    W_B = I - 2 B^H B, exact in the computed B = L^{-1} V^H, has
    W_B^H W_B - I = 4 B^H (B B^H - I) B, so its defect is at most
    delta = 4 ||B||_2^2 ||B B^H - I||_2. The computed W = fl(fl(-2 fl(B^H u))
    + I) with u = fl(B I) differs from W_B by E, entrywise
      |u - B| <= g(c) |B|               (u is B I, a length-c GEMM)
      |fl(B^H u) - B^H u| <= g(n) |B^H| |u|
      the product by -2 is exact; adding I rounds once: <= gamma_1 |W|,
    with g the inner-product bound above. So |E| <= kappa |B|^H |B| +
    gamma_1 |W|, kappa = 2 (g(c) + g(n) (1 + g(c))), and
    ||W^H W - I|| <= delta + 2 ||W_B|| ||E|| + ||E||^2 with ||W_B||^2 <= 1 + delta.
    W^H W - I and B B^H - I are summed in extended precision, whose g_ext
    terms the bound adds; rounding them back to double for the SVD moves
    each norm by a relative 1e-16, far below every term here.
    """
    c, n, k, s = 16, 4, 3, 8
    rng = np.random.default_rng(31)
    v = (_near_dependent_kernel(rng, c, n, k) if near_dependent
         else rng.standard_normal((c, n, k, k)) / np.sqrt(c))
    op = conv_prepare(EagerOps, v, ConvGeometry(c, c, s, k))
    w, (b, _) = reflect(op.vf, op.factor, np.eye(c))
    assert b is not None  # c < 2c: the association through B
    if near_dependent:
        gram = _spectrum_gram(v, s + 2 * (k // 2))
        assert np.max(np.linalg.cond(gram)) > 1e9

    u_ext = np.finfo(np.longdouble).eps / 2
    ext = lambda a: a.astype(np.clongdouble)
    conj_t = lambda a: np.conj(np.swapaxes(a, -1, -2))
    norm2 = lambda a: np.linalg.norm(a, 2, axis=(-2, -1))
    g = lambda kk: _inner_product_gamma(kk, True)
    g_ext = lambda kk: _inner_product_gamma(kk, True, u_ext)

    def defect(a, inner):
        # ||a a^H - I||_2, its products in extended precision, plus their bound
        d = (ext(a) @ conj_t(ext(a)) - np.eye(a.shape[-2])).astype(np.complex128)
        return norm2(d) + g_ext(inner) * norm2(np.abs(a) @ conj_t(np.abs(a)))

    measured = norm2((ext(conj_t(w)) @ ext(w) - np.eye(c)).astype(np.complex128))
    delta = 4.0 * norm2(b) ** 2 * defect(b, c)
    kappa = 2.0 * (g(c) + g(n) * (1.0 + g(c)))
    e = kappa * norm2(conj_t(np.abs(b)) @ np.abs(b)) + _gamma(1) * norm2(np.abs(w))
    eval_err = g_ext(c) * norm2(conj_t(np.abs(w)) @ np.abs(w))
    bound = delta + 2.0 * np.sqrt(1.0 + delta) * e + e * e + eval_err
    assert np.all(measured <= bound)
    # the bound is that of B, not of rounding alone
    if near_dependent:
        assert np.max(measured) > 1e-8 and np.max(bound) < 2 * np.max(measured)


def test_reflector_above_the_block_size_runs_no_lu(monkeypatch):
    def no_lu(*args, **kwargs):
        raise AssertionError("LU solve on the reflector path")

    monkeypatch.setattr(np.linalg, "solve", no_lu)
    monkeypatch.setattr(np.linalg, "inv", no_lu)
    rng = np.random.default_rng(11)
    c, n, size = 96, 64, 4
    kernel = bl.BroConvKernel(rng.standard_normal((c, n, 1, 1)) / np.sqrt(c))
    x = rng.standard_normal((2, c, size, size))
    y = bl.bro_conv_forward(kernel, x, bl.ConvGeometry(c, c, size, 1, keep_padding=True))
    np.testing.assert_allclose(np.linalg.norm(y.array), np.linalg.norm(x), rtol=1e-12)

    tape = Tape()
    v, xl = tape.leaf(_cplx(rng, 3, c, n)), tape.leaf(_cplx(rng, 3, c, 2))
    grads = tape.backward(t_sum(t_real(t_reflect(v, linalg.gram_factor(v.value), xl))))
    assert np.all(np.isfinite(grads[v.idx]))
    assert np.all(np.isfinite(grads[xl.idx]))
