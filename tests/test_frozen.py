"""Prepared (frozen) operators against the recorded, unprepared forward.

Two equalities, bit for bit: parameter gradients do not depend on whether
the input leaf requires grad (the pruned backward skips only input-side
VJPs), and `pgd_attack`, which prepares every layer once per call, matches
a PGD loop that records each layer's whole `forward` at every step.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brolip.errors import ContractError
from brolip.losses import LossConfig, la_loss_mean
from brolip.models import LayerSpec, build_model, bronet_mini, lipconvnet_mini
from brolip.tape import Tape, TapeOps, t_custom_scalar
from brolip.train import _margin_sum, pgd_attack

MINI = {"lipconvnet": lipconvnet_mini(2, 4), "bronet": bronet_mini(2, 2)}


def _batch(net, size, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((size,) + net.input_shape)
    return x, rng.integers(0, net.classes(), size=size)


def _columns(x):
    """A (B, ...) batch as the network's feature-major (d, B) batch: the
    transposed view of its contiguous samples."""
    return np.ascontiguousarray(x.reshape(len(x), -1)).T


def _by_columns(fn):
    """`fn`, a scalar of (B, C) logits with its gradient, on (C, B) logits."""
    def by_columns(z):
        value, dz = fn(np.ascontiguousarray(z.T))
        return value, np.ascontiguousarray(dz.T)
    return by_columns


def _recorded_forward(net, tape, x, input_grad, param_grad):
    """Every layer's unprepared `forward` on a tape, from the image batch `x`
    taken feature-major; returns ((C, B) logits, x var, parameter vars in
    declaration order)."""
    ops = TapeOps(tape)
    x_var = tape.leaf(_columns(x), requires_grad=input_grad)
    cur, param_vars = x_var, []
    for layer in net.layers:
        bound = {name: tape.leaf(arr, requires_grad=param_grad)
                 for name, arr in layer.params().items()}
        param_vars += bound.values()
        cur = layer.forward(ops, bound, cur)
    return cur, x_var, param_vars


def _param_grads(net, x, labels, input_grad):
    tape = Tape()
    logits, _, param_vars = _recorded_forward(net, tape, x, input_grad, True)
    loss = t_custom_scalar(logits, _by_columns(lambda z: la_loss_mean(z, labels, LossConfig())))
    grads = tape.backward(loss)
    return [grads[v.idx] for v in param_vars]


def _reference_pgd(net, x, labels, radius, steps):
    """`pgd_attack`'s update rule over a forward recorded whole every step."""
    step = 2.5 * radius / steps
    flatdims = tuple(range(1, x.ndim))
    delta = np.zeros_like(x)
    for _ in range(steps):
        tape = Tape()
        logits, x_var, _ = _recorded_forward(net, tape, x + delta, True, False)
        obj = t_custom_scalar(logits, _by_columns(lambda z: _margin_sum(z, labels)))
        grad = np.ascontiguousarray(tape.backward(obj)[x_var.idx].T).reshape(x.shape)
        norms = np.sqrt(np.sum(grad * grad, axis=flatdims, keepdims=True))
        direction = np.where(norms > 0, grad / np.where(norms > 0, norms, 1.0), 0.0)
        delta -= step * direction
        dnorm = np.sqrt(np.sum(delta * delta, axis=flatdims, keepdims=True))
        delta *= np.minimum(1.0, radius / np.where(dnorm > 0, dnorm, 1.0))
    return x + delta


def _check_param_grads(net, seed):
    x, labels = _batch(net, 5, seed)
    frozen_input, grad_input = (_param_grads(net, x, labels, g) for g in (False, True))
    assert len(frozen_input) == len(net.parameters())
    for a, b in zip(frozen_input, grad_input):
        assert np.array_equal(a, b)
    # and `forward_tape`'s training path is that same recording
    tape = Tape()
    logits, _, param_vars = net.forward_tape(tape, x)
    loss = t_custom_scalar(logits, _by_columns(lambda z: la_loss_mean(z, labels, LossConfig())))
    grads = tape.backward(loss)
    for (i, name, _), ref in zip(net.parameters(), frozen_input):
        assert np.array_equal(grads[param_vars[(i, name)].idx], ref)


def _check_pgd(net, seed, radius, steps):
    x, labels = _batch(net, 4, seed)
    adv = pgd_attack(net, x, labels, radius, steps)
    assert np.array_equal(adv, _reference_pgd(net, x, labels, radius, steps))


@pytest.mark.parametrize("model", list(MINI))
def test_parameter_gradients_ignore_whether_the_input_requires_grad(model):
    _check_param_grads(build_model(MINI[model], seed=3), seed=4)


@pytest.mark.parametrize("model", list(MINI))
def test_pgd_matches_a_loop_recording_the_unprepared_forward(model):
    _check_pgd(build_model(MINI[model], seed=5), seed=6, radius=0.5, steps=10)


def test_forward_tape_with_frozen_operators_records_only_the_input_side():
    net = build_model(MINI["lipconvnet"], seed=1)
    x, _ = _batch(net, 3, 2)
    tape = Tape()
    logits, x_var, param_vars = net.forward_tape(tape, x, net.prepare())
    assert param_vars == {} and x_var.requires_grad
    assert np.array_equal(logits.value.T, net.forward(x))
    leaves = [n for n in tape.nodes if n.vjp is None]
    assert [n.requires_grad for n in leaves].count(True) == 1
    with pytest.raises(ContractError, match="prepared operators"):
        net.forward_tape(Tape(), x, net.prepare()[:-1])


@pytest.mark.parametrize("frozen", [False, True])
def test_a_recorded_tape_is_freed_without_the_cycle_collector(frozen):
    # VJP closures hold arrays and flags, never a Var (which holds its
    # tape), so dropping the last reference frees the tape at once
    net = build_model(MINI["bronet"], seed=1)
    x, labels = _batch(net, 3, 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        tape = Tape()
        recorded = net.forward_tape(tape, x, net.prepare() if frozen else None)
        tape.backward(t_custom_scalar(recorded[0], _by_columns(lambda z: _margin_sum(z, labels))))
        ref = weakref.ref(tape)
        del tape, recorded
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


@st.composite
def _small_nets(draw):
    """A conv or a dense stack on random small shapes, with a seed."""
    classes = draw(st.integers(2, 3))
    residual = draw(st.booleans())
    if draw(st.booleans()):
        c, s = draw(st.sampled_from([2, 4])), draw(st.integers(2, 4))
        k = draw(st.sampled_from([1, 3]))
        specs = [LayerSpec("bro_conv", {"c": c, "n": draw(st.integers(1, c)), "k": k, "s": s,
                                        "residual": residual}),
                 LayerSpec("maxmin", {}),
                 LayerSpec("lln_head", {"classes": classes, "d_in": c * s * s})]
    else:
        m, hidden = draw(st.sampled_from([4, 6, 8])), draw(st.integers(2, 10))
        specs = [LayerSpec("bro_dense", {"m": m, "n": draw(st.integers(1, m - 1)),
                                         "residual": residual}),
                 LayerSpec("maxmin", {}),
                 LayerSpec("semi_ortho", {"d_in": m, "d_out": hidden}),
                 LayerSpec("lln_head", {"classes": classes, "d_in": hidden})]
    return build_model(specs, seed=draw(st.integers(0, 2 ** 16))), draw(st.integers(0, 2 ** 16))


@settings(max_examples=25)
@given(_small_nets(), st.sampled_from([0.1, 0.6, 2.0]))
def test_prepared_equals_recorded_on_random_shapes(net_seed, radius):
    net, seed = net_seed
    _check_param_grads(net, seed)
    _check_pgd(net, seed, radius, steps=3)
