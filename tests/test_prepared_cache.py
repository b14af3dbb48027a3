"""`Network.prepare` keeps its operators for one parameter state, and a
network runs feature-major, (d, B), with no reshape or transpose node.

A forward or an attack reuses the kept operators while every parameter
equals the copy they were built from; any change of value rebuilds them.
"""

import importlib
import weakref

import numpy as np
import pytest

from brolip.errors import DivergedError
from brolip.models import build_model, bronet_mini, lipconvnet_mini
from brolip.tape import Tape
from brolip.train import TrainConfig, pgd_attack, train

MINI = {"lipconvnet": lipconvnet_mini(2, 4), "bronet": bronet_mini(2, 2)}


def _batch(net, size, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((size,) + net.input_shape),
            rng.integers(0, net.classes(), size=size))


def _count_prepares(net, monkeypatch):
    calls = []
    for layer in net.layers:
        def counted(ops, p, prepare=layer.prepare):
            calls.append(1)
            return prepare(ops, p)
        monkeypatch.setattr(layer, "prepare", counted)
    return calls


def _fresh_copy(specs, net):
    """A newly built network holding `net`'s parameter values."""
    fresh = build_model(specs, net.seed)
    for (_, _, dst), (_, _, src) in zip(fresh.parameters(), net.parameters()):
        dst[...] = src
    return fresh


@pytest.mark.parametrize("model", list(MINI))
def test_a_second_forward_prepares_nothing(model, monkeypatch):
    net = build_model(MINI[model], seed=1)
    x, labels = _batch(net, 6, 2)
    calls = _count_prepares(net, monkeypatch)
    first = net.forward(x)
    assert len(calls) == len(net.layers)
    assert np.array_equal(net.forward(x), first)
    pgd_attack(net, x, labels, 0.3, 3)
    assert len(calls) == len(net.layers)
    assert net.prepare() is net.prepare()


@pytest.mark.parametrize("model", list(MINI))
def test_a_training_step_rebuilds(model):
    specs = MINI[model]
    net = build_model(specs, seed=1)
    x, labels = _batch(net, 8, 3)
    before = net.forward(x)
    train(net, (x, labels), TrainConfig(seed=0, epochs=1, batch_size=4))
    after = net.forward(x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _fresh_copy(specs, net).forward(x))


@pytest.mark.parametrize("model", list(MINI))
def test_an_in_place_parameter_edit_rebuilds(model):
    specs = MINI[model]
    net = build_model(specs, seed=1)
    x, _ = _batch(net, 5, 4)
    net.forward(x)
    for _, _, arr in net.parameters():
        arr += 1e-3
        assert np.array_equal(net.forward(x), _fresh_copy(specs, net).forward(x))


def test_a_rebuild_drops_the_stale_operators_first(monkeypatch):
    net = build_model(MINI["lipconvnet"], seed=1)
    stale = weakref.ref(net.prepare()[-1])  # the head's matrix
    alive = []
    first = net.layers[0]

    def watched(ops, p, prepare=first.prepare):
        alive.append(stale() is not None)
        return prepare(ops, p)

    monkeypatch.setattr(first, "prepare", watched)
    net.parameters()[0][2].flat[0] += 1.0
    net.prepare()
    assert alive == [False]


@pytest.mark.parametrize("model", list(MINI))
def test_a_nan_parameter_raises_on_every_forward(model):
    net = build_model(MINI[model], seed=1)
    x, _ = _batch(net, 3, 5)
    net.forward(x)
    net.parameters()[0][2].flat[0] = np.nan
    for _ in range(2):
        with pytest.raises(DivergedError):
            net.forward(x)


@pytest.mark.parametrize("model", list(MINI))
def test_kept_arrays_are_read_only_and_own_their_memory(model):
    net = build_model(MINI[model], seed=1)
    arrays = []
    for operator in net.prepare():
        if operator is None:
            continue
        parts = operator if isinstance(operator, tuple) else (operator,)
        arrays += [a for a in parts if isinstance(a, np.ndarray)]
    assert arrays
    params = [arr for _, _, arr in net.parameters()]
    for a in arrays:
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, p) for p in params)
    with pytest.raises(ValueError):
        arrays[0][...] = 0.0


def _kept_tapes(monkeypatch):
    """The tapes `brolip.train` records from here on."""
    tapes = []

    class Kept(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(importlib.import_module("brolip.train"), "Tape", Kept)
    return tapes


def test_a_frozen_pgd_step_records_no_reshape(monkeypatch):
    tapes = _kept_tapes(monkeypatch)
    net = build_model(MINI["lipconvnet"], seed=1)
    x, labels = _batch(net, 4, 6)
    pgd_attack(net, x, labels, 0.3, 2)
    assert len(tapes) == 2
    for tape in tapes:
        ops = [node.op for node in tape.nodes]
        assert "reshape" not in ops and "transpose" not in ops and len(ops) == 12, ops


def test_a_training_step_transposes_only_conv_taps(monkeypatch):
    # each dense layer prepares W itself and applies W x; the one transpose
    # per conv lays its kernel's taps out for the tap DFT
    tapes = _kept_tapes(monkeypatch)
    net = build_model(MINI["bronet"], seed=1)
    x, labels = _batch(net, 4, 8)
    train(net, (x, labels), TrainConfig(seed=0, epochs=1, batch_size=4))
    assert len(tapes) == 1
    ops = [node.op for node in tapes[0].nodes]
    convs = sum(layer.kind == "bro_conv" for layer in net.layers)
    assert convs == 2 and ops.count("transpose") == convs, ops


@pytest.mark.parametrize("model", list(MINI))
def test_forward_takes_image_single_and_flat_inputs_alike(model):
    net = build_model(MINI[model], seed=1)
    x, labels = _batch(net, 4, 7)
    logits = net.forward(x)
    assert np.array_equal(net.forward(x.reshape(4, -1)), logits)
    assert np.array_equal(net.forward(x[0]), net.forward(x[:1]))
    adv = pgd_attack(net, x, labels, 0.2, 2)
    assert adv.shape == x.shape
    assert np.array_equal(pgd_attack(net, x.reshape(4, -1), labels, 0.2, 2), adv.reshape(4, -1))
    assert pgd_attack(net, x[0], labels[0], 0.2, 2).shape == net.input_shape
