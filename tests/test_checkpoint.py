"""Checkpoint format: bit-exact round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from brolip.certify import build_report
from brolip.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from brolip.cli import main
from brolip.data import toy_dataset
from brolip.errors import FormatError
from brolip.models import bronet_mini, build_model, lipconvnet_mini
from brolip.train import TrainConfig, train


def _trained(tmp_path):
    net = build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=7)
    x, y = toy_dataset("blobs", 64, 32, seed=11)
    train(net, (x, y), TrainConfig(seed=5, epochs=5, learning_rate=0.1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path, meta={"note": "test"})
    return net, path, (x, y)


def test_round_trip_is_bit_exact(tmp_path):
    net, path, _ = _trained(tmp_path)
    back = load_checkpoint(path)
    rng = np.random.default_rng(0)
    for trial in range(10):
        x = rng.standard_normal((1, 2, 4, 4))
        np.testing.assert_array_equal(net.forward(x), back.forward(x))
    for (i1, n1, p1), (i2, n2, p2) in zip(net.parameters(), back.parameters()):
        assert (i1, n1) == (i2, n2)
        np.testing.assert_array_equal(p1, p2)


def test_cross_run_certification_identical(tmp_path):
    net, path, (x, y) = _trained(tmp_path)
    back = load_checkpoint(path)

    def report(model):
        return build_report(model.forward(x), y, model.backbone_bound(),
                            head_rows=model.head_rows())

    a, b = report(net), report(back)
    for ra, rb in zip(a.records, b.records):
        assert ra.margin == rb.margin and ra.radius == rb.radius


def test_bad_magic_rejected(tmp_path):
    net, path, _ = _trained(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_version_mismatch_rejected(tmp_path):
    net, path, _ = _trained(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 999)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_truncated_blob_rejected(tmp_path):
    net, path, _ = _trained(tmp_path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:-16])
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_corrupted_header_rejected(tmp_path):
    net, path, _ = _trained(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF  # inside the JSON header
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_short_file_rejected(tmp_path):
    bad = tmp_path / "tiny.ckpt"
    bad.write_bytes(b"BR")
    with pytest.raises(FormatError):
        load_checkpoint(bad)


def test_non_finite_blob_rejected_with_parameter_name(tmp_path):
    net, path, _ = _trained(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))  # last value of the last parameter
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    i, name, _ = net.parameters()[-1]
    with pytest.raises(FormatError, match=f"non-finite.*{name}@{i}"):
        load_checkpoint(bad)


def _with_header(tmp_path, edit, specs=None):
    """A fresh checkpoint, lipconvnet unless `specs` is given, whose JSON
    header `edit` has changed in place."""
    path = tmp_path / "model.ckpt"
    specs = specs or lipconvnet_mini(channels=2, spatial=4, classes=2)
    save_checkpoint(build_model(specs, seed=3), path)
    raw = path.read_bytes()
    start = len(MAGIC) + 12
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC) + 4)
    header = json.loads(raw[start:start + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:len(MAGIC) + 4] + struct.pack("<Q", len(text)) + text
                    + raw[start + hlen:])
    return bad


def _drop_spec_argument(header):
    del header["layer_specs"][0]["args"]["c"]


def _unknown_kind(header):
    header["layer_specs"][1]["kind"] = "conv1x1"


def _short_manifest_entry(header):
    header["params"][1] = header["params"][1][:2]


def _scalar_manifest_shape(header):
    header["params"][0][2] = 5


def _text_seed(header):
    header["seed"] = "seven"


@pytest.mark.parametrize("edit, named", [
    (_drop_spec_argument, r"layer 0 \(bro_conv\).*'c'"),
    (_unknown_kind, "conv1x1"),
    (_short_manifest_entry, r"manifest entry 1 \[2, 'v'\]"),
    (_scalar_manifest_shape, r"manifest entry 0 \[0, 'v', 5\]"),
    (_text_seed, "seven"),
], ids=["missing_argument", "unknown_kind", "short_manifest_entry", "scalar_shape",
        "text_seed"])
def test_wrong_header_fields_raise_format_error_naming_the_entry(tmp_path, edit, named):
    with pytest.raises(FormatError, match=named):
        load_checkpoint(_with_header(tmp_path, edit))


def _zero_pool_patch(header):
    next(s for s in header["layer_specs"] if s["kind"] == "l2_pool")["args"]["p"] = 0


def test_out_of_range_spec_integer_raises_format_error(tmp_path):
    bad = _with_header(tmp_path, _zero_pool_patch, bronet_mini(channels=2, spatial=4))
    with pytest.raises(FormatError, match="patch must be at least 1"):
        load_checkpoint(bad)


def _dense_rank(n):
    def edit(header):
        spec = next(s for s in header["layer_specs"] if s["kind"] == "bro_dense")
        spec["args"]["n"] = spec["args"]["m"] if n == "m" else n
    return edit


def _negative_conv_rank(header):
    header["layer_specs"][0]["args"]["n"] = -1


@pytest.mark.parametrize("edit, named", [
    (_dense_rank(0), r"layer 5 \(bro_dense\).*at least one column"),
    (_dense_rank("m"), r"layer 5 \(bro_dense\).*need n < m"),
    (_dense_rank(9), r"layer 5 \(bro_dense\).*need n < m"),
    (_negative_conv_rank, r"layer 0 \(bro_conv\).*n=-1 is negative"),
], ids=["dense_rank_zero", "dense_rank_m", "dense_rank_above_m", "negative_conv_rank"])
def test_spec_integer_out_of_range_fails_the_load_and_certify(tmp_path, capsys, edit, named):
    bad = _with_header(tmp_path, edit, bronet_mini(channels=2, spatial=4))
    with pytest.raises(FormatError, match=named):
        load_checkpoint(bad)
    rc = main(["certify", "--ckpt", str(bad), "--out", str(tmp_path / "report.txt")])
    assert rc == 2
    assert "cannot load checkpoint" in capsys.readouterr().err


def test_certify_exits_2_on_a_wrong_header(tmp_path, capsys):
    bad = _with_header(tmp_path, _drop_spec_argument)
    rc = main(["certify", "--ckpt", str(bad), "--out", str(tmp_path / "report.txt")])
    assert rc == 2
    assert "cannot load checkpoint" in capsys.readouterr().err
