"""Checkpoint file format.

Layout: 8-byte magic, little-endian u32 version, little-endian u64 header
length, a JSON text header (layer specs, input shape, seed, parameter
manifest, metadata), then the raw little-endian float64 parameter blob in
declaration order. Loading rebuilds the network from the specs and
overwrites its parameters with the blob, so a round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError
from .models import LayerSpec, Network, build_model

MAGIC = b"BROLIPCK"
VERSION = 1


def save_checkpoint(net: Network, path, meta: dict | None = None) -> None:
    manifest = [[i, name, list(arr.shape)] for i, name, arr in net.parameters()]
    header = {
        "layer_specs": [{"kind": s.kind, "args": s.args} for s in net.specs],
        "input_shape": list(net.input_shape),
        "seed": net.seed,
        "params": manifest,
        "meta": meta or {},
    }
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    for _, _, arr in net.parameters())
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(blob)


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 12:
        raise FormatError("checkpoint too short for its fixed header")
    if raw[:len(MAGIC)] != MAGIC:
        raise FormatError("bad checkpoint magic")
    (version,) = struct.unpack_from("<I", raw, len(MAGIC))
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC) + 4)
    start = len(MAGIC) + 12
    if start + hlen > len(raw):
        raise FormatError("truncated checkpoint header")
    try:
        header = json.loads(raw[start:start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}") from exc
    try:
        specs = [LayerSpec(item["kind"], dict(item["args"]))
                 for item in header["layer_specs"]]
        input_shape = tuple(header["input_shape"])
        seed = header["seed"]
        manifest = header["params"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"incomplete checkpoint header: {exc}") from exc
    try:
        net = build_model(specs, seed, input_shape)
    except (TypeError, ValueError) as exc:  # a bad seed, or a spec build_model rejects
        raise FormatError(f"checkpoint layer specs do not build a model: {exc}") from exc
    params = net.parameters()
    if not isinstance(manifest, list) or len(params) != len(manifest):
        raise FormatError("parameter manifest does not match architecture")
    offset = start + hlen
    for k, ((i, name, arr), entry) in enumerate(zip(params, manifest)):
        try:
            mi, mname, mshape = entry
            mshape = tuple(mshape)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"manifest entry {k} {entry!r} is not "
                              f"[layer, name, shape]: {exc}") from exc
        if mi != i or mname != name or mshape != arr.shape:
            raise FormatError(f"manifest entry {entry} does not match {name}@{i}")
        nbytes = arr.size * 8
        if offset + nbytes > len(raw):
            raise FormatError("truncated parameter blob")
        chunk = np.frombuffer(raw, dtype="<f8", count=arr.size, offset=offset)
        finite = np.isfinite(chunk)
        if not finite.all():
            pos = int(np.argmin(finite))
            raise FormatError(f"non-finite value {chunk[pos]} in parameter {name}@{i} "
                              f"(flat position {pos})")
        arr[...] = chunk.reshape(arr.shape)
        offset += nbytes
    if offset != len(raw):
        raise FormatError("trailing bytes after parameter blob")
    return net
