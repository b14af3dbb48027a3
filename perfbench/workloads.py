"""The benchmark's three workloads.

Each workload is built from the workload seed alone (that construction is
what `setup_s` times) and exposes three operations in the slots `op1`,
`op2` and `op3`, run in a closed loop by one client in the order given
by `schedule`. An operation returns the number of samples it processed
and raises `CheckFailed` when its output check fails.

Only names exported from `brolip/__init__.py` are called, and always
through the package attribute at call time, so the tracer's wrappers
see them.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import brolip as bl

NORM_RTOL = 1e-10
GRID = (0.05, 0.1, 0.2, 0.4)
AUDIT_SHRINK = 0.999


class CheckFailed(Exception):
    """An operation returned without error but its output is wrong."""


class Op(NamedTuple):
    slot: str        # op1 | op2 | op3: the end-to-end metric `<slot>_s`
    label: str       # the workload-level metric name reported alongside it
    unit: str        # "s" (seconds per op) or "samples/s" for that label
    run: Callable[[], int]


def _params(net) -> list[np.ndarray]:
    return [arr.copy() for _, _, arr in net.parameters()]


def _same(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class BenchScale:
    """c = 256, s = 16 orthogonal conv at ranks 32 and 192, plus one taped
    training step of a c = 64 conv model: the paper's regime, where the
    FFT dominates the rank-32 forward and the factorization the rank-192 one."""

    FULL = dict(c=256, s=16, ranks=(32, 192), batch=8,
                train_c=64, train_n=16, train_s=16, train_b=16, classes=4)
    TINY = dict(c=8, s=4, ranks=(2, 6), batch=2,
                train_c=4, train_n=2, train_s=4, train_b=4, classes=2)
    schedule = ("op1", "op3", "op1", "op3", "op2", "op1", "op3", "op1", "op3")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        z = self.TINY if tiny else self.FULL
        rng = np.random.default_rng(seed)
        c, s = z["c"], z["s"]
        self.x = rng.standard_normal((z["batch"], c, s, s))
        self.x_norms = np.linalg.norm(self.x.reshape(len(self.x), -1), axis=1)
        self.geom = bl.ConvGeometry(c, c, s, 1, keep_padding=True)
        kernels = [bl.BroConvKernel(rng.standard_normal((c, n, 1, 1)) / np.sqrt(c))
                   for n in z["ranks"]]
        tc, ts = z["train_c"], z["train_s"]
        specs = [bl.LayerSpec("bro_conv", {"c": tc, "n": z["train_n"], "k": 3, "s": ts}),
                 bl.LayerSpec("maxmin", {}),
                 bl.LayerSpec("l2_pool", {"p": ts}),
                 bl.LayerSpec("lln_head", {"classes": z["classes"], "d_in": tc})]
        self.net = bl.build_model(specs, seed)
        self.data = (rng.standard_normal((z["train_b"], tc, ts, ts)),
                     rng.integers(0, z["classes"], size=z["train_b"]))
        self.cfg = bl.TrainConfig(seed=seed, epochs=1, batch_size=z["train_b"])
        self.ops = [
            Op("op1", "conv_fwd_s.n32", "s", lambda: self._forward(kernels[0])),
            Op("op2", "conv_fwd_s.n192", "s", lambda: self._forward(kernels[1])),
            Op("op3", "conv_train_step_s", "s", self._train_step),
        ]

    def _forward(self, kernel) -> int:
        y = bl.bro_conv_forward(kernel, self.x, self.geom).array
        y_norms = np.linalg.norm(y.reshape(len(y), -1), axis=1)
        worst = float(np.max(np.abs(y_norms - self.x_norms) / self.x_norms))
        if not worst <= NORM_RTOL:
            raise CheckFailed(f"kept-padding forward changed a norm by {worst:.3e}")
        return len(self.x)

    def _train_step(self) -> int:
        loss = bl.train(self.net, self.data, self.cfg).records[-1].mean_loss
        if not math.isfinite(loss):
            raise CheckFailed(f"training step loss {loss}")
        return len(self.data[1])


class ToyTrain:
    """Whole `train()` runs of the two mini models on toy data, where
    per-op Python overhead (tape, per-sample certify loop) dominates and
    parameters change every step."""

    FULL = dict(epochs=30, batch=32, rings=256, blobs=128)
    TINY = dict(epochs=2, batch=8, rings=16, blobs=16)
    schedule = ("op1", "op2", "op3")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        z = self.TINY if tiny else self.FULL
        self.seed = seed
        self.cfg = bl.TrainConfig(seed=seed, epochs=z["epochs"], batch_size=z["batch"],
                                  loss="la")
        self.models = {
            "bronet": (bl.bronet_mini(2, 2), bl.toy_dataset("two_rings", z["rings"], 8, seed)),
            "lipconvnet": (bl.lipconvnet_mini(2, 4), bl.toy_dataset("blobs", z["blobs"], 32, seed)),
        }
        for specs, _ in self.models.values():
            bl.build_model(specs, seed)
        self.reference: dict[str, list[np.ndarray]] = {}
        self.trained: dict[str, tuple] = {}
        self.ops = [
            Op("op1", "train_samples_per_s.bronet", "samples/s", lambda: self._train("bronet")),
            Op("op2", "train_samples_per_s.lipconvnet", "samples/s",
               lambda: self._train("lipconvnet")),
            Op("op3", "eval_samples_per_s", "samples/s", self._evaluate),
        ]

    def _train(self, key: str) -> int:
        specs, data = self.models[key]
        net = bl.build_model(specs, self.seed)
        log = bl.train(net, data, self.cfg)
        if not all(math.isfinite(rec.mean_loss) for rec in log.records):
            raise CheckFailed(f"{key}: non-finite epoch loss")
        params = _params(net)
        if not _same(params, self.reference.setdefault(key, params)):
            raise CheckFailed(f"{key}: same-seed train() runs differ")
        self.trained[key] = (net, log.records[-1])
        return self.cfg.epochs * len(data[1])

    def _evaluate(self) -> int:
        """Re-evaluate each freshly trained model once; it must reproduce
        the final epoch record `train()` logged for the same parameters."""
        samples = 0
        for key, (net, last) in self.trained.items():
            x, y = self.models[key][1]
            rec = bl.evaluate(net, x, y, self.cfg.radii)
            if (rec.accuracy, rec.mean_margin, rec.certified) != \
                    (last.accuracy, last.mean_margin, last.certified):
                raise CheckFailed(f"{key}: evaluate() disagrees with train()'s last epoch")
            samples += len(y)
        return samples


class CertifyAudit:
    """Certify a frozen, checkpointed lipconvnet on fresh samples and attack
    the certified ones with PGD: same layers as training, but the gradient
    flows to the input and every parameter-side factorization repeats."""

    FULL = dict(train_n=128, epochs=40, chunk=2048, chunks=16, audit_max=128, steps=50)
    TINY = dict(train_n=32, epochs=3, chunk=32, chunks=2, audit_max=4, steps=3)
    MODEL_SEED = 7
    schedule = ("op1", "op3", "op1", "op3", "op2")

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        z = self.TINY if tiny else self.FULL
        self.z = z
        x, y = bl.toy_dataset("blobs", z["train_n"] + z["chunks"] * z["chunk"], 32, seed)
        self.train_data = (x[:z["train_n"]], y[:z["train_n"]])
        self.chunks = [(x[i:i + z["chunk"]], y[i:i + z["chunk"]])
                       for i in range(z["train_n"], len(y), z["chunk"])]
        self.net = bl.build_model(bl.lipconvnet_mini(2, 4), self.MODEL_SEED)
        bl.train(self.net, self.train_data,
                 bl.TrainConfig(seed=self.MODEL_SEED, epochs=z["epochs"], batch_size=32))
        self.params = _params(self.net)
        self.path = Path(workdir) / "certify_audit.ckpt"
        bl.save_checkpoint(self.net, self.path)
        self.next_chunk = 0
        self.last = None
        self.ops = [
            Op("op1", "certify_samples_per_s", "samples/s", self._certify),
            Op("op2", "audit_samples_per_s", "samples/s", self._audit),
            Op("op3", "forward_samples_per_s", "samples/s", self._forward),
        ]

    def _certify(self) -> int:
        x, y = self.chunks[self.next_chunk % len(self.chunks)]
        self.next_chunk += 1
        net = bl.load_checkpoint(self.path)
        if not _same(_params(net), self.params):
            raise CheckFailed("checkpoint round trip is not bit-exact")
        logits = net.forward(x)
        report = bl.build_report(logits, y, net.backbone_bound(), head_rows=net.head_rows())
        curve = [acc for _, acc in bl.accuracy_radius_curve(report, GRID)]
        if any(b > a for a, b in zip(curve, curve[1:])):
            raise CheckFailed(f"accuracy-radius curve increases: {curve}")
        self.last = (net, x, y, logits, report)
        return len(y)

    def _forward(self) -> int:
        """Eager forward of the last certified chunk through the in-memory
        network; it must reproduce the loaded network's logits bit for bit."""
        _, x, _, logits, _ = self.last
        if not np.array_equal(self.net.forward(x), logits):
            raise CheckFailed("forward differs from the checkpointed network's")
        return len(x)

    def _audit(self) -> int:
        """PGD at 0.999 r on samples certified at r: none may flip."""
        net, x, y, _, report = self.last
        eps = report.radii()
        correct = np.asarray([rec.predicted == rec.true_label for rec in report.records])
        attacked = 0
        for r in GRID:
            sel = np.flatnonzero(correct & (eps >= r))[:self.z["audit_max"]]
            if not sel.size:
                continue
            radius = AUDIT_SHRINK * r
            adv = bl.pgd_attack(net, x[sel], y[sel], radius, self.z["steps"])
            moved = np.linalg.norm(adv.reshape(len(sel), -1) - x[sel].reshape(len(sel), -1),
                                   axis=1)
            if np.any(moved > radius * (1 + 1e-12)):
                raise CheckFailed(f"PGD left the radius-{radius} ball")
            logits = net.forward(adv)
            target = logits[np.arange(len(sel)), y[sel]]
            logits[np.arange(len(sel)), y[sel]] = -np.inf
            flipped = int(np.sum(target < np.max(logits, axis=1)))
            if flipped:
                raise CheckFailed(f"{flipped} samples certified at {r} flip under PGD")
            attacked += len(sel)
        return attacked


WORKLOADS = {"bench_scale": BenchScale, "toy_train": ToyTrain, "certify_audit": CertifyAudit}
