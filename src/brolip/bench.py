"""Wall-time micro-benchmarks of the orthogonalization methods.

Each case times the parameter transform: unconstrained parameter to
orthogonal operator, per spatial frequency for convolutions. Timing uses the
monotonic performance counter with median-of-repetitions against noise;
min/max are retained. "Memory" is reported as the `record_alloc` counters
(see `tensor`), a partial count of the arrays the op layer hands out,
rather than OS-level usage, which is not meaningful at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractError
from .fft import half_plane
from .ortho import (BroConvKernel, BroParam, ConvGeometry, block_reflector,
                    cayley_orthogonalize, cayley_transform, conv_prepare,
                    lot_orthogonalize, newton_iterates, tap_spectrum)
from .tape import EagerOps
from .tensor import alloc_stats, reset_alloc_stats

MIN_REPS = 10
MAX_CHANNELS = 512
MAX_SPATIAL = 32

CSV_HEADER = ("method,phase,m,c,s,k,n,reps,median_s,min_s,max_s,"
              "timer_resolution_s,alloc_count,alloc_elements")


@dataclass
class BenchResult:
    method: str
    phase: str
    shape: dict
    reps: int
    median_s: float
    min_s: float
    max_s: float
    timer_resolution_s: float
    alloc_count: int
    alloc_elements: int

    def csv_row(self) -> str:
        cells = [self.method, self.phase]
        for key in ("m", "c", "s", "k", "n"):
            cells.append(str(self.shape[key]) if key in self.shape else "")
        cells += [str(self.reps), f"{self.median_s:.9f}", f"{self.min_s:.9f}",
                  f"{self.max_s:.9f}", f"{self.timer_resolution_s:.3e}",
                  str(self.alloc_count), str(self.alloc_elements)]
        return ",".join(cells)


def bro_conv_param_transform(v: np.ndarray, s: int) -> np.ndarray:
    """Per-frequency reflector construction; the conv 'parameter transform'.

    The operator is the models' own, `ortho.conv_prepare` of the kernel;
    each half-plane reflector is `linalg.reflect` applied to the identity
    with its factor, and the conjugate partners are mirrored.
    """
    c, _, k, _ = v.shape
    op = conv_prepare(EagerOps, v, ConvGeometry(c, c, s, k))
    wf, _ = linalg.reflect(op.vf, op.factor, np.eye(c))
    return half_plane(s + 2 * (k // 2)).mirror(wf)


def cayley_conv_param_transform(v: np.ndarray, s: int) -> np.ndarray:
    """Per-frequency Cayley transform of the skew-Hermitian part.

    Like every conv transform here it runs at the half-plane
    representatives of the kernel's spectrum (`ortho.tap_spectrum`): a real
    kernel satisfies V~(-f) = conj(V~(f)), so a transform equivariant under
    conjugation only needs those rows, and `HalfPlane.mirror` restores the
    full grid.
    """
    size = s + 2 * (v.shape[-1] // 2)
    return half_plane(size).mirror(cayley_transform(tap_spectrum(EagerOps, v, size)))


def lot_conv_param_transform(v: np.ndarray, s: int, iters: int) -> np.ndarray:
    """Per-frequency Newton orthogonalization (`ortho.newton_iterates`,
    batched over the half-plane frequencies)."""
    size = s + 2 * (v.shape[-1] // 2)
    for vn, z in newton_iterates(tap_spectrum(EagerOps, v, size), iters):
        pass  # only the last iterate is formed
    return half_plane(size).mirror(vn @ z)


def _timed(fn, reps: int) -> tuple[list[float], int, int]:
    if reps < MIN_REPS:
        raise ContractError(f"need at least {MIN_REPS} repetitions")
    reset_alloc_stats()
    fn()  # warmup: catches errors and measures op-layer allocations
    stats = alloc_stats()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times, stats.count, stats.elements


def _result(method, phase, shape, reps, times, count, elements) -> BenchResult:
    times = sorted(times)
    res = time.get_clock_info("perf_counter").resolution
    return BenchResult(method, phase, shape, reps, float(np.median(times)),
                       times[0], times[-1], res, count, elements)


def bench_dense(method: str, m: int, n: int, reps: int, iters: int = 10,
                seed: int = 0) -> BenchResult:
    rng = np.random.default_rng(seed)
    if method == "bro":
        v = BroParam(rng.standard_normal((m, n)) / np.sqrt(m)).v
        fn = lambda: block_reflector(v)
    elif method == "cayley":
        v = rng.standard_normal((m, m)) / np.sqrt(m)
        fn = lambda: cayley_orthogonalize(v)
    elif method == "lot":
        v = np.eye(m) + 0.01 * rng.standard_normal((m, m))
        fn = lambda: lot_orthogonalize(v, iters)
    else:
        raise ContractError(f"unknown method {method!r}")
    times, count, elements = _timed(fn, reps)
    return _result(method, "param_transform", {"m": m, "n": n}, reps, times,
                   count, elements)


def bench_conv(method: str, c: int, s: int, k: int, n: int, reps: int,
               iters: int = 10, seed: int = 0) -> BenchResult:
    if c > MAX_CHANNELS or s > MAX_SPATIAL:
        raise ContractError(
            f"desk-scale caps are c <= {MAX_CHANNELS} and s <= {MAX_SPATIAL}")
    if method not in ("bro", "cayley", "lot"):
        raise ContractError(f"unknown method {method!r}")
    if method != "bro":
        n = c  # cayley and lot transform the full c x c kernel, so they run at rank c
    v = BroConvKernel(np.random.default_rng(seed).standard_normal((c, n, k, k)) / np.sqrt(c)).v
    if method == "bro":
        fn = lambda: bro_conv_param_transform(v, s)
    elif method == "cayley":
        fn = lambda: cayley_conv_param_transform(v, s)
    else:
        fn = lambda: lot_conv_param_transform(v, s, iters)
    times, count, elements = _timed(fn, reps)
    return _result(method, "param_transform", {"c": c, "s": s, "k": k, "n": n}, reps,
                   times, count, elements)


def kappa_rank(kappa: float, width: int) -> int:
    """The rank that the rank-control factor `kappa` gives at `width`, at least 1."""
    return max(1, int(round(kappa * width)))


def rank_sweep(c: int, s: int, k: int, kappas, reps: int, seed: int = 0
               ) -> list[BenchResult]:
    """BRO conv parameter transform across rank-control factors."""
    return [bench_conv("bro", c, s, k, kappa_rank(kappa, c), reps, seed=seed)
            for kappa in kappas]


def medians_non_decreasing(results) -> bool:
    meds = [r.median_s for r in results]
    return all(b >= a for a, b in zip(meds, meds[1:]))
