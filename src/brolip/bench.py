"""Wall-time micro-benchmarks of the orthogonalization methods.

Each case times either the parameter transform (unconstrained parameter to
orthogonal operator, per spatial frequency for convolutions) or the input
transform (applying a prepared operator to a batch). Timing uses the
monotonic performance counter with median-of-repetitions against noise;
min/max are retained. "Memory" is reported as the op-layer allocation
counters rather than OS-level usage, which is not meaningful at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractError, DivergedError
from .fft import HalfPlane, fft2, half_plane, half_tap_dft, ifft2
from .ortho import (block_reflector, cayley_orthogonalize, cayley_transform,
                    lot_orthogonalize)
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


def _kernel_freq(v: np.ndarray, s: int) -> tuple[HalfPlane, np.ndarray]:
    """Unitary DFT of a spatial kernel at the half-plane representatives.

    Laid out frequency-major (m, c, n) over the padded grid, built from the
    k x k taps as `ortho.conv_prepare` does, and returned with the grid's
    tables. A real kernel satisfies V~(-f) = conj(V~(f)), so any transform
    equivariant under conjugation only needs these rows; the tables'
    `mirror` restores the full grid.
    """
    c, n, k, _ = v.shape
    size = s + 2 * (k // 2)
    taps = v.transpose(2, 3, 0, 1).reshape(k * k, c * n)
    return half_plane(size), (half_tap_dft(size, k) @ taps).reshape(-1, c, n)


def bro_conv_param_transform(v: np.ndarray, s: int) -> np.ndarray:
    """Per-frequency reflector construction; the conv 'parameter transform'.

    Processes the half frequency plane and mirrors conjugates; each
    reflector is `linalg.reflect` applied to the identity, with the
    Cholesky factor of its Gram matrix.
    """
    tables, vf = _kernel_freq(v, s)
    wf, _ = linalg.reflect(vf, linalg.gram_factor(vf), np.eye(v.shape[0]))
    return tables.mirror(wf)


def cayley_conv_param_transform(v: np.ndarray, s: int) -> np.ndarray:
    """Per-frequency Cayley transform of the skew-Hermitian part."""
    tables, vf = _kernel_freq(v, s)
    return tables.mirror(cayley_transform(vf))


def lot_conv_param_transform(v: np.ndarray, s: int, iters: int) -> np.ndarray:
    """Per-frequency Newton orthogonalization (batched over frequencies)."""
    tables, vf = _kernel_freq(v, s)
    vh = np.conj(np.swapaxes(vf, -1, -2))
    gram = vh @ vf
    fro = np.linalg.norm(gram, axis=(-2, -1), keepdims=True)
    y = gram / fro
    vn = vf / np.sqrt(fro)
    n = gram.shape[-1]
    eye = np.eye(n)[None]
    z = np.broadcast_to(eye, y.shape).copy().astype(np.complex128)
    for i in range(1, iters + 1):
        t = 3.0 * eye - z @ y
        y = 0.5 * (y @ t)
        z = 0.5 * (t @ z)
        if not np.all(np.isfinite(z)):
            raise DivergedError(i, "non-finite Newton iterate during benchmark")
    return tables.mirror(vn @ z)


def conv_input_transform(wf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply prepared per-frequency operators to a batch: the input transform."""
    batch, c, size, _ = x.shape
    xf = fft2(x).transpose(2, 3, 1, 0).reshape(size * size, c, batch)
    yf = wf @ xf
    yf = yf.reshape(size, size, wf.shape[1], batch).transpose(3, 2, 0, 1)
    return ifft2(yf).real


def _timed(fn, reps: int) -> tuple[list[float], int, int]:
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
    if reps < MIN_REPS:
        raise ContractError(f"need at least {MIN_REPS} repetitions")
    rng = np.random.default_rng(seed)
    if method == "bro":
        v = rng.standard_normal((m, n)) / np.sqrt(m)
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
               iters: int = 10, batch: int = 4, seed: int = 0,
               phase: str = "param_transform") -> BenchResult:
    if reps < MIN_REPS:
        raise ContractError(f"need at least {MIN_REPS} repetitions")
    if c > MAX_CHANNELS or s > MAX_SPATIAL:
        raise ContractError(
            f"desk-scale caps are c <= {MAX_CHANNELS} and s <= {MAX_SPATIAL}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((c, n, k, k)) / np.sqrt(c)
    shape = {"c": c, "s": s, "k": k, "n": n}
    if phase == "param_transform":
        if method == "bro":
            fn = lambda: bro_conv_param_transform(v, s)
        elif method == "cayley":
            vsq = rng.standard_normal((c, c, k, k)) / np.sqrt(c)
            fn = lambda: cayley_conv_param_transform(vsq, s)
        elif method == "lot":
            vsq = rng.standard_normal((c, c, k, k)) / np.sqrt(c)
            fn = lambda: lot_conv_param_transform(vsq, s, iters)
        else:
            raise ContractError(f"unknown method {method!r}")
    elif phase == "input_transform":
        if method == "bro":
            wf = bro_conv_param_transform(v, s)
        elif method == "cayley":
            wf = cayley_conv_param_transform(
                rng.standard_normal((c, c, k, k)) / np.sqrt(c), s)
        elif method == "lot":
            wf = lot_conv_param_transform(
                rng.standard_normal((c, c, k, k)) / np.sqrt(c), s, iters)
        else:
            raise ContractError(f"unknown method {method!r}")
        size = s + 2 * (k // 2)
        x = rng.standard_normal((batch, c, size, size))
        fn = lambda: conv_input_transform(wf, x)
    else:
        raise ContractError(f"unknown phase {phase!r}")
    times, count, elements = _timed(fn, reps)
    return _result(method, phase, shape, reps, times, count, elements)


def rank_sweep(c: int, s: int, k: int, kappas, reps: int, seed: int = 0
               ) -> list[BenchResult]:
    """BRO conv parameter transform across rank-control factors."""
    out = []
    for kappa in kappas:
        n = max(1, int(round(kappa * c)))
        out.append(bench_conv("bro", c, s, k, n, reps, seed=seed))
    return out


def medians_non_decreasing(results, strict: bool = False) -> bool:
    meds = [r.median_s for r in results]
    if strict:
        return all(b > a for a, b in zip(meds, meds[1:]))
    return all(b >= a for a, b in zip(meds, meds[1:]))
