"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from brolip.bench import rank_sweep
from brolip.certify import build_report
from brolip.data import toy_dataset
from brolip.linalg import eigvals_sym
from brolip.losses import (LossConfig, cr_ramp_risks, la_loss,
                           loss_curves)
from brolip.models import build_model, bronet_mini, lipconvnet_mini
from brolip.ortho import (BroConvKernel, BroParam, ConvGeometry,
                          block_reflector, bro_conv_forward,
                          bro_orthogonalize, conv_apply, lot_orthogonalize,
                          materialize_conv_matrix)
from brolip.tape import Tape, TapeOps, grad_check, t_custom_scalar, t_l2_pool, \
    t_maxmin, t_mul, t_sum
from brolip.train import TrainConfig, pgd_attack, train

LOT_BAD_SEEDS = (469559, 512304)


def _verdict(num, ok, detail=""):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_reflector_orthogonality():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst_orth = worst_sym = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, m))
        w = bro_orthogonalize(BroParam(rng.standard_normal((m, n)))).array
        worst_orth = max(worst_orth, np.linalg.norm(w.T @ w - np.eye(m)))
        worst_sym = max(worst_sym, np.linalg.norm(w - w.T))
    elapsed = time.perf_counter() - t0
    ok = worst_orth < 1e-10 and worst_sym < 1e-12 and elapsed < 5.0
    _verdict(1, ok, f"orth {worst_orth:.2e}, sym {worst_sym:.2e}, {elapsed:.2f}s")


def test_criterion_02_eigenstructure():
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(25):
        m = int(rng.integers(2, 33))
        n = int(rng.integers(1, m))
        w = bro_orthogonalize(BroParam(rng.standard_normal((m, n)))).array
        vals = np.sort(eigvals_sym(w))
        ok &= bool(np.all(np.abs(vals[:n] + 1.0) < 1e-8))
        ok &= bool(np.all(np.abs(vals[n:] - 1.0) < 1e-8))
    w = block_reflector(rng.standard_normal((6, 6)))
    ok &= bool(np.max(np.abs(w + np.eye(6))) < 1e-12)
    _verdict(2, ok)


def test_criterion_03_conv_oracle_equivalence():
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    worst_eq = worst_orth = 0.0
    for c in (1, 2, 4, 8):
        for s in (2, 3, 4, 6, 8):
            for n in range(1, c + 1):
                kern = BroConvKernel(rng.standard_normal((c, n, 1, 1)))
                mat = materialize_conv_matrix(kern, s).array
                worst_orth = max(worst_orth, np.linalg.norm(
                    mat.T @ mat - np.eye(c * s * s)))
                x = rng.standard_normal((c, s, s))
                y_fft = bro_conv_forward(
                    kern, x, ConvGeometry(c, c, s, 1, keep_padding=True)
                ).array.reshape(-1)
                y_mat = mat @ x.reshape(-1)
                worst_eq = max(worst_eq, np.linalg.norm(y_fft - y_mat) /
                               np.linalg.norm(y_mat))
    elapsed = time.perf_counter() - t0
    ok = worst_eq < 1e-8 and worst_orth < 1e-8 and elapsed < 60.0
    _verdict(3, ok, f"equiv {worst_eq:.2e}, orth {worst_orth:.2e}, {elapsed:.1f}s")


def test_criterion_04_padding_norm_behavior():
    rng = np.random.default_rng(13)
    kern = BroConvKernel(rng.standard_normal((2, 1, 3, 3)))
    x = rng.standard_normal((1000, 2, 4, 4))
    nx = np.linalg.norm(x.reshape(1000, -1), axis=1)
    y_keep = bro_conv_forward(kern, x, ConvGeometry(2, 2, 4, 3, True)).array
    ny = np.linalg.norm(y_keep.reshape(1000, -1), axis=1)
    keep_ok = bool(np.max(np.abs(ny / nx - 1.0)) < 1e-9)
    y_crop = bro_conv_forward(kern, x, ConvGeometry(2, 2, 4, 3, False)).array
    nc = np.linalg.norm(y_crop.reshape(1000, -1), axis=1)
    crop_ok = bool(np.all(nc <= nx * (1.0 + 1e-12)))
    _verdict(4, keep_ok and crop_ok,
             f"keep dev {np.max(np.abs(ny / nx - 1.0)):.2e}")


def _fd_param_check(net, x, labels, loss_fn, h=1e-5):
    """Max relative error of tape gradients vs central differences over
    every parameter coordinate of the network."""
    def loss_value():
        z = net.forward(x)
        return loss_fn(z, labels)[0]

    tape = Tape()
    logits, _, param_vars = net.forward_tape(tape, x)

    def by_columns(z):  # the recorded logits are (C, B), one column per sample
        value, dz = loss_fn(np.ascontiguousarray(z.T), labels)
        return value, dz.T

    loss_var = t_custom_scalar(logits, by_columns)
    grads = tape.backward(loss_var)
    worst = 0.0
    for (i, name, arr) in net.parameters():
        g = grads.get(param_vars[(i, name)].idx)
        g = np.zeros_like(arr) if g is None else np.asarray(g)
        flat = arr.reshape(-1)
        gflat = np.real(g).reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = loss_value()
            flat[j] = keep - h
            dn = loss_value()
            flat[j] = keep
            num = (up - dn) / (2 * h)
            worst = max(worst, abs(gflat[j] - num) / max(1.0, abs(gflat[j])))
    return worst


def test_criterion_05_gradient_correctness():
    from brolip.losses import la_loss_mean, ce_cr_loss_mean
    rng = np.random.default_rng(14)
    errs = {}

    # dense reflector layer
    wmat = rng.standard_normal((2, 6))

    def f_dense(v):
        tape = v.tape
        ops = TapeOps(tape)
        from brolip.models import _reflector
        w = _reflector(ops, v, 6)
        r = tape.leaf(wmat, requires_grad=False)
        return t_sum(t_mul(ops.matmul(r, w), ops.matmul(r, w)))

    errs["bro_dense"] = grad_check(f_dense, rng.standard_normal((6, 2)), h=1e-5)

    # orthogonal convolution
    geom = ConvGeometry(2, 2, 3, 3, keep_padding=False)
    xc = rng.standard_normal((1, 2, 3, 3)).reshape(18, 1)  # feature-major
    rc = rng.standard_normal((1, 2, 3, 3)).reshape(18, 1)

    def f_conv(v):
        tape = v.tape
        ops = TapeOps(tape)
        y = conv_apply(ops, v, tape.leaf(xc, requires_grad=False), geom)
        return t_sum(t_mul(y, tape.leaf(rc, requires_grad=False)))

    errs["bro_conv"] = grad_check(f_conv, rng.standard_normal((2, 1, 3, 3)), h=1e-5)

    # pairwise sorting of 4 features of 3 samples, off ties
    def f_maxmin(x):
        y = t_maxmin(x, 3)
        return t_sum(t_mul(y, y))

    errs["maxmin"] = grad_check(f_maxmin, rng.standard_normal((4, 3)), h=1e-5)

    # patch pooling of one 4 x 4 image, off zero patches
    def f_pool(x):
        y = t_l2_pool(x, 2, 4)
        return t_sum(t_mul(y, y))

    errs["l2_pool"] = grad_check(f_pool, (rng.standard_normal((1, 4, 4)) + 2.0).reshape(16, 1),
                                 h=1e-5)

    # losses, via their analytic gradients seeded into the tape
    cfg = LossConfig()
    labels = np.asarray([0, 2, 1])
    z0 = rng.standard_normal((3, 4))

    def f_la(z):
        return t_custom_scalar(z, lambda zz: la_loss_mean(zz, labels, cfg))

    errs["la_loss"] = grad_check(f_la, z0, h=1e-5)

    z1 = rng.standard_normal((3, 4)) * 2  # margins comfortably off zero

    def f_cecr(z):
        return t_custom_scalar(z, lambda zz: ce_cr_loss_mean(zz, labels, cfg))

    errs["ce_cr"] = grad_check(f_cecr, z1, h=1e-5)

    # end-to-end miniature model
    net = build_model(lipconvnet_mini(channels=2, spatial=3, classes=2, rank=1,
                                      hidden=4), seed=3)
    xb, yb = toy_dataset("blobs", 6, 18, seed=9)
    errs["end_to_end"] = _fd_param_check(
        net, xb, yb, lambda z, t: la_loss_mean(z, t, cfg))

    ok = all(v < 1e-5 for v in errs.values())
    _verdict(5, ok, " ".join(f"{k}={v:.1e}" for k, v in errs.items()))


def test_criterion_06_annealed_loss_reduces_to_cross_entropy():
    rng = np.random.default_rng(15)
    cfg = LossConfig(temperature=1.0, offset=0.0, annealing=0.0, cr_weight=0.0)
    worst = 0.0
    for trial in range(1000):
        z = rng.standard_normal(5) * 3
        t = int(rng.integers(5))
        la = la_loss(z, t, cfg).loss
        shifted = z - np.max(z)
        ce = float(np.log(np.sum(np.exp(shifted))) - shifted[t])
        worst = max(worst, abs(la - ce))
    _verdict(6, worst < 1e-12, f"max |LA - CE| = {worst:.2e}")


def test_criterion_07_hinge_ramp_risk_identity():
    rng = np.random.default_rng(16)
    worst = 0.0
    done = 0
    while done < 100:
        margins = rng.standard_normal(24) * 2
        tau = float(np.max(margins))
        if tau <= 0:
            continue
        done += 1
        cr, ramp = cr_ramp_risks(margins, tau)
        worst = max(worst, abs(cr - (ramp - 1.0)))
    _verdict(7, worst < 1e-10, f"max deviation {worst:.2e}")


def test_criterion_08_certificate_soundness():
    t0 = time.perf_counter()
    net = build_model(lipconvnet_mini(channels=2, spatial=4, classes=2), seed=7)
    x, y = toy_dataset("blobs", 128, 32, seed=11, delta=4.0, sigma=1.2)
    cfg = TrainConfig(seed=5, epochs=40, batch_size=32, learning_rate=0.1,
                      loss="la", loss_cfg=LossConfig(), radii=(0.1,))
    train(net, (x, y), cfg)
    rep = build_report(net.forward(x), y, net.backbone_bound(),
                       head_rows=net.head_rows())
    eps = rep.radii()
    correct = np.asarray([r.predicted == r.true_label for r in rep.records])
    certified = np.flatnonzero((eps > 1e-9) & correct)
    assert certified.size > 0
    flips_low = flips_high = 0
    for j in certified:
        adv = pgd_attack(net, x[j].reshape(2, 4, 4), int(y[j]),
                         0.999 * float(eps[j]), 50)
        flips_low += int(np.argmax(net.forward(adv))) != int(y[j])
        adv = pgd_attack(net, x[j].reshape(2, 4, 4), int(y[j]),
                         1.5 * float(eps[j]), 50)
        flips_high += int(np.argmax(net.forward(adv))) != int(y[j])
    elapsed = time.perf_counter() - t0
    ok = flips_low == 0 and flips_high >= 1 and elapsed < 300.0
    _verdict(8, ok, f"{certified.size} certified, {flips_low} flips at "
                    f"0.999eps, {flips_high} at 1.5eps, {elapsed:.0f}s")


def test_criterion_09_newton_instability_reproduction():
    rng = np.random.default_rng(17)
    v = np.eye(32) + 0.01 * rng.standard_normal((32, 32))
    _, conds = lot_orthogonalize(v, 10)
    identity_ok = min(conds) < 1.0 + 1e-6
    kaiming_stuck = []
    for seed in LOT_BAD_SEEDS:
        r = np.random.default_rng(seed)
        vk = r.standard_normal((64, 64)) * np.sqrt(2.0 / 64)
        _, conds_k = lot_orthogonalize(vk, 50)
        kaiming_stuck.append(conds_k[-1] > 1.0 + 1e-2)
    ok = identity_ok and any(kaiming_stuck)
    _verdict(9, ok, f"identity best {min(conds):.2e}-1, "
                    f"stuck seeds {sum(kaiming_stuck)}/{len(kaiming_stuck)}")


def test_criterion_10_rank_time_scaling():
    sweep = rank_sweep(256, 16, 1, [0.125, 0.25, 0.5, 0.75], reps=10, seed=0)
    meds = [r.median_s for r in sweep]
    ok = all(b > a for a, b in zip(meds, meds[1:]))
    _verdict(10, ok, "medians " + " -> ".join(f"{m:.3f}s" for m in meds))


def test_criterion_11_loss_curve_pathology():
    eps = 1e-9
    jumps = {}
    for gamma in (0.5, 1.25):
        lo, hi = loss_curves(LossConfig(cr_weight=gamma), [0.5 - eps, 0.5 + eps])
        jumps[gamma] = lo[5] - hi[5]
    jump_ok = (abs(jumps[0.5] - 2.0) < 1e-6 and abs(jumps[1.25] - 5.0) < 1e-6
               and jumps[0.5] != jumps[1.25])
    rows = loss_curves(LossConfig(annealing=5.0), [0.6, 0.99])
    anneal_ok = abs(rows[1][2]) < 0.1 * abs(rows[0][2])
    _verdict(11, jump_ok and anneal_ok,
             f"jumps {jumps[0.5]:.3f}/{jumps[1.25]:.3f}, "
             f"grad(0.99)/grad(0.6) = {abs(rows[1][2]) / abs(rows[0][2]):.4f}")


def test_criterion_12_radius_distribution_direction():
    results = {}
    for seed, data_seed in ((0, 100), (2, 102)):
        stats = {}
        for loss in ("la", "ce_cr"):
            net = build_model(
                bronet_mini(channels=2, spatial=2, classes=2, rank=1, pool=2),
                seed=seed)
            x, y = toy_dataset("two_rings", 256, 8, seed=data_seed)
            cfg = TrainConfig(seed=seed, epochs=300, batch_size=32,
                              learning_rate=0.05, loss=loss,
                              loss_cfg=LossConfig(cr_weight=0.1), radii=(0.05,))
            train(net, (x, y), cfg)
            rep = build_report(net.forward(x), y, net.backbone_bound(),
                               head_rows=net.head_rows())
            stats[loss] = rep.stats()
        results[(seed, data_seed)] = stats
    ok = all(st["la"][2] <= st["ce_cr"][2] for st in results.values())
    detail = "; ".join(
        f"seeds {k}: skew la {v['la'][2]:.3f} vs ce_cr {v['ce_cr'][2]:.3f}"
        for k, v in results.items())
    _verdict(12, ok, detail)
