"""Command-line surface.

Subcommands: ortho-check, bench, train, certify, loss-curves, conv-oracle.
Exit codes: 0 on success, 1 when a checked invariant fails, 2 on usage
errors: argparse reports its own, and `main` reports a `ContractError`
from any command.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench as benchmod
from . import checkpoint, losses
from .certify import build_report
from .data import toy_dataset
from .errors import ContractError, DivergedError, FormatError, SingularParameter
from .models import build_model, bronet_mini, lipconvnet_mini
from .ortho import (BroConvKernel, BroParam, ConvGeometry, bro_conv_forward,
                    bro_orthogonalize, cayley_orthogonalize, lot_orthogonalize,
                    materialize_conv_matrix)
from .train import TrainConfig, train

JSON_VERSION = 1


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _at_least(low: int):
    """An argparse type for a size: argparse names the flag and exits 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    parse.__name__ = f"int >= {low}"
    return parse


def _positive_floats(text: str) -> list[float]:
    values = _floats(text)
    if not values or not all(v > 0 for v in values):
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of positive values")
    return values


def _emit(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------- ortho
def cmd_ortho_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    report: dict = {"version": JSON_VERSION, "method": args.method}
    ok = True
    try:
        if args.method == "bro":
            v = rng.standard_normal((args.m, args.n)) / np.sqrt(args.m)
            w = bro_orthogonalize(BroParam(v)).array
            orth = float(np.linalg.norm(w.T @ w - np.eye(args.m)))
            sym = float(np.linalg.norm(w - w.T))
            vals = np.linalg.eigvalsh(w)
            neg = int(np.sum(np.abs(vals + 1.0) < 1e-8))
            pos = int(np.sum(np.abs(vals - 1.0) < 1e-8))
            ok = orth < 1e-10 and sym < 1e-12 and (neg, pos) == (args.n, args.m - args.n)
            report.update(m=args.m, n=args.n, orth_error=orth, sym_error=sym,
                          eig_counts=[neg, pos])
            lines = [f"orthogonality error  {orth:.3e}",
                     f"symmetry error       {sym:.3e}",
                     f"eigenvalue counts    ({neg}, {pos})"]
        elif args.method == "cayley":
            v = rng.standard_normal((args.m, args.m)) / np.sqrt(args.m)
            w = cayley_orthogonalize(v).array
            orth = float(np.linalg.norm(w.T @ w - np.eye(args.m)))
            ok = orth < 1e-10
            report.update(m=args.m, orth_error=orth)
            lines = [f"orthogonality error  {orth:.3e}"]
        else:  # lot
            if args.init == "identity":
                v = np.eye(args.m) + 0.01 * rng.standard_normal((args.m, args.m))
            elif args.init == "kaiming":
                v = rng.standard_normal((args.m, args.m)) * np.sqrt(2.0 / args.m)
            else:
                v = rng.standard_normal((args.m, args.m)) / np.sqrt(args.m)
            _, conds = lot_orthogonalize(v, args.iters)
            final = conds[-1]
            ok = final <= 1.0 + 1e-6
            report.update(m=args.m, init=args.init, iters=args.iters,
                          condition_trace=conds, final_condition=final)
            lines = [f"condition number after {args.iters} iterations  {final:.6g}"]
            if not ok:
                lines.append("Newton iteration did not converge to an orthogonal "
                             "operator")
    except (SingularParameter, DivergedError) as exc:
        report.update(error=str(exc))
        ok = False
        lines = [f"construction failed: {exc}"]
    report["pass"] = bool(ok)
    if args.json:
        print(json.dumps(report))
    else:
        for ln in lines:
            print(ln)
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------- bench
def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    width = args.m or args.c  # cayley and lot transform the full square parameter

    def timed(method, n):
        if args.m:
            return benchmod.bench_dense(method, args.m, n, args.reps, iters=args.iters,
                                        seed=args.seed)
        return benchmod.bench_conv(method, args.c, args.s, args.k, n, args.reps,
                                   iters=args.iters, seed=args.seed)

    rows = [timed(method, width) for method in methods if method != "bro"]
    mono = True
    if "bro" in methods:
        sweep = [timed("bro", benchmod.kappa_rank(kappa, width)) for kappa in args.kappa]
        rows.extend(sweep)
        mono = benchmod.medians_non_decreasing(sweep)
        print(f"# bro kappa sweep monotone non-decreasing: {mono}", file=sys.stderr)
    _emit(args.out, "\n".join([benchmod.CSV_HEADER] + [r.csv_row() for r in rows]) + "\n")
    return 0 if mono else 1


# ---------------------------------------------------------------------- train
def cmd_train(args) -> int:
    mini = lipconvnet_mini if args.model == "lipconvnet" else bronet_mini
    net = build_model(mini(channels=args.channels, spatial=args.spatial,
                           classes=args.classes, rank=args.rank), args.seed)
    d = int(np.prod(net.input_shape))
    x, y = toy_dataset(args.dataset, args.n, d, args.data_seed,
                       classes=args.classes, delta=args.delta)
    loss_cfg = losses.LossConfig(temperature=args.T, offset=args.xi,
                                 annealing=args.beta, cr_weight=args.gamma)
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs,
                      batch_size=args.batch_size, learning_rate=args.lr,
                      momentum=args.momentum, schedule=args.schedule,
                      loss=args.loss, loss_cfg=loss_cfg,
                      radii=tuple(args.radii))
    try:
        log = train(net, (x, y), cfg)
    except DivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    if args.out:
        checkpoint.save_checkpoint(net, args.out, meta={
            "dataset": args.dataset, "data_seed": args.data_seed,
            "loss": args.loss, "epochs": args.epochs})
    if args.log:
        radii = [f"{r:g}" for r in cfg.radii]
        header = "epoch,loss,accuracy,mean_margin," + \
            ",".join(f"cert@{r}" for r in radii) + ",grad_ratio"
        lines = [header]
        for rec in log.records:
            cells = [str(rec.epoch), f"{rec.mean_loss:.9g}", f"{rec.accuracy:.6f}",
                     f"{rec.mean_margin:.9g}"]
            cells += [f"{rec.certified[r]:.6f}" for r in radii]
            cells.append(f"{rec.grad_ratio:.6g}")
            lines.append(",".join(cells))
        _emit(args.log, "\n".join(lines) + "\n")
    last = log.records[-1] if log.records else None
    if last:
        print(f"final accuracy {last.accuracy:.4f}, mean margin "
              f"{last.mean_margin:.4f}, certified {last.certified}")
    return 0


# -------------------------------------------------------------------- certify
def cmd_certify(args) -> int:
    try:
        net = checkpoint.load_checkpoint(args.ckpt)
    except (FormatError, OSError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return 2
    d = int(np.prod(net.input_shape))
    x, y = toy_dataset(args.dataset, args.n, d, args.data_seed,
                       classes=net.classes(), delta=args.delta)
    logits = net.forward(x)
    report = build_report(logits, y, net.backbone_bound(), head_rows=net.head_rows(),
                          grid=args.radius_grid)
    fracs = [a for _, a in report.curve]
    if any(b > a + 1e-12 for a, b in zip(fracs, fracs[1:])):
        print("certified-accuracy curve is not non-increasing", file=sys.stderr)
        return 1
    report.save(args.out)
    med, var, skew = report.stats()
    print(f"clean accuracy {report.clean_accuracy():.4f}; radius median {med:.4f}, "
          f"variance {var:.4f}, skewness {skew:.4f}")
    return 0


# ---------------------------------------------------------------- loss-curves
def cmd_loss_curves(args) -> int:
    cfg = losses.LossConfig(temperature=args.T, offset=args.xi,
                            annealing=args.beta, cr_weight=args.gamma)
    grid = np.linspace(args.p_min, args.p_max, args.points)
    rows = losses.loss_curves(cfg, grid)
    lines = [losses.LOSS_CURVE_HEADER]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------- conv-oracle
def cmd_conv_oracle(args) -> int:
    rng = np.random.default_rng(args.seed)
    channels = [c for c in (1, 2, 4, 8) if c <= args.max_c]
    sizes = [s for s in (2, 3, 4, 6, 8) if s <= args.max_s]
    worst_eq, worst_orth = 0.0, 0.0
    failures = 0
    cases = 0
    for c in channels:
        for s in sizes:
            for n in range(1, c + 1):
                cases += 1
                kern = BroConvKernel(rng.standard_normal((c, n, 1, 1)))
                mat = materialize_conv_matrix(kern, s).array
                dim = c * s * s
                orth = float(np.linalg.norm(mat.T @ mat - np.eye(dim)))
                x = rng.standard_normal((c, s, s))
                geom = ConvGeometry(c, c, s, 1, keep_padding=True)
                y_fft = bro_conv_forward(kern, x, geom).array.reshape(-1)
                y_mat = mat @ x.reshape(-1)
                rel = float(np.linalg.norm(y_fft - y_mat) / np.linalg.norm(y_mat))
                worst_eq = max(worst_eq, rel)
                worst_orth = max(worst_orth, orth)
                if rel >= args.tol or orth >= args.tol:
                    failures += 1
                    print(f"MISMATCH c={c} s={s} n={n}: rel={rel:.3e} "
                          f"orth={orth:.3e}", file=sys.stderr)
    print(f"{cases} cases; worst equivalence {worst_eq:.3e}, "
          f"worst orthogonality {worst_orth:.3e}")
    return 1 if failures else 0


# ----------------------------------------------------------------------- main
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="brolip")
    sub = ap.add_subparsers(dest="command", required=True)

    oc = sub.add_parser("ortho-check", help="verify an orthogonalization method")
    oc.add_argument("--method", choices=("bro", "cayley", "lot"), required=True)
    oc.add_argument("--m", type=_at_least(1), default=16)
    oc.add_argument("--n", type=_at_least(1), default=4)
    oc.add_argument("--seed", type=int, default=0)
    oc.add_argument("--iters", type=_at_least(1), default=10)
    oc.add_argument("--init", choices=("identity", "kaiming", "gaussian"),
                    default="identity")
    oc.add_argument("--json", action="store_true")
    oc.set_defaults(func=cmd_ortho_check)

    bc = sub.add_parser("bench", help="wall-time micro-benchmarks")
    bc.add_argument("--methods", default="bro")
    bc.add_argument("--m", type=_at_least(0), default=0, help="dense mode when nonzero")
    bc.add_argument("--c", type=_at_least(1), default=64)
    bc.add_argument("--s", type=_at_least(1), default=16)
    bc.add_argument("--k", type=_at_least(1), default=1)
    bc.add_argument("--kappa", type=_positive_floats, default="0.125,0.25,0.5,0.75")
    bc.add_argument("--reps", type=int, default=10)
    bc.add_argument("--iters", type=_at_least(1), default=10)
    bc.add_argument("--seed", type=int, default=0)
    bc.add_argument("--out", default="")
    bc.set_defaults(func=cmd_bench)

    tr = sub.add_parser("train", help="train a miniature network")
    tr.add_argument("--model", choices=("lipconvnet", "bronet"), default="lipconvnet")
    tr.add_argument("--dataset", choices=("blobs", "two_rings"), default="blobs")
    tr.add_argument("--n", type=int, default=256)
    tr.add_argument("--channels", type=int, default=2)
    tr.add_argument("--spatial", type=int, default=4)
    tr.add_argument("--classes", type=int, default=2)
    tr.add_argument("--rank", type=int, default=1)
    tr.add_argument("--delta", type=float, default=6.0)
    tr.add_argument("--loss", choices=("la", "ce", "ce_cr"), default="la")
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--batch-size", type=int, default=32)
    tr.add_argument("--lr", type=float, default=0.1)
    tr.add_argument("--momentum", type=float, default=0.9)
    tr.add_argument("--schedule", choices=("constant", "cosine"), default="constant")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--data-seed", type=int, default=1)
    tr.add_argument("--radii", type=_floats, default="0.1,0.3")
    tr.add_argument("--T", type=float, default=0.75)
    tr.add_argument("--xi", type=float, default=2.0)
    tr.add_argument("--beta", type=float, default=5.0)
    tr.add_argument("--gamma", type=float, default=0.5)
    tr.add_argument("--out", default="")
    tr.add_argument("--log", default="")
    tr.set_defaults(func=cmd_train)

    ce = sub.add_parser("certify", help="certify a checkpoint on a dataset")
    ce.add_argument("--ckpt", required=True)
    ce.add_argument("--dataset", choices=("blobs", "two_rings"), default="blobs")
    ce.add_argument("--n", type=int, default=256)
    ce.add_argument("--data-seed", type=int, default=1)
    ce.add_argument("--delta", type=float, default=6.0)
    ce.add_argument("--radius-grid", type=_floats, default="0,0.05,0.1,0.2,0.4")
    ce.add_argument("--out", required=True)
    ce.set_defaults(func=cmd_certify)

    lc = sub.add_parser("loss-curves", help="emit the loss diagnostic curves")
    lc.add_argument("--T", type=float, default=0.75)
    lc.add_argument("--xi", type=float, default=2.0)
    lc.add_argument("--beta", type=float, default=5.0)
    lc.add_argument("--gamma", type=float, default=0.5)
    lc.add_argument("--points", type=_at_least(1), default=99)
    lc.add_argument("--p-min", type=float, default=0.01)
    lc.add_argument("--p-max", type=float, default=0.99)
    lc.add_argument("--out", default="")
    lc.set_defaults(func=cmd_loss_curves)

    co = sub.add_parser("conv-oracle", help="k = 1 conv vs materialized matrix")
    co.add_argument("--max-c", type=_at_least(1), default=8)
    co.add_argument("--max-s", type=_at_least(2), default=8)
    co.add_argument("--seed", type=int, default=0)
    co.add_argument("--tol", type=float, default=1e-8)
    co.set_defaults(func=cmd_conv_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
