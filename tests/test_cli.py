"""CLI exit codes, output schemas, and the command round trips."""

import json

import pytest

from brolip import bench as benchmod
from brolip.checkpoint import save_checkpoint
from brolip.cli import main
from brolip.losses import LOSS_CURVE_HEADER
from brolip.models import build_model, lipconvnet_mini


def test_ortho_check_bro_passes(capsys):
    assert main(["ortho-check", "--method", "bro", "--m", "16", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "(4, 12)" in out


def test_ortho_check_bro_json_schema(capsys):
    assert main(["ortho-check", "--method", "bro", "--m", "12", "--n", "3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["pass"] is True
    assert payload["eig_counts"] == [3, 9]
    assert payload["orth_error"] < 1e-10


def test_ortho_check_degenerate_refused(capsys):
    assert main(["ortho-check", "--method", "bro", "--m", "4", "--n", "4"]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_ortho_check_cayley(capsys):
    assert main(["ortho-check", "--method", "cayley", "--m", "16"]) == 0


def test_ortho_check_lot_identity_converges(capsys):
    assert main(["ortho-check", "--method", "lot", "--m", "32",
                 "--init", "identity", "--iters", "10"]) == 0


def test_ortho_check_lot_kaiming_nonconvergence(capsys):
    rc = main(["ortho-check", "--method", "lot", "--m", "64", "--init", "kaiming",
               "--iters", "50", "--seed", "469559", "--json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert payload["final_condition"] > 1.01
    assert len(payload["condition_trace"]) == 50


def test_bench_rejects_too_few_reps(capsys):
    assert main(["bench", "--methods", "bro", "--reps", "1"]) == 2


def test_bench_rejects_oversize(capsys):
    assert main(["bench", "--methods", "bro", "--c", "600", "--reps", "10"]) == 2


@pytest.mark.parametrize("argv, cause", [
    (["--c", "8", "--s", "4", "--kappa", "1.5"], "rank n=12 must not exceed channels c=8"),
    (["--m", "16", "--kappa", "1.5"], "need n < m"),
    (["--c", "8", "--s", "4", "--k", "2"], "kernel size must be odd"),
    (["--c", "8", "--s", "4", "--k", "2", "--methods", "cayley,lot"],
     "kernel size must be odd"),
])
def test_bench_rejects_invalid_parameter_before_timing(argv, cause, capsys):
    assert main(["bench", "--reps", "10"] + argv) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and cause in err


def test_bench_csv_schema(tmp_path, capsys):
    # a k = 1 transform is one c x c reflector: at c = 16 ranks 2 and 12
    # took 0.1-0.2 against 0.2-0.4 ms and crossed in 1 of 20 runs, at c = 64
    # ranks 8 and 48 take about 0.2 against 0.7 ms
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--methods", "bro",
               "--c", "64", "--s", "8", "--k", "1", "--kappa", "0.125,0.75",
               "--reps", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("method,phase,m,c,s,k,n,reps,median_s,min_s,max_s,"
                        "timer_resolution_s,alloc_count,alloc_elements")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "bro" and cells[1] == "param_transform"
    assert int(cells[7]) == 10
    assert "monotone" in capsys.readouterr().err


def test_bench_non_monotone_sweep_emits_the_csv_once_and_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(benchmod, "medians_non_decreasing", lambda rows: False)
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--methods", "bro", "--c", "8", "--s", "4", "--kappa", "0.125,0.5",
               "--reps", "10", "--out", str(out)])
    assert rc == 1
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,") and len(lines) == 3


def test_bench_full_kernel_methods_report_rank_c(tmp_path):
    # cayley and lot transform the whole c x c kernel, whatever --kappa says
    out = tmp_path / "full.csv"
    rc = main(["bench", "--methods", "lot,cayley", "--c", "16", "--s", "4",
               "--kappa", "0.25", "--reps", "10", "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert sorted(r[0] for r in rows) == ["cayley", "lot"]
    assert all(r[3] == "16" and r[6] == "16" for r in rows)  # c and n


def test_bench_dense_mode(tmp_path):
    out = tmp_path / "dense.csv"
    rc = main(["bench", "--methods", "bro,cayley", "--m", "24",
               "--kappa", "0.25", "--reps", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "24"  # dense rows carry m


def test_bench_dense_mode_sweeps_every_kappa(tmp_path, monkeypatch):
    gated = []
    monkeypatch.setattr(benchmod, "medians_non_decreasing",
                        lambda rows: gated.append(rows) or True)
    out = tmp_path / "dense.csv"
    rc = main(["bench", "--methods", "bro,cayley", "--m", "24",
               "--kappa", "0.25,0.5", "--reps", "10", "--out", str(out)])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[2], r[6]) for r in rows] == [
        ("cayley", "24", "24"), ("bro", "24", "6"), ("bro", "24", "12")]
    assert [[r.shape["n"] for r in sweep] for sweep in gated] == [[6, 12]]


def test_loss_curves_csv(tmp_path):
    out = tmp_path / "curves.csv"
    rc = main(["loss-curves", "--T", "0.75", "--xi", "2", "--beta", "5",
               "--points", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == LOSS_CURVE_HEADER
    assert len(lines) == 12
    assert all(len(ln.split(",")) == 6 for ln in lines[1:])

    # rows reproduce the library function on the same grid
    import numpy as np
    from brolip.losses import LossConfig, loss_curves
    want = loss_curves(LossConfig(temperature=0.75, offset=2.0, annealing=5.0),
                       np.linspace(0.01, 0.99, 11))
    for ln, row in zip(lines[1:], want):
        got = [float(tok) for tok in ln.split(",")]
        np.testing.assert_allclose(got, row, rtol=1e-10)


def test_conv_oracle_passes(capsys):
    assert main(["conv-oracle", "--max-c", "4", "--max-s", "4"]) == 0
    assert "worst equivalence" in capsys.readouterr().out


def test_train_certify_round_trip(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "log.csv"
    rc = main(["train", "--model", "lipconvnet", "--dataset", "blobs",
               "--n", "64", "--epochs", "5", "--seed", "3", "--data-seed", "11",
               "--out", str(ckpt), "--log", str(log)])
    assert rc == 0
    header = log.read_text().splitlines()[0]
    assert header.startswith("epoch,loss,accuracy,mean_margin,cert@")
    assert header.endswith("grad_ratio")

    report = tmp_path / "report.txt"
    rc = main(["certify", "--ckpt", str(ckpt), "--dataset", "blobs",
               "--n", "64", "--data-seed", "11",
               "--radius-grid", "0,0.05,0.1,0.2", "--out", str(report)])
    assert rc == 0
    lines = report.read_text().strip().splitlines()
    head = json.loads(lines[0])
    assert head["version"] == 1
    assert head["count"] == 64
    assert len(lines) == 65
    fracs = [a for _, a in head["curve"]]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_train_on_two_rings_takes_only_two_classes(tmp_path, capsys):
    rc = main(["train", "--dataset", "two_rings", "--classes", "3", "--n", "16",
               "--epochs", "1", "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert "classes=3" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_certify_on_two_rings_rejects_a_three_class_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "three.ckpt"
    save_checkpoint(build_model(lipconvnet_mini(2, 4, classes=3), 0), ckpt)
    rc = main(["certify", "--ckpt", str(ckpt), "--dataset", "two_rings", "--n", "16",
               "--out", str(tmp_path / "r.txt")])
    assert rc == 2
    assert "classes=3" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_certify_missing_checkpoint(tmp_path, capsys):
    garbage = tmp_path / "none.ckpt"
    garbage.write_bytes(b"garbage-file-contents")
    rc = main(["certify", "--ckpt", str(garbage), "--out",
               str(tmp_path / "r.txt")])
    assert rc == 2
    rc = main(["certify", "--ckpt", str(tmp_path / "absent.ckpt"), "--out",
               str(tmp_path / "r.txt")])
    assert rc == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["ortho-check", "--method", "qr"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [["bench", "--kappa", "abc"],
                                  ["train", "--radii", "0.1,x"],
                                  ["certify", "--ckpt", "a.ckpt", "--out", "r.txt",
                                   "--radius-grid", "0,,y"]])
def test_malformed_comma_list_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["ortho-check", "--method", "bro", "--m", "4", "--n", "-1"], "--n"),
    (["ortho-check", "--method", "cayley", "--m", "-2"], "--m"),
    (["ortho-check", "--method", "cayley", "--m", "0"], "--m"),
    (["ortho-check", "--method", "lot", "--m", "0"], "--m"),
    (["bench", "--m", "-4"], "--m"),
    (["bench", "--c", "-4"], "--c"),
    (["bench", "--c", "4", "--s", "4", "--k", "-1"], "--k"),
    (["bench", "--c", "4", "--s", "0"], "--s"),
    (["bench", "--s", "-4"], "--s"),
    (["bench", "--kappa", "-0.5"], "--kappa"),
    (["bench", "--kappa", ","], "--kappa"),
    (["loss-curves", "--points", "-3"], "--points"),
    (["conv-oracle", "--max-c", "-1"], "--max-c"),
    (["conv-oracle", "--max-s", "1"], "--max-s"),
])
def test_bad_size_is_a_usage_error_naming_its_flag(argv, flag, capsys):
    # rejected at parse time: no traceback, no empty case passing
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_outputs_deterministic_given_flags(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["loss-curves", "--points", "7", "--out", str(path)])
        outs.append(path.read_text())
    assert outs[0] == outs[1]
