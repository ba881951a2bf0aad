import json

import numpy as np
import pytest

from losscarto import attack as attack_module
from losscarto.cli import main
from losscarto.instances import load_instance, make_oracle


@pytest.fixture()
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "--widths", "2,2,1", "--samples", "2", "--seed", "5", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_valid_instance(self, inst_path):
        data = json.loads(inst_path.read_text())
        assert data["widths"] == [2, 2, 1]
        assert len(data["samples"]) == 2
        assert data["seed"] == 5

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert main(["gen", "--widths", "3,2,1", "--samples", "3", "--seed", "9", "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_errors(self, tmp_path):
        out = str(tmp_path / "x.json")
        assert main(["gen", "--widths", "2;2;1", "--samples", "2", "--out", out]) == 64
        assert main(["gen", "--widths", "2", "--samples", "2", "--out", out]) == 64
        assert main(["gen", "--widths", "2,2,1", "--samples", "0", "--out", out]) == 64
        assert main(["gen", "--widths", "2,2,1"]) == 64  # missing --out
        assert main(["frobnicate"]) == 64


def non_utf8_file(tmp_path):
    """A file whose first bytes (a UTF-16 byte-order mark) are not UTF-8."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    return path


class TestVerify:
    def test_all_checks_pass(self, inst_path, capsys):
        assert main(["verify", "--instance", str(inst_path), "--probes", "8"]) == 0
        out = capsys.readouterr().out
        assert "check homogeneity" in out and "check piecewise" in out and "check factorization" in out

    def test_unknown_check(self, inst_path, tmp_path, capsys):
        # a list that names no check would check nothing and report success
        for checks in ("telepathy", ",", ""):
            assert main(["verify", "--instance", str(inst_path), "--checks", checks]) == 64, checks
            assert main(["verify", "--instance", str(tmp_path / "ghost.json"), "--checks", checks]) == 64
        assert capsys.readouterr().out == ""

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--instance", str(tmp_path / "ghost.json")]) == 2

    def test_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"widths": [2, 2, 1], "samples": [{"input": [1.0], "output": [1.0]}], "seed": 0}))
        assert main(["verify", "--instance", str(path)]) == 1
        assert main(["verify", "--instance", str(non_utf8_file(tmp_path))]) == 1
        assert "not valid UTF-8 JSON" in capsys.readouterr().err
        # an integer beyond the double range is an invalid instance, not a traceback
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"widths": [2, 2, 1], "samples": [{"input": [10**400, 1], "output": [1]}], "seed": 0}))
        for command in ("verify", "attack"):
            assert main([command, "--instance", str(huge)]) == 1
            assert "invalid instance:" in capsys.readouterr().err


class TestAttack:
    def test_recovers_and_writes_reports(self, inst_path, tmp_path, capsys, monkeypatch):
        report = tmp_path / "report.json"
        kinks = tmp_path / "kinks.csv"
        code = main(
            [
                "attack",
                "--instance",
                str(inst_path),
                "--budget",
                "120000",
                "--out",
                str(report),
                "--kinks",
                str(kinks),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["oracle_queries"] <= 120000
        assert sum(data["rejections"].values()) == data["rejected_sheets"]
        assert data["directions"]
        assert any(m["cosine"] >= 0.999 for m in data["matches"])
        assert kinks.read_text().splitlines()[0] == "line_id,t,jump,refined"
        # the summary lines: queries, lines scanned and why the scan stopped; then kinks found,
        # and rejections in all and by reason
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("; lines scanned: 8 (explained)")
        assert out[1] == "kinks found: 14; rejected: 2 (faint 2)"
        assert data["kink_count"] == 14 and data["rejections"] == {"faint": 2, "unmatched": 0}
        assert data["lines_scanned"] == 8 and data["stop"] == "explained"
        # a fit no wall passes: every kink with a curvature jump is unmatched, the scan stalls,
        # and nothing is recovered
        monkeypatch.setattr(attack_module, "FIT_TOL", 0.0)
        assert main(["attack", "--instance", str(inst_path), "--budget", "120000"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("; lines scanned: 16 (stalled)")
        assert out[1] == "kinks found: 27; rejected: 27 (faint 2, unmatched 25)"

    def test_no_recovery_exit_code(self, inst_path, capsys):
        # a starved budget ends the scan inside its second line, before any wall is solved
        assert main(["attack", "--instance", str(inst_path), "--budget", "50"]) == 3
        assert "oracle queries: 50 / 50; budget exhausted; lines scanned: 1 (budget)" in capsys.readouterr().out

    def test_non_finite_loss_exit_code(self, tmp_path, capsys):
        # the loss overflows to inf at every weight vector the attack tries
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"widths": [2, 2, 1], "seed": 0,
                                    "samples": [{"input": [1e200, -1e200], "output": [1.0]}]}))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["attack", "--instance", str(path), "--budget", "1000"]) == 1
        assert "loss oracle returned" in capsys.readouterr().err

    def test_bad_budget(self, inst_path, tmp_path):
        assert main(["attack", "--instance", str(inst_path), "--budget", "-1"]) == 64
        # flags are checked before the instance is read
        assert main(["attack", "--instance", str(tmp_path / "ghost.json"), "--budget", "0"]) == 64

    def test_config_file(self, inst_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": 90000, "seed": 2}))
        assert main(["attack", "--instance", str(inst_path), "--config", str(cfg)]) == 0
        for bad in ({"nope": 1}, {"paths": ["hyperplane"]}, {"grid": 4}, {"t_range": [1, 0]},
                    {"budget": "x"}, {"budget": -5}, [1, 2], {"tol": "x"}, {"radius": 0},
                    {"support_tol": -1}, {"match_threshold": 2}, {"dedup_tol": -1e-9},
                    {"refine_tol": True}, {"residual_tol": float("nan")},
                    {"t_range": [0, float("inf")]}, {"t_range": [1]}, {"t_range": [0, 1, 2]},
                    {"max_kinks_per_line": "x"}, {"max_kinks_per_line": 0},
                    {"t_range": "12"}, {"t_range": [True, 2]}, {"grid": 257},
                    {"n_lines": 0}, {"seed": -1}):
            cfg.write_text(json.dumps(bad))
            assert main(["attack", "--instance", str(inst_path), "--config", str(cfg)]) == 64, bad
        # a config that is not UTF-8 JSON is a usage error naming the config file;
        # an instance that is not is invalid input; neither is a crash
        garbled = str(non_utf8_file(tmp_path))
        capsys.readouterr()
        assert main(["attack", "--instance", str(inst_path), "--config", garbled]) == 64
        assert f"attack config {garbled}: not valid UTF-8 JSON" in capsys.readouterr().err
        cfg.write_text('{"budget": 5')
        assert main(["attack", "--instance", str(inst_path), "--config", str(cfg)]) == 64
        assert f"attack config {cfg}: not valid UTF-8 JSON" in capsys.readouterr().err
        assert main(["attack", "--instance", garbled]) == 1
        # a missing config file stays an i/o failure
        assert main(["attack", "--instance", str(inst_path), "--config", str(tmp_path / "ghost.json")]) == 2


class TestSurface:
    def test_writes_slice_and_sheets(self, inst_path, tmp_path):
        out = tmp_path / "surf"
        assert main(["surface", "--instance", str(inst_path), "--out", str(out), "--grid", "51", "--probes", "32"]) == 0
        lines = (tmp_path / "surf.csv").read_text().splitlines()
        assert lines[0] == "t,loss"
        assert len(lines) == 52
        t0, loss0 = lines[1].split(",")
        float(t0), float(loss0)  # parseable numbers
        sheets = json.loads((tmp_path / "surf.sheets.json").read_text())
        assert sheets["widths"] == [2, 2, 1]
        assert sheets["sheets"]

    def test_slice_matches_per_point_oracle(self, inst_path, tmp_path):
        # the line is one batched call; each row must equal its own query
        out = tmp_path / "surf"
        raw = [0.5, -1.0, 2.0, 0.25, -0.75, 1.5]
        argv = ["surface", "--instance", str(inst_path), "--out", str(out), "--grid", "37",
                "--t-range=-3:2.5", "--direction=" + ",".join(map(repr, raw)), "--probes", "8"]
        assert main(argv) == 0
        inst = load_instance(inst_path)
        oracle = make_oracle(inst)
        base = np.array([float(w) for w in inst.resolved_weights()])
        d = np.array(raw) / np.linalg.norm(raw)
        want = ["t,loss"] + [
            f"{float(t)!r},{oracle(base + t * d)!r}" for t in np.linspace(-3.0, 2.5, 37)
        ]
        assert (tmp_path / "surf.csv").read_text().splitlines() == want

    def test_t_range_usage(self, inst_path, tmp_path):
        out = str(tmp_path / "surf")
        assert main(["surface", "--instance", str(inst_path), "--out", out, "--t-range", "junk"]) == 64
        assert main(["surface", "--instance", str(inst_path), "--out", out, "--t-range", "2:1"]) == 64
        assert main(["surface", "--instance", str(inst_path), "--out", out, "--probes", "0"]) == 64
        # flags are checked before the instance is read
        ghost = str(tmp_path / "ghost.json")
        assert main(["surface", "--instance", ghost, "--out", out, "--probes", "0"]) == 64
        assert main(["surface", "--instance", ghost, "--out", out, "--direction", "a,b"]) == 64
        # a non-finite end would fill the slice with nan rows
        for bad in ("--t-range=-inf:inf", "--t-range=0:inf", "--t-range=nan:1"):
            assert main(["surface", "--instance", str(inst_path), "--out", out, bad]) == 64
            assert main(["surface", "--instance", ghost, "--out", out, bad]) == 64

    def test_negative_seed(self, inst_path, tmp_path, capsys):
        out = str(tmp_path / "surf")
        assert main(["surface", "--instance", str(inst_path), "--out", out, "--seed", "-1"]) == 64
        assert "--seed" in capsys.readouterr().err
        # checked before the instance is read, as attack does
        ghost = str(tmp_path / "ghost.json")
        assert main(["surface", "--instance", ghost, "--out", out, "--seed", "-1"]) == 64
        assert not (tmp_path / "surf.csv").exists()

    def test_direction_length_validated(self, inst_path, tmp_path):
        out = str(tmp_path / "surf")
        assert main(["surface", "--instance", str(inst_path), "--out", out, "--direction", "1,0"]) == 1
        # a non-finite entry is a usage error, found before the instance is read
        ghost = str(tmp_path / "ghost.json")
        for bad in ("nan,1,1,1,1,1", "1,1,inf,1,1,1"):
            assert main(["surface", "--instance", str(inst_path), "--out", out, "--direction", bad]) == 64
            assert main(["surface", "--instance", ghost, "--out", out, "--direction", bad]) == 64
        assert main(["surface", "--instance", str(non_utf8_file(tmp_path)), "--out", out]) == 1


class TestEnvironment:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "losscarto" in capsys.readouterr().out
