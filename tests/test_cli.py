import csv
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ncg.cli import ExperimentConfig, main, run
from ncg.game import GameConfig, StrategyProfile
from ncg.profiles import parse_profile, serialize_profile

STAR3 = "ncg v1\nn 3\nalpha 5\nbuy 0 1\nbuy 2 1\n"
TRIANGLE = "ncg v1\nn 3\nalpha 5\nbuy 0 1\nbuy 1 2\nbuy 2 0\n"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestVerifyMode:
    def test_equilibrium_row(self, tmp_path):
        out = str(tmp_path / "v.csv")
        rc = main(["verify", "--in", write(tmp_path, "s.ncg", STAR3), "--out", out])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["is_nash"] == "true" and rows[0]["deviating_agent"] == ""

    def test_non_equilibrium_still_exit_zero(self, tmp_path):
        out = str(tmp_path / "v.csv")
        rc = main(["verify", "--in", write(tmp_path, "t.ncg", TRIANGLE), "--out", out])
        assert rc == 0
        row = read_csv(out)[0]
        assert row["is_nash"] == "false"
        assert row["new_cost"] and Fraction(row["new_cost"]) < Fraction(row["old_cost"])

    def test_parse_error_exit_code(self, tmp_path):
        bad = write(tmp_path, "bad.ncg", "ncg v1\nn 2\nalpha 1\nbuy 0 0\n")
        rc = main(["verify", "--in", bad, "--out", str(tmp_path / "x.csv")])
        assert rc == 4

    def test_size_guard_exit_code(self, tmp_path):
        rc = main(["enumerate", "--n", "9", "--alpha", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 5

    def test_missing_inputs_exit_code(self, tmp_path):
        rc = main(["enumerate", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    @pytest.mark.parametrize("agent", ["7", "-1"])
    def test_agent_out_of_range_exit_code(self, tmp_path, capsys, agent):
        rc = main(["best-response", "--in", write(tmp_path, "s.ncg", STAR3),
                   "--agent", agent, "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert f"agent {agent} out of range" in capsys.readouterr().err

    def test_zero_denominator_alpha_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3", "--alpha", "1/0",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "not an exact rational: '1/0'" in capsys.readouterr().err


class TestRowsAndManifests:
    def test_enumerate_rows_reload_and_reverify(self, tmp_path):
        from ncg.equilibrium import is_nash
        out = str(tmp_path / "e.csv")
        assert main(["enumerate", "--n", "3", "--alpha", "25", "--out", out]) == 0
        rows = read_csv(out)
        assert rows
        cfg = GameConfig(3, Fraction(25))
        for row in rows:
            profile = StrategyProfile.from_ownership_code(int(row["n"]),
                                                          row["profile_id"])
            assert is_nash(cfg, profile).is_nash
            assert row["is_tree"] == "true"

    def test_manifest_written(self, tmp_path):
        out = str(tmp_path / "e.csv")
        main(["enumerate", "--n", "3", "--alpha", "25", "--out", out])
        manifest = json.loads((tmp_path / "e.csv.manifest.json").read_text())
        assert manifest["tool"] == "ncg" and manifest["mode"] == "enumerate"
        assert manifest["rows"] == len(read_csv(out))
        assert manifest["config"]["alpha"] == "25"
        assert len(manifest["sha256"]) == 64

    def test_poa_row(self, tmp_path):
        out = str(tmp_path / "p.csv")
        assert main(["poa", "--n", "4", "--alpha", "1/3", "--out", out]) == 0
        row = read_csv(out)[0]
        assert row["poa"] == "1" and row["exhaustive"] == "true"

    def test_audit_rows(self, tmp_path):
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--in", write(tmp_path, "t.ncg", TRIANGLE),
                     "--out", out]) == 0
        rows = {r["check_id"]: r for r in read_csv(out)}
        assert rows["girth_alpha_plus_2"]["passed"] == "false"
        assert "cycle" in rows["girth_alpha_plus_2"]["witness_summary"]

    def test_audit_on_tree_equilibrium_all_pass(self, tmp_path):
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--in", write(tmp_path, "s.ncg", STAR3),
                     "--out", out]) == 0
        for row in read_csv(out):
            assert row["passed"] in ("true", "")
        summaries = [r["witness_summary"] for r in read_csv(out)]
        assert any(s.startswith("vacuous") for s in summaries)

    def test_audit_witness_text_blocks(self, tmp_path, capsys):
        out = str(tmp_path / "a.csv")
        assert main(["audit", "--in", write(tmp_path, "t.ncg", TRIANGLE),
                     "--out", out, "--witnesses"]) == 0
        text = capsys.readouterr().out
        assert "girth_alpha_plus_2: FAIL" in text
        assert "witness [cycle]" in text

    def test_best_response_row(self, tmp_path):
        out = str(tmp_path / "b.csv")
        assert main(["best-response", "--agent", "0", "--out", out,
                     "--in", write(tmp_path, "t.ncg", TRIANGLE)]) == 0
        row = read_csv(out)[0]
        assert row["best_strategy"] == "" and row["best_cost"] == "2"

    def test_dynamics_rows(self, tmp_path):
        out = str(tmp_path / "d.csv")
        assert main(["dynamics", "--n", "3", "--alpha", "5", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[-2]["event"] == "outcome" and rows[-2]["detail"] == "converged"
        final = rows[-1]
        profile = StrategyProfile.from_ownership_code(3, final["detail"])
        from ncg.equilibrium import is_nash
        assert is_nash(GameConfig(3, Fraction(5)), profile).is_nash

    def test_optimum_row(self, tmp_path):
        out = str(tmp_path / "o.csv")
        assert main(["optimum", "--n", "5", "--alpha", "1", "--out", out]) == 0
        assert read_csv(out)[0]["cost"] == "13"


class TestDeterminism:
    def test_enumerate_workers_byte_identical(self, tmp_path):
        outs = []
        for i, workers in enumerate([1, 4, 1]):
            out = tmp_path / f"e{i}.csv"
            assert main(["enumerate", "--n", "4", "--alpha", "25",
                         "--workers", str(workers), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_search_workers_byte_identical(self, tmp_path):
        outs = []
        for i, workers in enumerate([1, 4]):
            out = tmp_path / f"s{i}.csv"
            assert main(["search", "--n", "5", "--alpha", "1/2", "--seed", "11",
                         "--iters", "60", "--workers", str(workers),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dynamics_repeat_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"d{i}.csv"
            assert main(["dynamics", "--n", "4", "--alpha", "2", "--seed", "9",
                         "--schedule", "rand", "--budget", "200",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_console_entry_point(tmp_path):
    out = tmp_path / "e.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ncg.cli", "enumerate", "--n", "3",
         "--alpha", "25", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_closed_stdout_still_writes_outputs(tmp_path):
    # The reader end is closed before the run starts, as after `| head -1`.
    out = tmp_path / "a.csv"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncg.cli", "audit", "--witnesses",
             "--in", write(tmp_path, "t.ncg", TRIANGLE), "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert read_csv(out)
    assert json.loads((tmp_path / "a.csv.manifest.json").read_text())["rows"] == 13


def test_run_api_round_trip(tmp_path):
    cfg = ExperimentConfig(mode="enumerate", n=3, alpha=Fraction(25),
                           output=str(tmp_path / "api.csv"))
    manifest = run(cfg)
    assert manifest.rows == 12
    assert manifest.csv_schema[0] == "alpha"


def test_serialized_profiles_from_rows_verify(tmp_path):
    # every profile_id in a CSV can be re-serialized, re-parsed, re-verified
    out = str(tmp_path / "e.csv")
    main(["enumerate", "--n", "4", "--alpha", "1/3", "--out", out])
    from ncg.equilibrium import is_nash
    cfg = GameConfig(4, Fraction(1, 3))
    for row in read_csv(out)[:5]:
        profile = StrategyProfile.from_ownership_code(4, row["profile_id"])
        text = serialize_profile(cfg, profile)
        cfg2, profile2 = parse_profile(text)
        assert profile2 == profile
        assert is_nash(cfg2, profile2).is_nash
