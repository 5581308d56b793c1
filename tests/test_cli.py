import csv
import importlib.util
import io
import json
import multiprocessing
import os
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ncg
import ncg.equilibrium as equilibrium
from conftest import alphas, strategy_profiles
import ncg.cli
from ncg.cli import (MODE_TABLE, MODES, ExperimentConfig, _csv_text,
                     build_parser, exit_status, main, run)
from ncg.game import MAX_AGENTS, GameConfig, StrategyProfile
from ncg.profiles import parse_profile, serialize_profile

STAR3 = "ncg v1\nn 3\nalpha 5\nbuy 0 1\nbuy 2 1\n"
TRIANGLE = "ncg v1\nn 3\nalpha 5\nbuy 0 1\nbuy 1 2\nbuy 2 0\n"


# Child interpreters import the same ncg as this process, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    os.path.dirname(os.path.dirname(ncg.__file__)), os.environ.get("PYTHONPATH")]))}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# Cells as the CLI writes them: text with every character the quoting rule
# looks at, and ints. "\r" is left out: csv quotes it only from Python 3.13.
csv_cells = st.one_of(
    st.text(alphabet=st.sampled_from(list('ab ,"\n;:é字')), max_size=8),
    st.integers())


@st.composite
def csv_tables(draw):
    names = draw(st.lists(st.text(alphabet=st.sampled_from(list('ab ,"\n_é')),
                                  min_size=1, max_size=5),
                          min_size=2, max_size=5, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({name: csv_cells for name in names}),
                         max_size=6))
    return names, rows


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(csv_tables())
    @example((["a", "b"], [{"a": 'say "hi"', "b": ""}, {"a": "x,y", "b": "1\n2"}]))
    def test_matches_csv_module_and_reads_back(self, table):
        names, rows = table
        text = _csv_text(names, rows)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        assert text == buf.getvalue()
        reader = csv.DictReader(io.StringIO(text, newline=""))
        assert reader.fieldnames == names
        assert list(reader) == [{name: str(row[name]) for name in names} for row in rows]

    def test_carriage_return_cell_is_quoted(self):
        # csv before Python 3.13 leaves this cell bare; the CLI's bytes do not
        # depend on the interpreter.
        assert _csv_text(["a", "b"], [{"a": "x\ry", "b": 1}]) == 'a,b\n"x\ry",1\n'


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

    @pytest.mark.parametrize("workers", ["0", "-3", "x"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3", "--alpha", "2", "--workers", workers,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert f"not a worker count >= 1: {workers!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_input_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ncg")
        rc = main(["verify", "--in", missing, "--out", str(tmp_path / "v.csv")])
        assert rc == 3
        assert f"invalid configuration: cannot read {missing}" in capsys.readouterr().err

    def test_input_with_byte_order_mark_is_read(self, tmp_path):
        path = tmp_path / "bom.ncg"
        path.write_bytes(b"\xef\xbb\xbf" + STAR3.encode())
        out = str(tmp_path / "v.csv")
        assert main(["verify", "--in", str(path), "--out", out]) == 0
        assert read_csv(out)[0]["is_nash"] == "true"

    def test_input_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.ncg"
        path.write_bytes(STAR3.encode() + b"buy 1 \xff\n")
        rc = main(["verify", "--in", str(path), "--out", str(tmp_path / "v.csv")])
        assert rc == 3
        assert f"invalid configuration: cannot read {path}: " in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "nodir" / "x.csv")
        rc = main(["optimum", "--n", "3", "--alpha", "2", "--out", out])
        assert rc == 3
        assert f"invalid configuration: cannot write {out}" in capsys.readouterr().err

    def test_unwritable_manifest_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        os.mkdir(out + ".manifest.json")
        rc = main(["optimum", "--n", "3", "--alpha", "2", "--out", out])
        assert rc == 3
        assert f"cannot write {out}.manifest.json" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is not available")
    @pytest.mark.parametrize("name", ["x.csv", "x.csv.manifest.json"])
    def test_output_that_is_not_a_regular_file_is_kept(self, tmp_path, capsys, name):
        # The rename would put a regular file in place of the FIFO.
        fifo = tmp_path / name
        os.mkfifo(fifo)
        rc = main(["optimum", "--n", "3", "--alpha", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert (f"invalid configuration: cannot write {fifo}: not a regular file"
                in capsys.readouterr().err)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_write_leaves_no_partial_or_temp_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "x.csv"
        out.write_text("old\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        rc = main(["optimum", "--n", "3", "--alpha", "2", "--out", str(out)])
        assert rc == 3
        assert f"cannot write {out}: No space left on device" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["x.csv"]
        monkeypatch.undo()
        assert main(["optimum", "--n", "3", "--alpha", "2", "--out", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.csv.manifest.json"]

    @pytest.mark.parametrize("argv", [
        ["--n", "21", "--alpha", "1", "--iters", "1", "--seed", "1"],
        ["--n", "24", "--alpha", "1/2", "--iters", "2", "--seed", "2"]])
    def test_search_size_guard_exit_code(self, tmp_path, capsys, argv):
        # Exact verification bounds search at n <= 20 before any descent,
        # whatever the seed and alpha.
        rc = main(["search", *argv, "--out", str(tmp_path / "s.csv")])
        assert rc == 5
        assert "n <= 20" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("mode", ["optimum", "dynamics"])
    def test_agent_count_bound_exit_code(self, tmp_path, capsys, mode):
        rc = main([mode, "--n", str(MAX_AGENTS + 1), "--alpha", "2",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 5
        assert f"n must be <= {MAX_AGENTS} agents" in capsys.readouterr().err

    def test_profile_agent_count_bound_exit_code(self, tmp_path, capsys):
        # The buy line is out of range for any n: the bound must fire first.
        text = f"ncg v1\nn {MAX_AGENTS + 1}\nalpha 1\nbuy 0 {MAX_AGENTS + 5}\n"
        rc = main(["verify", "--in", write(tmp_path, "big.ncg", text),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 5
        assert f"n must be <= {MAX_AGENTS} agents" in capsys.readouterr().err


class TestModeFlags:
    """A mode accepts only the flags it reads, plus --out and --workers."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--in", "p.ncg", "--alpha", "25"],
        ["audit", "--in", "p.ncg", "--alpha", "25"],
        ["enumerate", "--n", "3", "--alpha", "2", "--in", "x.ncg"],
        ["optimum", "--n", "3", "--alpha", "2", "--seed", "4"]])
    def test_flag_the_mode_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        write(tmp_path, "p.ncg", STAR3)
        argv = [str(tmp_path / a) if a.endswith(".ncg") else a for a in argv]
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_dynamics_with_profile_and_size_is_invalid(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(["dynamics", "--in", write(tmp_path, "p.ncg", STAR3),
                   "--n", "5", "--alpha", "25", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_schedule_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--n", "3", "--alpha", "2", "--schedule", "bogus",
                  "--out", str(tmp_path / "d.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def _bench_module(monkeypatch, name):
    """Import bench/<name>.py without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_job_argvs_parse(monkeypatch):
    # The benchmark's job lists are frozen: a change to the CLI's flags must
    # keep every one of them a valid command line.
    workloads = _bench_module(monkeypatch, "workloads")
    parser = build_parser()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for job in workloads.build(name, seed, 2)["jobs"]:
                try:
                    parser.parse_args(job["argv"])
                except SystemExit:
                    pytest.fail(f"{name} seed {seed}: {job['argv']} does not parse")


def test_benchmark_traced_names_resolve(monkeypatch):
    # A traced run wraps every TRACED name by attribute lookup, so renaming or
    # deleting one of these functions would fail every traced benchmark run.
    tracing = _bench_module(monkeypatch, "tracing")
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"ncg.{module}"), function, None)), name


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

    def test_enumerate_work_counts_independent_of_workers(self, tmp_path):
        stats = []
        for workers in (1, 2):
            out = tmp_path / f"e{workers}.csv"
            assert main(["enumerate", "--n", "4", "--alpha", "2",
                         "--workers", str(workers), "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"e{workers}.csv.manifest.json").read_text())
            stats.append(manifest["extra"]["stats"])
        assert stats[0] == stats[1]
        assert stats[0] == {"classes": 6, "content_checks": 58,
                            "orientations_tried": 80, "profiles_expanded": 120}

    @pytest.mark.parametrize("mode", ["enumerate", "poa", "search"])
    def test_enumerate_and_poa_run_in_process(self, tmp_path, monkeypatch, mode):
        serial = tmp_path / "w1.csv"
        assert main([mode, "--n", "5", "--alpha", "2", "--workers", "1",
                     "--out", str(serial)]) == 0

        def no_fork(method):
            raise AssertionError(f"{mode} asked for a {method} context")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        out = tmp_path / "w2.csv"
        assert main([mode, "--n", "5", "--alpha", "2", "--workers", "2",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == serial.read_bytes()

    def test_search_workers_byte_identical(self, tmp_path):
        outs = []
        for i, workers in enumerate([1, 4]):
            out = tmp_path / f"s{i}.csv"
            assert main(["search", "--n", "5", "--alpha", "1/2", "--seed", "11",
                         "--iters", "60", "--workers", str(workers),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_search_work_counts_independent_of_workers(self, tmp_path):
        stats = []
        for workers in (1, 2):
            out = tmp_path / f"s{workers}.csv"
            assert main(["search", "--n", "5", "--alpha", "1/2", "--seed", "11",
                         "--iters", "60", "--workers", str(workers),
                         "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"s{workers}.csv.manifest.json").read_text())
            stats.append(manifest["extra"]["stats"])
        assert stats[0] == stats[1]
        assert stats[0] == {"restarts": 60, "descent_moves": 143,
                            "candidates": 10, "exact_scans": 22}

    def test_dynamics_repeat_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"d{i}.csv"
            assert main(["dynamics", "--n", "4", "--alpha", "2", "--seed", "9",
                         "--schedule", "rand", "--budget", "200",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _count_code_and_price_calls(monkeypatch) -> dict:
    """Count ownership-code encodes and decodes, and equilibrium._price calls."""
    counts = {"code": 0, "price": 0}
    decode = StrategyProfile.from_ownership_code.__func__
    encode = StrategyProfile.ownership_code
    price = equilibrium._price

    def counted_decode(cls, n, code):
        counts["code"] += 1
        return decode(cls, n, code)

    def counted_encode(self):
        counts["code"] += 1
        return encode(self)

    def counted_price(*args):
        counts["price"] += 1
        return price(*args)

    monkeypatch.setattr(StrategyProfile, "from_ownership_code", classmethod(counted_decode))
    monkeypatch.setattr(StrategyProfile, "ownership_code", counted_encode)
    monkeypatch.setattr(equilibrium, "_price", counted_price)
    return counts


class TestNoCodeRoundTrip:
    """Enumeration and search hand their codes to the rows as they are:
    no profile is built from a code and encoded again."""

    @pytest.mark.parametrize("mode", ["enumerate", "poa"])
    def test_enumerate_and_poa(self, tmp_path, monkeypatch, mode):
        classes = len(equilibrium.enumerate_equilibria(GameConfig(5, Fraction(2))).canonical_forms)
        counts = _count_code_and_price_calls(monkeypatch)
        assert main([mode, "--n", "5", "--alpha", "2", "--out", str(tmp_path / "x.csv")]) == 0
        assert counts == {"code": 0, "price": classes}

    def test_search(self, tmp_path, monkeypatch):
        counts = _count_code_and_price_calls(monkeypatch)
        assert main(["search", "--n", "6", "--alpha", "1", "--iters", "40", "--seed", "3",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert read_csv(tmp_path / "x.csv")  # the run finds something to write
        assert counts["code"] == 0


def test_console_entry_point(tmp_path):
    out = tmp_path / "e.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ncg.cli", "enumerate", "--n", "3",
         "--alpha", "25", "--out", str(out)],
        capture_output=True, text=True, env=CHILD_ENV)
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
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
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


@pytest.mark.parametrize("mode, fields", [
    ("verify", {"input": "p.ncg", "n": 5, "alpha": Fraction(25)}),
    ("audit", {"input": "p.ncg", "agent": 1}),
    ("enumerate", {"n": 3, "alpha": Fraction(2), "seed": 4}),
    ("optimum", {"n": 3, "alpha": Fraction(2), "input": "p.ncg"}),
    ("audit", {"input": "p.ncg", "schedule": "uniform-random"})])
def test_run_rejects_fields_the_mode_does_not_read(tmp_path, capsys, mode, fields):
    # A verify run given n = 5 and alpha = 25 once wrote a row at the
    # profile's n and alpha while its manifest recorded 5 and 25.
    write(tmp_path, "p.ncg", STAR3)
    if "input" in fields:
        fields = {**fields, "input": str(tmp_path / "p.ncg")}
    out = tmp_path / "api.csv"
    cfg = ExperimentConfig(mode=mode, output=str(out), workers=2, **fields)
    with pytest.raises(ValueError, match="does not read"):
        run(cfg)
    assert exit_status(lambda: run(cfg)) == 3
    assert capsys.readouterr().err.startswith("invalid configuration: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "p.ncg"]


@pytest.mark.parametrize("argv, recorded", [
    (["enumerate", "--n", "3", "--alpha", "25"], {"n": 3, "alpha": "25", "workers": 1}),
    (["verify", "--in", "p.ncg", "--workers", "2"], {"input": "p.ncg", "workers": 2}),
    (["audit", "--in", "p.ncg", "--witnesses"],
     {"input": "p.ncg", "show_witnesses": True, "workers": 1}),
    (["dynamics", "--n", "3", "--alpha", "2", "--seed", "7"],
     {"n": 3, "alpha": "2", "input": None, "seed": 7, "schedule": "round-robin",
      "budget": 10_000, "workers": 1})])
def test_manifest_records_the_mode_fields(tmp_path, argv, recorded):
    write(tmp_path, "p.ncg", STAR3)
    at = lambda a: str(tmp_path / a) if a.endswith(".ncg") else a  # noqa: E731
    out = tmp_path / "x.csv"
    assert main([at(a) for a in argv] + ["--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert manifest["config"] == {k: at(v) if isinstance(v, str) else v
                                  for k, v in recorded.items()}


def test_profile_row_prices_formatted_once_per_class(tmp_path, monkeypatch):
    # Members of one class share a ProfilePrice, so the rows format alpha
    # once and a price's three formatted columns once per class.
    classes = len(equilibrium.enumerate_equilibria(GameConfig(5, Fraction(2))).canonical_forms)
    calls = []
    fmt = ncg.cli._fmt
    monkeypatch.setattr(ncg.cli, "_fmt", lambda v: calls.append(v) or fmt(v))
    out = tmp_path / "x.csv"
    assert main(["enumerate", "--n", "5", "--alpha", "2", "--out", str(out)]) == 0
    assert len(read_csv(out)) > classes
    assert len(calls) == 1 + 3 * classes + 2  # the manifest's worst and best cost


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


# Flag values for the contract test: valid ones at n <= 5 and malformed,
# out-of-range or oversized ones. None stands for a flag that takes no value.
_FLAG_VALUES = {
    "--n": ["1", "2", "3", "4", "5", "-1", "0", "x", str(MAX_AGENTS + 1)],
    "--alpha": ["1/2", "1", "2", "5/2", "25", "1/0", "abc", "0", "-1", "1e400", "1e-400"],
    "--workers": ["1", "2", "0", "-3"],
    "--seed": ["0", "7", "-3"],
    "--in": ["p.ncg", "p.ncg", "p.ncg", "missing.ncg", "."],
    "--agent": ["0", "1", "4", "-1", "9", "x"],
    "--budget": ["5", "-1", "0"],
    "--iters": ["1", "3", "0"],
    "--schedule": ["rr", "rand", "bogus"],
    "--witnesses": [None],
}
_BAD_LINES = ["buy 0 0", "buy 0 9", "buy 0", "n x", "n 0", "alpha 1/0",
              "alpha -1", "ncg v2", f"n {MAX_AGENTS + 1}", "buy 1 0", "alpha 1e400"]


# 2^1000 - 1 and its inverse: the largest numerator and denominator alpha may have.
_ALPHA_LIMITS = [str(2 ** 1000 - 1), f"1/{2 ** 1000 - 1}"]
_ALPHA_MODES = [["enumerate"], ["search", "--iters", "3"], ["poa"], ["optimum"],
                ["dynamics", "--budget", "5"]]
_PROFILE_MODES = [["verify"], ["best-response", "--agent", "0"], ["dynamics"], ["audit"]]


class TestAlphaBitBound:
    """An alpha past the bit bound is refused, not an OverflowError."""

    @pytest.mark.parametrize("mode", _ALPHA_MODES)
    @pytest.mark.parametrize("alpha", ["1e400", "1e-400"])
    def test_flag_exits_3(self, tmp_path, capsys, mode, alpha):
        out = str(tmp_path / "x.csv")
        assert main(mode + ["--n", "4", "--alpha", alpha, "--out", out]) == 3
        assert "at most 1000 bits" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mode", _PROFILE_MODES)
    def test_profile_line_exits_4(self, tmp_path, capsys, mode):
        path = write(tmp_path, "p.ncg", "ncg v1\nn 4\nalpha 1e400\nbuy 0 1\nbuy 2 3\n")
        assert main(mode + ["--in", path, "--out", str(tmp_path / "x.csv")]) == 4
        assert "line 3: alpha's numerator and denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", _ALPHA_LIMITS)
    def test_every_mode_runs_at_the_bound(self, tmp_path, alpha):
        # A disconnected profile: every agent's cost is INF plus alpha's part.
        path = write(tmp_path, "p.ncg", f"ncg v1\nn 4\nalpha {alpha}\nbuy 0 1\nbuy 2 3\n")
        out = str(tmp_path / "x.csv")
        for mode in _PROFILE_MODES:
            assert main(mode + ["--in", path, "--out", out]) == 0, mode
        for mode in _ALPHA_MODES:
            assert main(mode + ["--n", "4", "--alpha", alpha, "--out", out]) == 0, mode


def _flag(draw, flag):
    value = draw(st.sampled_from(_FLAG_VALUES[flag]))
    return [flag] if value is None else [flag, value]


@st.composite
def cli_calls(draw):
    """An argv for a random mode, the profile text behind its --in, and
    whether the argv carries a flag its mode does not read."""
    profile = draw(strategy_profiles(max_n=5))
    lines = serialize_profile(GameConfig(profile.n, draw(alphas)), profile).splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_BAD_LINES))]
    mode = draw(st.sampled_from(MODES))
    own = MODE_TABLE[mode].flags
    argv = [mode]
    for flag in own:
        if draw(st.integers(0, 7)):  # mostly present: few runs stop at a missing flag
            argv += _flag(draw, flag)
    if draw(st.booleans()):
        argv += _flag(draw, "--workers")
    stray = None
    if draw(st.integers(0, 3)) == 0:
        stray = draw(st.sampled_from([f for f in _FLAG_VALUES
                                      if f not in own and f != "--workers"]))
        argv += _flag(draw, stray)
    argv += ["--out", draw(st.sampled_from(["o.csv", "o.csv", "nodir/o.csv"]))]
    return argv, "\n".join(lines) + "\n", stray is not None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_calls())
def test_cli_contract_exit_codes(call):
    argv, text, stray = call
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "p.ncg"), "w") as fh:
            fh.write(text)
        argv = [os.path.join(tmp, a) if a.endswith((".ncg", ".csv")) or a == "."
                else a for a in argv]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        assert rc in (0, 2, 3, 4, 5), argv
        if stray:
            assert rc == 2, argv
