"""Smoke tests of the experiment scripts, run in-process on small grids."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_rows(path):
    with open(path, newline="") as fh:
        return [",".join(row) for row in csv.reader(fh)]


def test_poa_scan_rows(tmp_path):
    out = tmp_path / "poa.csv"
    assert load_script("poa_scan").main(
        ["--n", "4", "--alpha", "1", "2", "--out", str(out)]) == 0
    assert csv_rows(out) == ["alpha,n,worst_eq_cost,opt_cost,poa,exhaustive",
                             "1,4,13,10,13/10,true",
                             "2,4,16,13,16/13,true"]


def test_tree_threshold_scan_rows(tmp_path):
    out = tmp_path / "scan.csv"
    assert load_script("tree_threshold_scan").main(
        ["--n-min", "3", "--n-max", "4", "--alpha", "1", "25", "--out", str(out)]) == 0
    assert csv_rows(out) == [
        "n,alpha,equilibria,tree_count,nontree_count,worst_cost,best_cost",
        "3,1,20,12,8,7,6", "3,25,12,12,0,55,55",
        "4,1,62,56,6,13,10", "4,25,56,56,0,85,82"]


@pytest.mark.parametrize("name", ["poa_scan", "tree_threshold_scan"])
def test_zero_denominator_alpha_is_usage_error(name, capsys):
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(["--alpha", "1/0"])
    assert exc.value.code == 2
    assert "not an exact rational: '1/0'" in capsys.readouterr().err


def test_poa_scan_n2_prints_no_regime(tmp_path, capsys):
    # The regime bounds 1/(n-2) and 2/(n-2) say nothing for n <= 2.
    out = tmp_path / "poa.csv"
    assert load_script("poa_scan").main(
        ["--n", "2", "--alpha", "1", "25", "--out", str(out)]) == 0
    assert csv_rows(out) == ["alpha,n,worst_eq_cost,opt_cost,poa,exhaustive",
                             "1,2,3,3,1,true", "25,2,27,27,1,true"]
    assert "expect" not in capsys.readouterr().out


@pytest.mark.parametrize("name", ["poa_scan", "tree_threshold_scan"])
@pytest.mark.parametrize("n, code, prefix", [("7", 5, "size guard: "),
                                             ("0", 3, "invalid configuration: ")])
def test_bad_size_exits_like_ncg(name, n, code, prefix, capsys):
    size = ["--n", n] if name == "poa_scan" else ["--n-min", n, "--n-max", n]
    assert load_script(name).main([*size, "--alpha", "2"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_poa_scan_empty_grid_writes_header_only(tmp_path):
    out = tmp_path / "poa.csv"
    assert load_script("poa_scan").main(["--n", "4", "--alpha", "--out", str(out)]) == 0
    assert csv_rows(out) == ["alpha,n,worst_eq_cost,opt_cost,poa,exhaustive"]


def test_tree_threshold_scan_empty_range_writes_header_only(tmp_path):
    out = tmp_path / "scan.csv"
    assert load_script("tree_threshold_scan").main(
        ["--n-min", "5", "--n-max", "4", "--out", str(out)]) == 0
    assert csv_rows(out) == [
        "n,alpha,equilibria,tree_count,nontree_count,worst_cost,best_cost"]


@pytest.mark.parametrize("name", ["poa_scan", "tree_threshold_scan"])
def test_unwritable_out_exits_like_ncg(name, tmp_path, capsys):
    size = ["--n", "3"] if name == "poa_scan" else ["--n-min", "3", "--n-max", "3"]
    out = tmp_path / "nodir" / "x.csv"
    assert load_script(name).main([*size, "--alpha", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and err.count("\n") == 1
    assert not (tmp_path / "nodir").exists()
