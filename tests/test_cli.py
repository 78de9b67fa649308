import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multires
from multires import verify
from multires.cli import main
from multires.graph import parse_graph6
from multires.solver import INFINITE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_edges(capsys):
    code, out, _ = run(capsys, "gen", "cycle:4")
    assert code == 0
    assert out == "0 1\n0 3\n1 2\n2 3\n"


@pytest.mark.parametrize(
    "spec",
    [
        "path:2,3",
        "cycle:4,5",
        "complete:3,3",
        "star:2,2",
        "wheel:3,4",
        "gadget:3,3",
        "unicyclic:4,5/0",
    ],
)
def test_gen_rejects_a_wrong_count_of_numbers(capsys, spec):
    code, out, err = run(capsys, "gen", spec)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_graph6_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "wheel:6", "--format", "graph6")
    assert code == 0
    assert parse_graph6(out.strip()).n == 7


def test_compute_table(capsys):
    code, out, _ = run(capsys, "compute", "--gen", "cycle:6", "--variant", "lmd")
    assert code == 0
    assert "lmd" in out and " 1 " in out


def test_compute_json_all_variants(capsys):
    code, out, _ = run(
        capsys, "compute", "--gen", "complete:4", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    by_name = {r["variant"]: r for r in payload["results"]}
    assert by_name["lmd"]["value"] == "infinity"
    assert by_name["ldim_ms"]["value"] == 3


@pytest.mark.parametrize(
    "source", [pytest.param([], id="omitted"), pytest.param(["-"], id="dash")]
)
def test_compute_reads_stdin(capsys, monkeypatch, source):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n2 0\n"))
    code, out, _ = run(
        capsys, "compute", *source, "--variant", "ldim_ms", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 2


def test_compute_graph6_input(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Dhc\n")
    code, out, _ = run(
        capsys, "compute", str(path), "--format", "graph6",
        "--variant", "ldim_ms", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == 2


@pytest.mark.parametrize("fmt", ["edges", "graph6"])
def test_compute_non_utf8_input_is_input_error(capsys, tmp_path, fmt):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n\xff\n")
    code, out, err = run(capsys, "compute", str(path), "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err


@pytest.mark.parametrize("fmt", ["edges", "graph6"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_may_start_with_a_byte_order_mark(capsys, monkeypatch, tmp_path, fmt, source):
    # K_3 in each format, as a Windows editor saves it
    text = "\ufeff" + {"edges": "0 1\n1 2\n2 0\n", "graph6": "Bw\n"}[fmt]
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    source = [str(path)] if source == "file" else []
    code, out, err = run(
        capsys, "compute", *source, "--format", fmt, "--variant", "dim", "--output", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 3


@pytest.mark.parametrize("text", ["", " \n\n"])
def test_compute_empty_graph6_stdin_is_input_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "compute", "--format", "graph6")
    assert code == 1
    assert out == ""
    assert "empty graph6 input" in err


def test_compute_rejects_graph6_of_several_graphs(capsys, monkeypatch):
    # what `multires enumerate 3` writes: four graphs, one per line
    monkeypatch.setattr("sys.stdin", io.StringIO("Bo\nBg\nBW\nBw\n"))
    code, out, err = run(capsys, "compute", "--format", "graph6")
    assert (code, out) == (1, "")
    assert "graph6 input holds 4 lines" in err


@pytest.mark.parametrize("source", ["file", "-"])
def test_a_graph_file_with_gen_is_input_error(capsys, tmp_path, source):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    source = str(path) if source == "file" else source
    code, out, err = run(capsys, "compute", source, "--gen", "wheel:4")
    assert (code, out) == (1, "")
    assert "not both" in err


def test_certify_valid_and_invalid(capsys):
    code, out, _ = run(
        capsys, "certify", "--gen", "cycle:5",
        "--variant", "ldim_ms", "--witness", "0,1",
    )
    assert code == 0
    assert "valid: True" in out
    code, out, _ = run(
        capsys, "certify", "--gen", "cycle:5",
        "--variant", "lmd", "--witness", "0",
    )
    assert code == 3
    assert "violating pair" in out


def test_certify_rejects_bad_witness(capsys):
    code, _, err = run(
        capsys, "certify", "--gen", "cycle:5",
        "--variant", "lmd", "--witness", "0,9",
    )
    assert code == 1
    assert err == "error: witness vertices [9] out of range for n=5\n"
    code, _, err = run(
        capsys, "certify", "--gen", "cycle:5",
        "--variant", "lmd", "--witness", "0,x",
    )
    assert code == 1
    assert "bad witness" in err


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--gen", "wheel:6", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"]["lmd"]["value"] == 2
    # n = 31 is above the omega and chi caps: the table names each skipped bound
    code, out, _ = run(capsys, "bounds", "--gen", "wheel:30")
    assert code == 0
    assert out.count("skipped: ") == 3
    for bound in ("clique_log", "triple_k_end", "chromatic_gdchi"):
        assert f"skipped: {bound}: n=31 exceeds" in out


def test_verify_single_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "cycles")
    assert code == 0
    assert "cycles" in out and "pass" in out
    # a valid --n-max reaches the corpus check, one instance over n <= 4
    code, out, _ = run(capsys, "verify", "--theorem", "observation_chain", "--n-max", "4")
    assert code == 0
    assert "pass (1 instances)" in out


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "flat_earth")
    assert code == 1
    assert "unknown theorem" in err


def test_verify_reports_failure_exit_code(capsys):
    # faithful harness: the outer structure condition fails on odd wheels
    code, out, _ = run(capsys, "verify", "--theorem", "wheel_lemma_1or3")
    assert code == 3
    assert "FAIL" in out


def test_verify_table_shows_infinity_as_json_does(capsys, monkeypatch):
    closed_form = verify.closed_form

    def wrong(spec, variant):
        return INFINITE if str(spec) == "cycle:4" else closed_form(spec, variant)

    monkeypatch.setattr(verify, "closed_form", wrong)
    code, out, _ = run(capsys, "verify", "--theorem", "cycles")
    assert code == 3
    assert "expected infinity" in out and "inf," not in out


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 38
    assert all(parse_graph6(line).n == 4 for line in lines)


def test_a_closed_output_pipe_exits_0_quietly():
    # enumerate 6 writes about 190 KB, more than one pipe buffer holds, so
    # the command is still writing when the reader closes the pipe
    src = Path(multires.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "multires.cli", "enumerate", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert parse_graph6(proc.stdout.readline().decode()).n == 6
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_only_verify_loads_the_harness():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
from multires.cli import main
for argv in (
    ["compute", "--gen", "wheel:8", "--variant", "lmd"],
    ["bounds", "--gen", "wheel:300", "--output", "json"],
    ["certify", "--gen", "cycle:400", "--witness", "0,1", "--variant", "dim"],
):
    assert main(argv) == 0, argv
    assert "multires.verify" not in sys.modules, argv
"""
    src = Path(multires.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


def test_verify_corpus_above_the_cap_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "observation_chain", "--n-max", "9")
    assert code == 2
    assert out == ""
    assert "n=9 > cap=8" in err


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--gen", "complete:25")
    assert code == 2
    assert "cap" in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("MULTIRES_CAP", "4")
    code, _, err = run(capsys, "compute", "--gen", "cycle:5")
    assert code == 2
    monkeypatch.setenv("MULTIRES_CAP", "25")
    code, _, _ = run(capsys, "compute", "--gen", "cycle:5", "--variant", "ldim")
    assert code == 0


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "compute", "--gen", "wheel:8", "--variant", "lmd", "--budget", "3"
    )
    assert code == 2
    assert "inconclusive" in err


@pytest.mark.parametrize("variant", ["ldim", "lmd", "ldim_ms"])
def test_budget_zero_on_a_bipartite_graph_exits_2(capsys, variant):
    # {0} resolves every edge of a bipartite graph, but counting it needs a
    # budget of 1, as in the plain loop
    code, _, err = run(
        capsys, "compute", "--gen", "cycle:6", "--variant", variant, "--budget", "0"
    )
    assert code == 2
    assert "inconclusive" in err


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "gen", "hexagon:6")
    assert code == 1
    assert "unknown family" in err


def test_budget_zero_is_valid(capsys):
    # a structural certificate answers without examining any subset
    code, out, _ = run(
        capsys, "compute", "--gen", "complete:4", "--variant", "lmd", "--budget", "0"
    )
    assert code == 0
    assert "infinity" in out


def test_negative_budget_is_input_error(capsys):
    code, _, err = run(
        capsys, "compute", "--gen", "cycle:5", "--variant", "lmd", "--budget", "-1"
    )
    assert code == 1
    assert "subset_budget" in err


def test_env_cap_below_one_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("MULTIRES_CAP", "-1")
    code, _, err = run(capsys, "compute", "--gen", "cycle:5")
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("MULTIRES_CAP", "abc")
    code, _, err = run(capsys, "compute", "--gen", "cycle:5")
    assert code == 1
    assert "MULTIRES_CAP must be an integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "--gen", "cycle:5", "--variant", "foo"], "invalid choice"),
        (["compute", "--gen", "cycle:5", "--jobs", "2"], "unrecognized arguments"),
        (["verify", "--jobs", "2"], "unrecognized arguments"),
    ],
)
def test_usage_error_exit_code(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "--help"])
    assert info.value.code == 0
    assert "--jobs" not in capsys.readouterr().out


def test_verify_rejects_empty_corpus(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "infmd", "--n-max", "0")
    assert code == 1
    assert "n_max" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "flag, value, name, status",
    [
        pytest.param("--n-max", "0", "n_max", 1, id="--n-max-0-n_max"),
        pytest.param("--n-max", "9", "n=9 > cap=8", 2, id="--n-max-9-cap"),
    ],
)
def test_verify_rejects_out_of_range_sizes_without_corpus(capsys, flag, value, name, status):
    # cycles is a closed-form theorem: run_theorem checks the range itself,
    # for every theorem, before any work
    code, out, err = run(capsys, "verify", "--theorem", "cycles", flag, value)
    assert code == status
    assert out == ""
    assert name in err
