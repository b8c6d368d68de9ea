"""Command-line surface: subcommands, formats, and exit codes."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdgamelab
from tdgamelab import invariants, verify
from tdgamelab.cli import main
from tdgamelab.games import PolicyError
from tdgamelab.invariants import WitnessError


CLI = [sys.executable, "-m", "tdgamelab.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(tdgamelab.__file__).resolve().parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFamily:
    def test_path_edgelist(self, capsys):
        code, out, _ = run(capsys, "family", "path:4")
        assert code == 0
        assert out.strip() == "4\n0 1\n1 2\n2 3"

    def test_graph6_emit(self, capsys):
        code, out, _ = run(capsys, "family", "complete:3", "--emit", "graph6")
        assert code == 0
        assert out.strip() == "Bw"

    def test_bad_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "family", "nope:4")
        assert code == 2
        assert "unknown family kind" in err

    def test_capacity_exit_3(self, capsys):
        code, _, err = run(capsys, "family", "gk:4")
        assert code == 3

    @pytest.mark.parametrize("spec", ["path:100000000", "union:" + "+".join(["complete1"] * 27)])
    def test_oversized_spec_exit_3(self, capsys, spec):
        # The order comes from the spec, so nothing is built first.
        code, out, err = run(capsys, "family", spec)
        assert (code, out) == (3, "")
        assert "exceeds SOLVER_CAP" in err

    @pytest.mark.parametrize(
        "argv",
        [["family", "path:3"], ["invariant", "--graph", "path:4"], ["survey", "--exhaustive", "4"],
         ["verify", "paper", "--only", "5"], ["verify", "continuation", "--graph", "path:5"],
         ["trees", "--max", "5"]],
        ids=["family", "invariant", "survey", "verify paper", "verify continuation", "trees"],
    )
    def test_stdout_closed_at_start_exits_0(self, argv):
        # Python starts with sys.stdout = None when fd 1 is closed; every
        # command still succeeds quietly, whether it prints or writes rows.
        result = subprocess.run(
            CLI + argv, env=CLI_ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")


class TestInvariant:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "invariant", "--graph", "path:4", "--which", "gt")
        assert code == 0
        assert out.splitlines()[0].startswith("gt = 2")

    def test_all_json(self, capsys):
        code, out, _ = run(capsys, "invariant", "--graph", "bk:2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == {
            "gt": 2, "ugt": 2, "gti": 2, "gtg": 2, "grt": 6, "ooir": 4, "nui": 2,
        }

    def test_move_count_games_on_cycle_26(self, capsys):
        # C_26 is bipartite, so both games run over residual classes.
        code, out, err = run(capsys, "invariant", "--graph", "cycle:26", "--which", "gtg,grt")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["gtg = 17", "grt = 24"]

    def test_repeated_keys_are_reported_once(self, capsys):
        # Text and JSON list the same keys, each at its first place.
        code, out, _ = run(capsys, "invariant", "--graph", "path:4", "--which", "gti,gt,gti")
        assert code == 0
        assert out.splitlines() == ["gti = 2", "gt = 2  witness=[1, 2]"]
        code, out, _ = run(capsys, "invariant", "--graph", "path:4", "--which", "gti,gt,gti", "--json")
        assert code == 0
        assert json.loads(out)["values"] == {"gti": 2, "gt": 2}

    def test_declared_affects_gti(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--graph", "path:5", "--which", "gti",
            "--declared", "0,1,2,3,4",
        )
        assert code == 0
        assert "gti = 0" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(
            capsys, "invariant", "--file", str(path), "--format", "edgelist",
            "--which", "gti",
        )
        assert code == 0
        assert "gti = 2" in out

    def test_order_zero_graph(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        code, out, err = run(capsys, "invariant", "--file", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "gt = 0", "ugt = 0", "gti = 0", "gtg = 0", "grt = 0", "ooir = 0", "nui = 0",
        ]

    def test_unknown_invariant_exit_2(self, capsys):
        code, _, err = run(capsys, "invariant", "--graph", "path:4", "--which", "zz")
        assert code == 2

    def test_isolated_vertex_exit_3(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n")
        code, _, err = run(
            capsys, "invariant", "--file", str(path), "--which", "gti",
        )
        assert code == 3

    def test_usage_error_exit_2(self, capsys):
        assert main(["invariant"]) == 2

    @pytest.mark.parametrize("error", [WitnessError, PolicyError, AssertionError])
    def test_internal_error_exit_4(self, capsys, monkeypatch, error):
        def broken(G):
            raise error("injected")

        monkeypatch.setattr(verify, "upper_gamma_t", broken)
        code, out, err = run(capsys, "invariant", "--graph", "path:4", "--which", "ugt")
        assert code == 4
        assert out == ""
        assert err == "internal error: injected\n"

    def test_non_dominating_ugt_witness_exit_4(self, capsys, monkeypatch):
        # A table read returning {0}, which does not dominate P_4, is an
        # internal error (exit 4), not a usage error (exit 2).
        monkeypatch.setattr(invariants, "_table_optimum", lambda G, kind: (1, 1))
        code, out, err = run(capsys, "invariant", "--graph", "path:4", "--which", "ugt")
        assert code == 4
        assert out == ""
        assert err == "internal error: computed witness for upper_gamma_t failed revalidation\n"

    def test_non_dominating_ugt_search_witness_exit_4(self, capsys, monkeypatch):
        # The same from the search, which answers on path:8, above the table cap.
        monkeypatch.setattr(invariants, "_irredundant_optima", lambda G: ((1, 1), (1, 1)))
        code, out, err = run(capsys, "invariant", "--graph", "path:8", "--which", "ugt")
        assert code == 4
        assert out == ""
        assert err == "internal error: computed witness for upper_gamma_t failed revalidation\n"


class TestVerify:
    def test_paper_single_quick_criterion(self, capsys):
        code, out, _ = run(capsys, "verify", "paper", "--only", "5")
        assert code == 0
        assert "PASS" in out and "checks passed" in out

    @pytest.mark.parametrize("only", ["99", "5,99"])
    def test_paper_unknown_criterion_exit_2(self, capsys, only):
        code, out, err = run(capsys, "verify", "paper", "--only", only)
        assert code == 2
        assert out == ""
        assert "no claims for criterion 99" in err

    @pytest.mark.parametrize("only, token", [(",1", "''"), ("x", "'x'"), ("5,,6", "''"), ("5,1.5", "'1.5'")])
    def test_paper_malformed_only_exit_2(self, capsys, only, token):
        code, out, err = run(capsys, "verify", "paper", "--only", only)
        assert (code, out) == (2, "")
        assert err == f"error: malformed --only criterion {token} in {only!r}\n"

    def test_paper_error_row_exit_4(self, capsys, monkeypatch):
        real_claims = verify.paper_claims

        def with_broken_claim():
            claims = [c for c in real_claims() if c.criterion == 5][:2]
            broken = dataclasses.replace(claims[0], claim_id="broken", compute=lambda: 1 // 0)
            return [broken] + claims

        monkeypatch.setattr(verify, "paper_claims", with_broken_claim)
        code, out, _ = run(capsys, "verify", "paper")
        assert code == 4
        lines = out.splitlines()
        assert lines[0].startswith("[ERROR] broken ")
        assert "ZeroDivisionError" in lines[0]
        assert [line[:6] for line in lines[1:3]] == ["[PASS]", "[PASS]"]
        assert lines[3] == "2/3 checks passed, 1 raised an error"

    def test_continuation_clean_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "continuation", "--graph", "path:5")
        assert code == 0
        assert "0 violations" in out

    def test_continuation_sampled(self, capsys):
        code, out, _ = run(
            capsys, "verify", "continuation", "--graph", "cycle:6",
            "--samples", "100", "--seed", "4",
        )
        assert code == 0

    def test_continuation_exhaustive_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "continuation", "--graph", "path:5", "--exhaustive")
        assert code == 0
        assert "(exhaustive)" in out

    def test_continuation_modes_exclusive_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "verify", "continuation", "--graph", "path:5", "--exhaustive", "--samples", "5"
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_continuation_no_samples_exit_2(self, capsys, samples):
        code, out, err = run(
            capsys, "verify", "continuation", "--graph", "path:5", "--samples", samples
        )
        assert (code, out) == (2, "")
        assert "samples >= 1" in err

    def test_continuation_over_order_cap_exit_3(self, capsys):
        code, out, err = run(capsys, "verify", "continuation", "--graph", "path:9")
        assert (code, out) == (3, "")
        assert "exhaustive continuation checks are limited to n <= 7" in err

    def test_continuation_reports_violations(self, capsys, tmp_path):
        path = tmp_path / "paw.txt"
        path.write_text("4\n0 1\n0 2\n0 3\n1 2\n")
        code, out, _ = run(capsys, "verify", "continuation", "--file", str(path))
        assert code == 1
        assert "violated for A=" in out


class TestSurvey:
    def test_exhaustive_csv(self, capsys):
        code, out, _ = run(capsys, "survey", "--exhaustive", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("graph,n,gt,")
        assert len(lines) == 1 + 1 + 2 + 7

    def test_random_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code, _, _ = run(
            capsys, "survey", "--random", "5,0.5,3,7", "--emit", "json",
            "--out", str(out_path),
        )
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().strip().splitlines()]
        assert len(rows) == 3
        assert all(row["violations"] == [] for row in rows)

    def test_closed_stdout_exits_141_quietly(self):
        # The 4,000 rows after the header outgrow a pipe's 64 KiB buffer,
        # so a write fails once the reader has gone, whatever the timing.
        proc = subprocess.Popen(
            CLI + ["survey", "--random", "4,0.5,4000,0"], env=CLI_ENV,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"graph,n,gt,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_random_order_over_cap_exit_3(self, capsys):
        # Rejected before any edge is drawn, so this returns at once.
        code, out, err = run(capsys, "survey", "--random", "1000000,0.5,1,0")
        assert code == 3
        assert out == ""
        assert "exceeds SOLVER_CAP" in err

    def test_random_negative_count_exit_2(self, capsys):
        code, out, err = run(capsys, "survey", "--random", "5,0.5,-1,7")
        assert (code, out) == (2, "")
        assert "random corpus size must be >= 0" in err

    @pytest.mark.parametrize(
        "spec, code",
        [("1,0.5,3,7", 2), ("1,0.5,0,7", 2), ("27,0.5,0,7", 3),
         ("5,0,3,7", 2), ("5,0,0,7", 2), ("5,1.5,0,7", 2), ("5,nan,3,7", 2), ("5,1e-9,3,7", 2)],
    )
    def test_random_bad_arguments_no_output(self, capsys, spec, code):
        assert run(capsys, "survey", "--random", spec)[:2] == (code, "")

    def test_random_rows_stream_before_a_failure(self, capsys, monkeypatch):
        real_draw = verify.random_isolate_free_graph
        draws = []

        def counted(n, p, rng):
            draws.append(n)
            return real_draw(n, p, rng)

        def second_fails(graph_id, G):
            raise WitnessError("injected")

        monkeypatch.setattr(verify, "random_isolate_free_graph", counted)
        monkeypatch.setattr(verify, "survey_row", second_fails)
        code, out, _ = run(capsys, "survey", "--random", "5,0.5,1000,7")
        assert (code, out) == (4, verify.CSV_HEADER + "\n")
        assert len(draws) == 1  # the corpus is drawn as the rows are made

    @pytest.mark.parametrize("order", ["0", "-1", "8"])
    def test_exhaustive_order_out_of_range_exit_2(self, capsys, order):
        code, out, err = run(capsys, "survey", "--exhaustive", order)
        assert (code, out) == (2, "")
        assert err == "error: exhaustive enumeration supports 1 <= n <= 7\n"

    def test_exhaustive_order_1_is_empty(self, capsys):
        code, out, _ = run(capsys, "survey", "--exhaustive", "1")
        assert (code, out) == (0, verify.CSV_HEADER + "\n")

    def test_rows_stream_before_a_failure(self, capsys, monkeypatch, tmp_path):
        real_row = verify.survey_row
        seen = []

        def third_fails(graph_id, G):
            seen.append(graph_id)
            if len(seen) == 3:
                raise WitnessError("injected")
            return real_row(graph_id, G)

        monkeypatch.setattr(verify, "survey_row", third_fails)
        out_path = tmp_path / "rows.csv"
        code, _, err = run(capsys, "survey", "--exhaustive", "4", "--out", str(out_path))
        assert (code, err) == (4, "internal error: injected\n")
        lines = out_path.read_text().splitlines()
        assert lines[0] == verify.CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == seen[:2]

    def test_graph6_file_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        code, out, _ = run(capsys, "family", "path:4", "--emit", "graph6")
        corpus.write_text(out)
        code, out, _ = run(capsys, "survey", "--file", str(corpus), "--format", "graph6")
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestTrees:
    def test_enumeration_output(self, capsys):
        code, out, _ = run(capsys, "trees", "--max", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 1 + 2 + 3

    def test_enumeration_output_frozen(self, capsys):
        # Pins each tree's labelling and its place in the order: the i-th
        # graph6 line of order n is the tree labelled ``tree:n=<n>:i=<i>``.
        code, out, _ = run(capsys, "trees", "--max", "12")
        assert code == 0
        assert len(out.splitlines()) == 986
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "59860dccb2745c0509fb128d439a309490fd0e402efaacb6ab0cd0d5bf7d75a9"

    def test_probe_summary(self, capsys):
        code, out, _ = run(capsys, "trees", "--probe", "--max", "5")
        assert code == 0
        assert "no counterexample found up to n=5" in out

    @pytest.mark.parametrize("probe", [[], ["--probe"]])
    @pytest.mark.parametrize("order", ["1", "13"])
    def test_order_out_of_range_exit_2_before_output(self, capsys, order, probe):
        code, out, err = run(capsys, "trees", "--max", order, *probe)
        assert code == 2
        assert out == ""
        assert "--max must lie in 2..12" in err
