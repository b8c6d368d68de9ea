"""The rules of ``scripts/bench_pairs.py`` that judge a claimed gain, on hand-made entries."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
BYTES = {"name": "bytes", "better": "higher", "bound": 0.25}


def entry(parent, change, better_pairs, pairs=10):
    """A summary entry: each side's (q1, median, q3) and the pairs the change won."""
    quart = lambda q: dict(zip(("q1", "median", "q3"), q))
    return {"parent": quart(parent), "change": quart(change),
            "change_better_pairs": better_pairs, "pairs": pairs}


class TestQuartiles:
    def test_inclusive_method_on_five_values(self):
        assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}

    def test_interpolates_between_values(self):
        assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}

    def test_rounds_to_microseconds(self):
        assert bench_pairs.quartiles([0.1234564, 0.1234564]) == {
            "q1": 0.123456, "median": 0.123456, "q3": 0.123456}


class TestCounted:
    @pytest.mark.parametrize(
        "item, expected",
        [("subsets-deep:10", ("subsets-deep", 10)), ("positions", ("positions", 1)), ("survey7:3", ("survey7", 3))],
    )
    def test_name_and_pairs(self, item, expected):
        assert bench_pairs.counted(item) == expected

    def test_non_integer_pairs_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.counted("positions:ten")


class TestVerdict:
    def test_gain_needs_nine_of_ten_pairs(self):
        won = entry((0.019, 0.020, 0.021), (0.013, 0.014, 0.015), better_pairs=9)
        lost = entry((0.019, 0.020, 0.021), (0.013, 0.014, 0.015), better_pairs=8)
        assert bench_pairs.verdict(WALL, won)["gain"]
        assert not bench_pairs.verdict(WALL, lost)["gain"]

    def test_gain_scales_with_the_number_of_pairs(self):
        # Nine tenths of 3 pairs is 2.7, so all 3 must go to the change.
        parent, change = (0.019, 0.020, 0.021), (0.013, 0.014, 0.015)
        assert bench_pairs.verdict(WALL, entry(parent, change, 3, pairs=3))["gain"]
        assert not bench_pairs.verdict(WALL, entry(parent, change, 2, pairs=3))["gain"]

    def test_gain_needs_a_median_gap_beyond_the_parents_spread(self):
        # Parent q3 - q1 = 4: a gap of 4 is not enough, 4.5 is.  Whole
        # numbers keep the boundary exact in floating point.
        assert not bench_pairs.verdict(WALL, entry((18.0, 20.0, 22.0), (15.0, 16.0, 17.0), 10))["gain"]
        assert bench_pairs.verdict(WALL, entry((18.0, 20.0, 22.0), (15.0, 15.5, 17.0), 10))["gain"]

    def test_gain_reads_the_direction_of_the_metric(self):
        up = entry((100.0, 100.0, 100.0), (120.0, 120.0, 120.0), 10)
        assert bench_pairs.verdict(BYTES, up)["gain"]
        assert not bench_pairs.verdict(WALL, up)["gain"]

    def test_within_bound_allows_a_loss_up_to_the_bound(self):
        # bound 0.25 of a parent median 20 allows the change up to 25.
        assert bench_pairs.verdict(WALL, entry((20.0, 20.0, 20.0), (25.0, 25.0, 25.0), 0))["within_bound"]
        assert not bench_pairs.verdict(WALL, entry((20.0, 20.0, 20.0), (25.5, 25.5, 25.5), 0))["within_bound"]

    def test_within_bound_for_a_higher_is_better_metric(self):
        assert bench_pairs.verdict(BYTES, entry((100.0, 100.0, 100.0), (75.0, 75.0, 75.0), 0))["within_bound"]
        assert not bench_pairs.verdict(BYTES, entry((100.0, 100.0, 100.0), (74.0, 74.0, 74.0), 0))["within_bound"]

    def test_a_gain_is_within_bound(self):
        assert bench_pairs.verdict(WALL, entry((0.02, 0.02, 0.02), (0.01, 0.01, 0.01), 10)) == {
            "gain": True, "within_bound": True}


def test_summarize_counts_pairs_won_and_ties_for_neither_side():
    runs = [(0.020, 0.014), (0.021, 0.013), (0.019, 0.019), (0.020, 0.022)]
    pairs = [{side: {"metrics": {"wall_s": {"value": value}}} for side, value in zip(bench_pairs.SIDES, run)}
             for run in runs]
    summary = bench_pairs.summarize(pairs, [WALL])["wall_s"]
    assert (summary["change_better_pairs"], summary["pairs"]) == (2, 4)
    assert summary["parent"]["median"] == 0.02
    assert not summary["gain"]


def test_failures_are_counted_per_side():
    runs = [((0, 40), (1, 40)), ((2, 38), (0, 40)), ((0, 40), (3, 41))]
    pairs = [{side: {"failed": failed, "attempted": attempted}
              for side, (failed, attempted) in zip(bench_pairs.SIDES, run)} for run in runs]
    assert bench_pairs.failures(pairs) == {"parent": {"failed": 2, "attempted": 118},
                                           "change": {"failed": 4, "attempted": 121}}


def test_failures_of_no_pairs_are_zero():
    assert bench_pairs.failures([]) == {side: {"failed": 0, "attempted": 0} for side in bench_pairs.SIDES}


def fake_run(monkeypatch, returncode, stdout):
    """Make every ``subprocess.run`` in the script return ``stdout`` and ``returncode``."""
    done = subprocess.CompletedProcess([], returncode, stdout=stdout, stderr="boom\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kw: done)


def bench_exit(tmp_path) -> str:
    with pytest.raises(SystemExit) as exc:
        bench_pairs.bench(tmp_path, "positions", 7, 25, 0)
    message = str(exc.value.code)
    assert f"tdbench/run.py --workload positions --seed 7 --seconds 25 --trace 0 in {tmp_path} " in message
    return message


def test_bench_reads_the_info_and_result_lines(monkeypatch, tmp_path):
    fake_run(monkeypatch, 0, '{"python": "3.11"}\nprogress\n{"failed": 0}\n')
    assert bench_pairs.bench(tmp_path, "positions", 7, 25, 0) == ({"python": "3.11"}, {"failed": 0})


def test_a_failed_run_exits_with_its_stderr(monkeypatch, tmp_path):
    fake_run(monkeypatch, 3, '{"python": "3.11"}\n')
    assert bench_exit(tmp_path).endswith("exited with 3:\nboom\n")


@pytest.mark.parametrize(
    "stdout, bad",
    [('Traceback (most recent call last):\n{"failed": 0}\n', "Traceback (most recent call last):"),
     ('{"python": "3.11"}\n{"failed": 0, "metrics": \n', '{"failed": 0, "metrics":')],
)
def test_a_line_that_is_not_json_exits_naming_it(monkeypatch, tmp_path, stdout, bad):
    # A raw JSONDecodeError traceback would name neither the run nor the line.
    fake_run(monkeypatch, 0, stdout)
    assert bench_exit(tmp_path).endswith(f"printed a line that is not JSON:\n{bad}")


def usage_error(monkeypatch, tmp_path, capsys, items):
    """Run ``main`` on ``items``; it must exit 2 before any git call or clone.  Returns stderr."""
    workdir = tmp_path / "clones"
    argv = ["bench_pairs.py", "--parent", "HEAD", "--change", "HEAD", "--name", "unused", "--claim", "none",
            "--seed-base", "1", "--workdir", str(workdir), *items]
    monkeypatch.setattr("sys.argv", argv)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kw: pytest.fail(f"git {args} ran"))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert not workdir.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "items, named",
    [(["--workload", "positions:1"], "--workload positions:1"),
     (["--workload", "positions"], "--workload positions:1"),
     (["--workload", "positions:0"], "--workload positions:0"),
     (["--workload", "positions:-3"], "--workload positions:-3"),
     (["--workload", "positions:ten"], "'positions:ten'"),
     (["--workload", "positions:3", "--traced", "positions:0"], "--traced positions:0"),
     (["--workload", "positions:3", "--traced", "positions:-1"], "--traced positions:-1")],
)
def test_too_few_pairs_is_a_usage_error_before_any_clone(monkeypatch, tmp_path, capsys, items, named):
    assert named in usage_error(monkeypatch, tmp_path, capsys, items)


@pytest.mark.parametrize(
    "items, named",
    [(["--workload", "position:3"], "no such workload in BENCHMARK.json: --workload position"),
     (["--workload", "survey7:3", "--workload", "games_deep:3"], "BENCHMARK.json: --workload games_deep"),
     (["--workload", "survey7:3", "--traced", "survey:2"], "BENCHMARK.json: --traced survey"),
     (["--workload", "survey7:3", "--workload", "positions:2", "--workload", "survey7:4"],
      "workload given twice: --workload survey7"),
     (["--workload", "survey7:3", "--traced", "survey7:2", "--traced", "survey7"],
      "workload given twice: --traced survey7")],
)
def test_unknown_or_repeated_workload_is_a_usage_error_before_any_clone(monkeypatch, tmp_path, capsys, items, named):
    # Caught before cloning: a misspelt name would otherwise fail only after
    # the earlier workloads' runs, and a repeat would overwrite the first one's pairs.
    assert named in usage_error(monkeypatch, tmp_path, capsys, items)


def test_an_existing_output_is_a_usage_error_before_any_clone(monkeypatch, tmp_path, capsys):
    # Reusing a name would overwrite committed evidence; the later --name wins.
    existing = min(bench_pairs.ROOT.glob("BENCH_*.json"))
    name = existing.stem.removeprefix("BENCH_")
    before = existing.read_bytes()
    err = usage_error(monkeypatch, tmp_path, capsys, ["--workload", "positions:3", "--name", name])
    assert f"{existing.name} already exists" in err
    assert existing.read_bytes() == before
