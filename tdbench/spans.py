"""In-memory span tracer that wraps tdgamelab's public functions from outside.

The library source is never edited.  ``Tracer.install`` replaces a public
function in every tdgamelab module that binds it (``verify.gti`` as well as
``games.gti``), so calls the library makes to itself are seen too, and
``uninstall`` puts every original back.

Each span records name, start, end, parent and run id and is written out
only when the run ends.  Self time (a span's duration minus the time its
child spans cover) is accumulated per name while the run goes, so the
per-layer times plus the unattributed remainder add up to the traced time.
Calls too frequent to span are handled two ways: policy callbacks are
timed and counted under their parent span without a span record of their
own, and recursive ``IndicatedGameSolver.value`` entries are only counted.
The longest solve of each game function is also recorded, so
``measure_peaks`` can repeat it under tracemalloc once the timed pass is
over.
"""

from __future__ import annotations

import inspect
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

GAME_FUNCTIONS = ("gti", "gtg", "grundy_t", "best_response_length")
INVARIANT_FUNCTIONS = ("gamma_t", "upper_gamma_t", "ooir", "induced_matching_number")
POLICY = "strategies.policy"
VALUE_CALLS = "games.IndicatedGameSolver.value"


def _library_modules():
    return [m for name, m in sys.modules.items() if name == "tdgamelab" or name.startswith("tdgamelab.")]


class _Patches:
    """Replacements of module attributes, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def rebind(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` in every tdgamelab module that binds the same object."""
        original = getattr(owner, attr)
        for module in _library_modules():
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, replacement)

    def set(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans, self times and counters for one traced workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._child: list[float] = []
        self._patches = _Patches()
        self._longest: dict[str, tuple] = {}  # name -> (seconds, fn, args, kwargs)

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        index = len(self.spans)
        self.spans.append([name, start, None, self._open[-1] if self._open else -1])
        self._open.append(index)
        self._child.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.spans[index][2] = end
            self._open.pop()
            self._close(name, end - start, self._child.pop())

    def tally(self, name: str, fn, *args):
        """Time and count a call under the open span without a span record."""
        start = perf_counter()
        self._child.append(0.0)
        try:
            return fn(*args)
        finally:
            self._close(name, perf_counter() - start, self._child.pop())

    def _close(self, name: str, duration: float, child: float) -> None:
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._child:
            self._child[-1] += duration

    # -- wrapping --------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None, replay: bool = False) -> None:
        original = getattr(owner, attr)
        span = self.span
        longest = self._longest
        if inspect.isgeneratorfunction(original):

            def wrapper(*args, **kwargs):
                # One span per resumption, so consumer time between rows
                # is not charged to the generator.
                iterator = original(*args, **kwargs)
                while True:
                    try:
                        item = span(name, next, iterator)
                    except StopIteration:
                        return
                    yield item

        else:

            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = span(name, original, *args, **kwargs)
                elapsed = perf_counter() - start
                if replay and elapsed > longest.get(name, (0.0,))[0]:
                    longest[name] = (elapsed, original, args, kwargs)
                return after(result, args) if after else result

        for extra in ("cache_clear", "cache_info"):
            if hasattr(original, extra):
                setattr(wrapper, extra, getattr(original, extra))
        self._patches.rebind(owner, attr, wrapper)

    def _wrap_policy(self, policy):
        chooser = policy.chooser
        tally = self.tally
        return replace(policy, chooser=lambda *args: tally(POLICY, chooser, *args))

    def install(self, lib) -> None:
        """Wrap the public layer functions of the modules in ``lib``."""
        verify, games, strategies, graphio = lib.verify, lib.games, lib.strategies, lib.graphio
        counts = self.counts

        def count(key, measure):
            def after(result, args):
                counts[key] += measure(result, args)
                return result

            return after

        self._wrap(lib.families, "family", "families.family")
        for fn in INVARIANT_FUNCTIONS:
            self._wrap(lib.invariants, fn, f"invariants.{fn}")
        for fn in GAME_FUNCTIONS:
            self._wrap(games, fn, f"games.{fn}", replay=True)
        self._wrap(games, "play_game", "games.play_game")
        self._wrap(verify, "isolate_free_graphs", "verify.isolate_free_graphs",
                   count("verify.isolate_free_graphs.graphs", lambda r, a: len(r)))
        self._wrap(verify, "survey", "verify.survey")
        for fn in ("rows_to_csv", "rows_to_json_lines"):
            self._wrap(verify, fn, f"verify.{fn}", count("verify.sink.bytes", lambda r, a: len(r)))
        self._wrap(verify, "check_continuation", "verify.check_continuation",
                   count("verify.check_continuation.pairs", lambda r, a: r.pairs_checked))
        self._wrap(graphio, "serialize_graph6", "graphio.serialize_graph6",
                   count("graphio.bytes", lambda r, a: len(r)))
        self._wrap(graphio, "parse_graph6", "graphio.parse_graph6",
                   count("graphio.bytes", lambda r, a: len(a[0])))
        self._wrap(strategies, "staller_partition_policy", "strategies.staller_partition_policy",
                   lambda policy, args: self._wrap_policy(policy))
        # The path script is cheap to build; only its callbacks are timed.
        build_path_policy = strategies.dominator_path_policy
        self._patches.rebind(strategies, "dominator_path_policy",
                             lambda n: self._wrap_policy(build_path_policy(n)))

        solver = games.IndicatedGameSolver
        value = solver.value
        calls = self.calls

        def counted_value(instance, mask):
            calls[VALUE_CALLS] += 1
            return value(instance, mask)

        self._patches.set(solver, "value", counted_value)

    def measure_peaks(self) -> dict[str, float]:
        """Repeat each game function's longest solve under tracemalloc; its peak in MB.

        tracemalloc slows these solves down by up to 20 times, so only one
        solve per function is repeated, after the timed pass, and its cost
        shows in no time metric.
        """
        peaks: dict[str, float] = {}
        tracemalloc.start()
        try:
            for name, (_, fn, args, kwargs) in self._longest.items():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fn(*args, **kwargs)
                peaks[f"{name}.peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        return peaks

    def uninstall(self) -> None:
        self._patches.undo()

    # -- output ----------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """Write the run's spans as JSON lines, one header line first."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id, **meta}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent, self.run_id]) + "\n")
