"""Arbitrary text into the three text parsers: only their own errors escape.

A parser may reject text with ``GraphTextError``, ``FamilySpecError`` or
``CapacityError``; any other exception is a bug in the parser.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tdgamelab import CapacityError, FamilySpecError, GraphTextError
from tdgamelab.families import _KINDS, family, parse_family_spec
from tdgamelab.graphio import parse_edgelist, parse_graph6

ALLOWED = (GraphTextError, FamilySpecError, CapacityError)

# Text near each format, so that draws get past the first check.
_numbers = st.integers(-3, 40).map(str) | st.text("0123456789-+_ ", max_size=6)
edgelist_text = st.text() | st.lists(
    st.lists(_numbers, max_size=3).map(" ".join), min_size=1, max_size=8
).map("\n".join)
_g6_bytes = st.characters(min_codepoint=60, max_codepoint=130)


def _g6_near_valid(n):
    """An order byte for n and about as many data bytes as it needs."""
    size = (n * (n - 1) // 2 + 5) // 6
    return st.text(_g6_bytes, min_size=max(size - 1, 0), max_size=size + 1).map(lambda data: chr(63 + n) + data)


graph6_text = (
    st.text()
    | st.text(_g6_bytes, max_size=60).map(">>graph6<<".__add__)
    | st.integers(0, 30).flatmap(_g6_near_valid)
)
_small = st.integers(-1, 30).map(str)
_params = st.lists(_small | _numbers | st.sampled_from(sorted(_KINDS)).map(lambda k: k + "4"), max_size=4)
family_text = st.text() | st.tuples(
    st.sampled_from(sorted(_KINDS) + ["", "Path", "nope"]),
    st.sampled_from([":", "", "::"]),
    _params.map(",".join) | _params.map("+".join),
).map("".join)


def _parse_or_reject(parse, text):
    try:
        parse(text)
    except ALLOWED:
        pass


@settings(max_examples=150, deadline=None)
@given(edgelist_text)
def test_edgelist_raises_only_its_own_errors(text):
    _parse_or_reject(parse_edgelist, text)


@settings(max_examples=150, deadline=None)
@given(graph6_text)
def test_graph6_raises_only_its_own_errors(text):
    _parse_or_reject(parse_graph6, text)


@settings(max_examples=150, deadline=None)
@given(family_text)
def test_family_spec_raises_only_its_own_errors(text):
    _parse_or_reject(lambda t: family(parse_family_spec(t)), text)
