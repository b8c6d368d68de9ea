"""Deterministic generators for the graph families used by the solvers.

Every family has a fixed canonical vertex numbering (hub first, then
branch-major order) so tests and policies can reference vertices stably,
plus a canonical text form used by the CLI, e.g. ``path:7``,
``cyclepower:7,2``, ``gk:2``, ``substar:4,3``, ``join:path4+path4``,
``corona:complete3``, ``union:path4+cycle3``.

Each kind lives in one row of the ``_KINDS`` table, which parsing,
validation, the text form and ``family`` all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .graph import SOLVER_CAP, CapacityError, Graph, VertexSet, bits, build_graph, distance


class FamilySpecError(ValueError):
    """Raised for unknown kinds, bad parameters, or malformed spec text."""


@dataclass(frozen=True)
class FamilySpec:
    """Parsed description of one family instance.

    ``n``/``k``/``t`` are used as each kind requires; ``parts`` holds the
    nested specs of ``join``, ``corona`` and ``union``.
    """

    kind: str
    n: int | None = None
    k: int | None = None
    t: int | None = None
    parts: tuple["FamilySpec", ...] = field(default=())

    def text(self) -> str:
        """Canonical text form (inverse of parse_family_spec)."""
        if _row(self.kind).params:
            return f"{self.kind}:" + ",".join(map(str, _values(self)))
        # Nested specs take the compact form: path4, not path:4.
        return f"{self.kind}:" + "+".join(p.text().replace(":", "") for p in self.parts)


def _row(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise FamilySpecError(f"unknown family kind {kind!r}")
    return _KINDS[kind]


def _values(spec: FamilySpec) -> list:
    return [getattr(spec, attr) for attr, _ in _KINDS[spec.kind].params]


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FamilySpecError(f"expected an integer parameter, got {token!r}") from None


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form of a family spec."""
    text = text.strip().lower()
    kind, sep, payload = text.partition(":")
    if not sep or not payload:
        raise FamilySpecError(f"malformed family spec {text!r} (expected kind:params)")
    params, tokens = _row(kind).params, payload.split(",")
    if not params:
        spec = FamilySpec(kind, parts=tuple(_parse_nested(tok) for tok in payload.split("+")))
    elif len(tokens) == len(params):
        spec = FamilySpec(kind, **{a: _parse_int(v) for (a, _), v in zip(params, tokens)})
    else:
        raise FamilySpecError(f"expected {kind}:{','.join(a for a, _ in params)}, got {text!r}")
    validate_spec(spec)
    return spec


def _parse_nested(token: str) -> FamilySpec:
    token = token.strip()
    kind = token.partition(":")[0] if ":" in token else token.rstrip("0123456789")
    payload = token[len(kind):].removeprefix(":")
    if kind not in _NESTABLE:
        raise FamilySpecError(f"nested spec {token!r} must be a simple kind like path4")
    if not payload:
        raise FamilySpecError(f"nested spec {token!r} is missing its parameter")
    return parse_family_spec(f"{kind}:{payload}")


def validate_spec(spec: FamilySpec) -> None:
    row = _row(spec.kind)
    for (attr, low), value in zip(row.params, _values(spec)):
        if value is None or value < low:
            raise FamilySpecError(f"{spec.kind} requires {attr} >= {low}, got {value}")
    for part in spec.parts:
        if part.kind not in _NESTABLE:
            raise FamilySpecError(
                f"only simple one-parameter kinds may nest inside composites, not {part.kind!r}"
            )
        validate_spec(part)
    fewest, most = row.nested
    if not fewest <= len(spec.parts) <= most:
        more = " or more" if most > fewest else ""
        raise FamilySpecError(f"{spec.kind} takes {fewest}{more} nested spec(s), got {len(spec.parts)}")


def family(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``; one too large fails before anything is built."""
    validate_spec(spec)
    _order(spec)
    G = _KINDS[spec.kind].build(*_values(spec), *map(family, spec.parts))
    return Graph(G.n, G.nbr, label=spec.text())


def _order(spec: FamilySpec) -> int:
    n = _KINDS[spec.kind].order(*_values(spec), *map(_order, spec.parts))
    if n > SOLVER_CAP:
        raise CapacityError(f"order {n} exceeds SOLVER_CAP = {SOLVER_CAP}")
    return n


def _numbered(kind: str, n: int, edges: list[tuple[int, int]]) -> Graph:
    return build_graph(n, edges, label=f"{kind}:{n}")


def path_graph(n: int) -> Graph:
    return _numbered("path", n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return _numbered("cycle", n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return _numbered("complete", n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(k: int) -> Graph:
    """Star K_{1,k}: hub 0, leaves 1..k."""
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)], label=f"star:{k}")


def graph_power(G: Graph, k: int) -> Graph:
    """k-th power: same vertices, adjacency whenever distance in G is <= k."""
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    if k == 1:
        return G
    edges = [(u, v) for u in range(G.n) for v in range(u + 1, G.n) if distance(G, u, v) <= k]
    return build_graph(G.n, edges, label=G.label)


def graph_join(G: Graph, H: Graph) -> Graph:
    """Disjoint union of G and H plus all edges between the two sides."""
    edges = G.edges() + [(u + G.n, v + G.n) for u, v in H.edges()]
    edges += [(u, v + G.n) for u in range(G.n) for v in range(H.n)]
    return build_graph(G.n + H.n, edges)


def corona(G: Graph) -> Graph:
    """Attach one new pendant leaf to every vertex of G."""
    edges = G.edges() + [(v, G.n + v) for v in range(G.n)]
    return build_graph(2 * G.n, edges)


def disjoint_union(graphs: list[Graph]) -> Graph:
    edges, offset = [], 0
    for G in graphs:
        edges += [(u + offset, v + offset) for u, v in G.edges()]
        offset += G.n
    return build_graph(offset, edges)


def gk_graph(k: int) -> Graph:
    """Chain of k copies of the join of two 4-paths.

    Block i occupies vertices 8i..8i+7: offsets 0..3 are the first path
    u,v,w,x and offsets 4..7 the second.  Within a block the two paths are
    fully joined (16 cross edges).  For k >= 2 the blocks are linked in a
    ring by the edges between offset 6 of block i and offset 2 of block
    i+1 (indices mod k); the k = 1 instance is a single unlinked block.
    """
    edges = []
    for i in range(k):
        base = 8 * i
        for side in (0, 4):
            edges += [(base + side + j, base + side + j + 1) for j in range(3)]
        edges += [(base + a, base + 4 + b) for a in range(4) for b in range(4)]
    if k >= 2:
        edges += [(8 * i + 6, 8 * ((i + 1) % k) + 2) for i in range(k)]
    return build_graph(8 * k, edges, label=f"gk:{k}")


def fk_graph(k: int) -> Graph:
    """Two k-cliques u_1..u_k and v_1..v_k joined by the matching u_i v_i, i < k.

    Vertices 0..k-1 are the u-clique, k..2k-1 the v-clique; the last pair
    u_k v_k is left unmatched.
    """
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges += [(i, k + i) for i in range(k - 1)]
    return build_graph(2 * k, edges, label=f"fk:{k}")


def bk_graph(k: int) -> Graph:
    """k triangles sharing one hub v, plus a pendant vertex u on v.

    Vertex 0 is the hub v (degree 2k+1), vertex 1 the leaf u, and triangle
    i occupies vertices 2+2i and 3+2i.
    """
    edges = [(0, 1)]
    for i in range(k):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return build_graph(2 * k + 2, edges, label=f"bk:{k}")


def jk_graph(k: int) -> Graph:
    """k four-cycles sharing one hub v, plus a pendant vertex u on v.

    Vertex 0 is the hub v, vertex 1 the leaf u; cycle i occupies vertices
    2+3i, 3+3i, 4+3i with 3+3i the vertex antipodal to the hub.
    """
    edges = [(0, 1)]
    for i in range(k):
        a, m, b = 2 + 3 * i, 3 + 3 * i, 4 + 3 * i
        edges += [(0, a), (a, m), (m, b), (b, 0)]
    return build_graph(3 * k + 2, edges, label=f"jk:{k}")


def subdivided_star(k: int, t: int) -> Graph:
    """Star K_{1,k} with every edge subdivided t times.

    Vertex 0 is the center; branch i occupies 1 + i(t+1) .. 1 + i(t+1) + t
    walking outward, so the last vertex of each branch is a leaf.
    """
    edges = []
    for i in range(k):
        base = 1 + i * (t + 1)
        edges.append((0, base))
        edges += [(base + j, base + j + 1) for j in range(t)]
    return build_graph(k * (t + 1) + 1, edges, label=f"substar:{k},{t}")


class _Kind(NamedTuple):
    # ``order`` and ``build`` take a plain kind's parameters in text order,
    # or a composite's nested orders or graphs.
    order: Callable[..., int]
    build: Callable[..., Graph]
    params: tuple[tuple[str, int], ...] = ()  # (attribute, minimum) in text order
    nested: tuple[int, float] = (0, 0)  # fewest and most nested specs


_KINDS: dict[str, _Kind] = {
    "path": _Kind(lambda n: n, path_graph, (("n", 2),)),
    "cycle": _Kind(lambda n: n, cycle_graph, (("n", 3),)),
    "complete": _Kind(lambda n: n, complete_graph, (("n", 1),)),
    "star": _Kind(lambda k: k + 1, star_graph, (("k", 1),)),
    "gk": _Kind(lambda k: 8 * k, gk_graph, (("k", 1),)),
    "fk": _Kind(lambda k: 2 * k, fk_graph, (("k", 5),)),
    "bk": _Kind(lambda k: 2 * k + 2, bk_graph, (("k", 1),)),
    "jk": _Kind(lambda k: 3 * k + 2, jk_graph, (("k", 1),)),
    "cyclepower": _Kind(lambda n, k: n, lambda n, k: graph_power(cycle_graph(n), k), (("n", 3), ("k", 1))),
    "substar": _Kind(lambda k, t: k * (t + 1) + 1, subdivided_star, (("k", 3), ("t", 1))),
    "join": _Kind(lambda a, b: a + b, graph_join, nested=(2, 2)),
    "corona": _Kind(lambda a: 2 * a, corona, nested=(1, 1)),
    "union": _Kind(lambda *ns: sum(ns), lambda *gs: disjoint_union(list(gs)), nested=(2, float("inf"))),
}
# Only one-parameter kinds nest inside composites.
_NESTABLE = {kind for kind, row in _KINDS.items() if len(row.params) == 1}


def support_vertices(G: Graph) -> VertexSet:
    """Vertices with at least one degree-1 neighbor."""
    mask = 0
    for v in range(G.n):
        if any(G.degree(u) == 1 for u in bits(G.nbr[v])):
            mask |= 1 << v
    return VertexSet(G.n, mask)


def leaves(G: Graph) -> VertexSet:
    return VertexSet.of(G.n, (v for v in range(G.n) if G.degree(v) == 1))
