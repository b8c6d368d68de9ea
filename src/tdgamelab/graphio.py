"""Graph ingestion and serialization: edgelist and graph6 text formats.

The edgelist format is the human-facing one: first line the order n, then
one ``u v`` pair per line, 0-based, with ``#`` comments allowed.  graph6 is
the standard 6-bit encoding used by the usual exhaustive-enumeration
toolchains, supported for interoperability with their output files.
"""

from __future__ import annotations

from .graph import SOLVER_CAP, CapacityError, Graph, build_graph

EDGELIST = "edgelist"
GRAPH6 = "graph6"
FORMATS = (EDGELIST, GRAPH6)

_G6_HEADER = ">>graph6<<"


class GraphTextError(ValueError):
    """Malformed graph payload text."""


def parse_edgelist(text: str) -> Graph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise GraphTextError("empty edgelist payload")
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphTextError(f"malformed order header {lines[0]!r}") from None
    if n < 0:
        raise GraphTextError("order must be non-negative")
    edges = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphTextError(f"malformed edge line {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphTextError(f"malformed edge line {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphTextError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise GraphTextError(f"self-loop at vertex {u}")
        edges.append((u, v))
    return build_graph(n, edges)


def serialize_edgelist(G: Graph) -> str:
    lines = [str(G.n)]
    lines += [f"{u} {v}" for u, v in G.edges()]
    return "\n".join(lines)


def parse_graph6(text: str) -> Graph:
    payload = text.strip()
    if payload.startswith(_G6_HEADER):
        payload = payload[len(_G6_HEADER):]
    if not payload:
        raise GraphTextError("empty graph6 payload")
    try:
        data = payload.encode("ascii")
    except UnicodeEncodeError:
        raise GraphTextError("graph6 payload is not ASCII text") from None
    if data[0] == 126:  # '~': multi-byte order encoding, always beyond our cap
        raise CapacityError(
            f"graph6 payload encodes an order >= 63, beyond SOLVER_CAP = {SOLVER_CAP}"
        )
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise GraphTextError(f"invalid graph6 order byte {data[0]}")
    if n > SOLVER_CAP:
        raise CapacityError(f"graph6 order {n} exceeds SOLVER_CAP = {SOLVER_CAP}")
    nbits = n * (n - 1) // 2
    expected_len = 1 + (nbits + 5) // 6
    if len(data) != expected_len:
        raise GraphTextError(
            f"graph6 length mismatch: got {len(data)} bytes, expected {expected_len} for order {n}"
        )
    stream = 0
    for byte in data[1:]:
        if not 63 <= byte <= 126:
            raise GraphTextError(f"invalid graph6 data byte {byte}")
        stream = stream << 6 | byte - 63
    pad = 6 * (expected_len - 1) - nbits
    if stream & ((1 << pad) - 1):
        raise GraphTextError("graph6 padding bits are not zero")
    stream >>= pad
    # The stream holds column v = 1, ..., n-1 in turn, each the bits of the
    # pairs (0, v), ..., (v-1, v) from the top down, so the lowest v bits
    # are the last column with (v-1, v) lowest.
    nbr = [0] * n
    for v in range(n - 1, 0, -1):
        column = stream & ((1 << v) - 1)
        stream >>= v
        below = 0
        while column:
            low = column & -column
            u = v - low.bit_length()
            below |= 1 << u
            nbr[u] |= 1 << v
            column ^= low
        nbr[v] |= below
    return Graph(n, tuple(nbr))


def serialize_graph6(G: Graph) -> str:
    n, nbr = G.n, G.nbr
    stream = 0
    for v in range(1, n):  # column v as parse_graph6 reads it: (0, v) highest
        below = nbr[v] & ((1 << v) - 1)
        stream <<= v
        while below:
            low = below & -below
            stream |= 1 << v - low.bit_length()
            below ^= low
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    stream <<= 6 * nbytes - nbits
    out = [n + 63]
    out += [(stream >> shift & 63) + 63 for shift in range(6 * nbytes - 6, -1, -6)]
    return bytes(out).decode("ascii")


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == EDGELIST:
        return parse_edgelist(text)
    if fmt == GRAPH6:
        return parse_graph6(text)
    raise GraphTextError(f"unknown graph format {fmt!r}")


def serialize_graph(G: Graph, fmt: str) -> str:
    if fmt == EDGELIST:
        return serialize_edgelist(G)
    if fmt == GRAPH6:
        return serialize_graph6(G)
    raise GraphTextError(f"unknown graph format {fmt!r}")


def iter_graph6_lines(text: str):
    """Yield one graph per non-empty line of a graph6 stream.

    A bad line raises the parser's own error type, with its line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except (GraphTextError, CapacityError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
