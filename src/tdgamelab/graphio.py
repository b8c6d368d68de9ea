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
    bits = []
    for byte in data[1:]:
        if not 63 <= byte <= 126:
            raise GraphTextError(f"invalid graph6 data byte {byte}")
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphTextError("graph6 padding bits are not zero")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return build_graph(n, edges)


def serialize_graph6(G: Graph) -> str:
    n = G.n
    out = [n + 63]
    bitstream = []
    for v in range(1, n):
        for u in range(v):
            bitstream.append(1 if G.nbr[u] >> v & 1 else 0)
    for i in range(0, len(bitstream), 6):
        chunk = bitstream[i : i + 6]
        chunk += [0] * (6 - len(chunk))
        value = 0
        for bit in chunk:
            value = value << 1 | bit
        out.append(value + 63)
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
