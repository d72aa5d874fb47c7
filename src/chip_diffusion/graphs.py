"""Simple undirected graphs, vertex subsets, generators, and domination predicates.

Vertices are 0-indexed integers. Subsets and neighbourhoods are bitmasks (bit
v set = vertex v in the set), which keeps the exhaustive-enumeration layers
down to popcounts and single-word logic. Graph and VertexSet are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "EdgeListParseError",
    "Graph",
    "VertexSet",
    "complete",
    "complete_bipartite",
    "complete_multipartite",
    "components_within",
    "cycle",
    "degree_into",
    "is_connected",
    "is_dominating",
    "is_efficient_dominating",
    "is_independent",
    "is_minimal_dominating",
    "parse_edge_list",
    "parse_graph_spec",
    "path",
]


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list text, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Simple finite undirected graph on vertices 0..n-1.

    No self-loops, no multi-edges. `edges` is a sorted tuple of (u, v) pairs
    with u < v; `nbr_masks[v]` is the neighbourhood of v as a bitmask.
    """

    __slots__ = ("n", "edges", "nbr_masks")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        self.n = n
        self.edges = tuple(sorted({_checked_edge(n, u, v) for u, v in pairs}))
        masks = [0] * n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.nbr_masks = tuple(masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        _check_vertex(self, v)
        return self.nbr_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return (self.nbr_masks[u] >> v) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class VertexSet:
    """Immutable subset of the vertices of an n-vertex graph, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside [0, {n})")
        self.n = n
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, vertices: Iterable[int]) -> VertexSet:
        mask = 0
        for v in vertices:
            if not (0 <= v < n):
                raise ValueError(f"vertex {v} outside [0, {n})")
            mask |= 1 << v
        return cls(n, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if (self.mask >> v) & 1)

    def complement(self) -> VertexSet:
        return VertexSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, members={list(self.members)})"


def _checked_edge(n: int, u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n) or not (0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
    return (u, v) if u < v else (v, u)


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} outside [0, {g.n})")


def _check_set(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError(f"subset is over {s.n} vertices but graph has {g.n}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: first line "n m", then m lines "u v".

    Indices are 0-based. Errors carry the offending 1-based line number.
    """
    return _read_edge_list(text)[1]()


def _read_edge_list(text: str) -> tuple[int, Callable[[], Graph]]:
    """The order of edge-list text and the call that builds its graph from
    the checked edges, without building it: nothing here grows with the
    header's n."""
    lines = text.splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines)]
    body = [(no, line) for no, line in rows if line]
    if not body:
        raise EdgeListParseError(1, "empty input, expected header 'n m'")
    no, header = body[0]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListParseError(no, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(no, f"expected integer header 'n m', got {header!r}") from None
    if n < 0 or m < 0:
        raise EdgeListParseError(no, f"negative counts in header {header!r}")
    if len(body) - 1 != m:
        raise EdgeListParseError(
            body[-1][0], f"header promises {m} edges but {len(body) - 1} edge lines found"
        )
    edges = set()
    for no, line in body[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(no, f"expected edge 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(no, f"expected integer endpoints, got {line!r}") from None
        try:
            edge = _checked_edge(n, u, v)
        except ValueError as e:
            raise EdgeListParseError(no, str(e)) from None
        if edge in edges:
            raise EdgeListParseError(no, f"edge ({u}, {v}) is listed twice")
        edges.add(edge)
    return n, partial(Graph, n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def path(n: int) -> Graph:
    """Path on n >= 1 vertices, labelled 0..n-1 along the path."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"part sizes must be >= 1, got ({a}, {b})")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph; vertices of part i come before part i+1."""
    sizes = list(parts)
    if not sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be >= 1, got {sizes}")
    n = sum(sizes)
    part_of = []
    for i, s in enumerate(sizes):
        part_of.extend([i] * s)
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if part_of[u] != part_of[v]
    ]
    return Graph(n, pairs)


def parse_graph_spec(spec: str) -> Graph:
    """Resolve generator spec strings: path:N, cycle:N, complete:N, kbip:A,B, kpartite:A,B,...."""
    return _read_graph_spec(spec)[1]()


def _read_graph_spec(spec: str) -> tuple[int, Callable[[], Graph]]:
    """The order of a generator spec and the call that builds its graph,
    without building it: the spec-side twin of _read_edge_list. Every kind's
    order is the sum of its arguments. A negative sum needs a negative
    argument, which every generator refuses before it allocates, so then
    build runs at once and its error names the argument."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad graph spec {spec!r}, expected 'kind:args'")
    try:
        nums = [int(x) for x in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"bad graph spec {spec!r}, non-integer argument") from None
    if kind in ("path", "cycle", "complete") and len(nums) == 1:
        build = partial({"path": path, "cycle": cycle, "complete": complete}[kind], nums[0])
    elif kind == "kbip" and len(nums) == 2:
        build = partial(complete_bipartite, *nums)
    elif kind == "kpartite" and len(nums) >= 1:
        build = partial(complete_multipartite, nums)
    else:
        raise ValueError(f"bad graph spec {spec!r}")
    n = sum(nums)
    if n < 0:
        build()
    return n, build


def _reach(masks: Sequence[int], start: int, within: int) -> int:
    """Mask of start and of the vertices reachable from it through vertices
    of within, in the graph whose neighbourhoods are masks."""
    seen = frontier = 1 << start
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        fresh = masks[v] & within & ~seen
        seen |= fresh
        frontier |= fresh
    return seen


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _reach(g.nbr_masks, 0, g.full_mask) == g.full_mask


def degree_into(g: Graph, v: int, s: VertexSet) -> int:
    """Number of neighbours of v that lie in s."""
    _check_set(g, s)
    _check_vertex(g, v)
    return (g.nbr_masks[v] & s.mask).bit_count()


def is_independent(g: Graph, s: VertexSet) -> bool:
    _check_set(g, s)
    m = s.mask
    return all(not (g.nbr_masks[v] & m) for v in range(g.n) if (m >> v) & 1)


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex is in s or adjacent to a vertex in s."""
    _check_set(g, s)
    return _dominating_mask(g, s.mask)


def _dominating_mask(g: Graph, mask: int) -> bool:
    covered = mask
    m = mask
    masks = g.nbr_masks
    while m:
        v = (m & -m).bit_length() - 1
        covered |= masks[v]
        m &= m - 1
    return covered == g.full_mask


def is_minimal_dominating(g: Graph, s: VertexSet) -> bool:
    """Dominating, and no single vertex can be dropped without losing domination."""
    _check_set(g, s)
    if not _dominating_mask(g, s.mask):
        return False
    m = s.mask
    while m:
        bit = m & -m
        if _dominating_mask(g, s.mask ^ bit):
            return False
        m &= m - 1
    return True


def is_efficient_dominating(g: Graph, s: VertexSet) -> bool:
    """Independent, and every outside vertex has exactly one neighbour in s (perfect code)."""
    _check_set(g, s)
    if not is_independent(g, s):
        return False
    m = s.mask
    return all(
        (g.nbr_masks[v] & m).bit_count() == 1 for v in range(g.n) if not (m >> v) & 1
    )


def components_within(g: Graph, s: VertexSet) -> list[VertexSet]:
    """Connected components of the subgraph induced by s, ordered by least vertex."""
    _check_set(g, s)
    remaining = s.mask
    out = []
    while remaining:
        comp = _reach(g.nbr_masks, (remaining & -remaining).bit_length() - 1, remaining)
        out.append(VertexSet(g.n, comp))
        remaining &= ~comp
    return out
