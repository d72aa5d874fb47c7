"""The census: a search over all labelled graphs of a given order.

Graph spaces are walked as edge masks over the C(n,2) vertex pairs in
lexicographic order (bit i = i-th pair). Everything here is exact enumeration
with no sampling, and no pruning rule can hide a witness or change a count or
a verdict.

Isomorphism, in the graph census: relabelling a graph by a permutation pi
maps each subset H to pi(H), and the walk of H to the walk of pi(H) with
its configurations relabelled. So the kind of verdict find_zero_not_zero2
returns (NOT_FOUND, INCONCLUSIVE or a witness) is the same for isomorphic
graphs, for every max_steps; its halving by the complement lemma (stated in
quiescence) keeps this. Only which witness comes first in mask order depends
on the labelling.

So the census computes no labelled graph's canonical form. It generates the
isomorphism classes of the order by vertex extension (_classes), decides each
class once, and expands only the witness and INCONCLUSIVE classes into their
labelled graphs, the n! relabellings of the class's canonical graph
(_relabellings). Every other edge mask is NOT_FOUND. Each witness graph is
searched again for its own first witness.

Vertex extension has one rule in both modes: every class one order down is
a parent, and only the children whose new vertex has the largest degree are
labelled; a connected child's new vertex must also be joined to every
component of its parent. Lemma (_classes): every class is still reached,
since degree is invariant under isomorphism, and deleting a vertex of
largest degree from a connected graph leaves a parent each of whose
components that vertex's neighbourhood meets."""

from __future__ import annotations

import functools
import itertools
import os
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .engine import DEFAULT_MAX_STEPS, _check_max_steps
from .graphs import Graph, VertexSet, components_within, is_connected
# count_zero2_subsets is unused here; perfbench names it enumeration.count_zero2_subsets.
from .quiescence import SearchStatus, SearchWitness, count_zero2_subsets, find_zero_not_zero2

__all__ = [
    "all_graphs",
    "graph_from_edge_mask",
    "search_all_graphs",
]

@dataclass(frozen=True)
class SearchProgress:
    """How far a search_all_graphs run has got: every edge mask below scanned
    is done, out of total, and witnesses and inconclusive count the graphs
    among those masks afresh at each position, so a resumed run reports what
    an uninterrupted one does."""

    n: int
    scanned: int
    total: int
    witnesses: int
    inconclusive: int


def all_edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The C(n,2) vertex pairs in lexicographic order; bit i of an edge mask
    selects pair i."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


@functools.cache
def _pair_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """bits[u][v] == bits[v][u]: the edge-mask bit of the pair {u, v} in
    all_edge_pairs(n); 0 on the diagonal."""
    bits = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(all_edge_pairs(n)):
        bits[u][v] = bits[v][u] = 1 << i
    return tuple(map(tuple, bits))


def graph_from_edge_mask(
    n: int, mask: int, pairs: tuple[tuple[int, int], ...] | None = None
) -> Graph:
    """The graph on n vertices whose edges are the pairs (all_edge_pairs(n)
    if None) selected by mask's bits; a mask with a bit past the last pair,
    or a negative one, is refused."""
    if pairs is None:
        pairs = all_edge_pairs(n)
    if mask < 0 or mask >> len(pairs):
        raise ValueError(f"edge mask {mask:#x} has bits outside [0, {len(pairs)})")
    return Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def all_graphs(n: int, connected_only: bool = False) -> Iterator[tuple[int, Graph]]:
    """Every labelled graph on n vertices as (edge_mask, Graph), ascending mask."""
    pairs = all_edge_pairs(n)
    for mask in range(1 << len(pairs)):
        g = graph_from_edge_mask(n, mask, pairs)
        if not connected_only or is_connected(g):
            yield mask, g


def canonical_edge_mask(g: Graph) -> int:
    """A canonical form: equal for two graphs exactly when they are isomorphic.

    Colour refinement plus backtracking, the idea behind nauty (McKay &
    Piperno, "Practical graph isomorphism II", 2014). An ordered partition of
    the vertices is refined until each cell is uniform in its vertices'
    neighbour counts into every cell (_refine); then each vertex of the first
    non-singleton cell is in turn split off into a cell of its own, and the
    result refined again, down to partitions into singletons. Every step
    depends only on the graph and the order of the cells, never on the labels,
    so relabelling the graph relabels the whole search tree. Each leaf orders
    the vertices; the result is the least edge mask of the graph relabelled by
    a leaf's order, so isomorphic graphs get the same least mask, and the mask
    is that of a graph isomorphic to g.

    One pruning rule: of two twins u, v in the cell being split (N(u) - v ==
    N(v) - u), only the first is split off. Swapping twins is an automorphism
    that fixes every vertex already split off, hence the current partition, so
    it maps the subtree under u onto the subtree under v, with the same
    relabelled graphs at its leaves.
    Without it, edgeless and complete graphs would have n! leaves.
    """
    n, nbrs = g.n, g.nbr_masks
    bits = _pair_bits(n)
    best = None
    stack = [_refine(nbrs, [g.full_mask] if n else [])]
    while stack:
        cells = stack.pop()
        for i, target in enumerate(cells):
            if target & (target - 1):
                break
        else:
            pos = [0] * n
            for i, cell in enumerate(cells):
                pos[cell.bit_length() - 1] = i
            m = 0
            for u, v in g.edges:
                m |= bits[pos[u]][pos[v]]
            if best is None or m < best:
                best = m
            continue
        head, tail = cells[:i], cells[i + 1:]
        tried = []
        rest = target
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if any(not (nbrs[u] ^ nbrs[v]) & ~(1 << u | bit) for u in tried):
                continue
            tried.append(v)
            stack.append(_refine(nbrs, head + [bit, target ^ bit] + tail))
    return best


def _refine(nbrs: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split the cells (vertex bitmasks, in order) until every vertex of a
    cell has the same number of neighbours in each cell. A cell that splits
    is replaced by its parts in ascending order of those counts."""
    while True:
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[tuple[int, ...], int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                rest ^= bit
                nb = nbrs[bit.bit_length() - 1]
                key = tuple([(nb & c).bit_count() for c in cells])
                parts[key] = parts.get(key, 0) | bit
            split += [parts[k] for k in sorted(parts)]
        if len(split) == len(cells):
            return cells
        cells = split


def _classes(n: int, connected_only: bool) -> list[int]:
    """The isomorphism classes of graphs on n vertices, connected ones only
    if connected_only, as ascending canonical edge masks.

    Vertex extension (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 1998): a child is a class of order n-1, connected or not,
    plus a new vertex x = n-1 joined to a neighbourhood, and the distinct
    canonical forms of the children are the classes. A child is labelled
    only if no vertex has a degree above x's; if connected_only, x's
    neighbourhood must also meet every component of the parent, which makes
    the child connected. Lemma: this still reaches every class. Degree is
    invariant under isomorphism, so take any graph of the class and a vertex
    v of largest degree. Deleting v leaves a graph isomorphic to a class P
    of order n-1, and if the graph is connected, N(v) meets every component
    of P. The child of P by the image of N(v) is isomorphic to the graph,
    with x in the place of v: x has the largest degree there, so the child
    is labelled. Children of one class from several parents still collapse
    in the set of forms.

    A parent vertex of degree t has degree t + 1 in the child if it is in
    the neighbourhood, t otherwise; so the vertices of degree above
    d = |nbhd| are at_least[d + 1] | at_least[d] & nbhd, where at_least[t]
    holds the parent's vertices of degree >= t."""
    if n <= 1:
        return [0]
    x = n - 1
    forms = set()
    for key in _classes(x, False):
        parent = graph_from_edge_mask(x, key)
        at_least = [
            sum(1 << v for v, m in enumerate(parent.nbr_masks) if m.bit_count() >= t)
            for t in range(n + 1)
        ]
        whole = VertexSet(x, parent.full_mask)
        parts = [c.mask for c in components_within(parent, whole)] if connected_only else []
        for nbhd in range(1 << x):
            d = nbhd.bit_count()
            if at_least[d + 1] | at_least[d] & nbhd or not all(nbhd & c for c in parts):
                continue
            joins = [(v, x) for v in range(x) if nbhd >> v & 1]
            forms.add(canonical_edge_mask(Graph(n, parent.edges + tuple(joins))))
    return sorted(forms)


def _relabellings(n: int, keys: list[int]) -> Iterator[int]:
    """Every edge mask on n vertices isomorphic to one of keys, the canonical
    masks of distinct classes: the distinct images of each key under the n!
    permutations of the vertices."""
    if not keys:  # the usual case: build no permutation table
        return
    pairs = all_edge_pairs(n)
    bits = _pair_bits(n)
    perms = list(itertools.permutations(range(n)))
    # images[i][j]: the bit of pair i under permutation j
    images = [[bits[p[u]][p[v]] for p in perms] for u, v in pairs]
    zero = [0] * len(perms)
    for key in keys:
        edges = [images[i] for i in range(len(pairs)) if key >> i & 1]
        yield from set(map(sum, zip(zero, *edges)))


def _record(run: tuple[int, int, bool], p: SearchProgress) -> str:
    """The checkpoint record of the search run = (n, max_steps,
    connected_only) at p: "search n max_steps connected_only witnesses
    inconclusive", then "n edge_mask", the last mask those counts cover."""
    n, max_steps, connected_only = run
    return (f"search {n} {max_steps} {int(connected_only)} {p.witnesses} {p.inconclusive}\n"
            f"{n} {p.scanned - 1}\n")


def _read_checkpoint(
    path: Path, run: tuple[int, int, bool], progress: Callable[[int], SearchProgress]
) -> int:
    """The next edge mask of the search run's checkpoint, which must hold
    exactly the bytes of _record(run, progress(m + 1)), m the last number on
    its last line. A missing file is an error: resuming from nothing would
    silently restart the scan."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ValueError(
            f"checkpoint {path} does not exist; drop --resume to start a new search"
        ) from None
    try:
        last = int(data.split()[-1])
    except (IndexError, ValueError):
        raise ValueError(
            f"checkpoint {path}: expected 'search n max_steps connected_only witnesses "
            f"inconclusive' then 'n edge_mask', got {data[:200]!r}"
        ) from None
    at = progress(last + 1)
    if data != (want := _record(run, at).encode()):
        raise ValueError(f"checkpoint {path} holds {data[:200]!r}, where this search "
                         f"would write {want!r}")
    if not 0 < at.scanned <= at.total:
        raise ValueError(f"checkpoint {path}: edge mask {last} is out of range")
    return at.scanned


def search_all_graphs(
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    reporter: Callable[[SearchProgress], None] | None = None,
    *,
    connected_only: bool = False,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    workers: int = 1,
) -> Iterator[SearchWitness]:
    """Run find_zero_not_zero2 over every labelled graph on n vertices,
    yielding witnesses in ascending edge-mask order. Each isomorphism class
    is decided once (module docstring); the witness classes' edge masks are
    kept, sorted, and each is searched again for its own first witness. The
    INCONCLUSIVE masks below a position are counted, never stored.

    Cost lemma. W = 0 at every cap for n <= 7, W the witness count, so the
    counting passes (one per witness, at the end and at a resume's start)
    cost O(U), U the INCONCLUSIVE mask count, not O(W * U). Proof: at the
    default cap the census of all graphs of order 7 finds no witness and no
    INCONCLUSIVE class (tests/test_cli.py). A witness at a smaller cap is one
    at the default cap; a witness at a larger cap would have been
    INCONCLUSIVE at the default cap, its walk capped there. Adding isolated
    vertices to a graph of order m < 7 leaves every walk unchanged, so a
    witness at order m would be one at order 7, and the connected census is
    part of the all-graphs one: this one pin covers every order and mode.

    n > 7 is refused. At the default cap, n = 8 would take about 1 s to
    generate the classes and 1 s to decide them; the limit guards the
    labelled view at low caps, where every class can be INCONCLUSIVE: at
    n = 8 and cap 1 each counting pass would relabel all 251,548,592
    connected labelled graphs.

    The run stops after each witness is consumed, at its mask + 1, and at the
    end, at total. Each stop atomically replaces the checkpoint's one record,
    "search n max_steps connected_only witnesses inconclusive", then
    "n edge_mask", the last mask those counts cover, and gives reporter the
    SearchProgress; closing the generator right after a witness saves only,
    and a failed save removes its ".tmp". A checkpoint naming a directory, or
    in a missing one, is refused before any work. resume continues from the
    record, so the output and the final SearchProgress equal an uninterrupted
    run's; it refuses a missing file and any file other than the record
    (_record) this search writes at the position on the file's last line.

    workers must be >= 1 and does not change the run: at n <= 7 deciding
    every class takes less time than generating them, so the census runs in
    one process. A pool belongs to a class-by-class census of orders past 7.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > 7:
        raise ValueError(
            f"refusing n={n} > 7: at a low cap every class can be INCONCLUSIVE, and each "
            f"counting pass would relabel every labelled graph of the order (at n = 8, "
            f"251,548,592 connected ones)"
        )
    _check_max_steps(max_steps)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ckpt_path = Path(checkpoint) if checkpoint is not None else None
    if resume and ckpt_path is None:
        raise ValueError("resume requires a checkpoint path")
    if ckpt_path is not None and ckpt_path.is_dir():
        raise ValueError(f"checkpoint {checkpoint} is a directory")
    if ckpt_path is not None and not ckpt_path.parent.is_dir():
        raise ValueError(f"checkpoint {checkpoint}: {ckpt_path.parent} is not a directory")
    total = 1 << (n * (n - 1) // 2)
    run = (n, max_steps, connected_only)
    keys = _classes(n, connected_only)
    verdicts = [find_zero_not_zero2(graph_from_edge_mask(n, k), max_steps) for k in keys]
    witness_keys = [k for k, v in zip(keys, verdicts) if isinstance(v, SearchWitness)]
    undecided_keys = [k for k, v in zip(keys, verdicts) if v is SearchStatus.INCONCLUSIVE]
    found = sorted(_relabellings(n, witness_keys))

    def progress(p: int) -> SearchProgress:
        undecided = sum(m < p for m in _relabellings(n, undecided_keys))
        return SearchProgress(n, p, total, bisect_left(found, p), undecided)

    def save(p: SearchProgress) -> None:
        if ckpt_path is None:
            return
        tmp = ckpt_path.with_name(ckpt_path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(_record(run, p))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, ckpt_path)
        finally:
            tmp.unlink(missing_ok=True)  # gone after a replace, left by a failure

    start = _read_checkpoint(ckpt_path, run, progress) if resume else 0
    at = None
    for mask in found[bisect_left(found, start):]:
        witness = find_zero_not_zero2(graph_from_edge_mask(n, mask), max_steps)
        at = progress(mask + 1)
        try:
            yield witness
        finally:
            save(at)
        if reporter is not None:
            reporter(at)
    if at is None or at.scanned < total:  # not stopped at total by a witness at total - 1
        at = progress(total)
        save(at)
        if reporter is not None:
            reporter(at)
