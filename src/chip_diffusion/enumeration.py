"""Exhaustive searches over subsets and over all labelled graphs of a given order.

Subset spaces are walked as integer masks; graph spaces as edge masks over the
C(n,2) vertex pairs in lexicographic order (bit i = i-th pair). Everything
here is exact enumeration with no sampling. The one pruning rule, complement
symmetry, cannot hide a witness or change a count:
  - the witness search: the perturbation of the complement V-H is the
    negation of the perturbation of H, and firing commutes with negation,
    fire(-c) = -fire(c). So the walks of H and V-H agree up to sign: same
    outcome, same first zero step, same cycle, same cap status.
  - the step-2 count: CCD is symmetric in H and V-H (its two edge conditions
    trade places), so H passes exactly when V-H does.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator

from .engine import _WALK_CAP, _WALK_ZERO, DEFAULT_MAX_STEPS
from .graphs import Graph, VertexSet, _dominating_mask, is_connected
from .quiescence import _ccd_mask, _check_enumerable, _perturbation_walk, _zero2_mask
from .quiescence import subsets_of_size

# 2^26 subsets is roughly a coffee break in pure Python; beyond that the scan
# stops being a usable oracle.
EXHAUSTIVE_COUNT_LIMIT = 26

CHECKPOINT_FLUSH_INTERVAL = 1 << 16
_CHUNK = 4096


class SearchStatus(Enum):
    NOT_FOUND = "not_found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchWitness:
    """A subset that restores zero eventually but not at step 2."""

    graph: Graph
    subset: VertexSet
    zero_step: int
    note: str


@dataclass(frozen=True)
class SearchProgress:
    n: int
    scanned: int
    total: int
    witnesses: int
    inconclusive: int


def count_zero2_subsets(g: Graph, include_trivial: bool = True) -> int:
    """Number of subsets that restore zero at step 2, counted via the CCD
    characterization (one structural check per subset instead of two firings).

    Only masks below 2^(n-1) are checked and the count is doubled: CCD is
    symmetric in H and V-H (swapping them swaps its two edge conditions), and
    complementing maps the lower half of the masks onto the upper half. On
    n = 0 the empty set is its own complement and is counted once.

    include_trivial=False drops the empty set and the full vertex set.
    """
    if g.n > EXHAUSTIVE_COUNT_LIMIT:
        raise ValueError(
            f"exhaustive count supports up to {EXHAUSTIVE_COUNT_LIMIT} vertices, got {g.n}"
        )
    half = (1 << g.n) >> 1
    count = 2 * sum(1 for h in range(half) if _ccd_mask(g, h)) if g.n else 1
    if not include_trivial:
        count -= len({0, g.full_mask})
    return count


def domination_number(g: Graph) -> int:
    """Exact domination number by ascending-size subset enumeration."""
    _check_enumerable(g)
    for k in range(g.n + 1):
        if any(_dominating_mask(g, s) for s in subsets_of_size(g.n, k)):
            return k
    raise AssertionError("unreachable: the full vertex set dominates")


def find_zero_not_zero2(
    g: Graph, max_steps: int = DEFAULT_MAX_STEPS
) -> SearchWitness | SearchStatus:
    """Scan all subsets in ascending mask order for one that is zero-invoking
    but not zero at step 2.

    Returns the first witness, NOT_FOUND after a clean exhaustive scan, or
    INCONCLUSIVE when some subset hit the step cap and none witnessed.

    Only masks below 2^(n-1) are walked: by complement symmetry (module
    docstring) a witness or capped subset with bit n-1 set has a complement
    of the same kind with a smaller mask, so the first witness and the
    INCONCLUSIVE verdict are unchanged. Subsets whose perturbation moves no
    chip are zero at step 0 and never witnesses.
    """
    _check_enumerable(g)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    capped = False
    for mask in range((1 << g.n) >> 1):
        t, kind, _, _ = _perturbation_walk(g, mask, max_steps)
        if kind == _WALK_CAP:
            capped = True
        elif kind == _WALK_ZERO and t >= 3:
            # Zero first recurs after step 2, so the step-2 configuration is
            # nonzero; re-check dynamically anyway before reporting.
            if _zero2_mask(g, mask):
                raise AssertionError("zero at step 2 contradicts first zero at step >= 3")
            return SearchWitness(
                graph=g,
                subset=VertexSet(g.n, mask),
                zero_step=t,
                note=f"zero restored at step {t}, nonzero at step 2",
            )
    return SearchStatus.INCONCLUSIVE if capped else SearchStatus.NOT_FOUND


def all_edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The C(n,2) vertex pairs in lexicographic order; bit i of an edge mask
    selects pair i."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def graph_from_edge_mask(
    n: int, mask: int, pairs: tuple[tuple[int, int], ...] | None = None
) -> Graph:
    if pairs is None:
        pairs = all_edge_pairs(n)
    return Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def all_graphs(n: int, connected_only: bool = False) -> Iterator[tuple[int, Graph]]:
    """Every labelled graph on n vertices as (edge_mask, Graph), ascending mask."""
    pairs = all_edge_pairs(n)
    for mask in range(1 << len(pairs)):
        g = graph_from_edge_mask(n, mask, pairs)
        if connected_only and not is_connected(g):
            continue
        yield mask, g


def canonical_edge_mask(g: Graph) -> int:
    """Least edge mask over all relabelings: a canonical form for isomorphism
    filtering. Cost grows as n!, intended for n <= 7."""
    if g.n > 7:
        raise ValueError(f"canonical form is factorial-time, refusing n={g.n} > 7")
    pairs = all_edge_pairs(g.n)
    index = {p: i for i, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(g.n)):
        m = 0
        for u, v in g.edges:
            a, b = perm[u], perm[v]
            m |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or m < best:
            best = m
    return best if best is not None else 0


def _read_checkpoint(path: Path, n: int) -> int:
    """Last completed edge mask recorded in the checkpoint, or -1 if none."""
    if not path.exists():
        return -1
    last = None
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            rec_n, rec_mask = int(parts[0]), int(parts[1])
        except (IndexError, ValueError):
            raise ValueError(
                f"checkpoint {path}, line {line_no}: expected 'n edge_mask', got {line!r}"
            ) from None
        if len(parts) != 2:
            raise ValueError(
                f"checkpoint {path}, line {line_no}: expected 'n edge_mask', got {line!r}"
            )
        if rec_n != n:
            raise ValueError(
                f"checkpoint {path}, line {line_no}: recorded n={rec_n} but searching n={n}"
            )
        last = rec_mask
    return -1 if last is None else last


def _scan_chunk(
    args: tuple, seen: set[int] | None = None
) -> tuple[list[tuple[int, int, int, str]], int]:
    """Search edge masks [start, stop), skipping canonical forms already in seen."""
    n, start, stop, connected_only, max_steps = args
    pairs = all_edge_pairs(n)
    found = []
    inconclusive = 0
    for mask in range(start, stop):
        g = graph_from_edge_mask(n, mask, pairs)
        if connected_only and not is_connected(g):
            continue
        if seen is not None:
            canon = canonical_edge_mask(g)
            if canon in seen:
                continue
            seen.add(canon)
        res = find_zero_not_zero2(g, max_steps)
        if isinstance(res, SearchWitness):
            found.append((mask, res.subset.mask, res.zero_step, res.note))
        elif res is SearchStatus.INCONCLUSIVE:
            inconclusive += 1
    return found, inconclusive


def search_all_graphs(
    n: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    reporter: Callable[[SearchProgress], None] | None = None,
    *,
    connected_only: bool = False,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    workers: int = 1,
    iso_filter: bool = False,
) -> Iterator[SearchWitness]:
    """Run find_zero_not_zero2 over every labelled graph on n vertices,
    yielding witnesses in ascending edge-mask order.

    The checkpoint file records "n edge_mask" lines (last completed mask),
    flushed every 2^16 graphs and on generator close, so an interrupted scan
    resumes where it stopped with identical combined output. iso_filter skips
    graphs isomorphic to one already scanned; it changes which labelled copies
    are visited, so it is incompatible with resume and with workers.
    """
    if n > 7:
        raise ValueError(f"graph census is 2^C(n,2), refusing n={n} > 7")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if iso_filter and (resume or checkpoint is not None or workers > 1):
        raise ValueError("iso_filter cannot be combined with checkpointing or workers")
    total = 1 << (n * (n - 1) // 2)
    start = 0
    ckpt_path = Path(checkpoint) if checkpoint is not None else None
    if resume:
        if ckpt_path is None:
            raise ValueError("resume requires a checkpoint path")
        start = _read_checkpoint(ckpt_path, n) + 1

    pairs = all_edge_pairs(n)
    scanned = start
    witnesses = 0
    inconclusive = 0
    last_done = start - 1
    next_flush = (start // CHECKPOINT_FLUSH_INTERVAL + 1) * CHECKPOINT_FLUSH_INTERVAL

    def _write_checkpoint():
        with open(ckpt_path, "a") as fh:
            fh.write(f"{n} {last_done}\n")
            fh.flush()
            os.fsync(fh.fileno())

    bounds = [(s, min(s + _CHUNK, total)) for s in range(start, total, _CHUNK)]
    args = [(n, s, e, connected_only, max_steps) for s, e in bounds]
    procs = min(workers, len(args))  # never more processes than chunks
    pool = None
    try:
        if procs > 1:
            import multiprocessing

            pool = multiprocessing.Pool(procs)
            results = pool.imap(_scan_chunk, args)
        else:
            seen = set() if iso_filter else None
            results = (_scan_chunk(a, seen) for a in args)
        for (s, e), (found, inc) in zip(bounds, results):
            inconclusive += inc
            for mask, subset_mask, zero_step, note in found:
                last_done = mask
                witnesses += 1
                yield SearchWitness(
                    graph=graph_from_edge_mask(n, mask, pairs),
                    subset=VertexSet(n, subset_mask),
                    zero_step=zero_step,
                    note=note,
                )
            last_done = e - 1
            scanned = e
            if ckpt_path is not None and scanned >= next_flush:
                _write_checkpoint()
                next_flush += CHECKPOINT_FLUSH_INTERVAL
            if reporter is not None:
                reporter(SearchProgress(n, scanned, total, witnesses, inconclusive))
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
        if ckpt_path is not None and last_done >= start:
            _write_checkpoint()
