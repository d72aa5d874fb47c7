"""Perturbation from the all-zero configuration and the quiescence predicates.

A perturbation of a subset H makes every H-vertex send one chip to each
neighbour, wealth rules suspended; afterwards ordinary Diffusion resumes.
Step numbering follows the perturbation convention: step 0 is the all-zero
start, step 1 the post-perturbation configuration, and each later step one
Diffusion firing. Two kernels walk perturbations. _perturbation_walk walks
one subset and keeps its cycle's configurations; it serves is_zero_invoking
and the step-2 check behind is_zero2_invoking, and it is the independent
check of the other. _lane_walk walks many subsets at once, one lane of a big
int each, and serves the witness scans; its docstring holds the no-borrow
lemma that makes the lanes exact. The CCD block scans rest on one fact: a
subset is zero at step 2 exactly when it is CCD; is_ccd is their block
lemma at k = 0, the plain-edge rule (_plain_ccd) on every edge.

Every subset scan is here, one per order, each bounded by ENUMERATION_LIMIT
or EXHAUSTIVE_COUNT_LIMIT. The block scans test up to 2^CCD_BLOCK_BITS
subsets per kernel call, and their kernels are built from one plane layer:
the index planes (_index_planes) and a block's all-ones plane (_lane_ones),
each built once per (k, lane stride) and cached, and the membership planes
of a block (_member_planes), the one place that says which vertices a
block's masks hold. A block scan builds its one kernel with a factory
kernel_for(g, k), a closure that tests a block per call:
  _lower_half_blocks -- mask order: the _ccd_kernel blocks of the masks below
                        2^(n-1); count_zero2_subsets counts their bits, and
                        paths.check_endpoint_lemma reads them, walking nothing
  _least_size        -- ascending size: the smallest nonempty subset a block
                        kernel accepts; pq2 passes _ccd_kernel, and
                        domination_number _dominating_kernel; its size
                        planes are the exact-count planes (_exact_planes) of
                        the same index planes
  _lane_scan         -- the witness scan: _lane_walk on blocks of lanes in
                        order, for the first subset whose first zero is after
                        step 2; find_zero_not_zero2 passes the lower-half
                        blocks (_lower_half_lanes) and pq, in one scan, the
                        masks of each size below pq2 (_size_lanes), since pq
                        is pq2 unless a witness lies below it; each block
                        brings the builder of its planes, and the scan holds
                        the lane width, one bit wider after each guard trip

Predicates:
  is_zero2_invoking  -- zero again at step 2 (checked by actually firing; the
                        structural CCD characterization is kept separate so
                        the two can cross-validate each other)
  is_ccd             -- complementary component dominance: endpoints of any
                        edge inside H see equally many neighbours outside H,
                        and symmetrically for edges inside the complement
  is_zero_invoking   -- zero again at any step; exact negatives come from
                        period detection (the zero configuration is fixed, so
                        a cycle entered without zero can never reach it)

Complement lemma. Walk form: the perturbation of V-H is the negation of that
of H (P = -L 1_H and L 1_V = 0), and fire(-c) = -fire(c), so the walks of H
and V-H agree up to sign: same outcome, first zero step, cycle and cap
status. CCD form: swapping H and V-H swaps CCD's two edge conditions, so both
have the same verdict. Complementing maps the masks below 2^(n-1) onto the
rest, so a scan over subsets may test only that lower half.

Period-2 lemma. A perturbation walk that never reaches zero ends in a
2-cycle, never at a fixed point. P = -L 1_H sums to 0 on every component,
and a firing keeps each component's sum. Let fire(c) = c. A vertex holding
its component's maximum has no richer neighbour, so it gains no chip; as it
keeps its stack, it has no poorer neighbour either. By connectivity the
component is constant, and since its sum is 0, it is zero. So every
PERIOD_WITHOUT_ZERO outcome has period 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from .engine import DEFAULT_MAX_STEPS, PeriodReport
from .engine import _WALK_CAP, _WALK_ZERO, _check_max_steps, _period_report, _walk
from .graphs import Graph, VertexSet, _check_set

__all__ = [
    "UNKNOWN",
    "SearchStatus",
    "SearchWitness",
    "ZeroInvokingOutcome",
    "ZeroStatus",
    "count_zero2_subsets",
    "domination_number",
    "find_zero_not_zero2",
    "is_ccd",
    "is_zero2_invoking",
    "is_zero_invoking",
    "perturb",
    "pq",
    "pq2",
    "subsets_of_size",
]

# The largest orders that pq2, pq, domination_number and find_zero_not_zero2
# (ENUMERATION_LIMIT) and count_zero2_subsets and paths.check_endpoint_lemma
# (EXHAUSTIVE_COUNT_LIMIT) accept; the CLI checks a source's order against
# them before building the graph. They are what these scans accept, not
# orders whose scan is known to finish (2-core Xeon, CPython 3.11): pq, which
# walks every subset below pq2 in lanes, took 0.02-0.04, 0.17-0.30 and
# 1.8-2.1 s on path:18, 21 and 24, and find_zero_not_zero2 0.7-1.0 and
# 8.5-9.0 s on path:21 and 24, doubling per vertex; pq2 took 0.01-0.02 s on
# path:26 and 0.14-0.17 s on path:30, and domination_number 0.20-0.29 s on
# path:30, but both scan every block whose high part is smaller than their
# answer (21 on path:63); the count took 4-7 ms and the endpoint rule 7-12 ms
# for path:26, and the count 1.5-1.7 s for complete:26, doubling per vertex.
ENUMERATION_LIMIT = 63
EXHAUSTIVE_COUNT_LIMIT = 26
# The block scans and the lane walks test up to 2^CCD_BLOCK_BITS subsets per
# kernel call.
# Counting path:22, cycle:20, kbip:10,10, path:26 and complete:22 in one
# process (2-core Xeon, CPython 3.11, two runs) took 0.57-0.62 s at 10 bits,
# 0.10-0.11 s at 14, 0.09-0.10 s at 16 and 0.13-0.21 s at 18, with peak RSS
# 15, 15, 18 and 33 MB.
CCD_BLOCK_BITS = 14


class _Unknown:
    """Singleton for an exhaustive answer blocked by a step cap."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


class ZeroStatus(enum.Enum):
    REACHED_ZERO = "reached_zero"
    PERIOD_WITHOUT_ZERO = "period_without_zero"
    CAP_EXCEEDED = "cap_exceeded"


@dataclass(frozen=True)
class ZeroInvokingOutcome:
    """Result of simulating a perturbation until zero, a cycle, or the cap.

    step is the first all-zero step (REACHED_ZERO only); step 0 marks the
    degenerate case of a perturbation that moved no chips at all. report
    carries the detected cycle (PERIOD_WITHOUT_ZERO only), with preperiod in
    perturbation step numbering. trace_len is the last step index computed.
    """

    status: ZeroStatus
    step: int | None
    report: PeriodReport | None
    trace_len: int

    @property
    def reached_zero(self) -> bool:
        return self.status is ZeroStatus.REACHED_ZERO


class SearchStatus(enum.Enum):
    NOT_FOUND = "not_found"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SearchWitness:
    """A subset that restores zero eventually but not at step 2."""

    graph: Graph
    subset: VertexSet
    zero_step: int
    note: str


def perturb(g: Graph, h: VertexSet) -> tuple[int, ...]:
    """Configuration after the initial firing of h from the all-zero start:
    each h-vertex pays its degree, every vertex gains one chip per h-neighbour."""
    _check_set(g, h)
    return _perturb_mask(g, h.mask)


def _perturb_mask(g: Graph, mask: int) -> tuple[int, ...]:
    # P = -L 1_H: a vertex outside H gains one chip per neighbour in H, a
    # vertex in H loses one per neighbour outside H. perturb and the
    # one-subset walk (_perturbation_walk) call this once per subset; a list
    # builds the tuple faster than a generator does.
    return tuple([
        -(nbrs & ~mask).bit_count() if (mask >> v) & 1 else (nbrs & mask).bit_count()
        for v, nbrs in enumerate(g.nbr_masks)
    ])


def is_ccd(g: Graph, h: VertexSet) -> bool:
    """Complementary component dominance, checked edge by edge."""
    _check_set(g, h)
    return _ccd_mask(g, h.mask)


def _ccd_mask(g: Graph, mask: int) -> bool:
    # The block lemma at k = 0: no low vertex, so every edge is plain.
    return _plain_ccd(g.nbr_masks, g.edges, mask)


def _plain_ccd(masks: Sequence[int], edges: Iterable[tuple[int, int]], high: int) -> bool:
    """CCD on plain edges (both ends high, masks[w] = N(w)): each is inside
    high | j for every j or outside, so plain popcounts decide it."""
    for u, v in edges:
        u_in = (high >> u) & 1
        if u_in != (high >> v) & 1:
            continue
        if u_in:
            if (masks[u] & ~high).bit_count() != (masks[v] & ~high).bit_count():
                return False
        elif (masks[u] & high).bit_count() != (masks[v] & high).bit_count():
            return False
    return True


@cache
def _index_planes(k: int, stride: int) -> tuple[int, ...]:
    """X_0..X_{k-1} over the 2^k lanes of stride bits of a block: lane j of
    X_i holds bit i of j. With stride 1 these are the 2^k-bit ints whose bit
    j is bit i of j. Lane 2^(k-1) + j holds the bits of j and bit k - 1, so
    the table for k is two copies of the table for k - 1, the upper one
    with bit k - 1 set. Cached per (k, stride), k <= CCD_BLOCK_BITS."""
    if k == 0:
        return ()
    half = (1 << k - 1) * stride
    lower = _index_planes(k - 1, stride)
    return (*(x | x << half for x in lower), _lane_ones(1 << k - 1, stride) << half)


@cache
def _lane_ones(lanes: int, stride: int) -> int:
    """The int with a 1 in each of lanes lanes of stride bits, cached."""
    return ((1 << lanes * stride) - 1) // ((1 << stride) - 1)


def _member_planes(vertices: Iterable[int], k: int, high: int, b: int) -> list[int]:
    """The membership planes of vertices over the block of the 2^k masks
    high | j, j < 2^k, in lanes of b bits: lane j of vertex w's plane is 1
    when w is in high | j. A low vertex's plane is its index plane; a high
    vertex's is all ones or zero, as high holds it or not."""
    index, ones = _index_planes(k, b), _lane_ones(1 << k, b)
    return [index[w] if w < k else ones if high >> w & 1 else 0 for w in vertices]


def _exact_planes(m: int, k: int) -> list[int]:
    """Exact-count planes of a mask m of low vertices (m < 2^k): bit j of
    plane c is set when exactly c vertices of m are in j. Adding a vertex with
    index plane X moves each subset from count c to c + 1 where X is set."""
    full, index = _lane_ones(1 << k, 1), _index_planes(k, 1)
    exact = [full]
    while m:
        x = index[(m & -m).bit_length() - 1]
        m &= m - 1
        nx = full ^ x
        exact = [a & nx | b & x for a, b in zip(exact + [0], [0] + exact)]
    return exact


def _ccd_kernel(g: Graph, k: int) -> Callable[[int], int]:
    """The CCD kernel of a scan with k low bits, 0 <= k <= CCD_BLOCK_BITS:
    bit j of block(high) is set exactly when CCD holds for high | j, j < 2^k,
    where high has its low k bits clear. Built once per scan, it holds the
    scan's _UnequalPlanes memo, the OR of the interior edges' bad planes, the
    plain edges, the other edges as (u, v, N(u) & low, N(v) & low, deg u -
    deg v) and their ends; no state outlives its scan.

    Block lemma. For H = high | j, |N(u) & H| = K_u + a_u(j), where the
    constant K_u = |N(u) & high| is the same for the whole block and a_u(j) =
    |N(u) & j| counts u's neighbours among the k low vertices. An edge uv
    outside H passes when K_u + a_u == K_v + a_v, that is a_u - a_v ==
    K_v - K_u. An edge inside H passes when its endpoints have equally many
    neighbours outside H, deg u - K_u - a_u == deg v - K_v - a_v, which is
    the same test with deg u - deg v added to the wanted difference. So an
    edge costs a few big-int operations for the whole block, ANDed with the
    membership planes of its ends (_member_planes), and an edge whose
    endpoints have no low neighbour (both high) is plain: _plain_ccd decides
    it, first in every block. With k = 0 every edge is plain and the block
    is the single subset high; _ccd_mask is that case.

    Hoist lemmas, each the reason one piece of work is done once per scan
    (when the kernel is built) or once per block rather than once per edge:
    (a) the exact-count planes of a_u depend only on N(u) & low and k;
    (b) the unequal plane of a difference (bits j with a_u - a_v != want)
        depends only on (N(u) & low, N(v) & low, want), so blocks and twins
        share it;
    (c) an interior edge (both ends low, no high neighbour) has K_u = K_v = 0
        and index planes as membership planes in every block, so its bad
        plane is one plane for the scan;
    (d) a vertex's membership plane and K_u depend on the block, not on the
        edge, so each block computes them once per vertex.
    """
    full, low = _lane_ones(1 << k, 1), (1 << k) - 1
    masks = g.nbr_masks
    unequal = _UnequalPlanes(g, k)
    interior_bad, planed, plain = 0, [], []
    for u, v in g.edges:
        lu, lv = masks[u] & low, masks[v] & low
        offset = masks[u].bit_count() - masks[v].bit_count()
        if not (lu or lv):
            plain.append((u, v))
        elif v < k and (masks[u] | masks[v]) <= low:
            # Interior (u < v): both ends low, no high neighbour.
            in_u, in_v = _member_planes((u, v), k, 0, 1)
            interior_bad |= in_u & in_v & unequal[lu, lv, offset]
            interior_bad |= (full ^ (in_u | in_v)) & unequal[lu, lv, 0]
        else:
            planed.append((u, v, lu, lv, offset))
    ends = tuple(sorted({w for u, v, *_ in planed for w in (u, v)}))

    def block(high: int) -> int:
        # Plain edges go first: no big-int work, and they can reject the block.
        if not _plain_ccd(masks, plain, high):
            return 0
        bad = interior_bad
        inside = dict(zip(ends, _member_planes(ends, k, high, 1)))
        outer = {w: (masks[w] & high).bit_count() for w in ends}
        for u, v, lu, lv, offset in planed:
            in_u, in_v = inside[u], inside[v]
            want_out = outer[v] - outer[u]
            where = in_u & in_v
            if where:
                bad |= where & unequal[lu, lv, want_out + offset]
            where = full ^ (in_u | in_v)
            if where:
                bad |= where & unequal[lu, lv, want_out]
            if bad == full:
                return 0
        return full & ~bad

    return block


class _UnequalPlanes(dict):
    """The memo of one CCD block scan: (lu, lv, want) -> the plane whose bit j
    is set when a_u(j) - a_v(j) != want, where a_u(j) = |lu & j|, a_v(j) =
    |lv & j| and lu, lv are low neighbourhoods. The plane depends on nothing
    else, so it is computed from the exact-count planes of the low
    neighbourhoods, built with the memo, on the first lookup of its key and
    shared by every later block and edge."""

    def __init__(self, g: Graph, k: int):
        super().__init__()
        low = (1 << k) - 1
        self.full = _lane_ones(1 << k, 1)
        self.planes = {m: _exact_planes(m, k) for m in {nbrs & low for nbrs in g.nbr_masks}}

    def __missing__(self, key: tuple[int, int, int]) -> int:
        lu, lv, want = key
        cu, cv, equal = self.planes[lu], self.planes[lv], 0
        for c in range(max(0, want), min(len(cu), len(cv) + want)):
            equal |= cu[c] & cv[c - want]
        plane = self[key] = self.full ^ equal
        return plane


def _lower_half_blocks(g: Graph) -> Iterator[tuple[int, int, int]]:
    """The lower-half block scan: (high, k, block) for the blocks of 2^k
    consecutive masks below 2^(n-1), in mask order, k = min(CCD_BLOCK_BITS,
    n - 1), where block is the verdict of the scan's one _ccd_kernel(g, k).
    By the complement lemma these masks stand for every subset. n >= 1.
    """
    k, highs = _lower_half(g.n)
    kernel = _ccd_kernel(g, k)
    for high in highs:
        yield high, k, kernel(high)


def _lower_half(n: int) -> tuple[int, range]:
    """k = min(CCD_BLOCK_BITS, n - 1) and the high parts of the blocks of 2^k
    consecutive masks below 2^(n-1), in mask order; no block when n = 0."""
    k = min(CCD_BLOCK_BITS, max(n - 1, 0))
    return k, range(0, (1 << n) >> 1, 1 << k)


def count_zero2_subsets(g: Graph, include_trivial: bool = True) -> int:
    """Number of subsets that restore zero at step 2, counted via the CCD
    characterization (a structural check instead of two firings per subset).

    Only the masks below 2^(n-1) are tested, by the lower-half block scan;
    the complement lemma (CCD form) doubles the result. On n = 0 the empty
    set is its own complement and is counted once.

    include_trivial=False drops the empty set and the full vertex set.
    """
    _check_countable(g.n)
    count = 1
    if g.n:
        count = 2 * sum(block.bit_count() for _, _, block in _lower_half_blocks(g))
    if not include_trivial:
        count -= len({0, g.full_mask})
    return count


def _check_countable(n: int) -> None:
    if n > EXHAUSTIVE_COUNT_LIMIT:
        raise ValueError(
            f"exhaustive count supports up to {EXHAUSTIVE_COUNT_LIMIT} vertices, got {n}"
        )


def is_zero2_invoking(g: Graph, h: VertexSet) -> bool:
    """Zero again at step 2. Decided by firing, never via the CCD shortcut."""
    _check_set(g, h)
    return _zero2_mask(g, h.mask)


def _zero2_mask(g: Graph, mask: int) -> bool:
    # A walk capped at step 2 fires at most once, from step 1 to step 2; a
    # no-op perturbation ends at step 0, and zero stays zero.
    return _perturbation_walk(g, mask, 2)[1] == _WALK_ZERO


def is_zero_invoking(
    g: Graph, h: VertexSet, max_steps: int = DEFAULT_MAX_STEPS
) -> ZeroInvokingOutcome:
    """Simulate the perturbation of h until zero recurs, a cycle rules it out,
    or max_steps step indices are exhausted."""
    _check_set(g, h)
    _check_max_steps(max_steps)
    walk = _perturbation_walk(g, h.mask, max_steps)
    t, kind = walk[:2]
    if kind == _WALK_CAP:
        return ZeroInvokingOutcome(ZeroStatus.CAP_EXCEEDED, step=None, report=None, trace_len=t)
    if kind == _WALK_ZERO:
        # t == 0: no chip ever moved; the trace is the zero start alone.
        return ZeroInvokingOutcome(
            ZeroStatus.REACHED_ZERO, step=t, report=None, trace_len=max(t, 1)
        )
    return ZeroInvokingOutcome(
        ZeroStatus.PERIOD_WITHOUT_ZERO, step=None, report=_period_report(walk, t - 1), trace_len=t
    )


def _perturbation_walk(g: Graph, mask: int, max_steps: int) -> tuple:
    """The perturbation walk of one subset, in perturbation step numbering.

    Returns (t, kind, C_{t-1}, C_t) with kind as in engine._walk: t is the
    first all-zero step, the step that confirmed the cycle, or max_steps at
    the cap. t == 0 (kind _WALK_ZERO) marks a perturbation that moved no chip.
    C_{t-1} is None when t <= 1. Callers check max_steps (_check_max_steps).
    """
    c = _perturb_mask(g, mask)
    if not any(c):
        return 0, _WALK_ZERO, None, c
    # Step 1 is c, so the cap allows max_steps - 1 firings and firing k yields step k + 1.
    k, kind, before, last = _walk(g.edges, c, max_steps - 1, True)
    return k + 1, kind, before, last


def _lane_width(g: Graph) -> int:
    """B, the bits per lane of _lane_walk on g: bitlen(2 Delta) + 1, Delta
    the maximum degree."""
    return (2 * max((m.bit_count() for m in g.nbr_masks), default=0)).bit_length() + 1


def _lower_half_lanes(g: Graph) -> Iterator[tuple[Callable[[int], list[int]], range]]:
    """The lane blocks of the mask-order scan: (planes_of, masks) for each
    block of _lower_half, masks being the block's 2^k masks high | j in order
    and planes_of(b) the membership planes of all n vertices in lanes of b
    bits (_member_planes)."""
    k, highs = _lower_half(g.n)
    for high in highs:
        yield partial(_member_planes, range(g.n), k, high), range(high, high + (1 << k))


def _size_lanes(g: Graph, size: int) -> Iterator[tuple[Callable[[int], list[int]], list[int]]]:
    """The lane blocks of the masks of one size, in increasing order:
    (planes_of, masks) for chunks of at most 2^CCD_BLOCK_BITS masks, where
    planes_of(b) packs them in lanes of b bits (_mask_planes)."""
    masks = subsets_of_size(g.n, size)
    while chunk := list(islice(masks, 1 << CCD_BLOCK_BITS)):
        yield partial(_mask_planes, g.n, chunk), chunk


def _mask_planes(n: int, masks: Sequence[int], b: int) -> list[int]:
    """The membership planes of masks over n vertices in lanes of b bits:
    lane i of plane w holds bit w of masks[i]."""
    rows = [bytearray((len(masks) * b + 7) >> 3) for _ in range(n)]
    for i, m in enumerate(masks):
        byte, bit = i * b >> 3, 1 << (i * b & 7)
        while m:
            rows[(m & -m).bit_length() - 1][byte] |= bit
            m &= m - 1
    return [int.from_bytes(row, "little") for row in rows]


class _LaneOverflow(AssertionError):
    """A lane of _lane_walk held a stack outside its range. Raised before any
    lane decision is read from that configuration; _lane_scan catches it."""


def _lane_walk(g: Graph, planes: list[int], masks: Sequence, max_steps: int, b: int) -> tuple:
    """The lane-parallel perturbation walk: every lane of the membership
    planes walked at once, one big int per vertex.

    Lane i stands for the subset masks[i]; lane i of planes[w] is 1 when w
    is in it. Each vertex's stacks are one int of len(masks) lanes of b bits
    (_lane_width(g) or wider, so 2^(b-1) > Delta, the maximum degree),
    biased by the centre 2^(b-2) of the lane range (0 when b = 1). The start
    is linear in the planes: X_v = bias + sum over w in N(v) of I_w -
    deg(v) I_v, which is -L 1_H, the perturbation. Steps are numbered as in
    _perturbation_walk, so at most max_steps - 1 firings are made.

    Returns ((masks[i], t), live) for the lowest lane i whose first zero
    step t is 3 or later, else (None, live); live has the top bit of each
    lane still undecided when the walk stopped, so with no witness it holds
    the capped lanes. A lane is decided when it is zero (a no-op at step 1,
    zero at step 2, or a witness) or when C_t = C_{t-2}. There is no
    period-1 test: by the period-2 lemma a perturbation never reaches a
    nonzero fixed point. The walk stops once no live lane lies below its
    lowest witness, or no lane is live.

    Firing. The top bit of each lane is its guard bit, clear in every held
    stack. Lane-wise, (X_u | G) - X_v is 2^(b-1) + X_u - X_v, in (0, 2^b), so
    no lane borrows and the guard bit says X_u >= X_v. One firing costs a few
    big-int operations per edge, whatever the number of lanes. The per-lane
    tests OR the XORs of all vertices (with the bias for zero, with C_{t-2}
    for the cycle); adding 2^(b-1) - 1 in each lane sets the guard bit of the
    lanes that differ.

    No-borrow lemma. Perturbation stacks start in [-Delta, Delta]: a vertex
    outside H gains one chip per neighbour in H, one in H loses one per
    neighbour outside. A firing moves a stack by at most its degree, and the
    lanes hold [-2^(b-2), 2^(b-2) - 1], which contains [-Delta, Delta] at
    the default width, since there 2^(b-1) > 2 Delta. Python ints are exact,
    and lanes are read only between firings, so a firing is exact lane by
    lane whenever its result lies in that range. Perturbation walks do leave
    [-Delta, Delta]: on the 4-cube Q4 = C4 x C4 (vertex (i, j) numbered
    4i + j, Delta = 4) the walk of {0, 2, 3, 5, 6, 8} puts -5 on vertex 11 at
    step 4, and on P3, (1, 0, 1) fires to (0, 2, 0). So the kernel checks
    every configuration it holds. After the start or a firing, the lowest
    lane that left the range is within Delta < 2^(b-1) of a held value or
    of the bias, so its guard bit is set, and the walk raises _LaneOverflow
    rather than decide on a wrong stack; _lane_scan then re-runs the
    block one bit wider and keeps that width.
    """
    deg = [m.bit_count() for m in g.nbr_masks]
    ones = _lane_ones(len(masks), b)
    guard = ones << b - 1
    low, bias, shift = guard - ones, ((1 << b - 1) >> 1) * ones, b - 1
    edges = g.edges
    x = [bias - d * p for d, p in zip(deg, planes)]
    for u, v in edges:
        x[u] += planes[v]
        x[v] += planes[u]
    # x is C_t, and before and last are C_{t-2} and C_{t-1} once fired.
    live, before, last, witness = guard, None, None, None
    for t in range(1, max_steps + 1):
        if t > 1:
            if not live:
                break
            xg = [c | guard for c in x]
            acc = [0] * len(x)
            for u, v in edges:
                d = ((xg[v] - x[u]) & guard) - ((xg[u] - x[v]) & guard)
                acc[u] += d
                acc[v] -= d
            before, last, x = last, x, [c + (a >> shift) for c, a in zip(x, acc)]
        nonzero = 0
        for c in x:
            nonzero |= c ^ bias
        if nonzero & guard:
            raise _LaneOverflow("a perturbation stack left the lane range")
        zero = live & ~(nonzero + low)
        if zero and t >= 3:
            first = zero & -zero
            if witness is None or first < witness[0]:
                witness = first, t
        live ^= zero
        if before is not None:
            moved = 0
            for c, p in zip(x, before):
                moved |= c ^ p
            live &= moved + low
        if witness and not live & witness[0] - 1:
            break
    if witness is None:
        return None, live
    first, t = witness
    return (masks[(first.bit_length() - 1) // b], t), live


def _lane_scan(g: Graph, blocks: Iterable[tuple], max_steps: int) -> tuple:
    """The witness scan of find_zero_not_zero2 and pq: _lane_walk on each
    (planes_of, masks) block in order, on planes_of(b), the block's own
    planes in lanes of b bits. Returns (witness, capped): witness is the
    first (mask, zero step >= 3) or None; capped is None, or the mask of the
    lowest capped lane in the first block before the witness's that capped
    a lane. Each witness is re-checked by the CCD test, which holds exactly
    when step 2 is zero and shares no code with the walk.

    The scan holds the lane width b, from _lane_width(g). A block that trips
    the guard (_LaneOverflow) is walked again from the start one bit per
    lane wider, and b stays wider for the rest of the scan. Exact: a trip is
    seen before any lane decision is read from the bad configuration, and
    the re-run shares nothing with it. It ends, since a walk of at most
    max_steps steps holds bounded stacks."""
    b, capped = _lane_width(g), None
    for planes_of, masks in blocks:
        while True:
            try:
                witness, live = _lane_walk(g, planes_of(b), masks, max_steps, b)
                break
            except _LaneOverflow:
                b += 1
        if witness:
            if _ccd_mask(g, witness[0]):
                raise AssertionError("CCD holds (zero at step 2) but first zero is at step >= 3")
            return witness, capped
        if live and capped is None:
            capped = masks[((live & -live).bit_length() - 1) // b]
    return None, capped


def subsets_of_size(n: int, k: int) -> Iterator[int]:
    """All n-bit masks with exactly k bits set, in increasing numeric order
    (Gosper's hack)."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        low = m & -m
        ripple = m + low
        m = (((ripple ^ m) >> 2) // low) | ripple


def _check_enumerable(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"subset enumeration supports up to {ENUMERATION_LIMIT} vertices, got {n}"
        )


def _least_size(g: Graph, kernel_for: Callable[[Graph, int], Callable[[int], int]]) -> int:
    """The least-size block scan: the size of the smallest nonempty subset
    that a block kernel accepts. The scan chooses k once and builds its one
    kernel = kernel_for(g, k), where bit j of kernel(high) says whether
    high | j is accepted. The kernel must accept the full vertex set.

    Blocks have k = min(CCD_BLOCK_BITS, n) low bits, and their high parts go
    by ascending popcount p; the empty set, bit 0 of the p = 0 block, is
    cleared. A block's smallest subset has size p + c for the least popcount
    plane c that meets it (bit j of plane c is set when popcount(j) = c).
    Early stop: every mask in a block has popcount >= p and later blocks
    never have a smaller p, so no block with p >= best can lower best. best
    starts at n, the full vertex set. The popcount planes are the
    exact-count planes of all k low vertices, _exact_planes(2^k - 1, k).
    """
    k = min(CCD_BLOCK_BITS, g.n)
    kernel = kernel_for(g, k)
    best, sizes = g.n, _exact_planes((1 << k) - 1, k)
    for p in range(g.n - k + 1):
        if p >= best:
            break
        for high in subsets_of_size(g.n - k, p):
            block = kernel(high << k) & (-1 if high else -2)
            best = next((p + c for c, plane in enumerate(sizes[: best - p]) if block & plane), best)
    return best


def pq2(g: Graph) -> int:
    """Size of the smallest nonempty subset that is zero again at step 2.

    Such a subset is exactly a CCD one, the fact the count rests on too, so
    this is the least-size block scan with the CCD kernel (_ccd_kernel), and
    makes no walk. The full vertex set is always CCD.
    """
    _check_enumerable(g.n)
    if g.n == 0:
        raise ValueError("pq and pq2 are undefined on the empty graph (no nonempty subsets)")
    return _least_size(g, _ccd_kernel)


def pq(g: Graph, max_steps: int = DEFAULT_MAX_STEPS) -> int | _Unknown:
    """Size of the smallest nonempty zero-invoking subset: pq2, unless a
    smaller witness exists. Lemma: every CCD subset is zero at step 2, so
    pq <= pq2. A nonempty subset smaller than pq2 is not CCD (nor a no-op,
    which is CCD), so it is nonzero at steps 1 and 2: if zero-invoking, it is
    a witness. So only sizes 1 .. pq2 - 1 are walked, ascending, in one
    witness scan. UNKNOWN when a size below the answer had a capped subset:
    the scan's first capped lane has the least capped size. pq2 = 1 is
    exact at any cap.
    """
    _check_enumerable(g.n)
    _check_max_steps(max_steps)
    best = pq2(g)
    blocks = chain.from_iterable(_size_lanes(g, k) for k in range(1, best))
    witness, capped = _lane_scan(g, blocks, max_steps)
    size = witness[0].bit_count() if witness else best
    return UNKNOWN if capped is not None and capped.bit_count() < size else size


def _dominating_kernel(g: Graph, k: int) -> Callable[[int], int]:
    """The domination kernel of a scan with k low bits, by the block lemma of
    domination_number: bit j of block(high) is set exactly when high | j
    dominates g, where high has its low k bits clear, 0 <= k <= CCD_BLOCK_BITS."""
    full, low = _lane_ones(1 << k, 1), (1 << k) - 1
    closed = [nbrs | 1 << v for v, nbrs in enumerate(g.nbr_masks)]
    hits = [(c, full ^ _exact_planes(c & low, k)[0]) for c in closed]

    def block(high: int) -> int:
        accepted = full
        for c, hit in hits:
            if not c & high:
                accepted &= hit
        return accepted

    return block


def domination_number(g: Graph) -> int:
    """Exact domination number: the least-size block scan with the
    domination kernel (_dominating_kernel), 2^k subsets per call. The full
    vertex set dominates, and on n = 0 the answer is 0.

    Block lemma. H = high | j dominates v when the closed neighbourhood N[v]
    meets H. If N[v] meets high, v is dominated in the whole block.
    Otherwise v is dominated where j meets the low part of N[v], that is
    off its exact-count plane 0 (_exact_planes), v's hit plane; it
    does not depend on the block, so the scan builds it once. A subset
    dominates when every vertex is dominated, so the block is the AND over v.
    """
    _check_enumerable(g.n)
    return _least_size(g, _dominating_kernel)


def find_zero_not_zero2(
    g: Graph, max_steps: int = DEFAULT_MAX_STEPS
) -> SearchWitness | SearchStatus:
    """Scan all subsets in ascending mask order, by the witness scan, for one
    that is zero-invoking but not zero at step 2. Returns the first witness,
    NOT_FOUND after a clean exhaustive scan, or INCONCLUSIVE when some subset
    hit the step cap and none witnessed.

    Only masks below 2^(n-1) are walked: by the complement lemma (walk form),
    a witness or capped subset with bit n-1 set has a complement of the same
    kind with a smaller mask, so the first witness and the INCONCLUSIVE
    verdict are unchanged. Subsets whose perturbation moves no chip are zero
    at step 0 and never witnesses.
    """
    _check_enumerable(g.n)
    _check_max_steps(max_steps)
    witness, capped = _lane_scan(g, _lower_half_lanes(g), max_steps)
    if witness:
        mask, t = witness
        note = f"zero restored at step {t}, nonzero at step 2"
        return SearchWitness(g, VertexSet(g.n, mask), t, note)
    return SearchStatus.NOT_FOUND if capped is None else SearchStatus.INCONCLUSIVE
