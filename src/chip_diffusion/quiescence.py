"""Perturbation from the all-zero configuration and the quiescence predicates.

A perturbation of a subset H makes every H-vertex send one chip to each
neighbour, wealth rules suspended; afterwards ordinary Diffusion resumes.
Step numbering follows the perturbation convention: step 0 is the all-zero
start, step 1 the post-perturbation configuration, and each later step one
Diffusion firing. Every perturbation walk goes through _perturbation_walk:
is_zero_invoking and pq, the step-2 check behind is_zero2_invoking, pq2 and
paths.check_endpoint_lemma, and the census in enumeration.

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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .engine import DEFAULT_MAX_STEPS, PeriodReport
from .engine import _WALK_CAP, _WALK_ZERO, _walk
from .graphs import Graph, VertexSet, _check_set

ENUMERATION_LIMIT = 63  # single-word subset masks


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


def perturb(g: Graph, h: VertexSet) -> tuple[int, ...]:
    """Configuration after the initial firing of h from the all-zero start:
    each h-vertex pays its degree, every vertex gains one chip per h-neighbour."""
    _check_set(g, h)
    return _perturb_mask(g, h.mask)


def _perturb_mask(g: Graph, mask: int) -> tuple[int, ...]:
    # P = -L 1_H: a vertex outside H gains one chip per neighbour in H, a
    # vertex in H loses one per neighbour outside H. The census calls this
    # once per walk; a list builds the tuple faster than a generator does.
    return tuple([
        -(nbrs & ~mask).bit_count() if (mask >> v) & 1 else (nbrs & mask).bit_count()
        for v, nbrs in enumerate(g.nbr_masks)
    ])


def is_ccd(g: Graph, h: VertexSet) -> bool:
    """Complementary component dominance, checked edge by edge."""
    _check_set(g, h)
    return _ccd_mask(g, h.mask)


def _ccd_mask(g: Graph, mask: int) -> bool:
    comp = g.full_mask ^ mask
    masks = g.nbr_masks
    for u, v in g.edges:
        u_in = (mask >> u) & 1
        if u_in != (mask >> v) & 1:
            continue
        if u_in:
            if (masks[u] & comp).bit_count() != (masks[v] & comp).bit_count():
                return False
        elif (masks[u] & mask).bit_count() != (masks[v] & mask).bit_count():
            return False
    return True


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
    return _zero_invoking_mask(g, h.mask, max_steps)


def _zero_invoking_mask(g: Graph, mask: int, max_steps: int) -> ZeroInvokingOutcome:
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    t, kind, before, last = _perturbation_walk(g, mask, max_steps)
    if kind == _WALK_CAP:
        return ZeroInvokingOutcome(ZeroStatus.CAP_EXCEEDED, step=None, report=None, trace_len=t)
    if kind == _WALK_ZERO:
        # t == 0: no chip ever moved; the trace is the zero start alone.
        return ZeroInvokingOutcome(
            ZeroStatus.REACHED_ZERO, step=t, report=None, trace_len=max(t, 1)
        )
    report = PeriodReport(
        preperiod=t - kind, period=kind, period_configs=(last, before)[:kind], steps_taken=t - 1
    )
    return ZeroInvokingOutcome(
        ZeroStatus.PERIOD_WITHOUT_ZERO, step=None, report=report, trace_len=t
    )


def _perturbation_walk(g: Graph, mask: int, max_steps: int) -> tuple:
    """The perturbation walk of one subset, in perturbation step numbering.

    Returns (t, kind, C_{t-1}, C_t) with kind as in engine._walk: t is the
    first all-zero step, the step that confirmed the cycle, or max_steps at
    the cap. t == 0 (kind _WALK_ZERO) marks a perturbation that moved no chip.
    C_{t-1} is None when t <= 1. Callers check max_steps >= 1.
    """
    c = _perturb_mask(g, mask)
    if not any(c):
        return 0, _WALK_ZERO, None, c
    # Step 1 is c, so the cap allows max_steps - 1 firings and firing k yields step k + 1.
    k, kind, before, last = _walk(g.edges, c, max_steps - 1, True)
    return k + 1, kind, before, last


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


def _check_enumerable(g: Graph) -> None:
    if g.n > ENUMERATION_LIMIT:
        raise ValueError(
            f"subset enumeration supports up to {ENUMERATION_LIMIT} vertices, got {g.n}"
        )


def pq2(g: Graph) -> int:
    """Size of the smallest nonempty subset that is zero again at step 2.

    Always defined: the full vertex set perturbs to a no-op. Enumerates by
    ascending subset size so the first witness ends the search.
    """
    _check_enumerable(g)
    if g.n == 0:
        raise ValueError("pq2 is undefined on the empty graph (no nonempty subsets)")
    for k in range(1, g.n + 1):
        for mask in subsets_of_size(g.n, k):
            if _zero2_mask(g, mask):
                return k
    raise AssertionError("unreachable: the full vertex set is always a witness")


def pq(g: Graph, max_steps: int = DEFAULT_MAX_STEPS) -> int | _Unknown:
    """Size of the smallest nonempty zero-invoking subset.

    Returns UNKNOWN when some smaller subset hit the step cap before a
    witness settled the minimum.
    """
    _check_enumerable(g)
    if g.n == 0:
        raise ValueError("pq is undefined on the empty graph (no nonempty subsets)")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    capped_below = False
    for k in range(1, g.n + 1):
        capped_here = False
        for mask in subsets_of_size(g.n, k):
            kind = _perturbation_walk(g, mask, max_steps)[1]
            if kind == _WALK_ZERO:
                return UNKNOWN if capped_below else k
            if kind == _WALK_CAP:
                capped_here = True
        capped_below = capped_below or capped_here
    raise AssertionError("unreachable: the full vertex set is always a witness")
