"""The Diffusion firing rule and its trajectory analysis.

A configuration assigns an integer chip stack to every vertex. One firing step
moves, simultaneously on every edge, one chip from the richer endpoint to the
poorer endpoint; equal stacks exchange nothing. Stacks are plain Python ints,
so arithmetic can never wrap silently.

Configurations are tuples indexed by vertex. Every trajectory on a finite
graph enters a cycle of length 1 or 2; one walker, `_walk`, relies on that and
detects the cycle from a two-configuration window. `fire`, `run` and the
one-subset perturbation walk in `quiescence` go through it; the lane walks
there, which fire many subsets at once in one big int, do not. The
preperiod, however, has no known bound, so walks keep a step cap that turns a
would-be hang into a loud error or an explicit cap outcome.

Every function here is pure: inputs are never mutated, and simulations may
share Graph objects across threads or processes freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

from .graphs import Graph

__all__ = [
    "Arrow",
    "CapExceededError",
    "Configuration",
    "DEFAULT_MAX_STEPS",
    "Orientation",
    "PeriodReport",
    "fire",
    "induced_orientation",
    "is_zero_configuration",
    "run",
    "shift",
    "trace",
    "zero_preposition_from_orientation",
]

Configuration = tuple[int, ...]

# Engineering guard, not a theoretical bound: preperiod lengths are unbounded
# in general, but desk-scale inputs settle in far fewer steps.
DEFAULT_MAX_STEPS = 10_000


class Arrow(enum.IntEnum):
    """Direction of chip flow on an edge (u, v) with u < v."""

    TO_LOWER = -1   # chips flow v -> u
    FLAT = 0        # equal stacks, nothing moves
    TO_HIGHER = 1   # chips flow u -> v


@dataclass(frozen=True)
class Orientation:
    """One arrow per edge of graph, in graph.edges order. The flow rule: edge
    (a, b), a < b, carries a chip a -> b under TO_HIGHER, b -> a under
    TO_LOWER and none when FLAT; only _flows reads arrows this way."""

    graph: Graph
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(self.graph.edges) != len(self.arrows):
            raise ValueError("one arrow required per edge")
        # _flows tests arrows by identity, so a plain 1 must become TO_HIGHER;
        # a value that is no Arrow raises ValueError.
        object.__setattr__(self, "arrows", tuple(map(Arrow, self.arrows)))

    def arrow(self, u: int, v: int) -> Arrow:
        """Arrow on edge {u, v}, normalized to the (min, max) key."""
        key = (u, v) if u < v else (v, u)
        try:
            return self.arrows[self.graph.edges.index(key)]
        except ValueError:
            raise ValueError(f"({u}, {v}) is not an edge") from None

    def _flows(self) -> Iterator[tuple[int, int]]:
        """(tail, head) of every edge that carries a chip, by the flow rule."""
        for (a, b), arrow in zip(self.graph.edges, self.arrows):
            if arrow is Arrow.TO_HIGHER:
                yield a, b
            elif arrow is Arrow.TO_LOWER:
                yield b, a

    def out_degree(self, v: int) -> int:
        return sum(tail == v for tail, _ in self._flows())

    def in_degree(self, v: int) -> int:
        return sum(head == v for _, head in self._flows())


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of running a trajectory to its cycle.

    preperiod is the least N with C_t = C_{t+period} for all t >= N; period is
    1 or 2; period_configs lists C_N (and C_{N+1} when period is 2);
    steps_taken counts the firings performed before the cycle was confirmed.
    """

    preperiod: int
    period: int
    period_configs: tuple[Configuration, ...]
    steps_taken: int


class CapExceededError(RuntimeError):
    """No cycle confirmed within the step cap. tail is (C_{cap-1}, C_cap), the
    last two configurations: the pair the cycle test compared last. trace
    gives any longer window."""

    def __init__(self, steps_taken: int, tail: tuple[Configuration, ...]):
        super().__init__(
            f"no period found within {steps_taken} steps "
            f"(theory guarantees one exists; raise the cap or suspect the input)"
        )
        self.steps_taken = steps_taken
        self.tail = tail


# Kinds of _walk outcome besides the period (1 or 2) of a detected cycle.
_WALK_ZERO, _WALK_CAP = 0, 3


def _check_max_steps(max_steps: int) -> None:
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")


def _as_config(n: int, c: Sequence[int]) -> Configuration:
    t = tuple(c)
    if len(t) != n:
        raise ValueError(f"configuration has {len(t)} stacks but graph has {n} vertices")
    return t


def _walk(edges: tuple, c: Configuration, limit: int, stop_at_zero: bool) -> tuple:
    """The one trajectory kernel: fire the trusted tuple c up to limit times,
    visiting each edge once per firing. Stops at the first firing k whose
    result C_k is all-zero (if stop_at_zero) or equals C_{k-1} or C_{k-2}.

    Returns (k, kind, C_{k-1}, C_k); kind is _WALK_ZERO, the period 1 or 2,
    or _WALK_CAP after limit firings (C_{k-1} is None when k == 0).
    """
    prev = None
    for k in range(1, limit + 1):
        out = list(c)
        for u, v in edges:
            a, b = c[u], c[v]
            if a > b:
                out[u] -= 1
                out[v] += 1
            elif a < b:
                out[u] += 1
                out[v] -= 1
        nxt = tuple(out)
        if stop_at_zero and not any(nxt):
            return k, _WALK_ZERO, c, nxt
        if nxt == c:
            return k, 1, c, nxt
        if nxt == prev:
            return k, 2, c, nxt
        prev, c = c, nxt
    return limit, _WALK_CAP, prev, c


def fire(g: Graph, c: Sequence[int]) -> Configuration:
    """One simultaneous firing: each vertex gains a chip per strictly richer
    neighbour and loses one per strictly poorer neighbour."""
    return _walk(g.edges, _as_config(g.n, c), 1, False)[3]


def shift(c: Sequence[int], k: int) -> Configuration:
    """Add the constant k to every stack. Firing commutes with shifting."""
    return tuple(x + k for x in c)


def is_zero_configuration(c: Sequence[int]) -> bool:
    return not any(c)


def trace(g: Graph, c0: Sequence[int], t_max: int) -> list[Configuration]:
    """Configurations C_0..C_{t_max} under repeated firing."""
    c = _as_config(g.n, c0)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    out = [c]
    for _ in range(t_max):
        c = fire(g, c)
        out.append(c)
    return out


def induced_orientation(g: Graph, c: Sequence[int]) -> Orientation:
    """Point every edge from its richer endpoint to its poorer one; flat on ties."""
    c = _as_config(g.n, c)
    arrows = []
    for u, v in g.edges:
        if c[u] > c[v]:
            arrows.append(Arrow.TO_HIGHER)
        elif c[u] < c[v]:
            arrows.append(Arrow.TO_LOWER)
        else:
            arrows.append(Arrow.FLAT)
    return Orientation(g, tuple(arrows))


def zero_preposition_from_orientation(g: Graph, r: Orientation) -> Configuration | None:
    """Reconstruct the unique configuration that induces r and fires to all-zero.

    Each vertex must sit at (out-degree) - (in-degree) under Orientation's flow
    rule for the next firing to zero it out; returns that candidate iff it
    actually induces r, else None.
    """
    if r.graph != g:
        raise ValueError("orientation is not of this graph")
    stacks = [0] * g.n
    for tail, head in r._flows():
        stacks[tail] += 1
        stacks[head] -= 1
    candidate = tuple(stacks)
    if induced_orientation(g, candidate) != r:
        return None
    return candidate


def run(g: Graph, c0: Sequence[int], max_steps: int = DEFAULT_MAX_STEPS) -> PeriodReport:
    """Fire until the trajectory provably cycles; report least preperiod and period.

    The cycle is confirmed the first time a configuration repeats at distance
    1 or 2, which by the period-{1,2} theorem is the true minimum period.
    Raises CapExceededError if max_steps firings pass without a repeat.
    """
    _check_max_steps(max_steps)
    walk = _walk(g.edges, _as_config(g.n, c0), max_steps, False)
    if walk[1] == _WALK_CAP:
        raise CapExceededError(max_steps, walk[2:])
    return _period_report(walk, walk[0])


def _period_report(walk: tuple, steps_taken: int) -> PeriodReport:
    """The PeriodReport of a walk (t, kind, C_{t-1}, C_t) that confirmed its
    cycle at step t, kind being the period (as _walk returns it), after
    steps_taken firings."""
    t, kind, before, last = walk
    # Period 1: C_t = C_{t-1}. Period 2: C_t = C_{t-2}, so the cycle is (C_t, C_{t-1}).
    return PeriodReport(
        preperiod=t - kind, period=kind, period_configs=(last, before)[:kind],
        steps_taken=steps_taken,
    )
