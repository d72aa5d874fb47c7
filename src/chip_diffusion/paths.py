"""Closed-form results for paths, cross-validated against exhaustive enumeration.

On the path P_n (vertices 0..n-1 in order) the smallest subset restoring zero
at step 2 has size ceil(n/3), the same as the domination number, and the
total number of such subsets (empty set and full set included) follows
J(n) = J(n-1) + J(n-2) - 2 with J(1) = 2, J(2) = 4, which telescopes to
2*(F(n-1) + 1) in Fibonacci terms (F(0) = 0, F(1) = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import path
from .quiescence import _check_countable, _lower_half_blocks, _member_planes
from .quiescence import count_zero2_subsets, pq2

__all__ = [
    "PathReportRow",
    "PathTableMismatchError",
    "check_endpoint_lemma",
    "j_fibonacci",
    "j_recurrence",
    "path_table",
    "pq2_path_closed",
]


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")


def pq2_path_closed(n: int) -> int:
    """ceil(n/3): smallest nonempty subset of P_n that restores zero at step 2."""
    _require_positive(n)
    return -(-n // 3)


def j_recurrence(n: int) -> int:
    """Count of step-2-restoring subsets of P_n by the linear recurrence."""
    _require_positive(n)
    a, b = 2, 4  # J(1), J(2)
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, a + b - 2
    return b


def j_fibonacci(n: int) -> int:
    """The same count in closed form: 2*(F(n-1) + 1), with F(0) = 0, F(1) = 1."""
    _require_positive(n)
    f0, f1 = 0, 1
    for _ in range(n - 1):
        f0, f1 = f1, f0 + f1
    return 2 * (f0 + 1)


def check_endpoint_lemma(n: int) -> bool:
    """Exhaustively verify the end-of-path membership rule on P_n, n >= 2.

    Every proper nontrivial step-2-restoring subset contains exactly one of
    the last two vertices, and exactly one of the first two.

    Checked on the lower-half CCD blocks of the count, with no walk: a subset
    is zero at step 2 exactly when it is CCD, and both CCD and "exactly one
    of two vertices" are unchanged under complement, so the nonempty masks
    below 2^(n-1) stand for every proper nontrivial subset. In each block the
    rule is the AND, over both ends, of the XOR of two membership planes.
    """
    if n < 2:
        raise ValueError(f"endpoint rule needs n >= 2, got {n}")
    _check_countable(n)
    for high, k, block in _lower_half_blocks(path(n)):
        first, second, next_last, last = _member_planes((0, 1, n - 2, n - 1), k, high, 1)
        # Bit 0 of the first block is the empty set, which the rule leaves out.
        if block & ~((first ^ second) & (next_last ^ last)) & (-1 if high else -2):
            return False
    return True


@dataclass(frozen=True)
class PathReportRow:
    n: int
    j_bruteforce: int
    j_recurrence: int
    j_fibonacci: int
    pq2_bruteforce: int
    pq2_closed: int


class PathTableMismatchError(RuntimeError):
    """Closed forms and exhaustive enumeration disagree; something is broken."""


def path_table(n_max: int) -> list[PathReportRow]:
    """One row per n in 1..n_max with every count computed both ways.

    Any disagreement between a closed form and its brute-force column is a
    hard failure, not a warning.
    """
    _require_positive(n_max)
    _check_countable(n_max)
    rows = []
    for n in range(1, n_max + 1):
        row = PathReportRow(
            n=n,
            j_bruteforce=count_zero2_subsets(path(n), include_trivial=True),
            j_recurrence=j_recurrence(n),
            j_fibonacci=j_fibonacci(n),
            pq2_bruteforce=pq2(path(n)),
            pq2_closed=pq2_path_closed(n),
        )
        if not (row.j_bruteforce == row.j_recurrence == row.j_fibonacci):
            raise PathTableMismatchError(
                f"n={n}: subset counts disagree "
                f"(brute={row.j_bruteforce}, recurrence={row.j_recurrence}, "
                f"fibonacci={row.j_fibonacci})"
            )
        if row.pq2_bruteforce != row.pq2_closed:
            raise PathTableMismatchError(
                f"n={n}: pq2 disagrees (brute={row.pq2_bruteforce}, closed={row.pq2_closed})"
            )
        rows.append(row)
    return rows
