"""Independent answers the benchmark checks the package against.

Nothing here imports chip_diffusion: closed forms are recomputed from their
definitions and trajectories are re-fired on plain dicts, so a bug in the
package cannot make its own output look right.
"""

from __future__ import annotations

import json


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def j_path(n: int) -> int:
    """Step-2-restoring subsets of the path P_n: 2 * (F(n-1) + 1)."""
    return 2 * (fibonacci(n - 1) + 1)


def pq2_path(n: int) -> int:
    return -(-n // 3)


def paths_table_stdout(n_max: int) -> str:
    """Exact stdout of `paths-table --n-max N` (JSON form) built from the closed
    forms; the package's brute-force columns must agree with them."""
    rows = [
        {
            "n": n,
            "j_bruteforce": j_path(n),
            "j_recurrence": j_path(n),
            "j_fibonacci": j_path(n),
            "pq2_bruteforce": pq2_path(n),
            "pq2_closed": pq2_path(n),
        }
        for n in range(1, n_max + 1)
    ]
    return json.dumps(rows) + "\n"


def fire_dict(edges: list[tuple[int, int]], config: dict[int, int]) -> dict[int, int]:
    """One Diffusion firing, edge by edge: a chip moves from the richer endpoint
    to the poorer one; equal stacks exchange nothing."""
    out = dict(config)
    for u, v in edges:
        a, b = config[u], config[v]
        if a > b:
            out[u] -= 1
            out[v] += 1
        elif a < b:
            out[u] += 1
            out[v] -= 1
    return out


def check_period_report(
    n: int, edges: list[tuple[int, int]], c0: list[int], report
) -> str | None:
    """Re-fire c0 and confirm report's preperiod, period and cycle.

    Returns None when the report is right, else what is wrong. Checks that the
    period is 1 or 2, that C_N matches the reported cycle and closes after one
    period, that the period is minimal, and that C_{N-1} is not yet periodic
    (so N is the least preperiod).
    """
    p, big_n = report.period, report.preperiod
    if p not in (1, 2):
        return f"period {p} is not 1 or 2"
    if big_n < 0 or report.steps_taken != big_n + p:
        return f"steps_taken {report.steps_taken} != preperiod {big_n} + period {p}"
    window = []  # C_{N-1} .. C_{N+2}, as far as they exist
    c = dict(enumerate(c0))
    for t in range(big_n + 3):
        if t >= big_n - 1:
            window.append(tuple(c[v] for v in range(n)))
        c = fire_dict(edges, c)
    before = window.pop(0) if big_n > 0 else None
    cn, cn1, cn2 = window
    expected_cycle = (cn,) if p == 1 else (cn, cn1)
    if tuple(report.period_configs) != expected_cycle:
        return f"reported cycle differs from C_{big_n}.."
    if (cn1 if p == 1 else cn2) != cn:
        return f"C_{big_n} does not recur after {p} step(s)"
    if p == 2 and cn1 == cn:
        return "period 2 reported for a fixed point"
    if before is not None and before == (cn if p == 1 else cn1):
        return f"preperiod {big_n} is not minimal"
    return None
