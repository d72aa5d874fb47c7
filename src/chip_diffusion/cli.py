"""Command-line front door.

Results go to stdout (JSON by default, CSV where a table has a stable wire
format), diagnostics to stderr. Exit codes: 0 success, 1 domain error (bad
subset, malformed graph file, step cap exceeded), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Callable

from . import enumeration, paths, quiescence
from .engine import Configuration, _as_config, trace
from .graphs import Graph, VertexSet, _read_edge_list, _read_graph_spec
from .quiescence import UNKNOWN, ZeroStatus


def _resolve_graph(source: str) -> tuple[int, Callable[[], Graph]]:
    """(n, build): the source's order and a call that builds its Graph, so a
    command checks its whole request on n and refuses it without allocating
    n-long neighbour tables. An existing file is an edge list. Any other
    source containing ':' and no path separator (a spec kind never has one)
    is a generator spec for parse_graph_spec; anything else is read as a
    file, so a missing path reports the missing file."""
    file = Path(source)
    if ":" in source and "/" not in source and os.sep not in source and not file.is_file():
        return _read_graph_spec(source)
    return _read_edge_list(file.read_text())


def _parse_int_list(text: str, what: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad {what} {text!r}: expected comma-separated integers") from None


def _subset(n: int, text: str) -> VertexSet:
    return VertexSet.from_indices(n, _parse_int_list(text, "subset"))


def _config(n: int, text: str) -> Configuration:
    return _as_config(n, _parse_int_list(text, "config"))


def _check_at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{option} must be >= {least}, got {value}")


def _emit_json(obj) -> None:
    print(json.dumps(obj))


def _write_csv(header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_simulate(args) -> int:
    n, build = _resolve_graph(args.graph)
    c0 = _config(n, args.config)
    _check_at_least("--steps", args.steps, 0)
    rows = trace(build(), c0, args.steps)
    if args.format == "csv":
        header = ["step"] + [f"v{i}" for i in range(n)]
        _write_csv(header, ((step, *cfg) for step, cfg in enumerate(rows)))
    else:
        _emit_json(
            {
                "graph": args.graph,
                "config": c0,
                "steps": args.steps,
                "trace": [list(r) for r in rows],
            }
        )
    return 0


def _cmd_perturb(args) -> int:
    n, build = _resolve_graph(args.graph)
    h = _subset(n, args.subset)
    cfg = quiescence.perturb(build(), h)
    if args.format == "csv":
        _write_csv([f"v{i}" for i in range(n)], [cfg])
    else:
        _emit_json({"graph": args.graph, "subset": list(h.members), "config": list(cfg)})
    return 0


def _zero_json(outcome: quiescence.ZeroInvokingOutcome) -> dict:
    out = {"status": outcome.status.value, "step": outcome.step}
    if outcome.report is not None:
        out["preperiod"] = outcome.report.preperiod
        out["period"] = outcome.report.period
    return out


def _cmd_check(args) -> int:
    n, build = _resolve_graph(args.graph)
    h = _subset(n, args.subset)
    _check_at_least("--max-steps", args.max_steps, 1)
    g = build()
    outcome = quiescence.is_zero_invoking(g, h, args.max_steps)
    _emit_json(
        {
            "graph": args.graph,
            "subset": list(h.members),
            "ccd": quiescence.is_ccd(g, h),
            "zero2": quiescence.is_zero2_invoking(g, h),
            "zero": _zero_json(outcome),
        }
    )
    return 1 if outcome.status is ZeroStatus.CAP_EXCEEDED else 0


def _cmd_count(args) -> int:
    n, build = _resolve_graph(args.graph)
    quiescence._check_countable(n)
    include = not args.exclude_trivial
    count = quiescence.count_zero2_subsets(build(), include_trivial=include)
    _emit_json({"graph": args.graph, "include_trivial": include, "count": count})
    return 0


def _cmd_pq2(args) -> int:
    n, build = _resolve_graph(args.graph)
    quiescence._check_enumerable(n)
    _emit_json({"graph": args.graph, "pq2": quiescence.pq2(build())})
    return 0


def _cmd_pq(args) -> int:
    n, build = _resolve_graph(args.graph)
    quiescence._check_enumerable(n)
    _check_at_least("--max-steps", args.max_steps, 1)
    result = quiescence.pq(build(), args.max_steps)
    if result is UNKNOWN:
        _emit_json({"graph": args.graph, "pq": None, "status": "unknown"})
        return 1
    _emit_json({"graph": args.graph, "pq": result, "status": "ok"})
    return 0


def _cmd_search(args) -> int:
    _check_at_least("--threads", args.threads, 1)
    _check_at_least("--max-steps", args.max_steps, 1)
    if args.resume and args.checkpoint is None:
        raise ValueError("--resume requires --checkpoint")
    final = None

    def report(p: enumeration.SearchProgress) -> None:
        nonlocal final
        final = p
        if args.progress:
            print(
                f"progress: {p.scanned}/{p.total} edge masks, "
                f"{p.witnesses} witnesses, {p.inconclusive} inconclusive",
                file=sys.stderr,
            )

    stream = enumeration.search_all_graphs(
        args.n,
        max_steps=args.max_steps,
        reporter=report,
        connected_only=args.connected_only,
        checkpoint=args.checkpoint,
        resume=args.resume,
        workers=args.threads,
    )
    for w in stream:
        print(
            json.dumps(
                {
                    "n": w.graph.n,
                    "edges": [list(e) for e in w.graph.edges],
                    "subset": list(w.subset.members),
                    "zero_step": w.zero_step,
                    "note": w.note,
                }
            ),
            flush=True,
        )
    print(
        f"search done: {final.witnesses} witnesses, {final.inconclusive} inconclusive",
        file=sys.stderr,
    )
    return 1 if final.inconclusive else 0


def _cmd_paths_table(args) -> int:
    rows = paths.path_table(args.n_max)
    if args.format == "csv":
        _write_csv([f.name for f in fields(paths.PathReportRow)], map(astuple, rows))
    else:
        _emit_json([asdict(r) for r in rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chip-diffusion",
        description="Diffusion chip-firing: traces, quiescence predicates, exhaustive searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument(
            "--graph",
            required=True,
            help="an edge-list file ('n m' header, then 'u v' lines) or, when no such file "
            "exists, a generator spec kind:args such as path:5 or kbip:2,3",
        )

    p = sub.add_parser("simulate", help="fire a configuration for a fixed number of steps")
    add_graph(p)
    p.add_argument("--config", required=True, help="comma-separated stacks, one per vertex")
    p.add_argument("--steps", required=True, type=int, help="number of firing steps")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("perturb", help="configuration after perturbing a subset from all-zero")
    add_graph(p)
    p.add_argument("--subset", required=True, help="comma-separated vertex indices ('' = empty)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("check", help="quiescence predicates for one subset")
    add_graph(p)
    p.add_argument("--subset", required=True)
    p.add_argument("--max-steps", type=int, default=quiescence.DEFAULT_MAX_STEPS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("count", help="count subsets that restore zero at step 2")
    add_graph(p)
    p.add_argument("--exclude-trivial", action="store_true", help="drop the empty and full sets")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("pq2", help="smallest nonempty subset restoring zero at step 2")
    add_graph(p)
    p.set_defaults(func=_cmd_pq2)

    p = sub.add_parser("pq", help="smallest nonempty zero-invoking subset")
    add_graph(p)
    p.add_argument("--max-steps", type=int, default=quiescence.DEFAULT_MAX_STEPS)
    p.set_defaults(func=_cmd_pq)

    p = sub.add_parser(
        "search", help="scan all labelled graphs of order n for zero-invoking-but-not-step-2 subsets"
    )
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--max-steps", type=int, default=quiescence.DEFAULT_MAX_STEPS)
    p.add_argument("--checkpoint", help="record for --resume, saved at each witness and at the end")
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint file")
    p.add_argument(
        "--threads", type=int, default=1,
        help="checked (>= 1) but inert: the census runs in one process; a process pool belongs "
        "to a class-by-class search of orders past 7, where n = 9 takes minutes",
    )
    p.add_argument("--progress", action="store_true", help="progress lines on stderr")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("paths-table", help="closed forms vs enumeration on paths")
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_paths_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
