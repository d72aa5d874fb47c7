"""chip-diffusion benchmark: one workload per run, checked, with an optional traced pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

With --trace 0 it prints every end-to-end metric of BENCHMARK.json; with
--trace 1 it runs one untraced pass and one traced pass and prints every
per-layer metric (0 for a layer the workload does not exercise). The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # scratch checkpoints, span dumps, exact-count log
SETUP_REPEATS = 7

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import chip_diffusion, chip_diffusion.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter (startup excluded)."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=60,
    )
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child (Linux: KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(directory.glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                        capture_output=True, text=True, check=True,
                                        timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest(SRC / "chip_diffusion"),
        "bench_sha256": digest(Path(__file__).resolve().parent),
        "seed": seed,
    }


def log_exact_counts(workload: str, env: dict, exact: dict) -> str | None:
    """Append this run's exact counts to the log in OUT; return a problem if an
    earlier run of the same package and benchmark source gave different counts."""
    path = OUT / "exact_counts.json"
    log = json.loads(path.read_text()) if path.exists() else {}
    key = f"{env['src_sha256']}:{env['bench_sha256']}:{workload}"
    entry = log.setdefault(key, {"counts": exact, "seeds": []})
    problem = None
    if entry["counts"] != exact:
        problem = (f"exact counts differ from an earlier run of this source "
                   f"(seeds {entry['seeds']}): {entry['counts']} vs {exact}")
    entry["seeds"].append(env["seed"])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(log, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return problem


def measure(workload, seconds: float) -> list:
    """Whole passes until the next one would end after `seconds` (at least one)."""
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        p = workload.run_pass()
        passes.append(p)
        if perf_counter() - start + p.wall > seconds:
            return passes


def report(lines: list[tuple[str, float, str]]) -> None:
    for name, value, unit in lines:
        print(f"  {name:<40} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chip_diffusion" / "__init__.py").is_file():
        print(f"error: no chip_diffusion package under {SRC.name}/ in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports chip_diffusion
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    wl = WORKLOADS[args.workload](OUT)

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = perf_counter()
        wl.build(args.seed)
        setups.append(imported + perf_counter() - t0)

    passes = measure(wl, args.seconds if not args.trace else 0)
    checks = [wl.check(p.output) for p in passes]
    if args.trace:
        tracer = Tracer()
        untraced = passes[0].wall
        tracer.begin_root(f"{wl.name}.traced_pass")
        layer, exact, chk = wl.traced_pass(tracer)
        traced = tracer.end_root()
        checks.append(chk)
        problem = log_exact_counts(wl.name, env, exact)
        if problem:
            checks[-1].fail(problem)
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.span_cost_ns"] = tracer.span_cost_ns()
        for name, t in tracer.self_seconds().items():
            layer[f"{name}.self_s"] = t
        tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
        print(f"perfbench {wl.name} seed={args.seed} traced pass {traced:.3f} s, "
              f"untraced pass {untraced:.3f} s; exact counts {json.dumps(exact)}")
    else:
        wall = statistics.median(p.wall for p in passes)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "work_per_s": statistics.median(wl.work(p.output) / p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
        print(f"perfbench {wl.name} seed={args.seed}: {len(passes)} pass(es) of "
              f"{wall:.3f} s median; work_per_s counts {wl.work_unit}")

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    units = {m["name"]: m["unit"] for m in wanted}
    report([(name, values[name], units[name]) for name in units])
    report([("fail_frac", failed / attempted, f"({failed} of {attempted} failed)")])
    for answer in dict.fromkeys(c.answer for c in checks if c.answer):
        print(f"  answer: {answer}")
    for c in checks:
        for problem in c.problems:
            print(f"  FAILED: {problem}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
