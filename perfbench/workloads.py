"""The four benchmark workloads: census, census-pool, count and trajectories.

Each workload builds its inputs from the seed, runs timed passes through the
public CLI (`chip_diffusion.cli.main`, in-process) or the library, checks every
answer outside the timed region, and has a traced pass that calls the
package's public functions directly with a span around each call.
"""

from __future__ import annotations

import io
import multiprocessing
import random
import re
import resource
import shutil
import statistics
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
from chip_diffusion import cli, engine, enumeration, graphs, paths, quiescence
from chip_diffusion.graphs import Graph, VertexSet
from chip_diffusion.quiescence import ZeroStatus
from tracing import Tracer

CENSUS_N = 6
CENSUS_GRAPHS = 1 << (CENSUS_N * (CENSUS_N - 1) // 2)  # 32,768 labelled graphs
CENSUS_CONNECTED = 26_704
CENSUS_WALKS = CENSUS_CONNECTED << CENSUS_N  # 1,709,056 (graph, subset) pairs
CENSUS_STDERR = "search done: 0 witnesses, 0 inconclusive\n"
CENSUS_LAST_LINE = f"{CENSUS_N} {CENSUS_GRAPHS - 1}"
CENSUS_SUMMARY_RE = re.compile(r"search done: (\d+) witnesses, (\d+) inconclusive\n")
# The traced census pass times find_zero_not_zero2 on every k-th connected
# graph: 1,669 calls, enough for a p99 with 16 samples beyond it.
FIND_SAMPLE_EVERY = 16
# ...and perturb, is_ccd and one fire on every subset of every k-th graph.
LAYER_SAMPLE_EVERY = 64

PATHS_N_MAX = 18
# path:22 is the closed form 2(F(21) + 1) = 21,894; the other two were pinned
# from the package's output when this benchmark was added.
COUNT_PINNED = {"path:22": oracle.j_path(22), "cycle:20": 15_128, "kbip:10,10": 184_758}
COUNT_SPECS = tuple(COUNT_PINNED)
COUNT_SUBSETS = (1 << 22) + (1 << 20) + (1 << 20) + sum(1 << n for n in range(1, PATHS_N_MAX + 1))
CCD_SAMPLES_PER_GRAPH = 2048

# Trajectory inputs are drawn once from this fixed seed; --seed then relabels
# the vertices and shifts every stack by one constant. Firing commutes with
# both, so every seed gives different inputs with exactly the same work.
TRAJECTORY_BASE_SEED = 2003_10574
TRAJECTORY_FIRE_SAMPLE = 50  # fire calls timed per instance in the traced pass


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


@dataclass
class Pass:
    wall: float
    cpu: float
    output: object


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    answer: str = ""  # the program's answer, in one line, for the report

    def fail(self, problem: str, weight: int = 1) -> None:
        self.failed += weight
        self.problems.append(problem)


class Stopwatch:
    def __enter__(self):
        self.cpu0 = cpu_seconds()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.t0
        self.cpu = cpu_seconds() - self.cpu0


def call_cli(argv: list[str]) -> tuple[object, str, str]:
    """Run cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def reap_children() -> None:
    """Stop and wait for any worker process still alive."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def cli_overhead_ms(tracer: Tracer, make_argv, library_call, reps: int) -> float:
    """Median over reps of cli.main(argv) minus the equivalent library call."""
    diffs = []
    for _ in range(reps):
        argv = make_argv()
        t0 = perf_counter()
        call_cli(argv)
        t1 = perf_counter()
        library_call()
        t2 = perf_counter()
        tracer.add("cli.main", t0, t1)
        tracer.add("cli.library_equivalent", t1, t2)
        diffs.append((t1 - t0) - (t2 - t1))
    return statistics.median(diffs) * 1e3


class Workload:
    name: str
    work_unit: str
    work_per_pass: int

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def build(self, seed: int) -> None:
        """Make this run's inputs from the seed (repeated to time set-up)."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, output) -> Check:
        raise NotImplementedError

    def work(self, output) -> int:
        """Work units one pass completed."""
        return self.work_per_pass

    def traced_pass(self, tracer: Tracer) -> tuple[dict, dict, Check]:
        """Returns (per-layer metrics, exact counts, check of its outputs)."""
        raise NotImplementedError


class Census(Workload):
    """`search --n 6 --connected-only --checkpoint <fresh file>`."""

    name = "census"
    work_unit = "(graph, subset) pairs decided"
    work_per_pass = CENSUS_WALKS
    threads = 1

    def _argv(self, n: int, checkpoint: Path) -> list[str]:
        argv = ["search", "--n", str(n), "--connected-only", "--checkpoint", str(checkpoint)]
        if self.threads > 1:
            argv += ["--threads", str(self.threads)]
        return argv

    def run_pass(self) -> Pass:
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        ckpt = tmp / "census.ckpt"
        try:
            with Stopwatch() as sw:
                result = call_cli(self._argv(CENSUS_N, ckpt))
            lines = ckpt.read_text().splitlines() if ckpt.exists() else []
        finally:
            reap_children()
            shutil.rmtree(tmp)
        return Pass(sw.wall, sw.cpu, (result, lines[-1] if lines else None))

    def check(self, output) -> Check:
        (code, out, err), last_line = output
        chk = Check(attempted=CENSUS_CONNECTED,
                    answer=f"{err.strip()!r}, checkpoint ends {last_line!r}")
        m = CENSUS_SUMMARY_RE.fullmatch(err)
        if m and int(m[2]):
            chk.fail(f"{m[2]} inconclusive graphs", weight=int(m[2]))
        if code != 0:
            chk.fail(f"exit code {code!r}")
        if out != "":
            chk.fail(f"stdout not empty (witnesses?): {out[:200]!r}")
        if err != CENSUS_STDERR:
            chk.fail(f"stderr {err[-200:]!r} != {CENSUS_STDERR!r}")
        if last_line != CENSUS_LAST_LINE:
            chk.fail(f"checkpoint last line {last_line!r} != {CENSUS_LAST_LINE!r}")
        chk.failed = min(chk.failed, chk.attempted)
        return chk

    def _cli_overhead(self, tracer: Tracer) -> float:
        """CLI versus library on a fresh-checkpoint n=4 search."""
        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        a, b = tmp / "cli.ckpt", tmp / "library.ckpt"
        try:
            def argv():
                a.unlink(missing_ok=True)
                return self._argv(4, a)

            def library():
                b.unlink(missing_ok=True)
                list(enumeration.search_all_graphs(
                    4, connected_only=True, checkpoint=b, workers=self.threads))

            return cli_overhead_ms(tracer, argv, library, reps=20)
        finally:
            reap_children()
            shutil.rmtree(tmp)

    def traced_pass(self, tracer: Tracer) -> tuple[dict, dict, Check]:
        """Every labelled graph is built and tested for connectivity, and every
        (connected graph, subset) pair is walked with is_zero_invoking, so the
        counts cover the whole census. find_zero_not_zero2 is timed on every
        FIND_SAMPLE_EVERY-th connected graph and must agree with the walks;
        perturb, is_ccd and fire are timed on every subset of every
        LAYER_SAMPLE_EVERY-th connected graph."""
        chk = Check(attempted=CENSUS_CONNECTED)
        status = {s: 0 for s in ZeroStatus}
        fire_calls = walked_steps = preperiod_max = connected = witnesses = inconclusive = 0
        find_ms = []
        subsets = [VertexSet(CENSUS_N, h) for h in range(1 << CENSUS_N)]
        add = tracer.add
        pairs = enumeration.all_edge_pairs(CENSUS_N)
        for mask in range(CENSUS_GRAPHS):
            t0 = perf_counter()
            g = enumeration.graph_from_edge_mask(CENSUS_N, mask, pairs)
            t1 = perf_counter()
            conn = graphs.is_connected(g)
            t2 = perf_counter()
            add("graphs.build", t0, t1)
            add("graphs.is_connected", t1, t2)
            if not conn:
                continue
            connected += 1
            witness = capped = False
            for h in subsets:
                t0 = perf_counter()
                out = quiescence.is_zero_invoking(g, h)
                add("quiescence.walk", t0, perf_counter())
                status[out.status] += 1
                fire_calls += out.trace_len - 1
                walked_steps += out.trace_len
                if out.report is not None and out.report.preperiod > preperiod_max:
                    preperiod_max = out.report.preperiod
                if out.status is ZeroStatus.CAP_EXCEEDED:
                    capped = True
                elif out.reached_zero and out.step >= 3:
                    witness = True
            witnesses += witness
            inconclusive += capped and not witness
            if connected % FIND_SAMPLE_EVERY == 0:
                t0 = perf_counter()
                res = enumeration.find_zero_not_zero2(g)
                t1 = perf_counter()
                add("enumeration.find", t0, t1)
                find_ms.append((t1 - t0) * 1e3)
                want = "witness" if witness else "inconclusive" if capped else "not_found"
                got = "witness" if isinstance(res, enumeration.SearchWitness) else res.value
                if got != want:
                    chk.fail(f"edge mask {mask}: find_zero_not_zero2 says {got}, walks say {want}")
            if connected % LAYER_SAMPLE_EVERY == 0:
                for h in subsets:
                    t0 = perf_counter()
                    c = quiescence.perturb(g, h)
                    t1 = perf_counter()
                    quiescence.is_ccd(g, h)
                    t2 = perf_counter()
                    engine.fire(g, c)
                    t3 = perf_counter()
                    add("quiescence.perturb", t0, t1)
                    add("quiescence.ccd", t1, t2)
                    add("engine.fire.n6", t2, t3)
        overhead = self._cli_overhead(tracer)

        walks = sum(status.values())
        exact = {
            "enumeration.graphs_scanned": CENSUS_GRAPHS,
            "graphs.connected": connected,
            "quiescence.walks": walks,
            "engine.fire_calls": fire_calls,
            "engine.preperiod_max": preperiod_max,
            **{f"quiescence.status.{s.value}": k for s, k in status.items()},
        }
        for key, want in (("graphs.connected", CENSUS_CONNECTED),
                          ("quiescence.walks", CENSUS_WALKS),
                          ("quiescence.status.cap_exceeded", 0)):
            if exact[key] != want:
                chk.fail(f"{key} = {exact[key]}, expected {want}")
        if witnesses or inconclusive:
            chk.fail(f"{witnesses} witnesses, {inconclusive} inconclusive graphs",
                     weight=witnesses + inconclusive)
        metrics = {
            **exact,
            "graphs.build_us": tracer.mean_us("graphs.build"),
            "graphs.is_connected_us": tracer.mean_us("graphs.is_connected"),
            "graphs.connected_ratio": connected / CENSUS_GRAPHS,
            "engine.fire_us.n6": tracer.mean_us("engine.fire.n6"),
            "quiescence.walk_us": tracer.mean_us("quiescence.walk"),
            "quiescence.steps_per_walk": walked_steps / walks,
            "quiescence.perturb_us": tracer.mean_us("quiescence.perturb"),
            "quiescence.ccd_us": tracer.mean_us("quiescence.ccd"),
            "enumeration.find_ms.p50": statistics.median(find_ms),
            "enumeration.find_ms.p99": statistics.quantiles(find_ms, n=100)[98],
            "cli.overhead_ms": overhead,
        }
        return metrics, exact, chk


class CensusPool(Census):
    """The census command with `--threads 2`: the multiprocessing chunk producer."""

    name = "census-pool"
    threads = 2

    def traced_pass(self, tracer: Tracer) -> tuple[dict, dict, Check]:
        """search_all_graphs with two workers, timed through its public reporter
        callback: the gap between callbacks is one chunk, and the time from the
        last callback to the generator's end is the final checkpoint flush and
        pool shutdown. Parent and worker CPU come from getrusage."""
        chk = Check(attempted=CENSUS_CONNECTED)
        stamps: list[tuple[float, enumeration.SearchProgress]] = []

        def reporter(p: enumeration.SearchProgress) -> None:
            stamps.append((perf_counter(), p))

        tmp = Path(tempfile.mkdtemp(dir=self.scratch))
        ckpt = tmp / "census.ckpt"
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            start = perf_counter()
            found = list(enumeration.search_all_graphs(
                CENSUS_N, reporter=reporter, connected_only=True,
                checkpoint=ckpt, workers=self.threads))
            end = perf_counter()
            last_line = ckpt.read_text().splitlines()[-1]
        finally:
            reap_children()
            shutil.rmtree(tmp)
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        overhead = self._cli_overhead(tracer)

        prev = start
        chunk_ms = []
        for t, _ in stamps:
            tracer.add("enumeration.chunk", prev, t)
            chunk_ms.append((t - prev) * 1e3)
            prev = t
        tracer.add("enumeration.checkpoint_flush", prev, end)
        final = stamps[-1][1]
        if found or final.witnesses or final.inconclusive:
            chk.fail(f"{len(found)} witnesses, {final.inconclusive} inconclusive graphs",
                     weight=max(len(found), final.witnesses) + final.inconclusive)
        if final.scanned != CENSUS_GRAPHS:
            chk.fail(f"scanned {final.scanned} of {CENSUS_GRAPHS} graphs")
        if last_line != CENSUS_LAST_LINE:
            chk.fail(f"checkpoint last line {last_line!r} != {CENSUS_LAST_LINE!r}")

        def cpu(before, after):
            return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

        exact = {"enumeration.graphs_scanned": final.scanned, "enumeration.chunks": len(stamps)}
        metrics = {
            "enumeration.graphs_scanned": final.scanned,
            "enumeration.chunk_ms": statistics.median(chunk_ms),
            "enumeration.checkpoint_flush_ms": (end - prev) * 1e3,
            "enumeration.parent_cpu_s": cpu(self_before, self_after),
            "enumeration.worker_cpu_s": cpu(kids_before, kids_after),
            "cli.overhead_ms": overhead,
        }
        return metrics, exact, chk


class Count(Workload):
    """Three subset counts and the paths table, each one CLI call."""

    name = "count"
    work_unit = "subsets classified"
    work_per_pass = COUNT_SUBSETS

    def build(self, seed: int) -> None:
        self.calls = [["count", "--graph", spec] for spec in COUNT_SPECS]
        self.calls.append(["paths-table", "--n-max", str(PATHS_N_MAX)])
        self.expected = [
            f'{{"graph": "{spec}", "include_trivial": true, "count": {n}}}\n'
            for spec, n in COUNT_PINNED.items()
        ]
        self.expected.append(oracle.paths_table_stdout(PATHS_N_MAX))

    def run_pass(self) -> Pass:
        with Stopwatch() as sw:
            results = [call_cli(argv) for argv in self.calls]
        return Pass(sw.wall, sw.cpu, results)

    def check(self, output) -> Check:
        counts = [m[1] for _, out, _ in output if (m := re.search(r'"count": (\d+)', out))]
        chk = Check(attempted=len(self.calls), answer=f"counts {', '.join(counts)}")
        for argv, want, (code, out, err) in zip(self.calls, self.expected, output):
            if code != 0 or out != want or err != "":
                chk.fail(f"{' '.join(argv)}: exit {code!r}, stdout {out[:120]!r}, "
                         f"stderr {err[:120]!r}")
        return chk

    def traced_pass(self, tracer: Tracer) -> tuple[dict, dict, Check]:
        """The same counts and table through the library, then pq2 on each path
        replayed subset by subset (to count its firings), and is_ccd timed on
        a fixed stride of each counted graph's subsets."""
        chk = Check(attempted=len(self.calls))
        add = tracer.add
        counted = []
        for spec, want in COUNT_PINNED.items():
            t0 = perf_counter()
            g = graphs.parse_graph_spec(spec)
            t1 = perf_counter()
            got = enumeration.count_zero2_subsets(g)
            t2 = perf_counter()
            add("graphs.build", t0, t1)
            add("enumeration.count", t1, t2)
            counted.append(g)
            if got != want:
                chk.fail(f"count {spec} = {got}, expected {want}")
        t0 = perf_counter()
        rows = paths.path_table(PATHS_N_MAX)
        add("paths.path_table", t0, perf_counter())
        if [(r.n, r.j_bruteforce, r.pq2_bruteforce) for r in rows] != [
            (n, oracle.j_path(n), oracle.pq2_path(n)) for n in range(1, PATHS_N_MAX + 1)
        ]:
            chk.fail("path_table rows differ from the closed forms")
        fire_calls = 0
        for n in range(1, PATHS_N_MAX + 1):
            g = graphs.path(n)
            t0 = perf_counter()
            k = quiescence.pq2(g)
            add("quiescence.pq2", t0, perf_counter())
            examined, size = self._replay_pq2(tracer, g)
            fire_calls += examined  # each zero-at-step-2 test fires once
            if k != size or k != oracle.pq2_path(n):
                chk.fail(f"pq2(path:{n}) = {k}, replay {size}, closed form {oracle.pq2_path(n)}")
        for g in counted:
            stride = (1 << g.n) // CCD_SAMPLES_PER_GRAPH
            for h in range(0, 1 << g.n, stride):
                vs = VertexSet(g.n, h)
                t0 = perf_counter()
                quiescence.is_ccd(g, vs)
                add("quiescence.ccd", t0, perf_counter())
        overhead = cli_overhead_ms(
            tracer,
            lambda: ["count", "--graph", "path:12"],
            lambda: enumeration.count_zero2_subsets(graphs.parse_graph_spec("path:12")),
            reps=40,
        )
        counted_subsets = sum(1 << g.n for g in counted)
        exact = {"engine.fire_calls": fire_calls, "enumeration.subsets_counted": counted_subsets}
        metrics = {
            "graphs.build_us": tracer.mean_us("graphs.build"),
            "engine.fire_calls": fire_calls,
            "quiescence.ccd_us": tracer.mean_us("quiescence.ccd"),
            "quiescence.pq2_ms": tracer.total["quiescence.pq2"] * 1e3,
            "enumeration.count_ns_per_subset":
                tracer.total["enumeration.count"] / counted_subsets * 1e9,
            "paths.path_table_s": tracer.total["paths.path_table"],
            "cli.overhead_ms": overhead,
        }
        return metrics, exact, chk

    @staticmethod
    def _replay_pq2(tracer: Tracer, g: Graph) -> tuple[int, int]:
        """Subsets pq2 examines before its first witness, and the witness size."""
        examined = 0
        for k in range(1, g.n + 1):
            for mask in quiescence.subsets_of_size(g.n, k):
                examined += 1
                vs = VertexSet(g.n, mask)
                t0 = perf_counter()
                hit = quiescence.is_zero2_invoking(g, vs)
                tracer.add("quiescence.is_zero2_invoking", t0, perf_counter())
                if hit:
                    return examined, k
        raise AssertionError("the full vertex set always restores zero at step 2")


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return edges


def _gnp_edges(n: int, mean_degree: int, rng: random.Random) -> list[tuple[int, int]]:
    p = mean_degree / (n - 1)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def trajectory_base() -> list[tuple[int, list[tuple[int, int]], list[int]]]:
    """(n, edges, start) for an 8x8 grid and G(n,p) graphs with n from 60 to
    200, each with a uniform +-1000 start and a single 5,000-chip spike.
    Preperiods run from about 300 to 2,500 steps."""
    rng = random.Random(TRAJECTORY_BASE_SEED)
    shapes = [(64, _grid_edges(8, 8))]
    shapes += [(n, _gnp_edges(n, d, rng)) for n in (60, 100, 150, 200) for d in (3, 6)]
    out = []
    for n, edges in shapes:
        out.append((n, edges, [rng.randint(-1000, 1000) for _ in range(n)]))
        spike = [0] * n
        # On an isolated vertex the spike would never move.
        spike[rng.choice(sorted({v for e in edges for v in e}))] = 5000
        out.append((n, edges, spike))
    return out


class Trajectories(Workload):
    """engine.run to the period on large graphs with large stacks."""

    name = "trajectories"
    work_unit = "firings"

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        self.instances = []
        for n, edges, start in trajectory_base():
            perm = list(range(n))
            rng.shuffle(perm)
            lift = rng.randint(-1000, 1000)
            relabelled = [(perm[u], perm[v]) for u, v in edges]
            c0 = [0] * n
            for v, x in enumerate(start):
                c0[perm[v]] = x + lift
            self.instances.append((n, relabelled, c0, Graph(n, relabelled)))
        self.verified = None

    def run_pass(self) -> Pass:
        reports = []
        with Stopwatch() as sw:
            for _, _, c0, g in self.instances:
                try:
                    reports.append(engine.run(g, c0))
                except engine.CapExceededError as exc:
                    reports.append(exc)
        return Pass(sw.wall, sw.cpu, reports)

    def check(self, output) -> Check:
        """The first pass is re-fired by the independent checker; later passes
        must return the same reports."""
        done = [r for r in output if isinstance(r, engine.PeriodReport)]
        chk = Check(attempted=len(self.instances), answer=(
            f"{len(done)} periods found, preperiods {min(r.preperiod for r in done)}"
            f"..{max(r.preperiod for r in done)}" if done else "no period found"))
        if self.verified is None:
            for (n, edges, c0, _), rep in zip(self.instances, output):
                problem = (
                    f"cap exceeded: {rep}" if isinstance(rep, Exception)
                    else oracle.check_period_report(n, edges, c0, rep)
                )
                if problem:
                    chk.fail(f"trajectory on n={n}: {problem}")
            self.verified = output
        else:
            for i, (a, b) in enumerate(zip(self.verified, output)):
                if a != b:
                    chk.fail(f"trajectory {i}: report differs from the checked pass")
        return chk

    def work(self, output) -> int:
        return sum(r.steps_taken for r in output if isinstance(r, engine.PeriodReport))

    def traced_pass(self, tracer: Tracer) -> tuple[dict, dict, Check]:
        """engine.run on every instance, then fire timed on the first
        TRAJECTORY_FIRE_SAMPLE steps of each, and the graphs rebuilt."""
        add = tracer.add
        reports = []
        for _, _, c0, g in self.instances:
            t0 = perf_counter()
            try:
                reports.append(engine.run(g, c0))
            except engine.CapExceededError as exc:
                reports.append(exc)
            add("engine.run", t0, perf_counter())
        for _, _, c0, g in self.instances:
            c = c0
            for _ in range(TRAJECTORY_FIRE_SAMPLE):
                t0 = perf_counter()
                c = engine.fire(g, c)
                add("engine.fire.large", t0, perf_counter())
        for n, edges, _, _ in self.instances:
            t0 = perf_counter()
            Graph(n, edges)
            add("graphs.build", t0, perf_counter())
        chk = self.check(reports)
        done = [r for r in reports if isinstance(r, engine.PeriodReport)]
        exact = {
            "engine.fire_calls": sum(r.steps_taken for r in done),
            "engine.preperiod_max": max(r.preperiod for r in done),
            "engine.period_2_runs": sum(r.period == 2 for r in done),
        }
        metrics = {
            "engine.fire_calls": exact["engine.fire_calls"],
            "engine.preperiod_max": exact["engine.preperiod_max"],
            "engine.fire_us.large": tracer.mean_us("engine.fire.large"),
            "engine.run_ms": tracer.mean_us("engine.run") / 1e3,
            "graphs.build_us": tracer.mean_us("graphs.build"),
        }
        return metrics, exact, chk


WORKLOADS = {w.name: w for w in (Census, CensusPool, Count, Trajectories)}
