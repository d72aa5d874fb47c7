"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Criterion 8 is checked twice: once as the unrestricted claim (domination leg
expected RED on disconnected corpus graphs, a recorded finding: a subset
covering a whole component perturbs as a no-op, so it restores zero at step 2
without dominating the rest), and once in the connectivity-corrected form that
the corpus satisfies with zero exceptions.
"""

import itertools
import random
import time

import pytest

from chip_diffusion import (
    Arrow,
    Graph,
    VertexSet,
    all_graphs,
    components_within,
    count_zero2_subsets,
    domination_number,
    fire,
    induced_orientation,
    is_ccd,
    is_dominating,
    is_efficient_dominating,
    is_minimal_dominating,
    is_zero2_invoking,
    is_zero_configuration,
    path,
    perturb,
    pq2,
    run,
    search_all_graphs,
    shift,
    trace,
    zero_preposition_from_orientation,
)
from chip_diffusion import enumeration
from chip_diffusion.quiescence import _ccd_mask, _zero2_mask

from conftest import RIGID_SIX_EDGES
from test_enumeration import reverify_witness

P5_START = (0, 2, 0, 4, 1)
P5_ROWS = [
    (0, 2, 0, 4, 1),
    (1, 0, 2, 2, 2),
    (0, 2, 1, 2, 2),
    (1, 0, 3, 1, 2),
    (0, 2, 1, 3, 1),
    (1, 0, 3, 1, 2),
    (0, 2, 1, 3, 1),
]

RANDOM_CORPUS_SIZE = 10_000


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {status}{suffix}")


def random_edge_masks(n, count, seed):
    """Seeded random edge masks over C(n,2) pairs, density drawn per graph."""
    rng = random.Random(seed)
    n_pairs = n * (n - 1) // 2
    masks = []
    for _ in range(count):
        p = rng.random()
        mask = 0
        for i in range(n_pairs):
            if rng.random() < p:
                mask |= 1 << i
        masks.append(mask)
    return masks


@pytest.fixture(scope="module")
def random_corpus():
    # Shared between criteria 4 and 8: masks only, graphs rebuilt on demand.
    return {
        6: random_edge_masks(6, RANDOM_CORPUS_SIZE, seed=60),
        7: random_edge_masks(7, RANDOM_CORPUS_SIZE, seed=70),
    }


def corpus_graphs(random_corpus):
    for n in range(0, 6):
        for _, g in all_graphs(n):
            yield g
    for n, masks in sorted(random_corpus.items()):
        pairs = enumeration.all_edge_pairs(n)
        for mask in masks:
            yield enumeration.graph_from_edge_mask(n, mask, pairs)


def test_criterion_1_pinned_trace():
    g = path(5)
    rows = trace(g, P5_START, 6)
    elapsed = min(
        (lambda t0: (trace(g, P5_START, 6), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    ok = rows == P5_ROWS and elapsed < 0.001
    report(1, "pinned 7-row trace", ok, f"{elapsed * 1e6:.0f}us")
    assert rows == P5_ROWS
    assert elapsed < 0.001


def test_criterion_2_preperiod_and_period():
    rep = run(path(5), P5_START)
    ok = rep.preperiod == 3 and rep.period == 2
    report(2, "preperiod 3, period 2", ok)
    assert rep.preperiod == 3
    assert rep.period == 2


def test_criterion_3_perturbation_fixture():
    g = path(6)
    got = perturb(g, VertexSet.from_indices(6, [0, 1, 3, 4]))
    ok = got == (0, -1, 2, -1, -1, 1)
    report(3, "perturbation fixture", ok, str(got))
    assert got == (0, -1, 2, -1, -1, 1)


def test_criterion_4_equivalence_exhaustive_and_random(random_corpus):
    t0 = time.perf_counter()
    mismatches = 0
    checks = 0
    for n in range(0, 6):
        for _, g in all_graphs(n):
            for h in range(1 << n):
                checks += 1
                if _ccd_mask(g, h) != _zero2_mask(g, h):
                    mismatches += 1
    exhaustive_elapsed = time.perf_counter() - t0

    for n, masks in sorted(random_corpus.items()):
        pairs = enumeration.all_edge_pairs(n)
        for mask in masks:
            g = enumeration.graph_from_edge_mask(n, mask, pairs)
            for h in range(1 << n):
                checks += 1
                if _ccd_mask(g, h) != _zero2_mask(g, h):
                    mismatches += 1

    ok = mismatches == 0 and exhaustive_elapsed < 60.0
    report(
        4,
        "structural = dynamic step-2 predicate",
        ok,
        f"{checks} checks, {mismatches} mismatches, exhaustive part {exhaustive_elapsed:.1f}s",
    )
    assert mismatches == 0
    assert exhaustive_elapsed < 60.0


def test_criterion_5_rigid_six_values():
    g = Graph(6, RIGID_SIX_EDGES)
    proper_nontrivial = count_zero2_subsets(g, include_trivial=False)
    gamma = domination_number(g)
    smallest = pq2(g)
    ok = proper_nontrivial == 0 and gamma == 2 and smallest == 6
    report(5, "rigid 6-vertex graph", ok, f"count={proper_nontrivial}, gamma={gamma}, pq2={smallest}")
    assert proper_nontrivial == 0
    assert gamma == 2
    assert smallest == 6


def test_criterion_6_path_formulas():
    t0 = time.perf_counter()
    fib = [0, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    j = {1: 2, 2: 4}
    for n in range(3, 23):
        j[n] = j[n - 1] + j[n - 2] - 2
    bad = []
    for n in range(1, 23):
        brute = count_zero2_subsets(path(n), include_trivial=True)
        if not (brute == j[n] == 2 * (fib[n - 1] + 1)):
            bad.append((n, brute, j[n], 2 * (fib[n - 1] + 1)))
    for n in range(1, 23):
        if pq2(path(n)) != -(-n // 3):
            bad.append(("pq2", n))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300.0
    report(6, "path closed forms", ok, f"{elapsed:.1f}s")
    assert not bad, bad
    assert elapsed < 300.0


def test_criterion_7_property_suite():
    rng = random.Random(20260809)
    pairs_checked = 0
    for _ in range(100_000):
        n = rng.randint(1, 12)
        epairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.random()
        g = Graph(n, [e for e in epairs if rng.random() < density])
        c = tuple(rng.randint(-8, 8) for _ in range(n))
        nxt = fire(g, c)
        assert sum(nxt) == sum(c), "chip sum not conserved"
        k = rng.randint(-10, 10)
        assert fire(g, shift(c, k)) == shift(nxt, k), "shift equivariance broken"
        r = induced_orientation(g, c)
        for (u, v), a in zip(g.edges, r.arrows):
            want = (
                Arrow.TO_HIGHER if c[u] > c[v] else Arrow.TO_LOWER if c[u] < c[v] else Arrow.FLAT
            )
            assert a is want, "orientation unsound"
        rec = zero_preposition_from_orientation(g, r)
        if rec is not None:
            assert is_zero_configuration(fire(g, rec))
            assert induced_orientation(g, rec) == r
        rep = run(g, c, max_steps=100_000)
        assert rep.period in (1, 2), "period outside {1, 2}"
        pairs_checked += 1

    # Small-instance uniqueness: every orientation admits at most one
    # configuration within [-max_degree, max_degree]^n that fires to zero,
    # and reconstruction returns exactly it.
    unique_graphs = 0
    for _, g in all_graphs(3):
        _assert_unique_zero_prepositions(g)
        unique_graphs += 1
    for _ in range(40):
        n = rng.randint(1, 5)
        epairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        density = rng.random()
        g = Graph(n, [e for e in epairs if rng.random() < density])
        _assert_unique_zero_prepositions(g)
        unique_graphs += 1

    report(7, "property suite", True, f"{pairs_checked} pairs, {unique_graphs} uniqueness graphs")
    assert pairs_checked >= 100_000


def _assert_unique_zero_prepositions(g):
    d = max((g.degree(v) for v in range(g.n)), default=0)
    by_orientation = {}
    for stacks in itertools.product(range(-d, d + 1), repeat=g.n):
        if is_zero_configuration(fire(g, stacks)):
            key = induced_orientation(g, stacks)
            by_orientation.setdefault(key, []).append(stacks)
    for r, configs in by_orientation.items():
        assert len(configs) == 1, f"two zero-prepositions share an orientation on {g}"
        assert zero_preposition_from_orientation(g, r) == configs[0]


def test_criterion_8_implication_chain_unrestricted(random_corpus):
    # All three implications without side conditions. The domination leg is
    # expected RED: disconnected corpus graphs violate it (a subset covering a
    # whole component restores zero at step 2 without dominating the rest;
    # see the companion test for the corrected form).
    domination_bad = []
    efficient_bad = []
    for g in corpus_graphs(random_corpus):
        for mask in range(1 << g.n):
            h = VertexSet(g.n, mask)
            zero2 = is_zero2_invoking(g, h)
            if mask != 0 and zero2 and not is_dominating(g, h):
                if len(domination_bad) < 5:
                    domination_bad.append((g.n, g.edges, h.members))
            if is_efficient_dominating(g, h) and not is_ccd(g, h):
                if len(efficient_bad) < 5:
                    efficient_bad.append((g.n, g.edges, h.members))
    minimal_bad = []
    for n in range(2, 13):
        g = path(n)
        for mask in range(1 << n):
            h = VertexSet(n, mask)
            if is_minimal_dominating(g, h) and not is_ccd(g, h):
                minimal_bad.append((n, h.members))
    ok = not (domination_bad or efficient_bad or minimal_bad)
    report(
        8,
        "implication chain, unrestricted",
        ok,
        "zero exceptions"
        if ok
        else f"domination leg counterexamples e.g. {domination_bad[:2]}, "
        f"efficient leg: {len(efficient_bad)} bad, path-minimal leg: {len(minimal_bad)} bad",
    )
    assert not efficient_bad, efficient_bad
    assert not minimal_bad, minimal_bad
    assert not domination_bad, (
        "nonempty step-2-restoring subsets that do not dominate (whole-component "
        f"subsets of disconnected graphs): {domination_bad}"
    )


def test_criterion_8_domination_leg_corrected(random_corpus):
    # Corrected domination leg: whenever every component of the graph meets
    # the subset (automatic on connected graphs), nonempty step-2-restoring
    # subsets dominate. Zero exceptions on the full corpus.
    bad = []
    for g in corpus_graphs(random_corpus):
        full = VertexSet(g.n, g.full_mask)
        component_masks = [c.mask for c in components_within(g, full)]
        for mask in range(1 << g.n):
            h = VertexSet(g.n, mask)
            if (
                mask != 0
                and all(mask & cm for cm in component_masks)
                and is_zero2_invoking(g, h)
                and not is_dominating(g, h)
            ):
                bad.append((g.edges, h.members))
    ok = not bad
    report(8, "implication chain, corrected domination leg", ok,
           "zero exceptions" if ok else str(bad[:3]))
    assert not bad, bad[:10]


def test_criterion_9_open_question_search(tmp_path):
    # The largest order also writes its checkpoint, whose one record ends
    # at the last edge mask.
    ckpt = tmp_path / "scan6.ckpt"
    all_witnesses = {}
    for n in range(1, 7):
        found = list(
            search_all_graphs(n, connected_only=True, checkpoint=ckpt if n == 6 else None)
        )
        for w in found:
            reverify_witness(w)
        all_witnesses[n] = found

    last_line = ckpt.read_text().strip().splitlines()[-1]
    finding = (
        "no witness on any connected graph, n <= 6"
        if not any(all_witnesses.values())
        else f"witnesses: { {n: len(ws) for n, ws in all_witnesses.items()} }"
    )
    ok = last_line == "6 32767"
    report(9, "open-question search", ok, f"finding: {finding}; checkpoint ends {last_line!r}")
    assert last_line == "6 32767"
