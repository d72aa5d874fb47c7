import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chip_diffusion import (
    DEFAULT_MAX_STEPS,
    UNKNOWN,
    Graph,
    VertexSet,
    ZeroStatus,
    all_graphs,
    check_endpoint_lemma,
    complete,
    complete_bipartite,
    complete_multipartite,
    components_within,
    count_zero2_subsets,
    cycle,
    domination_number,
    graph_from_edge_mask,
    is_ccd,
    is_connected,
    is_dominating,
    is_efficient_dominating,
    is_minimal_dominating,
    is_zero2_invoking,
    is_zero_invoking,
    path,
    perturb,
    pq,
    pq2,
    subsets_of_size,
)
import chip_diffusion
from chip_diffusion import enumeration, quiescence
from chip_diffusion.engine import _WALK_CAP, _WALK_ZERO
from chip_diffusion.graphs import _dominating_mask
from chip_diffusion.quiescence import _ccd_kernel, _ccd_mask, _dominating_kernel
from chip_diffusion.quiescence import _lane_width, _lower_half_lanes, _size_lanes, _zero2_mask

import naive
from strategies import graphs, graphs_with_subset


def vs(g, *members):
    return VertexSet.from_indices(g.n, members)


def all_subsets(g):
    for mask in range(1 << g.n):
        yield VertexSet(g.n, mask)


class TestPerturb:
    def test_p6_alternating_blocks(self):
        g = path(6)
        assert perturb(g, vs(g, 0, 1, 3, 4)) == (0, -1, 2, -1, -1, 1)

    def test_empty_subset_is_noop(self):
        g = complete(4)
        assert perturb(g, vs(g)) == (0, 0, 0, 0)

    def test_full_subset_is_noop(self):
        g = complete_bipartite(2, 3)
        assert perturb(g, vs(g, 0, 1, 2, 3, 4)) == (0,) * 5

    def test_single_vertex(self):
        g = path(3)
        assert perturb(g, vs(g, 1)) == (1, -2, 1)

    @given(graphs_with_subset())
    def test_chip_sum_zero(self, gs):
        g, h = gs
        assert sum(perturb(g, h)) == 0

    @given(graphs_with_subset(max_n=7))
    def test_matches_naive(self, gs):
        g, h = gs
        ref = naive.perturb(naive.adjacency(g.n, g.edges), set(h.members))
        assert perturb(g, h) == tuple(ref[v] for v in range(g.n))


class TestCcd:
    def test_path4_middle_pair(self):
        g = path(4)
        assert is_ccd(g, vs(g, 1, 2))

    def test_path6_unbalanced_blocks(self):
        g = path(6)
        # Adjacent members 0,1 see 0 and 1 outside neighbours respectively.
        assert not is_ccd(g, vs(g, 0, 1, 3, 4))

    def test_trivial_subsets(self):
        g = complete(4)
        assert is_ccd(g, vs(g))
        assert is_ccd(g, vs(g, 0, 1, 2, 3))

    def test_k33_cross_pair(self):
        g = complete_bipartite(3, 3)
        assert is_ccd(g, vs(g, 0, 3))

    def test_multipartite_whole_part(self):
        g = complete_multipartite([2, 2, 2])
        assert is_ccd(g, vs(g, 0, 1))

    def test_multipartite_cross_pair_fails(self):
        g = complete_multipartite([2, 2, 2])
        # {0,2} is minimal dominating yet unbalanced around the complement.
        assert is_minimal_dominating(g, vs(g, 0, 2))
        assert not is_ccd(g, vs(g, 0, 2))


def naive_ccd(g, masks):
    """naive.ccd on each subset mask of g."""
    adj = naive.adjacency(g.n, g.edges)
    return [naive.ccd(adj, {v for v in range(g.n) if m >> v & 1}) for m in masks]


def assert_block_matches(g, high, k, want, kernel_for=_ccd_kernel):
    """Bit j of kernel_for(g, k)(high) is want[j], the verdict on high | j."""
    block = kernel_for(g, k)(high)
    assert block >> (1 << k) == 0, (g.edges, high, k)
    assert [bool(block >> j & 1) for j in range(1 << k)] == want, (g.edges, high, k)


def counting_kernels(monkeypatch, factory):
    """Wrap the kernel factory quiescence.<factory>; returns a list that gets
    (k, highs) per kernel built, highs the blocks that kernel was called on."""
    calls = []
    real = getattr(quiescence, factory)

    def counted(g, k):
        kernel, highs = real(g, k), []
        calls.append((k, highs))

        def block(high):
            highs.append(high)
            return kernel(high)

        return block

    monkeypatch.setattr(quiescence, factory, counted)
    return calls


class TestCcdBlock:
    @pytest.mark.parametrize("n", range(6))
    def test_every_block_of_every_small_graph(self, n):
        # Every labelled graph, every block size and every block offset.
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            table = naive_ccd(g, range(1 << n))
            for k in range(n + 1):
                for high in range(0, 1 << n, 1 << k):
                    assert_block_matches(g, high, k, table[high:high + (1 << k)])

    @given(graphs(max_n=9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_block(self, g, data):
        k = data.draw(st.integers(min_value=0, max_value=g.n))
        high = data.draw(st.integers(min_value=0, max_value=(1 << (g.n - k)) - 1)) << k
        assert_block_matches(g, high, k, naive_ccd(g, range(high, high + (1 << k))))

    @pytest.mark.parametrize("n", range(6))
    def test_is_ccd_is_the_k0_kernel(self, n):
        # _ccd_mask runs the plain-edge rule on every edge, not the kernel;
        # by the block lemma at k = 0 the two agree, and with naive.ccd.
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            kernel = _ccd_kernel(g, 0)
            for m, want in enumerate(naive_ccd(g, range(1 << n))):
                assert _ccd_mask(g, m) == (kernel(m) == 1) == want, (g.edges, m)


def hoist_test_graphs():
    """Every labelled graph of order <= 5, every isomorphism class of order
    6, and complete bipartite and multipartite graphs, whose twins share
    their low neighbourhoods and so the scan's unequal planes."""
    for n in range(6):
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            yield graph_from_edge_mask(n, edge_mask)
    for key in enumeration._classes(6, False):
        yield graph_from_edge_mask(6, key)
    for a in range(1, 6):
        for b in range(a, 10 - a):
            yield complete_bipartite(a, b)
    for parts in [(1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 3, 2), (1, 1, 4, 2), (2, 2, 2, 2)]:
        yield complete_multipartite(parts)


def assert_scans_match_naive(g):
    """count_zero2_subsets and pq2 equal per-mask naive.ccd on g."""
    table = naive_ccd(g, range(1 << g.n))
    assert count_zero2_subsets(g) == sum(table), g.edges
    if g.n:
        want = min(m.bit_count() for m in range(1, 1 << g.n) if table[m])
        assert pq2(g) == want, g.edges


class TestCcdScanHoists:
    """The CCD block scans build one _ccd_kernel per scan (hoist lemmas in
    its docstring). At 2 and 3 block bits most graphs here span
    several blocks, so every hoisted plane is read by more than one block."""

    @pytest.mark.parametrize("block_bits", [2, 3])
    def test_count_and_pq2_match_naive(self, monkeypatch, block_bits):
        monkeypatch.setattr(quiescence, "CCD_BLOCK_BITS", block_bits)
        for g in hoist_test_graphs():
            assert_scans_match_naive(g)

    @given(graphs(min_n=7, max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_count_and_pq2_match_naive_n7_to_10(self, g):
        for block_bits in (2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quiescence, "CCD_BLOCK_BITS", block_bits)
                assert_scans_match_naive(g)

    @pytest.mark.parametrize("block_bits", [2, 3])
    def test_endpoint_lemma_matches_naive(self, monkeypatch, block_bits):
        monkeypatch.setattr(quiescence, "CCD_BLOCK_BITS", block_bits)
        for n in range(2, 11):
            table = naive_ccd(path(n), range(1 << n))
            holds = all(
                (m & 1) != (m >> 1 & 1) and (m >> n - 2 & 1) != (m >> n - 1 & 1)
                for m in range(1, (1 << n) - 1) if table[m]
            )
            assert check_endpoint_lemma(n) == holds, n

    def test_scans_back_to_back_equal_each_alone(self):
        # These scan with different k (n - 1 for the count, n for pq2) and
        # share low neighbourhoods, so a memo or plane that outlived its
        # scan would be read, at the wrong width, by the next one.
        graphs_ = [path(12), path(7), complete_bipartite(3, 4), cycle(9), path(2)]
        alone = []
        for g in graphs_:
            table = naive_ccd(g, range(1 << g.n))
            alone.append((sum(table), min(m.bit_count() for m in range(1, 1 << g.n) if table[m])))
        for order in (graphs_, graphs_[::-1]):
            got = {g: (count_zero2_subsets(g), pq2(g)) for g in order}
            assert [got[g] for g in graphs_] == alone

    def test_interior_edges_are_hoisted(self, monkeypatch):
        # Counting path:22 scans 128 blocks of 14 low bits. (0, 1) .. (11, 12)
        # are interior, so their planes are built once, at scan build;
        # (12, 13) is not, since 13 has the high neighbour 14, and the
        # planed edges (12, 13), (13, 14) and (14, 15) name 12..15, once in
        # each block that its plain edges do not reject.
        calls = []
        real = quiescence._member_planes

        def recorded(vertices, k, high, b):
            calls.append((tuple(vertices), k, high))
            return real(vertices, k, high, b)

        monkeypatch.setattr(quiescence, "_member_planes", recorded)
        assert count_zero2_subsets(path(22)) == 21894
        assert calls[:12] == [((u, u + 1), 14, 0) for u in range(12)]
        per_block = calls[12:]
        assert per_block and {call[:2] for call in per_block} == {((12, 13, 14, 15), 14)}
        assert len({high for *_, high in per_block}) == len(per_block)


class TestDominatingBlock:
    @pytest.mark.parametrize("n", range(6))
    def test_every_block_of_every_small_graph(self, n):
        # Every labelled graph, every block size and every block offset.
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            adj = naive.adjacency(n, g.edges)
            table = [
                naive.dominating(adj, {v for v in range(n) if m >> v & 1}) for m in range(1 << n)
            ]
            for k in range(n + 1):
                for high in range(0, 1 << n, 1 << k):
                    want = table[high:high + (1 << k)]
                    assert_block_matches(g, high, k, want, _dominating_kernel)


class TestZero2:
    def test_rigid_six_has_no_proper_nontrivial(self, rigid_six):
        for h in all_subsets(rigid_six):
            if 0 < len(h) < 6:
                assert not is_zero2_invoking(rigid_six, h)

    def test_k33_side(self):
        g = complete_bipartite(3, 3)
        assert is_zero2_invoking(g, vs(g, 0, 1, 2))

    def test_path6_counterexample_matches_ccd(self):
        g = path(6)
        h = vs(g, 0, 1, 3, 4)
        assert not is_zero2_invoking(g, h)
        assert is_zero2_invoking(g, h) == is_ccd(g, h)

    @given(graphs_with_subset())
    @settings(max_examples=300)
    def test_equals_ccd(self, gs):
        g, h = gs
        assert is_zero2_invoking(g, h) == is_ccd(g, h)

    @given(graphs_with_subset())
    def test_complement_closure(self, gs):
        g, h = gs
        if is_zero2_invoking(g, h):
            assert is_zero2_invoking(g, h.complement())

    @given(graphs_with_subset())
    def test_nonempty_implies_dominating_when_components_meet_subset(self, gs):
        # The implication needs every component of g to meet h: a whole
        # component left inside the complement perturbs as a no-op, so e.g.
        # one vertex of an edgeless pair restores zero at step 2 without
        # dominating the other.
        g, h = gs
        full = VertexSet(g.n, g.full_mask)
        every_component_meets_h = all(
            c.mask & h.mask for c in components_within(g, full)
        )
        if len(h) > 0 and every_component_meets_h and is_zero2_invoking(g, h):
            assert is_dominating(g, h)

    def test_isolated_vertex_breaks_domination_implication(self):
        g = Graph(2)
        h = vs(g, 0)
        assert is_zero2_invoking(g, h)
        assert not is_dominating(g, h)

    @given(graphs_with_subset())
    def test_efficient_dominating_implies_ccd(self, gs):
        g, h = gs
        if is_efficient_dominating(g, h):
            assert is_ccd(g, h)

    @pytest.mark.parametrize("n", range(6))
    def test_every_small_graph_matches_naive_oracle(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for edge_mask in range(1 << len(pairs)):
            chosen = [p for i, p in enumerate(pairs) if edge_mask >> i & 1]
            g = Graph(n, chosen)
            adj = naive.adjacency(n, chosen)
            for h in all_subsets(g):
                want = naive.zero2_invoking(adj, set(h))
                assert is_zero2_invoking(g, h) == want, (edge_mask, h.mask)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_minimal_dominating_on_paths_implies_ccd(self, n):
        g = path(n)
        for h in all_subsets(g):
            if is_minimal_dominating(g, h):
                assert is_ccd(g, h)


class TestZeroInvoking:
    def test_path4_middle_pair_back_at_two(self):
        g = path(4)
        out = is_zero_invoking(g, vs(g, 1, 2))
        assert out.status is ZeroStatus.REACHED_ZERO
        assert out.step == 2

    def test_full_subset_never_moves(self):
        g = complete(5)
        out = is_zero_invoking(g, vs(g, *range(5)))
        assert out.reached_zero and out.step == 0

    def test_whole_component_is_noop(self):
        g = Graph(4, [(0, 1), (2, 3)])
        out = is_zero_invoking(g, vs(g, 0, 1))
        assert out.reached_zero and out.step == 0

    def test_rigid_six_single_vertex_cycles_forever(self, rigid_six):
        # Frozen from an independent simulation of the perturbation of {1}.
        out = is_zero_invoking(rigid_six, vs(rigid_six, 1))
        assert out.status is ZeroStatus.PERIOD_WITHOUT_ZERO
        assert out.report.preperiod == 5
        assert out.report.period == 2

    def test_cap_exceeded_outcome(self):
        g = path(5)
        out = is_zero_invoking(g, vs(g, 0), max_steps=1)
        assert out.status is ZeroStatus.CAP_EXCEEDED
        assert out.trace_len == 1

    def test_bad_cap(self):
        g = path(3)
        with pytest.raises(ValueError):
            is_zero_invoking(g, vs(g, 0), max_steps=0)

    @given(graphs_with_subset(max_n=6))
    @settings(max_examples=200)
    def test_matches_naive(self, gs):
        g, h = gs
        got = is_zero_invoking(g, h, max_steps=2000)
        kind, detail = naive.zero_invoking_outcome(
            naive.adjacency(g.n, g.edges), set(h.members), cap=2000
        )
        assert got.status.value == kind
        if kind == "reached_zero":
            assert got.step == detail
        elif kind == "period_without_zero":
            assert (got.report.preperiod, got.report.period) == detail

    @given(graphs_with_subset())
    def test_zero2_implies_zero_by_step_two(self, gs):
        g, h = gs
        if is_zero2_invoking(g, h):
            out = is_zero_invoking(g, h)
            assert out.reached_zero and out.step <= 2

    def test_cycle_without_zero_has_period_two(self):
        # Period-2 lemma (module docstring): the only fixed point a
        # perturbation can reach is zero, so a walk that never returns to
        # zero ends in a 2-cycle. Every labelled graph with n <= 5, every subset.
        periods = [
            out.report.period
            for n in range(6)
            for _, g in all_graphs(n)
            for h in all_subsets(g)
            if (out := is_zero_invoking(g, h)).status is ZeroStatus.PERIOD_WITHOUT_ZERO
        ]
        assert len(periods) == 24_492
        assert set(periods) == {2}

    @given(graphs_with_subset(max_n=7))
    def test_period_without_zero_report_cycles(self, gs):
        g, h = gs
        out = is_zero_invoking(g, h, max_steps=2000)
        if out.status is ZeroStatus.PERIOD_WITHOUT_ZERO:
            from chip_diffusion import fire

            cfgs = out.report.period_configs
            for i, cfg in enumerate(cfgs):
                assert fire(g, cfg) == cfgs[(i + 1) % out.report.period]


class TestSubsetsOfSize:
    @pytest.mark.parametrize("n,k", [(5, 0), (5, 2), (5, 5), (6, 3), (1, 1), (4, 5)])
    def test_matches_combinations(self, n, k):
        got = list(subsets_of_size(n, k))
        want = sorted(
            sum(1 << v for v in combo) for combo in itertools.combinations(range(n), k)
        )
        assert got == want

    def test_ascending_order(self):
        masks = list(subsets_of_size(8, 3))
        assert masks == sorted(masks)


class TestPq2:
    def test_p7(self):
        assert pq2(path(7)) == 3

    @given(graphs_with_subset(max_n=7))
    def test_at_least_domination_number_when_connected(self, gs):
        # Connectivity matters: one vertex of an edgeless pair gives pq2 = 1
        # below the domination number 2.
        g, _ = gs
        if is_connected(g):
            assert pq2(g) >= domination_number(g)

    def test_can_exceed_domination_number(self, rigid_six):
        assert domination_number(rigid_six) == 2
        assert pq2(rigid_six) == 6

    def test_rigid_six_needs_everything(self, rigid_six):
        assert pq2(rigid_six) == 6

    def test_single_vertex(self):
        assert pq2(complete(1)) == 1

    def test_k33(self):
        # A cross pair is already balanced on both sides.
        assert pq2(complete_bipartite(3, 3)) == 2

    def test_empty_graph_rejected(self):
        from chip_diffusion import Graph

        with pytest.raises(ValueError):
            pq2(Graph(0))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_naive_on_every_labelled_graph(self, n):
        # The smallest nonempty subset that the dict-based oracle sees fire
        # back to zero at step 2.
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            adj = naive.adjacency(n, g.edges)
            want = next(
                k
                for k in range(1, n + 1)
                if any(
                    naive.zero2_invoking(adj, set(c))
                    for c in itertools.combinations(range(n), k)
                )
            )
            assert pq2(g) == want, g.edges


def firing_pq2(g):
    """Smallest nonempty subset size that _zero2_mask fires back to zero at
    step 2, by an ascending-size scan: the unpruned reference for pq2."""
    return next(
        k for k in range(1, g.n + 1) for m in subsets_of_size(g.n, k) if _zero2_mask(g, m)
    )


def sparse_connected(n, seed):
    """A seeded random tree on n vertices plus three random extra edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + 2:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


# Graphs with n > CCD_BLOCK_BITS, whose least-size block scans span many blocks.
SEVERAL_BLOCKS = pytest.mark.parametrize(
    "g",
    [path(15), path(18), path(20), cycle(16), cycle(20), complete_bipartite(8, 8)]
    + [sparse_connected(n, seed) for n, seed in [(15, 1), (16, 2), (20, 6)]],
    ids=["path15", "path18", "path20", "cycle16", "cycle20", "kbip8,8",
         "sparse15", "sparse16", "sparse20"],
)


class TestPq2BlockScan:
    """pq2 scans CCD blocks; these check it against firing, subset by subset."""

    def test_matches_firing_on_every_labelled_graph_n6(self):
        for edge_mask in range(1 << 15):
            g = graph_from_edge_mask(6, edge_mask)
            assert pq2(g) == firing_pq2(g), g.edges

    @given(graphs(max_n=9))
    @settings(max_examples=200, deadline=None)
    def test_matches_firing_up_to_n9(self, g):
        assert pq2(g) == firing_pq2(g)

    @SEVERAL_BLOCKS
    def test_matches_firing_over_several_blocks(self, g):
        # n > CCD_BLOCK_BITS, so the high parts of 1..6 vertices span many
        # blocks. sparse15's only witness is the full vertex set.
        assert g.n > quiescence.CCD_BLOCK_BITS
        assert pq2(g) == firing_pq2(g)

    @pytest.mark.parametrize("g", [complete(63), Graph(63)], ids=["complete63", "edgeless63"])
    def test_order_63_stops_after_the_first_block(self, g):
        # A single vertex is CCD on both, so the p = 0 block settles best = 1
        # and p = 1 already stops the scan; without the stop there are 2^49
        # blocks.
        t0 = time.perf_counter()
        assert pq2(g) == 1
        assert time.perf_counter() - t0 < 1.0

    def test_one_block_call_when_the_first_block_decides(self, monkeypatch):
        calls = counting_kernels(monkeypatch, "_ccd_kernel")
        assert pq2(complete(63)) == 1
        assert calls == [(quiescence.CCD_BLOCK_BITS, [0])]

    def test_makes_no_perturbation_walk(self, monkeypatch, rigid_six):
        def no_walk(*args):
            raise AssertionError("pq2 walked a perturbation")

        monkeypatch.setattr(quiescence, "_perturbation_walk", no_walk)
        monkeypatch.setattr(quiescence, "_lane_walk", no_walk)
        assert pq2(rigid_six) == 6
        assert pq2(path(20)) == 7
        assert pq2(complete_bipartite(8, 8)) == 2


def subset_domination_number(g):
    """Least size of a dominating subset by an ascending-size scan of
    _dominating_mask, one subset at a time: the unpruned reference for
    domination_number."""
    return next(
        k for k in range(g.n + 1) for m in subsets_of_size(g.n, k) if _dominating_mask(g, m)
    )


class TestDominationBlockScan:
    """domination_number scans _dominating_kernel blocks; these check it
    against the per-subset scan."""

    @pytest.mark.parametrize("n", range(7))
    def test_matches_subset_scan_on_every_labelled_graph(self, n):
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            assert domination_number(g) == subset_domination_number(g), g.edges

    @SEVERAL_BLOCKS
    def test_matches_subset_scan_over_several_blocks(self, g):
        assert g.n > quiescence.CCD_BLOCK_BITS
        assert domination_number(g) == subset_domination_number(g)

    def test_one_block_call_on_complete63(self, monkeypatch):
        # The p = 0 block already holds a single vertex, so p = 1 stops the scan.
        calls = counting_kernels(monkeypatch, "_dominating_kernel")
        assert domination_number(complete(63)) == 1
        assert calls == [(quiescence.CCD_BLOCK_BITS, [0])]


def naive_pq(g, cap):
    """Smallest nonempty zero-invoking subset size from the dict-based oracle,
    UNKNOWN if some smaller size had a capped subset. A subset the oracle fires
    to zero at step 2 counts as zero-invoking at every cap, as pq takes pq2
    from the CCD kernel without a walk; that changes nothing at caps >= 2."""
    adj = naive.adjacency(g.n, g.edges)

    def kind(subset):
        if naive.zero2_invoking(adj, subset):
            return "reached_zero"
        return naive.zero_invoking_outcome(adj, subset, cap)[0]

    capped_below = False
    for k in range(1, g.n + 1):
        kinds = {kind(set(c)) for c in itertools.combinations(range(g.n), k)}
        if "reached_zero" in kinds:
            return UNKNOWN if capped_below else k
        capped_below = capped_below or "cap_exceeded" in kinds
    raise AssertionError("the full vertex set is always zero-invoking")


class TestPq:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_paths_match_exhaustive_reference(self, n):
        assert pq(path(n)) == naive_pq(path(n), DEFAULT_MAX_STEPS)

    @given(graphs(max_n=6), st.sampled_from([1, 2, 3, DEFAULT_MAX_STEPS]))
    @settings(max_examples=150)
    def test_matches_naive(self, g, cap):
        assert pq(g, max_steps=cap) == naive_pq(g, cap)

    def test_at_most_pq2(self, rigid_six):
        result = pq(rigid_six)
        assert result is not UNKNOWN
        assert result <= pq2(rigid_six)

    def test_unknown_under_tiny_cap(self):
        # pq2(P4) = 2, and every size-1 walk hits cap 1 before step 2.
        assert pq(path(4), max_steps=1) is UNKNOWN

    def test_exact_under_tiny_cap_when_pq2_is_one(self):
        # No walk reaches step 2 at cap 1, but pq2 = 1 needs no walk, and no
        # smaller subset is left to hide a witness.
        assert pq(path(3), max_steps=1) == 1

    @pytest.mark.parametrize(
        "fake, want",
        [
            ({0b0000101: (3, _WALK_ZERO)}, 2),
            ({0b1000000: (DEFAULT_MAX_STEPS, _WALK_CAP), 0b0000101: (3, _WALK_ZERO)}, UNKNOWN),
            ({0b0000011: (DEFAULT_MAX_STEPS, _WALK_CAP), 0b0000101: (3, _WALK_ZERO)}, 2),
            ({0b0000011: (DEFAULT_MAX_STEPS, _WALK_CAP)}, UNKNOWN),
        ],
        ids=["witness", "capped-smaller-size", "capped-same-size", "capped-no-witness"],
    )
    def test_witness_below_pq2(self, monkeypatch, fake, want):
        # No real graph has a witness (the census finds none up to order 7),
        # so this lane kernel fabricates outcomes for a few subsets of P7,
        # where pq2 = 3, and walks every other lane for real. A late zero
        # for {0, 2} makes pq 2; a capped subset of size 1 hides it, one of
        # size 2 does not; a capped subset below pq2 without a witness also
        # makes the answer UNKNOWN.
        real = quiescence._lane_walk

        def fabricated_kernel(g, planes, masks, max_steps, b):
            witness, live = real(g, planes, masks, max_steps, b)
            for lane, mask in enumerate(masks):
                if mask in fake:
                    t, kind = fake[mask]
                    if kind == _WALK_CAP:
                        live |= 1 << lane * b + b - 1
                    elif witness is None or masks.index(witness[0]) > lane:
                        witness = mask, t
            return witness, live

        g = path(7)
        assert pq2(g) == 3 and not _ccd_mask(g, 0b0000101)
        monkeypatch.setattr(quiescence, "_lane_walk", fabricated_kernel)
        assert pq(g) == want

    def test_walks_only_the_sizes_below_pq2(self, monkeypatch):
        seen = []
        real = quiescence._lane_walk

        def recording_kernel(g, planes, masks, max_steps, b):
            seen.extend(masks)
            return real(g, planes, masks, max_steps, b)

        monkeypatch.setattr(quiescence, "_lane_walk", recording_kernel)
        assert pq(path(7)) == 3
        assert seen == [*subsets_of_size(7, 1), *subsets_of_size(7, 2)]
        assert len(seen) == 28

    def test_equals_pq2_on_small_classes(self):
        # pq = pq2 unless a witness lies below pq2, and none does here: every
        # isomorphism class of order 1..6 and every connected class of order 7.
        orders = [(n, False) for n in range(1, 7)] + [(7, True)]
        for n, connected_only in orders:
            for key in enumeration._classes(n, connected_only):
                g = graph_from_edge_mask(n, key)
                assert pq(g) == pq2(g), (n, g.edges)

    def test_bad_cap(self):
        with pytest.raises(ValueError, match="max_steps"):
            pq(path(3), max_steps=0)


def decision_step(outcome):
    """The step that decides a walk: its first zero step, or the step at
    which the oracle saw the cycle close."""
    kind, detail = outcome
    if kind == "reached_zero":
        return detail
    preperiod, period = detail
    return preperiod + period


def oracle_lanes(outcomes, masks, cap):
    """The lane kernel's answer at cap from uncapped oracle outcomes, one per
    lane: (masks[i], t) for the lowest lane i whose first zero step t is in
    3..cap, or None, and the lanes still undecided at cap. The oracle run
    with cap stops at step cap, so its outcome is the uncapped one when
    that is decided by step cap, and cap_exceeded otherwise."""
    witness = next(
        ((m, o[1]) for m, o in zip(masks, outcomes)
         if o[0] == "reached_zero" and 3 <= o[1] <= cap),
        None,
    )
    capped = {m for m, o in zip(masks, outcomes) if decision_step(o) > cap}
    return witness, capped


def kernel_lanes(g, planes_of, masks, cap):
    b = _lane_width(g)
    witness, live = quiescence._lane_walk(g, planes_of(b), masks, cap, b)
    return witness, {m for i, m in enumerate(masks) if live >> i * b + b - 1 & 1}


def assert_lanes_match_oracle(g, lanes, outcome_of):
    """Sweep the cap from 1 past the last decision step of any lane: at each
    cap, the kernel's witness, and its capped lanes when it has no witness,
    equal the oracle's. That pins the step at which every lane is decided."""
    lanes = [(planes_of, masks, [outcome_of(m) for m in masks]) for planes_of, masks in lanes]
    top = max((decision_step(o) for _, _, outcomes in lanes for o in outcomes), default=0)
    for cap in range(1, top + 2):
        for planes_of, masks, outcomes in lanes:
            want_witness, want_capped = oracle_lanes(outcomes, masks, cap)
            witness, capped = kernel_lanes(g, planes_of, masks, cap)
            assert witness == want_witness, (g.edges, cap, masks)
            if witness is None:
                assert capped == want_capped, (g.edges, cap, masks)


def lane_test_graphs():
    """Every labelled graph of order <= 5, every isomorphism class of order
    6, and the stars and complete graphs, where perturbation stacks reach
    +-Delta (the edges of the lane range)."""
    for n in range(6):
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            yield graph_from_edge_mask(n, edge_mask)
    for key in enumeration._classes(6, False):
        yield graph_from_edge_mask(6, key)
    for d in range(1, 8):
        yield complete_bipartite(1, d)
        yield complete(d + 1)


class TestPlaneTables:
    """The cached plane tables against _mask_planes, which packs each mask
    bit by bit and shares no code with them."""

    @pytest.mark.parametrize("stride", range(1, 7))
    def test_index_planes_pack_the_lane_numbers(self, stride):
        for k in range(9):
            want = tuple(quiescence._mask_planes(k, range(1 << k), stride))
            assert quiescence._index_planes(k, stride) == want, k
            # A block's all-ones plane: one vertex held by each of its masks.
            ones = quiescence._mask_planes(1, [1] * (1 << k), stride)
            assert [quiescence._lane_ones(1 << k, stride)] == ones, k

    @pytest.mark.parametrize("stride", range(1, 7))
    def test_member_planes_pack_the_block_masks(self, stride):
        # (n, k, high): blocks with no high part, with high vertices in and
        # out of high, and a block of one mask.
        for n, k, high in [(3, 2, 0), (5, 2, 0b10100), (8, 3, 0b11001000), (9, 8, 1 << 8),
                           (12, 5, 0b101011100000), (4, 0, 0b1010)]:
            want = quiescence._mask_planes(n, range(high, high + (1 << k)), stride)
            assert quiescence._member_planes(range(n), k, high, stride) == want, (n, k, high)

    def test_exact_planes_of_all_low_vertices_are_popcounts(self):
        for k in range(9):
            planes = quiescence._exact_planes((1 << k) - 1, k)
            assert len(planes) == k + 1
            for c, plane in enumerate(planes):
                assert [plane >> j & 1 for j in range(1 << k)] == [
                    int(j.bit_count() == c) for j in range(1 << k)
                ], (k, c)
                assert plane >> (1 << k) == 0, (k, c)


class TestLaneWalk:
    """The lane-parallel perturbation walk against the dict-based oracle,
    lane by lane and cap by cap."""

    @pytest.mark.parametrize("block_bits", [quiescence.CCD_BLOCK_BITS, 2])
    def test_cap_sweep_matches_oracle(self, monkeypatch, block_bits):
        # At 2 block bits, graphs of order 4 to 8 split into several
        # lower-half blocks (a nonzero high) and several chunks per size.
        monkeypatch.setattr(quiescence, "CCD_BLOCK_BITS", block_bits)
        for g in lane_test_graphs():
            adj = naive.adjacency(g.n, g.edges)
            outcomes = {}

            def outcome_of(m):
                if m not in outcomes:
                    outcomes[m] = naive.zero_invoking_outcome(
                        adj, {v for v in range(g.n) if m >> v & 1})
                return outcomes[m]

            lanes = list(_lower_half_lanes(g))
            for size in range(1, g.n + 1):
                lanes += _size_lanes(g, size)
            assert_lanes_match_oracle(g, lanes, outcome_of)

    def test_stacks_reach_the_lane_range(self):
        # The star's centre holds +Delta when H is its leaves and -Delta when
        # H is the centre alone; both lie at the ends of [-Delta, Delta].
        for d in range(1, 8):
            g = complete_bipartite(1, d)
            assert perturb(g, vs(g, *range(1, d + 1)))[0] == d
            assert perturb(g, vs(g, 0))[0] == -d

    @pytest.mark.parametrize("n", [3, 4])
    def test_witness_lanes_of_integer_planes(self, n):
        # No perturbation of a small graph has a witness, so lanes here
        # start at -L f for integer f in {0, 1, 2}^n (plane w holds f(w) in
        # each lane). These sum to zero on every component, as perturbations
        # do, and many first reach zero at step 3 or later. Each lane
        # stands for its f, which the kernel returns for a witness.
        seen_witness = False
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            adj = naive.adjacency(n, g.edges)
            delta = max(len(adj[v]) for v in adj)
            fs = []
            for f in itertools.product(range(3), repeat=n):
                start = {v: sum(f[w] for w in adj[v]) - len(adj[v]) * f[v] for v in adj}
                if all(abs(x) <= delta for x in start.values()):
                    fs.append((f, start))

            def planes_of(b):
                return [sum(f[w] << i * b for i, (f, _) in enumerate(fs)) for w in range(n)]

            outcome = {f: naive.walk_outcome(adj, start) for f, start in fs}
            assert_lanes_match_oracle(g, [(planes_of, [f for f, _ in fs])], outcome.get)
            seen_witness |= any(o[0] == "reached_zero" and o[1] >= 3 for o in outcome.values())
        assert seen_witness

    def test_a_stack_outside_the_lane_range_raises(self):
        # f = 2 on the leaves of K_{1,3} puts 6 > Delta = 3 chips on the
        # centre, which the lanes cannot hold.
        g = complete_bipartite(1, 3)
        with pytest.raises(AssertionError, match="lane range"):
            quiescence._lane_walk(g, [0, 2, 2, 2], [None], DEFAULT_MAX_STEPS, _lane_width(g))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pq_over_several_chunks_matches_oracle(self, monkeypatch, n):
        # At 2 block bits each size's masks come in chunks of 4 lanes.
        monkeypatch.setattr(quiescence, "CCD_BLOCK_BITS", 2)
        for edge_mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, edge_mask)
            for cap in (1, 2, 3, DEFAULT_MAX_STEPS):
                assert pq(g, max_steps=cap) == naive_pq(g, cap), (g.edges, cap)


def torus(a, b):
    """C_a x C_b, vertex (i, j) numbered i * b + j."""
    return Graph(a * b, [
        (i * b + j, w) for i in range(a) for j in range(b)
        for w in ((i + 1) % a * b + j, i * b + (j + 1) % b)
    ])


def naive_stack_range(adj, mask, steps):
    """The least and largest stack over the first steps of mask's walk."""
    c = naive.perturb(adj, {v for v in adj if mask >> v & 1})
    lo = hi = 0
    for _ in range(steps):
        lo, hi = min(lo, *c.values()), max(hi, *c.values())
        c = naive.fire(adj, c)
    return lo, hi


def decided_by_step_2(outcome):
    kind, detail = outcome
    return kind == "period_without_zero" or kind == "reached_zero" and detail <= 2


def narrow_lane_width(g):
    """One bit short of _lane_width: 2^(b-1) > Delta still holds, as the
    guard bit needs, but the lanes hold [-2^(b-2), 2^(b-2) - 1], which
    misses +Delta once Delta >= 1."""
    return max((m.bit_count() for m in g.nbr_masks), default=0).bit_length() + 1


class TestLaneWidening:
    """A guard trip re-runs its block one bit wider, and the witness scan
    (_lane_scan) keeps that width for the rest of the scan, so the 4-regular
    tori, whose walks leave [-Delta, Delta], decide."""

    def test_q4_not_found_by_naive_walks(self):
        g = torus(4, 4)
        adj = naive.adjacency(g.n, g.edges)
        assert naive_stack_range(adj, 0b11111, 8) == (-4, 5)
        outcomes = [
            naive.zero_invoking_outcome(adj, {v for v in adj if m >> v & 1})
            for m in range(1 << g.n - 1)
        ]
        assert all(map(decided_by_step_2, outcomes))
        assert quiescence.find_zero_not_zero2(g) is quiescence.SearchStatus.NOT_FOUND
        # A zero-invoking mask's complement is zero-invoking too, so the
        # lower half gives every size pq can answer.
        sizes = [
            size for m, (kind, _) in enumerate(outcomes) if kind == "reached_zero"
            for size in (m.bit_count(), g.n - m.bit_count()) if size
        ]
        assert pq(g) == min(sizes) == 4

    def test_c4_c5_not_found_and_first_block_matches_naive(self):
        g = torus(4, 5)
        adj = naive.adjacency(g.n, g.edges)
        assert naive_stack_range(adj, 0b1111111, 8) == (-3, 5)
        planes_of, masks = next(_lower_half_lanes(g))
        assert masks == range(1 << quiescence.CCD_BLOCK_BITS)
        assert all(
            decided_by_step_2(naive.zero_invoking_outcome(adj, {v for v in adj if m >> v & 1}))
            for m in masks
        )
        assert quiescence._lane_scan(g, [(planes_of, masks)], DEFAULT_MAX_STEPS) == (None, None)
        assert quiescence.find_zero_not_zero2(g) is quiescence.SearchStatus.NOT_FOUND
        assert pq(g) == 6

    def test_forced_narrow_width_gives_identical_results(self, monkeypatch):
        graphs_ = [g for g in lane_test_graphs() if g.n] + [path(9), cycle(9), torus(3, 4), torus(4, 4)]
        wider = set()  # the kinds of block that ran wider than _lane_width
        real = quiescence._lane_walk

        def recording(g, planes, masks, max_steps, b):
            # Lower-half blocks (find_zero_not_zero2) come as a range of
            # masks, size blocks (pq) as a list.
            if b > quiescence._lane_width(g):
                wider.add("lower half" if isinstance(masks, range) else "size")
            return real(g, planes, masks, max_steps, b)

        def results():
            return [
                (quiescence.find_zero_not_zero2(g, cap), pq(g, cap))
                for g in graphs_ for cap in (1, 3, DEFAULT_MAX_STEPS)
            ]

        monkeypatch.setattr(quiescence, "_lane_walk", recording)
        want = results()
        assert not wider  # no block trips at the default width
        monkeypatch.setattr(quiescence, "_lane_width", narrow_lane_width)
        assert results() == want
        # Each source builds its own wider planes for a block that tripped.
        assert wider == {"lower half", "size"}

    def test_no_connected_class_of_order_7_trips_the_default_width(self, monkeypatch):
        # Evidence for a proven lane width (ROADMAP item 18): the witness
        # scan of every connected class of order 7 walks each block at
        # _lane_width(g) and never widens.
        widths = set()
        real = quiescence._lane_walk

        def recording(g, planes, masks, max_steps, b):
            widths.add(b - _lane_width(g))
            return real(g, planes, masks, max_steps, b)

        monkeypatch.setattr(quiescence, "_lane_walk", recording)
        keys = enumeration._classes(7, True)
        assert len(keys) == 853
        for key in keys:
            g = enumeration.graph_from_edge_mask(7, key)
            assert quiescence.find_zero_not_zero2(g) is quiescence.SearchStatus.NOT_FOUND
        assert widths == {0}

    def test_a_scan_keeps_the_width_of_its_first_trip(self, monkeypatch):
        # At 2 block bits, P9's lower half comes in 64 blocks of 4 masks and
        # each size below pq2 = 3 in chunks of 4. At the narrow width the
        # lanes hold [-2, 1], and {0, 2} puts 2 chips on vertex 1, so both
        # scans trip in an early block: mask 5 is in the second lower-half
        # block and in the first chunk of size 2.
        monkeypatch.setattr(quiescence, "CCD_BLOCK_BITS", 2)
        monkeypatch.setattr(quiescence, "_lane_width", narrow_lane_width)
        calls = []  # (masks, b) of each _lane_walk call
        real = quiescence._lane_walk

        def recording(g, planes, masks, max_steps, b):
            calls.append((list(masks), b))
            return real(g, planes, masks, max_steps, b)

        monkeypatch.setattr(quiescence, "_lane_walk", recording)
        g = path(9)
        narrow = narrow_lane_width(g)
        for scan in (quiescence.find_zero_not_zero2, pq):
            calls.clear()
            scan(g)
            widths = [b for _, b in calls]
            trip = widths.index(narrow + 1)  # the re-run of the first block that tripped
            assert calls[trip - 1] == (calls[trip][0], narrow)
            assert trip + 1 < len(calls), scan  # blocks follow the trip
            assert widths == sorted(widths), scan
            assert narrow not in widths[trip:], scan


@pytest.mark.parametrize(
    "name", ["find_zero_not_zero2", "SearchWitness", "SearchStatus", "domination_number"]
)
def test_smallest_subset_scans_live_here(name):
    # The package and the census driver re-export these; they are defined
    # once, here, beside pq and pq2.
    owned = getattr(quiescence, name)
    assert getattr(chip_diffusion, name) is owned
    if name != "domination_number":
        assert getattr(enumeration, name) is owned
