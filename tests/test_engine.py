import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chip_diffusion import (
    Arrow,
    CapExceededError,
    Graph,
    Orientation,
    complete,
    fire,
    induced_orientation,
    is_zero_configuration,
    path,
    run,
    shift,
    trace,
    zero_preposition_from_orientation,
)
from chip_diffusion import engine, enumeration

import naive
from strategies import graphs, graphs_with_config

# Five-vertex path trace that enters a 2-cycle after three steps; the rows
# are frozen integers.
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


class TestFire:
    @given(graphs(max_n=12), st.sampled_from([0, 10**30, -(2**100)]), st.data())
    @settings(max_examples=300)
    def test_matches_naive(self, g, base, data):
        # Small offsets on a huge base give ties between huge stacks.
        offsets = st.integers() | st.integers(min_value=-3, max_value=3)
        stacks = data.draw(st.lists(offsets, min_size=g.n, max_size=g.n))
        c = tuple(base + x for x in stacks)
        want = naive.fire(naive.adjacency(g.n, g.edges), dict(enumerate(c)))
        assert fire(g, c) == tuple(want[v] for v in range(g.n))

    def test_p5_first_step(self):
        assert fire(path(5), P5_START) == (1, 0, 2, 2, 2)

    def test_p5_fourth_step(self):
        assert fire(path(5), (1, 0, 3, 1, 2)) == (0, 2, 1, 3, 1)

    def test_zero_is_fixed(self):
        g = complete(4)
        assert fire(g, (0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_input_unmodified(self):
        c = [3, 1, 2]
        fire(path(3), c)
        assert c == [3, 1, 2]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fire(path(3), (1, 2))

    def test_huge_stacks_exact(self):
        # Stacks are plain ints: no width limit, no silent wraparound.
        big = 10**30
        assert fire(path(2), (big, 0)) == (big - 1, 1)

    @given(graphs_with_config())
    def test_chip_sum_conserved(self, gc):
        g, c = gc
        assert sum(fire(g, c)) == sum(c)

    @given(graphs_with_config(), st.integers(min_value=-10, max_value=10))
    def test_shift_equivariance(self, gc, k):
        g, c = gc
        assert fire(g, shift(c, k)) == shift(fire(g, c), k)


class TestShift:
    def test_componentwise(self):
        assert shift((0, 2, 0, 4, 1), 3) == (3, 5, 3, 7, 4)

    def test_negative_entries(self):
        assert shift((1, -1), 1) == (2, 0)

    def test_identity(self):
        c = (5, -2, 0)
        assert shift(c, 0) == c


class TestTrace:
    def test_reproduces_pinned_table(self):
        assert trace(path(5), P5_START, 6) == P5_ROWS

    def test_zero_steps(self):
        assert trace(path(3), (1, 2, 3), 0) == [(1, 2, 3)]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            trace(path(3), (0, 0, 0), -1)


class TestRun:
    def test_p5_preperiod_and_period(self):
        report = run(path(5), P5_START)
        assert report.preperiod == 3
        assert report.period == 2
        assert report.period_configs == ((1, 0, 3, 1, 2), (0, 2, 1, 3, 1))

    def test_zero_config_immediately_periodic(self):
        report = run(complete(3), (0, 0, 0))
        assert report.preperiod == 0
        assert report.period == 1

    def test_p3_collapses_to_zero(self):
        # (1,0,-1) -> (0,0,0) by hand, then fixed.
        report = run(path(3), (1, 0, -1))
        assert report.period == 1
        assert report.period_configs == ((0, 0, 0),)
        assert report.preperiod == 1

    def test_cap_exceeded_carries_tail(self):
        # The tail is the last pair the cycle test compared: C_{cap-1}, C_cap.
        with pytest.raises(CapExceededError) as err:
            run(path(5), P5_START, max_steps=2)
        assert err.value.steps_taken == 2
        assert err.value.tail == (P5_ROWS[1], P5_ROWS[2])
        with pytest.raises(CapExceededError) as err:
            run(path(5), P5_START, max_steps=1)
        assert err.value.tail == (P5_START, P5_ROWS[1])

    def test_capped_run_never_replays(self, monkeypatch):
        # The walk that hit the cap already holds the tail; nothing replays it.
        calls = []
        real_fire = engine.fire
        monkeypatch.setattr(engine, "fire", lambda *a: calls.append(a) or real_fire(*a))
        with pytest.raises(CapExceededError):
            run(path(5), P5_START, max_steps=2)
        assert calls == []

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            run(path(3), (0, 0, 0), max_steps=0)

    @given(graphs_with_config(max_n=7, max_abs=6))
    @settings(max_examples=200)
    def test_period_is_one_or_two_and_cycles(self, gc):
        g, c = gc
        report = run(g, c, max_steps=2000)
        assert report.period in (1, 2)
        cfgs = report.period_configs
        for i, cfg in enumerate(cfgs):
            assert fire(g, cfg) == cfgs[(i + 1) % report.period]

    @given(graphs_with_config(max_n=6, max_abs=5))
    @settings(max_examples=100)
    def test_preperiod_is_least(self, gc):
        g, c = gc
        report = run(g, c, max_steps=2000)
        rows = trace(g, c, report.preperiod + 2 * report.period)
        # Cycle holds from the preperiod on...
        assert rows[report.preperiod] == rows[report.preperiod + report.period]
        # ...and not one step earlier.
        if report.preperiod > 0:
            assert rows[report.preperiod - 1] != rows[report.preperiod - 1 + report.period]


class TestOrientation:
    def test_descending_then_valley(self):
        # Stacks 15,9,8,2,12: three falls rightward, then a fall leftward.
        r = induced_orientation(path(5), (15, 9, 8, 2, 12))
        assert r.arrows == (Arrow.TO_HIGHER, Arrow.TO_HIGHER, Arrow.TO_HIGHER, Arrow.TO_LOWER)

    def test_all_equal_is_flat(self):
        r = induced_orientation(complete(4), (7, 7, 7, 7))
        assert all(a is Arrow.FLAT for a in r.arrows)

    def test_single_edge(self):
        r = induced_orientation(path(2), (1, -1))
        assert r.arrows == (Arrow.TO_HIGHER,)

    def test_arrow_accessor_symmetric(self):
        r = induced_orientation(path(3), (2, 1, 5))
        assert r.arrow(0, 1) is Arrow.TO_HIGHER
        assert r.arrow(1, 0) is Arrow.TO_HIGHER
        assert r.arrow(1, 2) is Arrow.TO_LOWER

    def test_one_arrow_per_edge(self):
        g = path(3)
        with pytest.raises(ValueError) as err:
            Orientation(g, (Arrow.TO_HIGHER,))
        assert str(err.value) == "one arrow required per edge"

    def test_plain_int_arrows_become_arrows(self):
        # A plain 1 used to compare equal to TO_HIGHER yet carry no chip, and
        # 5 was read as FLAT.
        g = path(2)
        r = Orientation(g, (1,))
        assert r.arrows == (Arrow.TO_HIGHER,) and r.arrows[0] is Arrow.TO_HIGHER
        assert r.out_degree(0) == 1 and r.in_degree(1) == 1
        assert zero_preposition_from_orientation(g, r) == (1, -1)
        with pytest.raises(ValueError):
            Orientation(g, (5,))

    def test_arrow_on_non_edge_names_the_pair(self):
        r = induced_orientation(path(3), (2, 1, 5))
        with pytest.raises(ValueError, match=r"\(2, 0\) is not an edge"):
            r.arrow(2, 0)

    def test_degrees(self):
        r = induced_orientation(path(3), (2, 1, 5))
        assert r.out_degree(0) == 1 and r.in_degree(0) == 0
        assert r.out_degree(1) == 0 and r.in_degree(1) == 2
        assert r.out_degree(2) == 1 and r.in_degree(2) == 0

    @given(graphs_with_config())
    def test_soundness(self, gc):
        g, c = gc
        r = induced_orientation(g, c)
        for (u, v), arrow in zip(g.edges, r.arrows):
            if c[u] > c[v]:
                assert arrow is Arrow.TO_HIGHER
            elif c[u] < c[v]:
                assert arrow is Arrow.TO_LOWER
            else:
                assert arrow is Arrow.FLAT

    @given(graphs_with_config(), st.integers(min_value=-10, max_value=10))
    def test_shift_invariant(self, gc, k):
        g, c = gc
        assert induced_orientation(g, shift(c, k)) == induced_orientation(g, c)


class TestZeroPreposition:
    def test_single_arrow(self):
        g = path(2)
        r = induced_orientation(g, (1, -1))
        assert zero_preposition_from_orientation(g, r) == (1, -1)

    def test_arrow_then_flat_impossible(self):
        g = path(3)
        r = Orientation(g, (Arrow.TO_HIGHER, Arrow.FLAT))
        assert zero_preposition_from_orientation(g, r) is None

    def test_all_flat_gives_zero(self):
        g = complete(4)
        r = Orientation(g, tuple(Arrow.FLAT for _ in g.edges))
        assert zero_preposition_from_orientation(g, r) == (0, 0, 0, 0)

    def test_mismatched_orientation_rejected(self):
        g = path(3)
        r = induced_orientation(path(2), (1, 0))
        with pytest.raises(ValueError):
            zero_preposition_from_orientation(g, r)

    @given(graphs_with_config())
    def test_reconstruction_soundness(self, gc):
        g, c = gc
        r = induced_orientation(g, c)
        rec = zero_preposition_from_orientation(g, r)
        if rec is not None:
            assert is_zero_configuration(fire(g, rec))
            assert induced_orientation(g, rec) == r

    @pytest.mark.parametrize(
        "g",
        [path(3), path(4), complete(3), Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])],
        ids=["p3", "p4", "k3", "c4"],
    )
    def test_uniqueness_by_exhaustion(self, g):
        # Brute-force every configuration within the degree bound: at most one
        # per orientation may fire to zero, and reconstruction finds exactly it.
        d = max(g.degree(v) for v in range(g.n))
        by_orientation = {}
        for stacks in itertools.product(range(-d, d + 1), repeat=g.n):
            if is_zero_configuration(fire(g, stacks)):
                key = induced_orientation(g, stacks).arrows
                by_orientation.setdefault(key, []).append(stacks)
        for key, configs in by_orientation.items():
            assert len(configs) == 1
            r = Orientation(g, key)
            assert zero_preposition_from_orientation(g, r) == configs[0]


def _excess(g, c0):
    """How far the trajectory of c0, fired to its period, gets outside
    [min c0, max c0]."""
    report = run(g, c0)
    lo, hi = min(c0), max(c0)
    rows = trace(g, c0, report.preperiod + report.period)
    return max(max(lo - min(c), max(c) - hi) for c in rows)


def _max_degree(g):
    return max(g.degree(v) for v in range(g.n))


class TestStackEnvelope:
    # The envelope conjecture (ROADMAP item 18): from any start C_0 on a
    # graph of maximum degree D, every stack stays in
    # [min C_0 - (D - 1), max C_0 + (D - 1)]; at D = 0 nothing moves, so the
    # slack is max(D - 1, 0). It is unproved: a failure here is a
    # counterexample to record, not a bound to loosen.

    def test_every_class_of_order_3_to_6_in_a_box(self):
        # Starts with min 0 or C_0(0) = 0 in [-4, 4]^3, [-3, 3]^4, [-2, 2]^5
        # and [-1, 1]^6 on every graph class; the bound is tight at every D.
        largest = {}
        starts = 0
        for n, k in ((3, 4), (4, 3), (5, 2), (6, 1)):
            box = [
                c for c in itertools.product(range(-k, k + 1), repeat=n)
                if min(c) == 0 or c[0] == 0
            ]
            for key in enumeration._classes(n, False):
                g = enumeration.graph_from_edge_mask(n, key)
                d = _max_degree(g)
                for c in box:
                    largest[d] = max(largest.get(d, 0), _excess(g, c))
                starts += len(box)
        assert starts == 73_876
        assert largest == {d: max(d - 1, 0) for d in range(6)}

    @given(graphs_with_config())
    def test_random_starts(self, gc):
        g, c = gc
        assert _excess(g, c) <= max(_max_degree(g) - 1, 0)


class TestIsZero:
    def test_zero(self):
        assert is_zero_configuration((0, 0, 0))

    def test_nonzero(self):
        assert not is_zero_configuration((0, 1, 0))

    def test_empty(self):
        assert is_zero_configuration(())
