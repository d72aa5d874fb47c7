import pytest

from chip_diffusion import (
    PathTableMismatchError,
    check_endpoint_lemma,
    count_zero2_subsets,
    domination_number,
    j_fibonacci,
    j_recurrence,
    path,
    path_table,
    pq2,
    pq2_path_closed,
)
from chip_diffusion import paths, quiescence


class TestClosedForms:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 1), (7, 3), (18, 6)])
    def test_pq2_closed(self, n, expected):
        assert pq2_path_closed(n) == expected

    def test_pq2_closed_matches_enumeration_at_18(self):
        assert pq2(path(18)) == pq2_path_closed(18) == 6

    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 4), (4, 6), (5, 8)])
    def test_recurrence_values(self, n, expected):
        assert j_recurrence(n) == expected

    def test_recurrence_matches_count_at_10(self):
        assert j_recurrence(10) == count_zero2_subsets(path(10)) == 70

    @pytest.mark.parametrize("n", range(23, 27))
    def test_count_matches_fibonacci_form_to_the_exhaustive_limit(self, n):
        # Criterion 6 covers n <= 22; this covers the rest of the count's range.
        assert count_zero2_subsets(path(n)) == j_fibonacci(n)

    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 4), (4, 6)])
    def test_fibonacci_form_values(self, n, expected):
        assert j_fibonacci(n) == expected

    @pytest.mark.parametrize("n", range(1, 31))
    def test_two_closed_forms_agree(self, n):
        assert j_fibonacci(n) == j_recurrence(n)

    @pytest.mark.parametrize("n", range(2, 30))
    def test_growth_is_monotone(self, n):
        assert j_recurrence(n + 1) >= j_recurrence(n)

    @pytest.mark.parametrize("fn", [pq2_path_closed, j_recurrence, j_fibonacci])
    def test_zero_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0)


class TestEndpointRule:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_holds_up_to_14(self, n):
        assert check_endpoint_lemma(n)

    @pytest.mark.parametrize("n", range(15, 25))
    def test_holds_over_several_blocks(self, n):
        # From n = 16 the lower half spans several blocks and vertex n - 2 is
        # a high vertex, so its membership plane is all ones or all zeros.
        assert check_endpoint_lemma(n)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            check_endpoint_lemma(1)

    def test_refuses_orders_above_the_count_limit_before_scanning(self, monkeypatch):
        # The rule scans the count's CCD blocks of P_n, so it takes the
        # exhaustive count's limit: 27 is refused before the path is built,
        # and 26 (stopped here at the build) is accepted.
        def no_build(n):
            raise LookupError(f"built path:{n}")

        monkeypatch.setattr(paths, "path", no_build)
        with pytest.raises(ValueError) as err:
            check_endpoint_lemma(27)
        assert str(err.value) == "exhaustive count supports up to 26 vertices, got 27"
        with pytest.raises(LookupError, match="built path:26"):
            check_endpoint_lemma(26)

    @pytest.mark.parametrize(
        "n, bad",
        [(4, 0b0011), (4, 0b0111), (4, 0b0001), (17, 1 << 14 | 1)],
        ids=["both", "first-only", "last-only", "p17-second-block"],
    )
    def test_false_when_a_step2_subset_breaks_the_rule(self, monkeypatch, n, bad):
        # P_n has no real counterexample, so a CCD kernel that also accepts
        # one lower-half mask breaking the rule at the first two vertices, the
        # last two, or both must turn the verdict. On P17 the mask {0, 14}
        # lies in the second block, where vertices 15 and 16 are high.
        real = quiescence._ccd_kernel

        def accepting(g, k):
            kernel = real(g, k)

            def block(high):
                verdict = kernel(high)
                return verdict | 1 << (bad - high) if high <= bad < high + (1 << k) else verdict

            return block

        monkeypatch.setattr(quiescence, "_ccd_kernel", accepting)
        assert not check_endpoint_lemma(n)


class TestPathTable:
    def test_first_two_rows(self):
        rows = path_table(2)
        assert (rows[0].n, rows[0].j_bruteforce, rows[0].pq2_bruteforce) == (1, 2, 1)
        assert (rows[1].n, rows[1].j_bruteforce, rows[1].pq2_bruteforce) == (2, 4, 1)

    def test_row_five(self):
        rows = path_table(5)
        assert rows[4].j_bruteforce == 8

    @pytest.mark.parametrize("n_max", [1, 6, 12])
    def test_all_columns_consistent(self, n_max):
        for row in path_table(n_max):
            assert row.j_bruteforce == row.j_recurrence == row.j_fibonacci
            assert row.pq2_bruteforce == row.pq2_closed
            assert row.pq2_closed == domination_number(path(row.n))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            path_table(0)

    def test_count_disagreement_raises(self, monkeypatch):
        real = paths.j_recurrence
        monkeypatch.setattr(paths, "j_recurrence", lambda n: real(n) + (n == 3))
        message = r"n=3: subset counts disagree \(brute=4, recurrence=5, fibonacci=4\)"
        with pytest.raises(PathTableMismatchError, match=message):
            path_table(5)

    def test_pq2_disagreement_raises(self, monkeypatch):
        real = paths.pq2_path_closed
        monkeypatch.setattr(paths, "pq2_path_closed", lambda n: real(n) + (n == 4))
        message = r"n=4: pq2 disagrees \(brute=2, closed=3\)"
        with pytest.raises(PathTableMismatchError, match=message):
            path_table(5)

    def test_uncountable_order_refused_before_any_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            pytest.fail("path_table computed a row before refusing n_max")

        monkeypatch.setattr(paths, "count_zero2_subsets", no_rows)
        with pytest.raises(ValueError, match="up to 26 vertices, got 27"):
            path_table(27)
