import json
import subprocess
import sys
from pathlib import Path

import pytest

from chip_diffusion import cli, graphs

SRC = str(Path(__file__).resolve().parent.parent / "src")

P5_TRACE_CSV = """\
step,v0,v1,v2,v3,v4
0,0,2,0,4,1
1,1,0,2,2,2
2,0,2,1,2,2
3,1,0,3,1,2
4,0,2,1,3,1
5,1,0,3,1,2
6,0,2,1,3,1
"""

PATHS_TABLE_JSON = (
    '[{"n": 1, "j_bruteforce": 2, "j_recurrence": 2, "j_fibonacci": 2, '
    '"pq2_bruteforce": 1, "pq2_closed": 1}, '
    '{"n": 2, "j_bruteforce": 4, "j_recurrence": 4, "j_fibonacci": 4, '
    '"pq2_bruteforce": 1, "pq2_closed": 1}, '
    '{"n": 3, "j_bruteforce": 4, "j_recurrence": 4, "j_fibonacci": 4, '
    '"pq2_bruteforce": 1, "pq2_closed": 1}]\n'
)

PATHS_TABLE_CSV = """\
n,j_bruteforce,j_recurrence,j_fibonacci,pq2_bruteforce,pq2_closed
1,2,2,2,1,1
2,4,4,4,1,1
3,4,4,4,1,1
4,6,6,6,2,2
5,8,8,8,2,2
"""


def run_cli(*args, **kwargs):
    env = dict(kwargs.pop("env", {}), PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "chip_diffusion", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        **kwargs,
    )


class TestSimulate:
    def test_csv_trace_golden(self):
        result = run_cli(
            "simulate", "--graph", "path:5", "--config", "0,2,0,4,1",
            "--steps", "6", "--format", "csv",
        )
        assert result.returncode == 0
        assert result.stdout == P5_TRACE_CSV

    def test_json_trace(self):
        result = run_cli("simulate", "--graph", "path:3", "--config", "1,0,-1", "--steps", "1")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["trace"] == [[1, 0, -1], [0, 0, 0]]

    def test_output_is_deterministic(self):
        args = ("simulate", "--graph", "cycle:4", "--config", "3,1,-2,0", "--steps", "9")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_config_length_mismatch(self):
        result = run_cli("simulate", "--graph", "path:3", "--config", "1,2", "--steps", "1")
        assert result.returncode == 1
        assert "3 vertices" in result.stderr


class TestPerturb:
    def test_json(self):
        result = run_cli("perturb", "--graph", "path:6", "--subset", "0,1,3,4")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["config"] == [0, -1, 2, -1, -1, 1]

    def test_empty_subset(self):
        result = run_cli("perturb", "--graph", "path:3", "--subset", "")
        assert json.loads(result.stdout)["config"] == [0, 0, 0]

    def test_csv(self):
        result = run_cli("perturb", "--graph", "path:6", "--subset", "0,1,3,4", "--format", "csv")
        assert result.stdout == "v0,v1,v2,v3,v4,v5\n0,-1,2,-1,-1,1\n"


class TestCheck:
    def test_unbalanced_blocks_on_p6(self):
        result = run_cli("check", "--graph", "path:6", "--subset", "0,1,3,4")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["ccd"] is False
        assert payload["zero2"] is False

    def test_middle_pair_on_p4(self):
        result = run_cli("check", "--graph", "path:4", "--subset", "1,2")
        payload = json.loads(result.stdout)
        assert payload["ccd"] is True
        assert payload["zero2"] is True
        assert payload["zero"] == {"status": "reached_zero", "step": 2}

    def test_period_without_zero_reports_cycle(self, tmp_path):
        graph_file = tmp_path / "rigid.edges"
        graph_file.write_text("6 8\n5 4\n4 3\n4 2\n4 1\n3 1\n3 0\n2 1\n1 0\n")
        result = run_cli("check", "--graph", str(graph_file), "--subset", "1")
        payload = json.loads(result.stdout)
        assert payload["zero"]["status"] == "period_without_zero"
        assert payload["zero"]["preperiod"] == 5
        assert payload["zero"]["period"] == 2

    def test_cap_exceeded_exits_one(self):
        result = run_cli("check", "--graph", "path:5", "--subset", "0", "--max-steps", "1")
        assert result.returncode == 1
        assert json.loads(result.stdout)["zero"]["status"] == "cap_exceeded"

    def test_bad_subset_exits_one(self):
        result = run_cli("check", "--graph", "path:3", "--subset", "0,9")
        assert result.returncode == 1
        assert "outside" in result.stderr


class TestCountAndQuiescentNumbers:
    def test_count_p5(self):
        payload = json.loads(run_cli("count", "--graph", "path:5").stdout)
        assert payload == {"graph": "path:5", "include_trivial": True, "count": 8}

    def test_count_excluding_trivial(self):
        payload = json.loads(
            run_cli("count", "--graph", "path:5", "--exclude-trivial").stdout
        )
        assert payload["count"] == 6

    def test_pq2_p7(self):
        assert json.loads(run_cli("pq2", "--graph", "path:7").stdout)["pq2"] == 3

    def test_pq_p7(self):
        payload = json.loads(run_cli("pq", "--graph", "path:7").stdout)
        assert payload == {"graph": "path:7", "pq": 3, "status": "ok"}

    def test_pq_unknown_under_tiny_cap(self):
        result = run_cli("pq", "--graph", "path:4", "--max-steps", "1")
        assert result.returncode == 1
        assert json.loads(result.stdout)["status"] == "unknown"

    def test_pq_exact_under_tiny_cap_when_pq2_is_one(self):
        # pq2(P3) = 1 is exact, and no smaller subset exists to walk.
        result = run_cli("pq", "--graph", "path:3", "--max-steps", "1")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"graph": "path:3", "pq": 1, "status": "ok"}

    def test_pq_zero_step_cap_exits_one(self):
        result = run_cli("pq", "--graph", "path:3", "--max-steps", "0")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: --max-steps must be >= 1, got 0\n"


class TestSearch:
    def test_n3_no_witnesses(self):
        result = run_cli("search", "--n", "3")
        assert result.returncode == 0
        assert result.stdout == ""
        assert "0 witnesses" in result.stderr

    def test_checkpoint_written(self, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        result = run_cli("search", "--n", "3", "--checkpoint", str(ckpt))
        assert result.returncode == 0
        assert ckpt.read_text().strip().splitlines()[-1] == "3 7"

    def test_connected_order_seven_has_no_witness(self, tmp_path):
        # The exhaustive census of all 2,097,152 labelled graphs on 7 vertices
        # at the default cap: no connected one has a subset that returns to
        # zero after step 2, and none is left undecided.
        ckpt = tmp_path / "scan7.ckpt"
        result = run_cli("search", "--n", "7", "--connected-only", "--checkpoint", str(ckpt))
        assert result.returncode == 0
        assert result.stdout == ""
        assert result.stderr == "search done: 0 witnesses, 0 inconclusive\n"
        assert ckpt.read_text().endswith("\n7 2097151\n")

    def test_order_seven_has_no_witness(self, tmp_path):
        # The same census over all graphs on 7 vertices. With no witness and
        # nothing undecided at the default cap, there is no witness at any
        # cap, order or mode the census accepts (search_all_graphs' cost
        # lemma).
        ckpt = tmp_path / "scan7.ckpt"
        result = run_cli("search", "--n", "7", "--checkpoint", str(ckpt))
        assert result.returncode == 0
        assert result.stdout == ""
        assert result.stderr == "search done: 0 witnesses, 0 inconclusive\n"
        assert ckpt.read_text() == "search 7 10000 0 0 0\n7 2097151\n"

    def test_progress_lines(self):
        result = run_cli("search", "--n", "3", "--progress")
        assert "progress:" in result.stderr

    def test_zero_step_cap_exits_one(self):
        result = run_cli("search", "--n", "3", "--max-steps", "0")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: --max-steps must be >= 1, got 0\n"

    def test_zero_threads_exits_one(self):
        result = run_cli("search", "--n", "3", "--threads", "0")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: --threads must be >= 1, got 0\n"

    def test_negative_n_exits_one(self):
        result = run_cli("search", "--n", "-1")
        assert result.returncode == 1
        assert "n must be >= 0" in result.stderr

    @pytest.mark.parametrize(
        "text",
        ["search 4 50 0 0 0\n4 10\n", "search 3 2 0 0 0\n3 5\n", "search 3 50 1 0 0\n3 5\n",
         "3 5\n", "search 3 50 0 0\n3 5\n", "search 3 10000 0 99 99\n3 3\n",
         "search 3 10000 0 1 0\n3 5\n"],
        ids=["other-n", "other-max-steps", "connected-only", "old-log", "garbled",
             "counts-beyond-masks", "counts-differ"],
    )
    def test_resume_refuses_foreign_checkpoint(self, tmp_path, text):
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_text(text)
        result = run_cli("search", "--n", "3", "--checkpoint", str(ckpt), "--resume")
        assert result.returncode == 1
        assert result.stdout == ""
        assert "checkpoint" in result.stderr
        assert ckpt.read_text() == text

    def test_resume_without_checkpoint_exits_one(self):
        result = run_cli("search", "--n", "3", "--resume")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: --resume requires --checkpoint\n"

    @pytest.mark.parametrize(
        "path,message",
        [
            ("nodir/scan.ckpt", "checkpoint nodir/scan.ckpt: nodir is not a directory"),
            ("ckdir", "checkpoint ckdir is a directory"),
        ],
        ids=["missing-directory", "names-a-directory"],
    )
    def test_checkpoint_misuse_exits_one_before_any_work(self, tmp_path, path, message):
        # Refused under the path as typed, before the n = 7 census starts.
        (tmp_path / "ckdir").mkdir()
        result = run_cli("search", "--n", "7", "--checkpoint", path, cwd=tmp_path)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["ckdir"]

    def test_resume_refuses_missing_checkpoint(self, tmp_path):
        ckpt = tmp_path / "missing.ckpt"
        result = run_cli("search", "--n", "3", "--checkpoint", str(ckpt), "--resume")
        assert result.returncode == 1
        assert result.stdout == ""
        assert f"checkpoint {ckpt} does not exist; drop --resume" in result.stderr
        assert list(tmp_path.iterdir()) == []


class TestPathsTable:
    def test_csv_golden(self):
        result = run_cli("paths-table", "--n-max", "5", "--format", "csv")
        assert result.returncode == 0
        assert result.stdout == PATHS_TABLE_CSV

    def test_json_rows(self):
        # Byte golden: pins the key order as well as the values.
        result = run_cli("paths-table", "--n-max", "3")
        assert result.returncode == 0
        assert result.stdout == PATHS_TABLE_JSON


class TestGraphSources:
    def test_edge_list_file(self, tmp_path):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("4 3\n0 1\n1 2\n2 3\n")
        payload = json.loads(run_cli("pq2", "--graph", str(graph_file)).stdout)
        assert payload["pq2"] == 2

    def test_edge_list_file_count_and_pq(self, tmp_path):
        graph_file = tmp_path / "g.edges"
        graph_file.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert json.loads(run_cli("count", "--graph", str(graph_file)).stdout)["count"] == 6
        assert json.loads(run_cli("pq", "--graph", str(graph_file)).stdout)["pq"] == 2

    @pytest.mark.parametrize(
        "command,limit",
        [
            ("count", "exhaustive count supports up to 26"),
            ("pq2", "subset enumeration supports up to 63"),
            ("pq", "subset enumeration supports up to 63"),
        ],
    )
    def test_oversized_header_refused_before_any_graph(
        self, tmp_path, monkeypatch, capsys, command, limit
    ):
        # The order check runs on the parsed header or on a spec's order, so
        # no n-long neighbour table is ever allocated.
        graph_file = tmp_path / "big.edges"
        graph_file.write_text("3000000 0\n")

        def no_graph(*args, **kwargs):
            raise AssertionError("a Graph was built for an oversized source")

        monkeypatch.setattr(cli, "Graph", no_graph)
        monkeypatch.setattr(graphs, "Graph", no_graph)
        sources = [
            (str(graph_file), 3000000),
            ("path:3000000", 3000000),
            ("complete:2000", 2000),
            ("kbip:1,2999999", 3000000),
            ("kpartite:1000000,1000000,1000000", 3000000),
        ]
        for source, n in sources:
            assert cli.main([command, "--graph", source]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: {limit} vertices, got {n}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["simulate", "--config", "0,1", "--steps", "1"],
                "configuration has 2 stacks but graph has 3000000 vertices",
            ),
            (["perturb", "--subset", "3000000"], "vertex 3000000 outside [0, 3000000)"),
            (["check", "--subset", "3000000"], "vertex 3000000 outside [0, 3000000)"),
            (["check", "--subset", "0", "--max-steps", "0"], "--max-steps must be >= 1, got 0"),
            (
                ["simulate", "--config", ",".join(["0"] * 3000000), "--steps", "-1"],
                "--steps must be >= 0, got -1",
            ),
        ],
        ids=["simulate", "perturb", "check", "check-max-steps", "simulate-steps"],
    )
    def test_misfit_request_refused_before_any_graph(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # A configuration or subset that cannot fit the source's order, or a
        # step argument out of range, is refused before the Graph is built.
        graph_file = tmp_path / "big.edges"
        graph_file.write_text("3000000 0\n")

        def no_graph(*args, **kwargs):
            raise AssertionError("a Graph was built for a refused request")

        monkeypatch.setattr(cli, "Graph", no_graph)
        monkeypatch.setattr(graphs, "Graph", no_graph)
        for source in (str(graph_file), "path:3000000"):
            assert cli.main([argv[0], "--graph", source, *argv[1:]]) == 1
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: {message}\n"

    def test_spec_order_checked_before_its_arguments(self, capsys):
        # The order is the sum of the arguments, checked before any
        # generator sees them, so a bad part size above the limit reports
        # the limit.
        assert cli.main(["count", "--graph", "kbip:-1,30"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: exhaustive count supports up to 26 vertices, got 29\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "--graph", "path:-1", "--config", "", "--steps", "1"],
             "path needs n >= 1, got -1"),
            (["perturb", "--graph", "path:-2", "--subset", ""], "path needs n >= 1, got -2"),
            (["check", "--graph", "path:-2", "--subset", ""], "path needs n >= 1, got -2"),
            (["count", "--graph", "kpartite:2,-3"], "part sizes must be >= 1, got [2, -3]"),
        ],
        ids=["simulate", "perturb", "check", "count"],
    )
    def test_negative_spec_order_reports_the_generator(self, capsys, argv, message):
        # A negative order fits no request, so the generator's refusal is
        # the one that names the argument at fault.
        assert cli.main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    def test_malformed_file_reports_line(self, tmp_path):
        graph_file = tmp_path / "bad.edges"
        graph_file.write_text("3 2\n0 1\n1 9\n")
        result = run_cli("pq2", "--graph", str(graph_file))
        assert result.returncode == 1
        assert "line 3" in result.stderr

    def test_missing_file(self):
        result = run_cli("pq2", "--graph", "no-such-file.edges")
        assert result.returncode == 1
        assert "No such file or directory" in result.stderr

    @pytest.mark.parametrize("source", ["data/run:1.edges", "C:/graphs/g.edges"])
    def test_missing_path_with_colon_is_a_file(self, tmp_path, source):
        # A spec kind never contains a path separator, so this is a file.
        result = run_cli("pq2", "--graph", source, cwd=tmp_path)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "No such file or directory" in result.stderr

    def test_bad_spec(self):
        result = run_cli("pq2", "--graph", "path:zero")
        assert result.returncode == 1

    def test_unknown_spec_kind(self):
        result = run_cli("pq2", "--graph", "grid:3")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: bad graph spec 'grid:3'\n"

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_file_name_with_colon_is_a_file(self, tmp_path, relative):
        graph_file = tmp_path / "path:3"
        graph_file.write_text("4 3\n0 1\n1 2\n2 3\n")
        source = graph_file.name if relative else str(graph_file)
        result = run_cli("pq2", "--graph", source, cwd=tmp_path)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"graph": source, "pq2": 2}


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run_cli("simulate", "--bogus").returncode == 2

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_bad_int_flag(self):
        result = run_cli("simulate", "--graph", "path:3", "--config", "0,0,0", "--steps", "x")
        assert result.returncode == 2
