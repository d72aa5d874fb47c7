"""The CLI byte-identity sweep: commands whose exit code, stdout and stderr
are pinned, so a change to the scans behind them (the CCD block scans, the
lane walks, the census) shows as a changed byte. Each command runs in
process through cli.main, from a directory holding q4.txt, the edge list of
the 4-cube Q4 = C4 x C4 (vertex (i, j) numbered 4i + j), whose walks leave
[-Delta, Delta]. An output longer than 120 characters is pinned by its
sha256 digest.
"""

import hashlib

import pytest

from chip_diffusion import cli

Q4_EDGES = sorted({
    tuple(sorted((4 * i + j, w)))
    for i in range(4) for j in range(4)
    for w in ((i + 1) % 4 * 4 + j, 4 * i + (j + 1) % 4)
})


def pin(text):
    if len(text) <= 120:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def json_line(**fields):
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"


def count_line(graph, count, trivial="true"):
    return json_line(graph=f'"{graph}"', include_trivial=trivial, count=count)


def search_stderr(witnesses, inconclusive, total=1024):
    return (
        f"progress: {total}/{total} edge masks, {witnesses} witnesses, {inconclusive} inconclusive\n"
        f"search done: {witnesses} witnesses, {inconclusive} inconclusive\n"
    )


SWEEP = [
    # (argv, exit code, stdout, stderr)
    (["count", "--graph", "path:22"], 0, count_line("path:22", 21894), ""),
    (["pq2", "--graph", "path:22"], 0, json_line(graph='"path:22"', pq2=8), ""),
    (["count", "--graph", "cycle:20"], 0, count_line("cycle:20", 15128), ""),
    (["pq2", "--graph", "cycle:20"], 0, json_line(graph='"cycle:20"', pq2=7), ""),
    (["count", "--graph", "kbip:10,10"], 0, count_line("kbip:10,10", 184758), ""),
    (["pq2", "--graph", "kbip:10,10"], 0, json_line(graph='"kbip:10,10"', pq2=2), ""),
    (["count", "--graph", "complete:22"], 0, count_line("complete:22", 4194304), ""),
    (["pq2", "--graph", "complete:22"], 0, json_line(graph='"complete:22"', pq2=1), ""),
    (
        ["count", "--graph", "path:22", "--exclude-trivial"], 0,
        count_line("path:22", 21892, "false"), "",
    ),
    (["pq", "--graph", "path:18"], 0, json_line(graph='"path:18"', pq=6, status='"ok"'), ""),
    (["pq", "--graph", "q4.txt"], 0, json_line(graph='"q4.txt"', pq=4, status='"ok"'), ""),
    (
        ["pq", "--graph", "path:9", "--max-steps", "2"], 1,
        json_line(graph='"path:9"', pq="null", status='"unknown"'), "",
    ),
    (
        ["check", "--graph", "path:5", "--subset", "0,2"], 0,
        "sha256:0f6c2ca4cdd0943c0b9b75ed7c41b9d4369ee79cce38ab8f57d524000e24c21d", "",
    ),
    (
        ["check", "--graph", "path:5", "--subset", "1"], 0,
        "sha256:236144f83b6e80b2e0ccc7ec207912a540defb985ba6d951d55b98ee068cb1d5", "",
    ),
    (
        ["check", "--graph", "cycle:6", "--subset", "0,1,2"], 0,
        "sha256:6bfe65247b9c2bac3f1839ac909713ab1ba5c2e899bf7dac7899299fff4fbcec", "",
    ),
    (
        ["check", "--graph", "kbip:2,3", "--subset", "0,1"], 0,
        '{"graph": "kbip:2,3", "subset": [0, 1], "ccd": true, "zero2": true, '
        '"zero": {"status": "reached_zero", "step": 2}}\n', "",
    ),
    (
        ["check", "--graph", "q4.txt", "--subset", "0,2,3,5,6,8"], 0,
        "sha256:d1085430f1cbb8da5b8be5f0420bfe2571277c1eff0f598b2814b56f2e667d22", "",
    ),
    (
        ["check", "--graph", "complete:4", "--subset", ""], 0,
        '{"graph": "complete:4", "subset": [], "ccd": true, "zero2": true, '
        '"zero": {"status": "reached_zero", "step": 0}}\n', "",
    ),
    (["check", "--graph", "path:3", "--subset", "9"], 1, "", "error: vertex 9 outside [0, 3)\n"),
    (
        ["check", "--graph", "path:6", "--subset", "0", "--max-steps", "2"], 1,
        '{"graph": "path:6", "subset": [0], "ccd": false, "zero2": false, '
        '"zero": {"status": "cap_exceeded", "step": null}}\n', "",
    ),
    (
        ["paths-table", "--n-max", "18"], 0,
        "sha256:2da877823603ce56b09c0b122ddeda25bca451c473d9a5c37ec2a45138cb2f35", "",
    ),
    (
        ["paths-table", "--n-max", "12", "--format", "csv"], 0,
        "sha256:627fe14b3598998f44d095144ea78d5dc7f0877196780a3dbb77d4883d1be377", "",
    ),
    (["search", "--n", "5", "--progress", "--max-steps", "1"], 1, "", search_stderr(0, 1023)),
    (["search", "--n", "5", "--progress", "--max-steps", "2"], 1, "", search_stderr(0, 972)),
    (["search", "--n", "5", "--progress"], 0, "", search_stderr(0, 0)),
    (["search", "--n", "6", "--connected-only", "--progress"], 0, "", search_stderr(0, 0, 32768)),
    (
        ["search", "--n", "6", "--progress", "--max-steps", "1"], 1, "",
        search_stderr(0, 32767, 32768),
    ),
    (
        ["search", "--n", "6", "--connected-only", "--progress", "--max-steps", "1"], 1, "",
        search_stderr(0, 26704, 32768),
    ),
    (
        ["search", "--n", "6", "--progress", "--max-steps", "2"], 1, "",
        search_stderr(0, 32565, 32768),
    ),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", SWEEP, ids=[" ".join(a) for a, *_ in SWEEP])
def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys, argv, code, stdout, stderr):
    (tmp_path / "q4.txt").write_text(
        f"16 {len(Q4_EDGES)}\n" + "".join(f"{u} {v}\n" for u, v in Q4_EDGES)
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    out = capsys.readouterr()
    assert (pin(out.out), pin(out.err)) == (stdout, stderr)


def test_low_cap_census_checkpoint_counts_all_but_the_edgeless_graph(tmp_path, capsys):
    # At cap 1 every graph on 6 vertices but the edgeless one (mask 0) is
    # INCONCLUSIVE, so the run's one record counts 32767 of the 32768 masks.
    ckpt = tmp_path / "scan.ckpt"
    assert cli.main(["search", "--n", "6", "--max-steps", "1", "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr() == ("", "search done: 0 witnesses, 32767 inconclusive\n")
    assert ckpt.read_text() == "search 6 1 0 0 32767\n6 32767\n"
