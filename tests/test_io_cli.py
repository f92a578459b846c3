import dataclasses
import json
import math
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from ballann import generate_instance, normalize, build_registry
from ballann.avd import AVDIndex, audit_cells, avd_query, build_avd
from ballann.cli import main
from ballann.geometry import Ball, InputError, ball_distance
from ballann.io import (
    load_index,
    parse_query_line,
    read_balls,
    save_avd,
    save_index,
    save_registry,
    write_balls,
)
from ballann.oracle import exact_kth_distance

ROOT = Path(__file__).resolve().parents[1]


# -- ball files -------------------------------------------------------------------


def test_ball_file_round_trip(tmp_path):
    balls = generate_instance(3, 2, 25, "clustered")
    path = tmp_path / "a.balls"
    write_balls(str(path), balls)
    back = read_balls(str(path))
    assert back == balls  # %.17g keeps doubles exactly


def test_ball_file_header_and_rows_validated(tmp_path):
    p = tmp_path / "bad.balls"
    p.write_text("nonsense\n")
    with pytest.raises(InputError):
        read_balls(str(p))
    p.write_text("2 3\n0.1 0.2 0.01\n")
    with pytest.raises(InputError):
        read_balls(str(p))  # promised 3 rows
    p.write_text("1 1\n0.5 -0.25\n")
    with pytest.raises(InputError):
        read_balls(str(p))  # negative radius
    p.write_text("1 1\n0.5 nan\n")
    with pytest.raises(InputError):
        read_balls(str(p))
    p.write_text("1 1\n0.5 0.1 0.2\n")
    with pytest.raises(InputError):
        read_balls(str(p))  # wrong arity


# -- query lines ------------------------------------------------------------------


def test_parse_query_line_arms():
    q, k, eps = parse_query_line("0.5 0.25 7 0.2", 2, 50, None, None)
    assert q == (0.5, 0.25) and k == 7 and eps == 0.2
    q, k, eps = parse_query_line("0.5 0.25", 2, 50, 3, 0.5)
    assert k == 3 and eps == 0.5
    q, k, eps = parse_query_line("0.5 0.25 9", 2, 50, None, 0.5)
    assert k == 9 and eps == 0.5
    # Matching explicit columns are fine; conflicting ones are not.
    parse_query_line("0.5 0.25 3 0.5", 2, 50, 3, 0.5)
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 4 0.5", 2, 50, 3, 0.5)
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 3 0.1", 2, 50, 3, 0.5)
    with pytest.raises(InputError):
        parse_query_line("0.5", 2, 50, 3, 0.5)  # not enough coordinates
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25", 2, 50, None, 0.5)  # k unresolved
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 0 0.5", 2, 50, None, None)  # k < 1
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 3 1.5", 2, 50, None, None)  # eps out of range
    with pytest.raises(InputError, match=r"k must lie in \[1, 50\], got 51"):
        parse_query_line("0.5 0.25 51 0.5", 2, 50, None, None)  # k > n
    parse_query_line("0.5 0.25 50 0.5", 2, 50, None, None)
    with pytest.raises(InputError):
        parse_query_line("0.5 x", 2, 50, 3, 0.5)


# -- index round trips ---------------------------------------------------------------


def test_registry_save_load_replays_queries(tmp_path):
    balls = generate_instance(5, 2, 40)
    reg = build_registry(normalize(balls, 0.25))
    path = tmp_path / "reg.idx"
    save_registry(str(path), reg)
    reg2 = load_index(str(path))
    # Every field of the instance, its arrays bit for bit.
    for f in dataclasses.fields(reg.instance):
        got, want = getattr(reg2.instance, f.name), getattr(reg.instance, f.name)
        assert type(got) is type(want) and np.array_equal(got, want), f.name
    from ballann.knn import query

    rng = np.random.default_rng(0)
    for _ in range(50):
        q = tuple(rng.random(2))
        assert query(reg, q, 5, 0.3) == query(reg2, q, 5, 0.3)


_REGISTRY_ARRAYS = ("_table", "_node_first", "_cut", "_cut_cnt", "_cut_table")
_TREE_ARRAYS = (
    "z", "level", "shift", "z_hi", "parent", "child_off", "child_idx",
    "point_codes", "point_perm", "span_lo", "span_hi",
)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_registry_load_rebuilds_the_same_arrays(tmp_path, d):
    """load_index rebuilds a saved registry from its balls: every
    centers-tree array, node table and stored-cut row is the built
    registry's, bit for bit, and so are the root's plain floats."""
    reg = build_registry(normalize(generate_instance(40 + d, d, 150, "clustered"), 0.5))
    path = tmp_path / "reg.idx"
    save_index(str(path), reg)
    back = load_index(str(path))
    for obj, names in ((reg.centers_tree, _TREE_ARRAYS), (reg, _REGISTRY_ARRAYS)):
        other = back.centers_tree if obj is reg.centers_tree else back
        for name in names:
            got, want = getattr(other, name), getattr(obj, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    roots = ("_root_lo", "_root_hi", "_root_rmin", "_root_rmax", "_root_first", "_root_splits")
    assert [getattr(back, a) for a in roots] == [getattr(reg, a) for a in roots]
    assert reg._cut.size > 0


def test_avd_save_load_equal_arrays_and_answers(tmp_path):
    balls = generate_instance(8, 1, 48)
    reg = build_registry(normalize(balls, 0.5))
    a = build_avd(reg, 12, 0.5)
    path = tmp_path / "a.idx"
    save_avd(str(path), a)
    b = load_index(str(path))
    assert isinstance(b, AVDIndex)
    assert (b.k, b.eps, b.mode, b.zeta1) == (a.k, a.eps, a.mode, a.zeta1)
    assert np.array_equal(a.tree.z, b.tree.z)
    for name in ("rep", "row", "kdist", "kdist_witness", "site"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.clusters) == len(b.clusters)
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = tuple(rng.random(1))
        assert avd_query(a, q) == avd_query(b, q)
    # A strict index keeps its site column and clusters.
    s = build_avd(build_registry(normalize(generate_instance(6025, 1, 8), 0.5)), 7, 0.5, "strict")
    assert s.clusters
    save_avd(str(path), s)
    t = load_index(str(path))
    assert (t.mode, t.stats["clusters"]) == ("strict", len(s.clusters))
    assert np.array_equal(s.tree.z, t.tree.z) and np.array_equal(s.tree.level, t.tree.level)
    for name in ("rep", "row", "kdist", "kdist_witness", "site"):
        assert np.array_equal(getattr(s, name), getattr(t, name)), name
    assert len(t.clusters) == len(s.clusters)
    for cs, ct in zip(s.clusters, t.clusters):
        assert np.array_equal(cs.center, ct.center) and np.array_equal(cs.assigned, ct.assigned)
        assert (cs.radius, cs.rho, cs.gamma, cs.witness, cs.round_index, cs.is_remainder) == (
            ct.radius, ct.rho, ct.gamma, ct.witness, ct.round_index, ct.is_remainder
        )
    for _ in range(200):
        q = tuple(rng.random(1))
        assert avd_query(s, q) == avd_query(t, q)


def test_avd_practical_file_size(tmp_path, monkeypatch):
    """A practical file holds the container head, the BAVD header, the
    instance, the cluster and cell counts, per cell a key and a level, per
    live cell an estimate and a witness, the five stats and the CRC: no
    representative, no site, no flags and no row for a tiled cell."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    w = workloads.WORKLOADS["cell-d2"]
    centers, radii, _, _, _ = workloads.make_inputs(w, 1)
    balls = [Ball(tuple(c), float(r)) for c, r in zip(centers.tolist(), radii)]
    a = build_avd(build_registry(normalize(balls, w.floor)), w.cell_k, w.cell_eps)
    n, d, s = a.registry.n, a.registry.dim, a.tree.size
    live = int(np.count_nonzero(~a.tree.tiled))
    instance = 28 + 8 * d + 8 * n * (d + 1)
    expect = 8 + 28 + instance + 8 + 8 + s * (8 + 8) + live * (8 + 8) + 40 + 4
    assert live < s and len(_saved_bytes(a, tmp_path)) == expect == 46_364


def _saved_bytes(a, tmp_path):
    path = tmp_path / "saved.idx"
    save_avd(str(path), a)
    return path.read_bytes()


def test_avd_version_1_file_is_rejected(tmp_path):
    balls = generate_instance(8, 1, 48)
    a = build_avd(build_registry(normalize(balls, 0.5)), 12, 0.5)
    blob = _saved_bytes(a, tmp_path)
    assert blob[:4] == b"BAVD" and struct.unpack_from("<H", blob, 4)[0] == 5
    queries = tmp_path / "q.txt"
    queries.write_text("0.5\n")
    # The header sits outside the payload, so each forged file keeps a
    # valid CRC; a version 4 file stores rows for tiled cells and a flags
    # column, which format 5 would read as other columns.
    for version, match in (
        (1, "predates format 5 and must be rebuilt"),
        (2, "predates format 5 and must be rebuilt"),
        (3, "predates format 5 and must be rebuilt"),
        (4, "predates format 5 and must be rebuilt"),
        (6, "unsupported version"),
    ):
        old = tmp_path / f"v{version}.idx"
        old.write_bytes(blob[:4] + struct.pack("<H", version) + blob[6:])
        with pytest.raises(InputError, match=match):
            load_index(str(old))
        assert main(["query", str(old), str(queries)]) == 1


def test_index_integrity_rejects_damage(tmp_path):
    balls = generate_instance(9, 1, 16)
    reg = build_registry(normalize(balls, 0.5))
    path = tmp_path / "reg.idx"
    save_registry(str(path), reg)
    blob = path.read_bytes()

    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(InputError, match="integrity"):
        load_index(str(trunc))

    flipped = bytearray(blob)
    flipped[30] ^= 0xFF
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(flipped))
    with pytest.raises(InputError, match="integrity"):
        load_index(str(bad))

    weird = tmp_path / "weird.idx"
    weird.write_bytes(b"WXYZ" + blob[4:])
    with pytest.raises(InputError, match="magic"):
        load_index(str(weird))

    tiny = tmp_path / "tiny.idx"
    tiny.write_bytes(b"BRE")
    with pytest.raises(InputError):
        load_index(str(tiny))

    # A cell index whose columns point outside what it holds, or whose sizes
    # disagree with its arrays, with a valid CRC: the load rejects it, and
    # `ballann query` exits 1.  A practical file holds no clusters and no
    # site column; the cluster and site cases use a strict file.
    a = build_avd(build_registry(normalize(generate_instance(9, 1, 60), 0.5)), 15, 0.5)
    s = build_avd(build_registry(normalize(generate_instance(6025, 1, 8), 0.5)), 7, 0.5, "strict")
    assert a.clusters == [] and s.clusters
    save_avd(str(path), a)
    blob = path.read_bytes()
    save_avd(str(path), s)
    strict_blob = path.read_bytes()
    at, size, n = _bavd_layout(a, blob), a.tree.size, a.registry.n
    sat = _bavd_layout(s, strict_blob)
    assert "site" not in at
    # The last live cell's row.
    live = int(np.count_nonzero(~a.tree.tiled)) - 1
    slive = int(np.count_nonzero(~s.tree.tiled)) - 1
    last = size - 1
    queries = tmp_path / "q.txt"
    queries.write_text("0.5\n")
    cases = [
        (strict_blob, "site", sat["site"] + 8 * slive, len(s.clusters)),
        (strict_blob, "site", sat["site"] + 8 * slive, -1),
        (blob, "witness", at["witness"] + 8 * live, n),
        (blob, "witness", at["witness"] + 8 * live, -1),
        (strict_blob, "ball id", sat["cluster_witness"], s.registry.n),
        (blob, "levels", at["level"] + 8 * last, 53),
        (blob, "canonical", at["z"] + 8 * last, int(a.tree.z[last]) + 1),
        # The root's key 0 is canonical at every level and sorts first.
        (blob, "increasing", at["z"] + 8 * last, 0),
    ]
    damaged_files = []
    for source, match, pos, value in cases:
        damaged = bytearray(source)
        struct.pack_into("<q", damaged, pos, value)
        damaged_files.append((match, damaged))
    # Sizes that disagree with the arrays they count: the cell count, the
    # cluster count, cluster 0's assigned length, the instance's n and d.
    sizes = [
        (blob, "<Q", at["z"] - 8, size + 1),
        (blob, "<Q", at["z"] - 8, size - 1),
        (blob, "<Q", at["z"] - 8, 2**62),
        (strict_blob, "<Q", sat["clusters"], len(s.clusters) + 1),
        (strict_blob, "<Q", sat["clusters"], 2**63),
        (strict_blob, "<Q", sat["assigned_len"], s.clusters[0].assigned.size - 1),
        (strict_blob, "<Q", sat["assigned_len"], 2**61),
        (blob, "<Q", at["instance"] + 4, n + 1),
        (blob, "<I", at["instance"], 0),
        (blob, "<I", at["instance"], 7),
    ]
    assert struct.unpack_from("<Q", strict_blob, sat["assigned_len"])[0] == s.clusters[0].assigned.size
    assert struct.unpack_from("<Q", blob, at["clusters"])[0] == 0
    truncated = "malformed|ended early|trailing bytes"
    for source, fmt, pos, value in sizes:
        damaged = bytearray(source)
        struct.pack_into(fmt, damaged, pos, value)
        damaged_files.append((truncated, damaged))
    # An instance block whose ball 0 has a NaN coordinate, a negative
    # radius or a center outside [0, 1)^d: the checks the loader makes on
    # every ball row; and one whose scale is not positive and finite, or
    # whose floor lies outside (0, 1).
    rows = [(at["balls"], math.nan), (at["balls"] + 8 * a.registry.dim, -0.5)]
    rows += [(at["balls"], 1.0), (at["balls"], -0.25)]
    rows += [(at["instance"] + 20, v) for v in (0.0, -1.0, math.inf, math.nan)]
    rows += [(at["instance"] + 12, v) for v in (0.0, 1.0, -0.5, math.nan)]
    for pos, value in rows:
        damaged = bytearray(blob)
        struct.pack_into("<d", damaged, pos, value)
        damaged_files.append(("instance block is malformed", damaged))
    # The payload cut in the middle of the key column, and a payload with
    # bytes after its stats; the last four bytes hold the recomputed CRC.
    damaged_files.append((truncated, bytearray(blob[: at["z"] + 4 * size]) + bytes(4)))
    damaged_files.append((truncated, bytearray(blob[:-4]) + bytes(8 + 4)))
    # Drop a cell with two children from the key and level columns: their
    # least common ancestor is then missing.
    gone = next(v for v in range(1, size) if a.tree.children(v).size >= 2)
    damaged = bytearray(blob[: at["z"] - 8]) + struct.pack("<Q", size - 1)
    pos = at["z"]
    for width in (8, 8):
        damaged += blob[pos : pos + width * gone] + blob[pos + width * (gone + 1) : pos + width * size]
        pos += width * size
    damaged += blob[pos:]
    damaged_files.append(("least common ancestors", damaged))
    for match, damaged in damaged_files:
        struct.pack_into("<I", damaged, len(damaged) - 4, zlib.crc32(damaged[8:-4]) & 0xFFFFFFFF)
        path.write_bytes(bytes(damaged))
        with pytest.raises(InputError, match=match):
            load_index(str(path))
        assert main(["query", str(path), str(queries)]) == 1


def _bavd_layout(a, blob):
    """Byte offsets in a saved BAVD file of index a: the instance block and
    its ball rows, the cluster count, cluster 0's witness and assigned length (when there is a
    cluster 0), and the cell columns, counted back from the 40 stat bytes
    that end the payload.  The key and level columns hold a row per cell,
    the others a row per live cell; the site column is there only when the
    file holds clusters."""
    n, size, d = a.registry.n, a.tree.size, a.registry.dim
    rows = int(np.count_nonzero(~a.tree.tiled))
    at = {"instance": 8 + 28}
    at["balls"] = at["instance"] + 28 + 8 * d  # ball 0's center, then its radius
    at["clusters"] = at["balls"] + 8 * n * (d + 1)
    # Cluster 0: its center, three radii, then witness and round index.
    at["cluster_witness"] = at["clusters"] + 8 + 8 * d + 24
    at["assigned_len"] = at["clusters"] + 8 + 8 * d + 48
    stats = len(blob) - 4 - 40
    if a.clusters:
        at["site"] = stats - 8 * rows
    at["witness"] = at.get("site", stats) - 8 * rows
    at["level"] = at["witness"] - 8 * rows - 8 * size
    at["z"] = at["level"] - 8 * size
    return at


# -- CLI ---------------------------------------------------------------------------


def _run(args):
    return main(args)


def test_cli_gen_build_query_audit_flow(tmp_path, capsys):
    ballfile = str(tmp_path / "x.balls")
    regfile = str(tmp_path / "reg.idx")
    avdfile = str(tmp_path / "avd.idx")
    qfile = tmp_path / "q.txt"
    out = tmp_path / "res.txt"

    assert _run(["gen", "--dim", "1", "--n", "32", "--seed", "5", "--out", ballfile]) == 0
    assert _run(["build", ballfile, "--out", regfile]) == 0
    assert _run(["build", ballfile, "--k", "8", "--eps", "0.5", "--out", avdfile]) == 0
    capsys.readouterr()

    qfile.write_text("0.25\n0.75 8 0.5\nbroken line\n2.5\n")
    assert _run(["query", avdfile, str(qfile), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    balls = read_balls(ballfile)
    for i in (0, 1):
        idx, ball_id, dist, t_ns = lines[i].split()
        assert int(idx) == i
        truth = exact_kth_distance(balls, (float(qfile.read_text().splitlines()[i].split()[0]),), 8).value
        assert 0.5 * truth - 1e-9 <= float(dist) <= 1.5 * truth + 1e-9
        # Reported distance is the true original-unit distance of that ball.
        q = (float(qfile.read_text().splitlines()[i].split()[0]),)
        b = balls[int(ball_id)]
        assert float(dist) == pytest.approx(ball_distance(q, b.center, b.radius), rel=1e-9)
        assert int(t_ns) >= 0
    assert lines[2].startswith("2 error")
    assert lines[3].endswith("out_of_domain")

    assert _run(["audit", ballfile, avdfile, "--trials", "40"]) == 0
    text = capsys.readouterr().out
    assert "audit: PASS" in text
    for suite in ("integrity", "counter-sandwich", "constant-factor", "knn-two-sided", "quorum", "avd-queries", "avd-cells"):
        assert f"{suite}: pass" in text


def test_cli_build_prints_stats_as_json(tmp_path, capsys):
    ballfile = str(tmp_path / "x.balls")
    assert _run(["gen", "--dim", "1", "--n", "32", "--seed", "5", "--out", ballfile]) == 0
    capsys.readouterr()
    assert _run(["build", ballfile, "--out", str(tmp_path / "reg.idx")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    reg = load_index(str(tmp_path / "reg.idx"))
    assert lines[0] == f"index: registry n=32 dim=1 nodes={reg.centers_tree.size}"
    reg_stats = json.loads(lines[-1])
    assert reg_stats["n"] == 32 and "build_seconds" in reg_stats
    assert _run(["build", ballfile, "--k", "8", "--eps", "0.5", "--out", str(tmp_path / "avd.idx")]) == 0
    avd_stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert avd_stats["k"] == 8 and avd_stats["mode"] == "practical"
    for key in ("quorum_s", "fields_s", "overlay_s", "sweep_s", "assemble_s", "sweep_layers", "W"):
        assert key in avd_stats


def test_cli_registry_query_needs_k_eps(tmp_path):
    ballfile = str(tmp_path / "x.balls")
    regfile = str(tmp_path / "reg.idx")
    qfile = tmp_path / "q.txt"
    out = tmp_path / "res.txt"
    _run(["gen", "--dim", "1", "--n", "16", "--seed", "1", "--out", ballfile])
    _run(["build", ballfile, "--out", regfile])
    qfile.write_text("0.5\n0.5 4 0.5\n")
    assert _run(["query", regfile, str(qfile), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("0 error")  # no k anywhere
    assert not lines[1].startswith("1 error")
    # Flags fix the parameters for bare lines.
    assert _run(["query", regfile, str(qfile), "--k", "4", "--eps", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert not lines[0].startswith("0 error")


def test_cli_query_k_above_n_is_a_line_error(tmp_path):
    ballfile = str(tmp_path / "x.balls")
    regfile = str(tmp_path / "reg.idx")
    qfile = tmp_path / "q.txt"
    out = tmp_path / "res.txt"
    assert _run(["gen", "--dim", "2", "--n", "50", "--seed", "4", "--out", ballfile]) == 0
    assert _run(["build", ballfile, "--out", regfile]) == 0
    qfile.write_text("0.5 0.5 3 0.5\n0.5 0.5 99 0.5\n0.25 0.75 2 0.5\n")
    assert _run(["query", regfile, str(qfile), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1] == "1 error k must lie in [1, 50], got 99"
    balls = read_balls(ballfile)
    for i, (q, k) in ((0, ((0.5, 0.5), 3)), (2, ((0.25, 0.75), 2))):
        idx, ball_id, dist, _ = lines[i].split()
        assert int(idx) == i
        truth = exact_kth_distance(balls, q, k).value
        assert 0.5 * truth - 1e-9 <= float(dist) <= 1.5 * truth + 1e-9


def test_cli_registry_query_out_of_domain_is_certified(tmp_path):
    ballfile = str(tmp_path / "x.balls")
    regfile = str(tmp_path / "reg.idx")
    qfile = tmp_path / "q.txt"
    out = tmp_path / "res.txt"
    assert _run(["gen", "--dim", "2", "--n", "200", "--seed", "5", "--out", ballfile]) == 0
    assert _run(["build", ballfile, "--out", regfile]) == 0
    # Normalized (1.3, 0.5) lies outside the unit cube.
    q = tuple(float(x) for x in load_index(regfile).instance.to_original((1.3, 0.5)))
    qfile.write_text(f"{q[0]!r} {q[1]!r} 10 0.25\n")
    assert _run(["query", regfile, str(qfile), "--out", str(out)]) == 0
    _, ball_id, dist, _, tail = out.read_text().split()
    assert tail == "out_of_domain"
    balls = read_balls(ballfile)
    truth = exact_kth_distance(balls, q, 10).value
    assert truth == pytest.approx(6.073, abs=5e-4)
    assert 0.75 * truth <= float(dist) <= 1.25 * truth
    b = balls[int(ball_id)]
    assert float(dist) == pytest.approx(ball_distance(q, b.center, b.radius), rel=1e-9)


def test_cli_exit_codes(tmp_path, capsys):
    ballfile = str(tmp_path / "x.balls")
    _run(["gen", "--dim", "1", "--n", "20", "--seed", "2", "--out", ballfile])
    capsys.readouterr()
    # k too small for the cell structure: input error naming the fallback.
    assert _run(["build", ballfile, "--k", "4", "--eps", "0.5", "--out", str(tmp_path / "i")]) == 1
    err = capsys.readouterr().err
    assert "registry" in err
    assert _run(["build", ballfile, "--k", "8", "--out", str(tmp_path / "i")]) == 1
    assert _run(["nonsense"]) == 1
    assert _run(["query", str(tmp_path / "missing.idx"), "whatever"]) == 1
    # Damaged index: audit reports the integrity failure and exits 2.
    avdfile = str(tmp_path / "a.idx")
    assert _run(["build", ballfile, "--k", "8", "--eps", "0.5", "--out", avdfile]) == 0
    blob = open(avdfile, "rb").read()
    open(avdfile, "wb").write(blob[:-40])
    capsys.readouterr()
    assert _run(["audit", ballfile, avdfile, "--trials", "5"]) == 2
    assert "integrity: FAIL" in capsys.readouterr().out


def test_cli_build_refuses_overlapping_balls(tmp_path, capsys):
    ballfile = tmp_path / "x.balls"
    ballfile.write_text("2 3\n0 0 1\n5 5 1\n0.5 0 1\n")
    for extra in ([], ["--k", "2", "--eps", "0.5"]):
        assert _run(["build", str(ballfile), *extra, "--out", str(tmp_path / "i")]) == 1
        assert "balls 0 and 2 overlap" in capsys.readouterr().err
    assert not (tmp_path / "i").exists()
    # Tangent balls are disjoint and build.
    ballfile.write_text("2 2\n0 0 1\n2 0 1\n")
    assert _run(["build", str(ballfile), "--out", str(tmp_path / "i")]) == 0


def test_cli_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.balls"
    b = tmp_path / "b.balls"
    for out in (a, b):
        assert _run(["gen", "--dim", "2", "--n", "40", "--seed", "11", "--profile", "nested-huge", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_build_deterministic_bytes(tmp_path):
    ballfile = str(tmp_path / "x.balls")
    _run(["gen", "--dim", "1", "--n", "24", "--seed", "3", "--out", ballfile])
    a = tmp_path / "a.idx"
    b = tmp_path / "b.idx"
    for out in (a, b):
        assert _run(["build", ballfile, "--k", "8", "--eps", "0.5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_unit_round_trip_far_from_origin(tmp_path):
    # Coordinates nowhere near the unit cube: distances must come back in
    # original units within 1e-9 relative.
    rng = np.random.default_rng(7)
    xs = np.sort(rng.uniform(0, 1, 12)) * 400.0 + 3000.0
    balls = [Ball((float(x),), 0.05) for x in xs]
    ballfile = tmp_path / "far.balls"
    write_balls(str(ballfile), balls)
    avdfile = str(tmp_path / "far.idx")
    assert _run(["build", str(ballfile), "--k", "7", "--eps", "0.5", "--out", avdfile]) == 0
    qfile = tmp_path / "q.txt"
    queries = [3100.0, 3250.0, 3333.3]
    qfile.write_text("".join(f"{q}\n" for q in queries))
    out = tmp_path / "res.txt"
    assert _run(["query", avdfile, str(qfile), "--out", str(out)]) == 0
    for line, q in zip(out.read_text().strip().splitlines(), queries):
        _, ball_id, dist, _ = line.split()
        b = balls[int(ball_id)]
        real = ball_distance((q,), b.center, b.radius)
        assert float(dist) == pytest.approx(real, rel=1e-9)
        truth = exact_kth_distance(balls, (q,), 7).value
        assert 0.5 * truth - 1e-9 <= float(dist) <= 1.5 * truth + 1e-9


def test_cli_bench_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert _run([
        "bench", "--dim", "1", "--n", "64,128", "--k", "sqrt,quarter,5",
        "--eps", "0.5", "--trials", "20", "--seed", "4", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("dim,n,k,eps,mode")
    assert len(lines) == 1 + 6  # 2 sizes x 3 k specs x 1 eps
    cols = lines[0].split(",")
    assert "uncertified" in cols
    for row in lines[1:]:
        cells = dict(zip(cols, row.split(",")))
        assert int(cells["n"]) in (64, 128)
        assert int(cells["registry_median_ns"]) > 0
        if int(cells["k"]) > 6:  # above 2*c_d = 6 at d=1: a cell index
            assert int(cells["cells"]) > 0 and int(cells["uncertified"]) >= 0
            assert float(cells["build_avd_s"]) > 0.0 and int(cells["avd_median_ns"]) > 0
        else:  # build_avd refuses k = 5: the cell-index columns stay empty
            assert cells["cells"] == "0"
            assert cells["uncertified"] == cells["build_avd_s"] == cells["avd_median_ns"] == ""


def test_module_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "ballann", "gen", "--dim", "1", "--n", "5", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("1 5\n")
