import math
import subprocess
import sys

import numpy as np
import pytest

from ballann import generate_instance, normalize, build_registry
from ballann.avd import AVDIndex, avd_query, build_avd
from ballann.cli import main
from ballann.geometry import Ball, InputError, dist_point_ball
from ballann.io import (
    load_index,
    parse_query_line,
    read_balls,
    save_avd,
    save_registry,
    write_balls,
)
from ballann.oracle import exact_kth_distance


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
    q, k, eps = parse_query_line("0.5 0.25 7 0.2", 2, None, None)
    assert q == (0.5, 0.25) and k == 7 and eps == 0.2
    q, k, eps = parse_query_line("0.5 0.25", 2, 3, 0.5)
    assert k == 3 and eps == 0.5
    q, k, eps = parse_query_line("0.5 0.25 9", 2, None, 0.5)
    assert k == 9 and eps == 0.5
    # Matching explicit columns are fine; conflicting ones are not.
    parse_query_line("0.5 0.25 3 0.5", 2, 3, 0.5)
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 4 0.5", 2, 3, 0.5)
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 3 0.1", 2, 3, 0.5)
    with pytest.raises(InputError):
        parse_query_line("0.5", 2, 3, 0.5)  # not enough coordinates
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25", 2, None, 0.5)  # k unresolved
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 0 0.5", 2, None, None)  # k < 1
    with pytest.raises(InputError):
        parse_query_line("0.5 0.25 3 1.5", 2, None, None)  # eps out of range
    with pytest.raises(InputError):
        parse_query_line("0.5 x", 2, 3, 0.5)


# -- index round trips ---------------------------------------------------------------


def test_registry_save_load_replays_queries(tmp_path):
    balls = generate_instance(5, 2, 40)
    reg = build_registry(normalize(balls, 0.25))
    path = tmp_path / "reg.idx"
    save_registry(str(path), reg)
    reg2 = load_index(str(path))
    assert reg2.instance == reg.instance
    from ballann.knn import query

    rng = np.random.default_rng(0)
    for _ in range(50):
        q = tuple(rng.random(2))
        assert query(reg, q, 5, 0.3) == query(reg2, q, 5, 0.3)


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
    for name in ("rep", "kdist", "kdist_witness", "site", "cert", "flags"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.clusters) == len(b.clusters)
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = tuple(rng.random(1))
        assert avd_query(a, q) == avd_query(b, q)


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
        assert float(dist) == pytest.approx(dist_point_ball(q, balls[int(ball_id)]), rel=1e-9)
        assert int(t_ns) >= 0
    assert lines[2].startswith("2 error")
    assert lines[3].endswith("out_of_domain")

    assert _run(["audit", ballfile, avdfile, "--trials", "40"]) == 0
    text = capsys.readouterr().out
    assert "audit: PASS" in text
    for suite in ("integrity", "counter-sandwich", "constant-factor", "knn-two-sided", "quorum", "avd-queries", "avd-cells"):
        assert f"{suite}: pass" in text


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
    assert float(dist) == pytest.approx(dist_point_ball(q, balls[int(ball_id)]), rel=1e-9)


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
        real = dist_point_ball((q,), balls[int(ball_id)])
        assert float(dist) == pytest.approx(real, rel=1e-9)
        truth = exact_kth_distance(balls, (q,), 7).value
        assert 0.5 * truth - 1e-9 <= float(dist) <= 1.5 * truth + 1e-9


def test_cli_bench_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert _run([
        "bench", "--dim", "1", "--n", "64,128", "--k", "sqrt,quarter",
        "--eps", "0.5", "--trials", "20", "--seed", "4", "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("dim,n,k,eps,mode")
    assert len(lines) == 1 + 4  # 2 sizes x 2 k specs x 1 eps
    for row in lines[1:]:
        cells = row.split(",")
        assert int(cells[1]) in (64, 128)


def test_module_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "ballann", "gen", "--dim", "1", "--n", "5", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("1 5\n")
