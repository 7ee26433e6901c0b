"""CLI surface: subcommands, exit codes, determinism, formats, gap handling."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wirescat import cli
from wirescat.cli import build_parser, main
from wirescat.output import table


def read_data_lines(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return header, body[0].split(","), [ln.split(",") for ln in body[1:]]


def test_sweep_k_basic(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-k", "--y0", "0.3", "--a", "0.1", "--kd-min", "4.0",
               "--kd-max", "9.0", "--points", "40", "--out", str(out)])
    assert rc == 0
    header, cols, rows = read_data_lines(out)
    assert any("generator" in h for h in header)
    assert cols[0] == "kd" and "sigma" in cols and "gap" in cols
    assert len(rows) == 40
    i_sig, i_cond, i_n, i_gap = (cols.index(c) for c in ("sigma", "conductance", "n_open", "gap"))
    for row in rows:
        assert row[i_gap] == "0"
        sigma, cond, n = float(row[i_sig]), float(row[i_cond]), float(row[i_n])
        assert abs(cond - (n - sigma)) <= 1e-12
        assert 0.0 <= sigma <= 1.0


def test_sweep_k_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep-k", "--y0", "0.32", "--a", "0.1", "--kd-min", "2.0",
            "--kd-max", "20.0", "--points", "200"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_k_gap_rows(tmp_path):
    out = tmp_path / "gap.csv"
    # grid engineered to hit kd = 2 pi exactly
    rc = main(["sweep-k", "--y0", "0.05", "--a", "0.1",
               "--kd-min", str(np.pi), "--kd-max", str(3 * np.pi),
               "--points", "3", "--out", str(out)])
    assert rc == 0
    header, cols, rows = read_data_lines(out)
    gaps = [row for row in rows if row[cols.index("gap")] == "1"]
    assert len(gaps) == 3  # pi, 2pi, 3pi all guarded
    mid = gaps[1]
    assert mid[cols.index("sigma")] == "nan"
    assert float(mid[cols.index("gr_asym_below_re")]) < 0.0
    assert float(mid[cols.index("gr_asym_above_im")]) < 0.0
    assert float(mid[cols.index("sigma_limit_above")]) == 1.0
    assert float(mid[cols.index("sigma_asym_below")]) >= 0.0


def test_sweep_k_columns_are_arrays_of_their_own(tmp_path, monkeypatch):
    # n_open and conductance_empty print the same counts (the nearest opening on
    # the gap rows at pi, 2 pi and 3 pi), and no column is a view of another
    tables = []
    monkeypatch.setattr(cli, "table", lambda col: tables.append(col) or table(col))
    assert main(["sweep-k", "--y0", "0.05", "--kd-min", str(np.pi), "--kd-max", str(3 * np.pi),
                 "--points", "5", "--out", str(tmp_path / "gap.csv")]) == 0
    (col,) = tables
    assert col["n_open"].tolist() == col["conductance_empty"].tolist() == [1, 1, 2, 2, 3]
    assert not any(np.shares_memory(col[a], col[b]) for a, b in itertools.combinations(col, 2))


def test_sweep_k_gap_rows_are_the_refused_kd(tmp_path):
    # one guard-band predicate: a row is a gap row exactly when the scalar
    # API refuses its kd with ModeOpeningSingularity
    from wirescat.errors import ModeOpeningSingularity
    from wirescat.waveguide import guard_mode_openings
    out = tmp_path / "edge.csv"
    for n in (1, 2, 5):
        assert main(["sweep-k", "--y0", "0.3", "--kd-min", repr(n * np.pi - 3e-9),
                     "--kd-max", repr(n * np.pi + 3e-9), "--points", "25", "--out", str(out)]) == 0
        _, cols, rows = read_data_lines(out)
        for row in rows:
            try:
                guard_mode_openings(float(row[cols.index("kd")]))
                refused = False
            except ModeOpeningSingularity:
                refused = True
            assert (row[cols.index("gap")] == "1") == refused
        assert 0 < sum(row[cols.index("gap")] == "1" for row in rows) < len(rows)


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--y0", "0.3", "--a", "-0.1", "--kd-min", "2.0", "--kd-max", "9.0",
     "--points", "30"],
    ["sweep-geom", "--kd", "7.3", "--a-min", "0.05", "--a-max", "-0.1", "--a-points", "4",
     "--y0-min", "0.2", "--y0-max", "0.6", "--y0-points", "5"],
])
def test_sweeps_stop_at_the_first_pole_row(tmp_path, capsys, monkeypatch, argv):
    # a raised threshold makes ordinary rows poles: the sweep exits 2 with the
    # message the scalar API gives at the first pole row
    from wirescat import renorm
    from wirescat.errors import PoleEncountered
    from wirescat.waveguide import WireConfig
    monkeypatch.setattr(renorm, "POLE_THRESHOLD", 0.9)
    opt = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "sweep-k":
        cases = [(kd, float(opt["--y0"]), float(opt["--a"]))
                 for kd in np.linspace(2.0, 9.0, 30).tolist()]
    else:
        cases = [(7.3, y0, a) for a in np.linspace(0.05, -0.1, 4).tolist()
                 for y0 in np.linspace(0.2, 0.6, 5).tolist()]
    expected = None
    for kd, y0, a in cases:
        try:
            renorm.renorm_state(kd, WireConfig(y0=y0, a=a))
        except PoleEncountered as exc:
            expected = f"error: {exc}"
            break
    assert expected is not None
    out = tmp_path / "pole.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert not out.exists()


def test_sweep_k_memory_is_bounded(tmp_path):
    # the state grid sums in row blocks: a default-range sweep traces ~2-3 MB
    # of allocations, where one (rows x modes) product per mode count traces
    # ~12 MB and one over all rows ~110 MB
    out = tmp_path / "mem.csv"
    assert main(["sweep-k", "--y0", "0.05", "--points", "20", "--out", str(out)]) == 0
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert main(["sweep-k", "--y0", "0.05", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak


def test_sweep_k_json_mirror(tmp_path):
    csv_p = tmp_path / "s.csv"
    json_p = tmp_path / "s.json"
    args = ["sweep-k", "--y0", "0.3", "--a", "0.1", "--kd-min", "4.0",
            "--kd-max", "9.0", "--points", "10"]
    assert main(args + ["--out", str(csv_p)]) == 0
    assert main(args + ["--out", str(json_p), "--format", "json"]) == 0
    doc = json.loads(json_p.read_text())
    _, cols, rows = read_data_lines(csv_p)
    assert doc["columns"] == cols
    assert len(doc["rows"]) == len(rows)
    assert doc["rows"][0][0] == pytest.approx(float(rows[0][0]))


def _bits(cells):
    """Cells as int64 bit patterns, every NaN (a JSON null) as the same one."""
    values = np.array([np.nan if v is None else float(v) for v in cells])
    return np.where(np.isnan(values), -1, values.view(np.int64))


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--y0", "0.05", "--a", "-0.1", "--kd-min", str(np.pi),
     "--kd-max", str(3 * np.pi), "--points", "9"],
    ["sweep-geom", "--kd", "7.3", "--a-min", "-0.1", "--a-max", "0.1", "--a-points", "5",
     "--y0-points", "4"],
    ["field-map", "--kind", "greens", "--kd", "7.3", "--y0", "0.3", "--nx", "7", "--ny", "5"],
    ["field-map", "--kind", "dxy", "--kd", "9.1", "--y0", "0.3", "--nx", "7", "--ny", "5"],
    ["greens-bench", "--terms", "10,100", "--representations", "spectral,kummer"],
])
def test_csv_and_json_carry_the_same_values(tmp_path, argv):
    csv_p, json_p = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(csv_p)]) == 0
    assert main(argv + ["--out", str(json_p), "--format", "json"]) == 0
    _, cols, rows = read_data_lines(csv_p)
    text = json_p.read_text()
    doc = json.loads(text)
    # the spliced rows keep json.dump's layout
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert doc["columns"] == cols and len(doc["rows"]) == len(rows)
    for j, name in enumerate(cols):
        got = [row[j] for row in doc["rows"]]
        want = [row[j] for row in rows]
        if name == "representation":
            assert got == want
        else:
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_sweep_geom(tmp_path):
    out = tmp_path / "geom.csv"
    rc = main(["sweep-geom", "--kd", str(12.5 * np.pi), "--a-points", "11",
               "--y0-points", "5", "--out", str(out)])
    assert rc == 0
    _, cols, rows = read_data_lines(out)
    assert cols == ["a", "y0", "sigma", "sigma_free", "gap"]
    assert len(rows) == 55
    i_a, i_sig = cols.index("a"), cols.index("sigma")
    zero_a = [row for row in rows if float(row[i_a]) == 0.0]
    assert zero_a and all(float(r[i_sig]) == 0.0 for r in zero_a)


def test_field_map_and_svg(tmp_path):
    out = tmp_path / "field.csv"
    svg = tmp_path / "field.svg"
    rc = main(["field-map", "--kind", "px", "--kd", "40.0", "--y0", "0.6",
               "--a", "0.1", "--nx", "21", "--ny", "9",
               "--x-min", "-0.5", "--x-max", "0.5",
               "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    _, cols, rows = read_data_lines(out)
    assert cols == ["x", "y", "value_re", "value_im"]
    assert len(rows) == 21 * 9
    # nodal line along x = x0
    on_axis = [float(r[2]) for r in rows if float(r[0]) == 0.0]
    assert on_axis and max(abs(v) for v in on_axis) <= 1e-10
    assert svg.read_text().startswith("<svg")


def test_field_map_outside_strip_exit_2(tmp_path):
    rc = main(["field-map", "--kind", "s", "--y0", "0.6", "--y-min", "-0.2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_field_map_empty_y_range_exit_2(tmp_path, capsys):
    # both bounds lie inside the strip; the range is empty
    out = tmp_path / "x.csv"
    assert main(["field-map", "--y0", "0.6", "--y-min", "0.3", "--y-max", "0.3", "--out", str(out)]) == 2
    assert "y range must be increasing and inside [0, d], got y_min=0.3, y_max=0.3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["field-map", "--y0", "0.3", "--x0", "nan", "--nx", "3", "--ny", "3"],
    ["field-map", "--y0", "0.3", "--x0", "inf", "--nx", "3", "--ny", "3"],
    ["sweep-k", "--y0", "0.3", "--x0", "nan", "--points", "3"],
])
def test_non_finite_x0_exit_2(tmp_path, capsys, argv):
    # an all-NaN field map or an x0 = nan metadata line is not a result
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "x0 must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["s", "greens"])
@pytest.mark.parametrize("bound", [["--x-max", "inf"], ["--x-min", "nan"]], ids=["x-max-inf", "x-min-nan"])
def test_non_finite_grid_exit_2(tmp_path, capsys, kind, bound):
    # an infinite or NaN x bound gives rows of nan and inf, not a field map
    out = tmp_path / "x.csv"
    assert main(["field-map", "--kind", kind, "--kd", "7.85", "--y0", "0.3", "--nx", "3", "--ny", "3",
                 *bound, "--out", str(out)]) == 2
    assert "x range must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, given", [
    (["sweep-k", "--y0", "0.3", "--kd-max", "inf", "--points", "5"], "kd_max=inf"),
    (["sweep-geom", "--kd", "7.3", "--a-max", "inf", "--a-points", "3", "--y0-points", "3"], "a_max=inf"),
    (["field-map", "--y0", "0.3", "--nx", "3", "--ny", "3", "--x-min", "-1e308", "--x-max", "1e308"],
     "x_min=-1e+308, x_max=1e+308"),
], ids=["sweep-k", "sweep-geom", "field-map"])
def test_a_grid_bound_without_a_finite_span_exits_2(tmp_path, capsys, argv, given):
    # the bounds are checked before np.linspace runs: no RuntimeWarning, and the error names them
    out = tmp_path / "g.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "range must be finite" in err and given in err
    assert not out.exists()


def test_greens_bench(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["greens-bench", "--kd", str(2.5 * np.pi), "--x", "0.37",
               "--y", "0.61", "--terms", "10,100,1000",
               "--representations", "spectral,kummer", "--out", str(out)])
    assert rc == 0
    _, cols, rows = read_data_lines(out)
    assert cols == ["representation", "terms", "error"]
    assert len(rows) == 6


def test_greens_bench_coincident_image_exit_2(tmp_path):
    rc = main(["greens-bench", "--x", "0", "--y", "0.3", "--x0", "0", "--y0", "0.3",
               "--representations", "image", "--terms", "10",
               "--out", str(tmp_path / "b.csv")])
    assert rc == 2


@pytest.mark.parametrize("wall", ["0", "1"])
def test_greens_bench_coincident_wall_source_exit_2(tmp_path, capsys, wall):
    # G_w - G_0 at r = r0 needs 0 < y0 < d, as renorm_sum does: no NaN or 0.0 error column
    out = tmp_path / "b.csv"
    assert main(["greens-bench", "--x", "0", "--y", wall, "--x0", "0", "--y0", wall,
                 "--representations", "kummer", "--terms", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: G_w - G_0 at r = r0 needs the source strictly inside the wire, "
                                       f"got y0={float(wall)!r}\n")
    assert not out.exists()


def test_greens_bench_refuses_an_unknown_representation_first(tmp_path, capsys):
    # a name the benchmark has no rows for is refused by name, before the pair's coincidence is looked at
    out = tmp_path / "b.csv"
    assert main(["greens-bench", "--x", "0", "--y", "0.3", "--x0", "0", "--y0", "0.3",
                 "--representations", "semiclassical", "--terms", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: benchmark does not support representation 'semiclassical'\n"
    assert not out.exists()


def test_greens_bench_diffraction_refuses_a_missed_tolerance(tmp_path, capsys):
    # at |x - x0| = 1e-5 the grating sums reach their order cap with a tail
    # bound of ~2e-6: exit 2 rather than write an error column that misses it
    out = tmp_path / "b.csv"
    assert main(["greens-bench", "--kd", str(2.5 * np.pi), "--x", "1e-5", "--y", "0.7",
                 "--x0", "0", "--y0", "0.3", "--representations", "diffraction",
                 "--terms", "10", "--out", str(out)]) == 2
    assert "grating sum at |x - x0|=1e-05" in capsys.readouterr().err
    assert not out.exists()


def test_validate_fast_and_perturbation(tmp_path, capsys, monkeypatch):
    from wirescat import renorm
    rc = main(["validate", "--fast", "--groups", "free_optical,hard_disk"])
    assert rc == 0
    capsys.readouterr()
    strength = renorm._strength
    monkeypatch.setattr(renorm, "_strength", lambda k, a: strength(k, a) + 1e-6)
    rc = main(["validate", "--fast", "--groups", "free_optical"])
    assert rc == 1
    outtext = capsys.readouterr().out
    assert "FAIL" in outtext


@pytest.mark.parametrize("groups", ["nosuch", "specfun,nosuch", "specfun,"])
def test_validate_unknown_group_is_a_usage_error(capsys, groups):
    # exit 1 means a failed check; a group name that does not exist is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--fast", "--groups", groups])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown group" in err and "smatrix_grid" in err and "Traceback" not in err
    # an empty list still means every group
    assert build_parser().parse_args(["validate", "--groups", ""]).groups == []


@pytest.mark.parametrize("flag", [["--svg", "x.svg"], ["--tol", "1e-3"]])
def test_greens_bench_refuses_flags_it_does_not_read(tmp_path, capsys, flag):
    out = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as exc:
        main(["greens-bench", "--terms", "10", "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_report_file(tmp_path, capsys):
    rep = tmp_path / "report.json"
    rc = main(["validate", "--fast", "--groups", "specfun", "--out", str(rep)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert doc["columns"] == ["check", "residual", "threshold", "passed"]
    assert all(row[3] == 1 for row in doc["rows"])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y0 = 0.3\na = 0.1\nkd-min = 4.0\nkd-max = 9.0\npoints = 7\n")
    out1 = tmp_path / "c1.csv"
    rc = main(["sweep-k", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    _, _, rows = read_data_lines(out1)
    assert len(rows) == 7
    out2 = tmp_path / "c2.csv"
    rc = main(["sweep-k", "--config", str(cfg), "--points", "5", "--out", str(out2)])
    assert rc == 0
    _, _, rows = read_data_lines(out2)
    assert len(rows) == 5  # explicit flag wins


@pytest.mark.parametrize("flag", [["--poi", "5"], ["--po=5"], ["--points=5"]])
def test_config_file_loses_to_an_abbreviated_flag(tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y0 = 0.3\nkd-min = 4.0\nkd-max = 9.0\npoints = 7\n")
    out = tmp_path / "c.csv"
    assert main(["sweep-k", "--config", str(cfg), *flag, "--out", str(out)]) == 0
    _, _, rows = read_data_lines(out)
    assert len(rows) == 5


@pytest.mark.parametrize("line,message", [
    ("format = xml", "argument --format: invalid choice: 'xml'"),
    ("points = 7.5", "argument --points: invalid int value: '7.5'"),
    ("func = x", "unrecognized arguments: --func=x"),
])
def test_a_bad_config_value_is_a_usage_error(tmp_path, capsys, line, message):
    # a file value is checked like the flag it sets; a value that is no flag's is refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"y0 = 0.3\npoints = 7\n{line}\n")
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-k", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for name in ("a", "b"):
            assert main(["greens-bench", "--terms", "10", "--representations", "spectral",
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # the one parser keeps no state between calls: the second call reads a config file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y0 = 0.3\nkd-min = 4.0\nkd-max = 9.0\npoints = 7\n")
    jobs = [["greens-bench", "--terms", "10,30", "--representations", "spectral,kummer"],
            ["sweep-k", "--config", str(cfg), "--points", "5"]]
    for i, argv in enumerate(jobs):
        assert main(argv + ["--out", str(tmp_path / f"same{i}.csv")]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for i, argv in enumerate(jobs):
        fresh = tmp_path / f"fresh{i}.csv"
        subprocess.run([sys.executable, "-m", "wirescat", *argv, "--out", str(fresh)], env=env, check=True)
        assert (tmp_path / f"same{i}.csv").read_bytes() == fresh.read_bytes()


def test_a_run_function_replaced_after_the_first_call_is_called(tmp_path, monkeypatch):
    argv = ["greens-bench", "--terms", "10", "--representations", "spectral", "--out", str(tmp_path / "b.csv")]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "run_greens_bench", lambda args: seen.append(args.terms) or 0)
    assert main(argv) == 0
    assert seen == ["10"]


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("y0 0.3\n")
    assert main(["sweep-k", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err.strip() == "error: config line 'y0 0.3' is not key=value"
    assert main(["sweep-k", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "c.csv")]) == 2


def test_sweep_k_resonance_figure_structure(tmp_path):
    """Centered impurity: sigma continuous across kd = 2pi, jumps at kd = 3pi;
    the empty-wire column reproduces the N(kd) staircase."""
    out = tmp_path / "fig.csv"
    rc = main(["sweep-k", "--y0", "0.5", "--a", "0.1",
               "--kd-min", str(0.5 * np.pi), "--kd-max", str(3.5 * np.pi),
               "--points", "600", "--out", str(out)])
    assert rc == 0
    _, cols, rows = read_data_lines(out)
    kd = np.array([float(r[cols.index("kd")]) for r in rows])
    sig = np.array([float(r[cols.index("sigma")]) for r in rows])
    n_col = np.array([float(r[cols.index("conductance_empty")]) for r in rows])
    ok = ~np.isnan(sig)
    jumps = np.abs(np.diff(sig[ok]))
    mid = 0.5 * (kd[ok][1:] + kd[ok][:-1])
    near2 = np.abs(mid - 2 * np.pi) < 0.1
    near3 = np.abs(mid - 3 * np.pi) < 0.1
    assert np.max(jumps[near2]) < 0.1          # even mode nodal: no resonance
    assert np.max(jumps[near3]) > 0.5          # odd mode opening: jump
    assert np.array_equal(np.unique(n_col[~np.isnan(n_col)]), [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--y0", "0.3", "--kd-min", "4.0", "--kd-max", "9.0", "--points", "5"],
    ["sweep-geom", "--kd", "7.3", "--a-points", "2", "--y0-points", "3"],
])
def test_sweeps_pass_tol_to_renorm_sum(tmp_path, monkeypatch, argv):
    # values cannot show it: the 256-mode floor makes 1e-6 and 1e-12 agree;
    # both sweeps take G_r from renorm_sum's array form, renorm_grid
    from wirescat import renorm
    tols = []
    orig = renorm.renorm_grid

    def spy(k, y0, tol=1e-12):
        tols.append(tol)
        return orig(k, y0, tol)

    monkeypatch.setattr(renorm, "renorm_grid", spy)
    out = tmp_path / "tol.csv"
    assert main(argv + ["--tol", "1e-6", "--out", str(out)]) == 0
    assert tols == [1e-6]
    header, _, _ = read_data_lines(out)
    assert any(h.startswith("# tolerance = ") for h in header)


def test_usage_errors_exit_2(tmp_path):
    assert main(["sweep-k", "--a", "0.1", "--out", str(tmp_path / "x.csv")]) == 2  # no y0
    assert main(["sweep-k", "--y0", "0.3", "--points", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2                           # points < 2
    assert main(["sweep-k", "--y0", "1.4", "--out", str(tmp_path / "x.csv")]) == 2  # bad y0


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--y0", "0.3", "--points", "5", "--a", "-5e-3"],
    ["sweep-geom", "--a-points", "3", "--y0-points", "3", "--a-min", "-1e-2"],
    ["field-map", "--y0", "0.3", "--nx", "3", "--ny", "3", "--x-min", "-1e-6"],
], ids=lambda argv: argv[0])
def test_a_negative_value_in_exponent_notation_may_be_its_own_token(tmp_path, argv):
    # argparse's own negative-number pattern has no exponent: "-5e-3" read as an
    # option exits 2 with "expected one argument"; both spellings give the same file
    *head, flag, value = argv
    assert main([*head, flag, value, "--out", str(tmp_path / "spaced.csv")]) == 0
    assert main([*head, f"{flag}={value}", "--out", str(tmp_path / "joined.csv")]) == 0
    assert (tmp_path / "spaced.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


def _count_grid_and_bessel_calls(monkeypatch):
    """Spy on renorm_grid (rows per call) and on the J0/Y0 calls of the strength (ndim per call)."""
    from wirescat import renorm
    calls = {"grid": [], "j": [], "y": []}
    orig_grid, orig_j, orig_y = renorm.renorm_grid, renorm.cylinder_bessel_j, renorm.cylinder_bessel_y

    def count_grid(k, y0, tol=1e-12):
        calls["grid"].append(np.broadcast(k, y0).size)
        return orig_grid(k, y0, tol)

    def count_j(n, x):
        calls["j"].append(np.ndim(x))
        return orig_j(n, x)

    def count_y(n, x):
        calls["y"].append(np.ndim(x))
        return orig_y(n, x)

    monkeypatch.setattr(renorm, "renorm_grid", count_grid)
    monkeypatch.setattr(renorm, "cylinder_bessel_j", count_j)
    monkeypatch.setattr(renorm, "cylinder_bessel_y", count_y)
    return calls


def test_sweep_k_evaluates_each_row_state_once(tmp_path, monkeypatch):
    # criterion 15's cost was per-row state building and s(k) from one scalar
    # Bessel pair per row; the sweep now takes every non-gap row from one
    # state grid and s from one array J0 and one array Y0 call
    calls = _count_grid_and_bessel_calls(monkeypatch)
    out = tmp_path / "count.csv"
    points = 41  # the grid steps by pi/20 and so lands on pi, 2 pi and 3 pi
    assert main(["sweep-k", "--y0", "0.3", "--a", "0.1", "--kd-min", str(np.pi),
                 "--kd-max", str(3 * np.pi), "--points", str(points), "--out", str(out)]) == 0
    _, cols, rows = read_data_lines(out)
    n_gap = sum(row[cols.index("gap")] == "1" for row in rows)
    assert n_gap == 3
    assert calls["grid"] == [points - n_gap]
    assert calls["j"] == [1] and calls["y"] == [1]


@pytest.mark.parametrize("a", [0.1, -0.1, 0.0])
def test_sweep_k_rows_match_scalar_api(tmp_path, a):
    from wirescat.renorm import renorm_state
    from wirescat.scattering import conductance, cross_section, free_cross_section, phase_shift
    from wirescat.waveguide import WireConfig
    out = tmp_path / "rows.csv"
    assert main(["sweep-k", "--y0", "0.3", "--a", str(a), "--kd-min", "4.0",
                 "--kd-max", "9.0", "--points", "25", "--out", str(out)]) == 0
    _, cols, rows = read_data_lines(out)
    cfg = WireConfig(y0=0.3, a=a)

    def close(got, want):
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)

    for row in rows:
        val = dict(zip(cols, row))
        assert val["gap"] == "0"
        kd = float(val["kd"])
        st = renorm_state(kd, cfg)
        close(float(val["sigma"]), cross_section(kd, cfg))
        close(float(val["conductance"]), conductance(kd, cfg))
        close(float(val["delta0"]), phase_shift(kd, cfg).delta0)
        close(float(val["sigma_free"]), free_cross_section(kd, a))
        close(float(val["rs_re"]), st.rs.real)
        close(float(val["rs_im"]), st.rs.imag)


@pytest.mark.parametrize("y0, a", [(0.05, -0.1), (0.3, 0.1)])
def test_sweep_k_closed_rows_print_im_rs_zero(tmp_path, y0, a):
    # below kd = pi Sigma = 0, so Im Rs = -|Rs|^2 Sigma is 0 exactly, not the
    # rounding left by s/(1 - s G_r); every other Rs digit is the state's own
    from wirescat.output import fmt
    from wirescat.renorm import renorm_state
    from wirescat.waveguide import WireConfig
    out = tmp_path / "closed.csv"
    assert main(["sweep-k", "--y0", str(y0), "--a", str(a), "--kd-min", "0.5",
                 "--kd-max", "6.0", "--points", "40", "--out", str(out)]) == 0
    _, cols, rows = read_data_lines(out)
    n_closed = n_noisy = 0
    for row in rows:
        val = dict(zip(cols, row))
        kd = float(val["kd"])
        rs = renorm_state(kd, WireConfig(y0=y0, a=a)).rs
        assert val["gap"] == "0" and val["rs_re"] == fmt(rs.real)
        if kd < np.pi:
            n_closed, n_noisy = n_closed + 1, n_noisy + (rs.imag != 0.0)
            assert val["rs_im"] == "0"
        else:
            assert val["rs_im"] == fmt(rs.imag)
    assert n_closed == 19 and n_noisy > 0


def test_sweep_geom_evaluates_each_factor_once(tmp_path, monkeypatch):
    # G_r depends on y0 alone and s on a alone: one state grid over the y0
    # and one array J0/Y0 pair over every a (s = 0 at a = 0), not one of each per row
    calls = _count_grid_and_bessel_calls(monkeypatch)
    out = tmp_path / "count.csv"
    for kd, grids in ((12.5 * np.pi, [7]), (2.0, [])):  # no G_r below kd = pi
        calls.update(grid=[], j=[], y=[])
        assert main(["sweep-geom", "--kd", str(kd), "--a-points", "11", "--y0-points", "7",
                     "--out", str(out)]) == 0
        assert calls["grid"] == grids
        assert calls["j"] == [1] and calls["y"] == [1]


@pytest.mark.parametrize("kd", [7.3, 2.0])
def test_sweep_geom_rows_match_scalar_api(tmp_path, kd):
    from wirescat.scattering import cross_section, free_cross_section
    from wirescat.waveguide import WireConfig
    out = tmp_path / "rows.csv"
    assert main(["sweep-geom", "--kd", str(kd), "--a-points", "5", "--y0-min", "0.1",
                 "--y0-max", "0.9", "--y0-points", "5", "--out", str(out)]) == 0
    _, cols, rows = read_data_lines(out)
    assert len(rows) == 25
    n_zero = 0
    for row in rows:
        val = dict(zip(cols, row))
        a, y0 = float(val["a"]), float(val["y0"])
        sigma, sigma_f = float(val["sigma"]), float(val["sigma_free"])
        assert val["gap"] == "0"
        if a == 0.0:
            n_zero += 1
            assert sigma == 0.0 and sigma_f == 0.0
            continue
        want = cross_section(kd, WireConfig(y0=y0, a=a))
        want_f = free_cross_section(kd, a)
        assert abs(sigma - want) <= 1e-14 * abs(want), (a, y0, sigma, want)
        assert abs(sigma_f - want_f) <= 1e-14 * abs(want_f), (a, sigma_f, want_f)
    assert n_zero == 5


@pytest.mark.parametrize("extra, message", [
    (["--kd", repr(3 * np.pi + 1e-10)],
     f"error: kd={3 * np.pi + 1e-10!r} lies within 1e-09 of the mode-3 opening at n*pi"),
    (["--kd", repr(3 * np.pi - 1e-10)],
     f"error: kd={3 * np.pi - 1e-10!r} lies within 1e-09 of the mode-3 opening at n*pi"),
    (["--kd", "0"], "error: k must be positive"),
    (["--kd", "-2.5"], "error: k must be positive"),
    (["--a-max", "0.6"], "error: |a| must be < d/2, got a=0.502"),
    (["--y0-max", "1.0"], "error: impurity must sit strictly inside the wire, got y0=1.0"),
    (["--kd", "-1", "--a-min", "0", "--a-max", "0"], "error: k must be positive"),
    (["--kd", "0", "--a-min", "0", "--a-max", "0"], "error: k must be positive"),
])
def test_sweep_geom_domain_errors_exit_2(tmp_path, capsys, extra, message):
    out = tmp_path / "err.csv"
    assert main(["sweep-geom", *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


@pytest.mark.parametrize("a", ["0", "0.1"])
def test_sweep_k_refuses_kd_at_or_below_zero_for_every_a(tmp_path, capsys, a):
    # the rows come from renorm_state, whose G_r guard names the first refused kd before s
    # (0 at a = 0) is evaluated, so the transparent impurity is refused like every other a
    out = tmp_path / "err.csv"
    assert main(["sweep-k", "--y0", "0.3", "--a", a, "--kd-min", "-1", "--kd-max", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == "error: kd must be positive and finite, got -1.0"
    assert not out.exists()


def test_field_map_greens_refuses_a_missed_tolerance(tmp_path, capsys):
    # the x = x0 column passes within 1e-7 of the source, where the Kummer
    # plan cannot meet --tol: exit 2 rather than write values that miss it
    out = tmp_path / "near.csv"
    assert main(["field-map", "--kind", "greens", "--kd", str(2.5 * np.pi), "--y0", "0.3",
                 "--nx", "3", "--ny", "2", "--y-min", "0.2999999", "--y-max", "0.3000001",
                 "--out", str(out)]) == 2
    assert "misses tol=1e-12" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--y0", "1e-05", "--kd-min", "7.0", "--kd-max", "7.3", "--points", "2"],
    ["sweep-geom", "--kd", "7.3", "--y0-min", "1e-05", "--y0-max", "0.5", "--y0-points", "2",
     "--a-points", "3"],
])
def test_sweeps_refuse_a_missed_tolerance(tmp_path, capsys, argv):
    # G_r with y0 within ~1e-5 of a wall cannot meet --tol under the Kummer
    # plan's mode cap: exit 2 rather than write values that miss it
    out = tmp_path / "near.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "misses tol=1e-12" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["field-map", "--kind", "s", "--kd", "7.3", "--y0", "0.3", "--x0", "-1e308", "--x-min", "1e308",
     "--x-max", "1.5e308", "--nx", "2", "--ny", "2"],
    ["field-map", "--kind", "greens", "--kd", "7.3", "--y0", "0.3", "--x0", "-1e308", "--x-min", "1e308",
     "--x-max", "1.5e308", "--nx", "2", "--ny", "2"],
    ["greens-bench", "--x", "1e308", "--x0", "-1e308"],
], ids=["field-map-s", "field-map-greens", "greens-bench"])
def test_a_separation_that_overflows_exits_2(tmp_path, capsys, argv):
    # finite x and x0 whose x - x0 overflows: one error line, not a NaN map or NaN errors
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: x - x0 must be finite, but the points lie too far apart along the wire\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--y0", "0.3", "--a", "-0.05", "--kd-min", "2.0", "--kd-max", "9.0", "--points", "40"],
    ["sweep-geom", "--kd", "7.3", "--a-points", "5", "--y0-points", "4"],
], ids=["sweep-k", "sweep-geom"])
def test_sweep_svg_is_byte_identical_on_repeat(tmp_path, argv):
    # sweep-k draws svg_line_plot's polylines, sweep-geom svg_heatmap's cells
    runs = []
    for name in ("a", "b"):
        svg = tmp_path / f"{name}.svg"
        assert main([*argv, "--out", str(tmp_path / f"{name}.csv"), "--svg", str(svg)]) == 0
        runs.append(svg.read_bytes())
    assert runs[0] == runs[1] and runs[0].startswith(b"<svg") and runs[0].rstrip().endswith(b"</svg>")
    assert (b"<polyline" in runs[0]) == (argv[0] == "sweep-k")


def test_a_gap_row_at_a_node_of_its_opening_writes_nan_limits(tmp_path):
    # chi_2(0.5) = 0, so at kd = 2 pi the edge laws raise DegenerateMode and the gap row's four
    # limits are NaN; sigma_limit_above, 1 at any other gap row, is NaN too
    out = tmp_path / "node.csv"
    assert main(["sweep-k", "--y0", "0.5", "--kd-min", "6.283185307179586", "--kd-max", "7",
                 "--points", "2", "--out", str(out)]) == 0
    _, cols, rows = read_data_lines(out)
    limits = ["sigma_asym_below", "sigma_limit_above", "gr_asym_below_re", "gr_asym_above_im"]
    assert rows[0][cols.index("gap")] == "1" and [rows[0][cols.index(c)] for c in limits] == ["nan"] * 4
    assert rows[1][cols.index("gap")] == "0" and float(rows[1][cols.index("sigma")]) > 0.0


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a sweep\n\ny0 = 0.3   # impurity height\n   \nkd-min = 4.0\nkd-max = 9.0\n# points = 9\npoints = 7\n")
    plain = tmp_path / "plain.cfg"
    plain.write_text("y0 = 0.3\nkd-min = 4.0\nkd-max = 9.0\npoints = 7\n")
    for name, path in (("c", cfg), ("p", plain)):
        assert main(["sweep-k", "--config", str(path), "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
    assert len(read_data_lines(tmp_path / "c.csv")[2]) == 7


def test_module_entry_prints_its_version():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-m", "wirescat", "--version"], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"wirescat {cli.__version__}\n", "")
