"""Block table writers against the row writers they replaced: byte equality."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirescat import __version__, cli, output
from wirescat.output import table, write_table_csv, write_table_json

META = {"generator": "wirescat test", "kd": "7.8539816339744828", "points": 3, "ratio": 0.5}


# The previous writers, one Python value at a time: the reference bytes.
def _cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return v if isinstance(v, str) else str(int(v))


def oracle_csv(path, columns, rows, metadata):
    lines = [f"# {key} = {metadata[key]}" for key in metadata]
    lines += ["# columns: " + ",".join(columns), ",".join(columns)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_json(path, columns, rows, metadata):
    doc = {
        "metadata": {k: (str(v) if not isinstance(v, (int, float, bool)) else v)
                     for k, v in metadata.items()},
        "columns": list(columns),
        "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                 for row in rows],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def assert_same_bytes(tmp_path, columns: dict, metadata=META):
    """The writers on table(columns) against the oracles on the broadcast
    columns' values, flattened row-major."""
    rows = table(columns)
    flat = np.broadcast_arrays(*map(np.asarray, columns.values()))
    assert rows.shape == flat[0].shape
    py_rows = [list(row) for row in zip(*(c.ravel().tolist() for c in flat))]
    for name, writer, oracle in (("csv", write_table_csv, oracle_csv),
                                 ("json", write_table_json, oracle_json)):
        got, want = tmp_path / f"got.{name}", tmp_path / f"want.{name}"
        writer(str(got), rows, metadata)
        oracle(str(want), list(columns), py_rows, metadata)
        assert got.read_bytes() == want.read_bytes(), name


EDGE = [float("nan"), 0.0, -0.0, float("inf"), -float("inf"), 5e-324, -5e-324, 1e308,
        -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1.0, -2.5, 1e22, 1e-7]


def test_edge_floats(tmp_path):
    values = np.array(EDGE + EDGE[::-1])
    assert_same_bytes(tmp_path, {"v": values, "w": -values})


def test_nan_payloads_and_signs(tmp_path):
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    assert_same_bytes(tmp_path, {"v": bits.view(np.float64)})


def test_int_and_string_columns(tmp_path):
    names = ["kummer", "spectral", 'quote " and \\ back', "tab\there", "café σ",
             "kummer", "x"]
    assert_same_bytes(tmp_path, {
        "representation": names,
        "terms": [10, 30, -1, 0, 2 ** 62, 10, 7],
        "error": [1e-3, float("nan"), 0.0, -0.0, 5e-324, 1e-3, float("inf")],
    })


def test_empty_table(tmp_path):
    assert_same_bytes(tmp_path, {"x": np.zeros(0), "n": np.zeros(0, int)})
    assert_same_bytes(tmp_path, {"x": np.zeros(0)}, metadata={})


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("n_columns", [1, 4, 16])
def test_block_boundaries(tmp_path, offset, n_columns):
    # rows one short of, exactly at and one past the rows of one block
    n = output._BLOCK // n_columns + offset
    rng = np.random.default_rng(n_columns)
    columns = {f"c{j}": rng.choice(EDGE, n) * rng.choice([1.0, -1.0, 0.5], n)
               for j in range(n_columns)}
    columns["gap"] = rng.integers(0, 2, n)
    assert_same_bytes(tmp_path, columns)


def test_rows_arrive_in_blocks_bounded_in_values():
    rows = table({"a": np.arange(5000.0), "b": np.arange(5000.0), "c": np.arange(5000)})
    sizes = [text.count("\n") for text in output._blocks(rows, output._CSV_RENDER,
                                                           "%s,%s,%s\n", "")]
    assert sum(sizes) == 5000
    assert max(sizes) * 3 <= output._BLOCK


def test_grid_rows_arrive_in_blocks_bounded_in_values():
    # runs of 5,000 rows are longer than a block: each is split into pieces
    rows = table({"a": np.arange(3.0)[:, None], "b": np.arange(5000.0), "c": np.arange(15000).reshape(3, 5000)})
    sizes = [text.count("\n") for text in output._blocks(rows, output._CSV_RENDER,
                                                           "%s,%s,%s\n", "")]
    assert sum(sizes) == 15000
    assert max(sizes) * 3 <= output._BLOCK


@pytest.mark.parametrize("writer, mib", [(write_table_csv, 0.29), (write_table_json, 0.35)])
def test_writer_memory_is_bounded(tmp_path, traced_peak, writer, mib):
    # a field-map-shaped table, 40,000 rows x 4 columns: one block of cells and
    # text at a time traces 0.29 MiB for CSV and 0.35 MiB for JSON; headroom 15 %
    rng = np.random.default_rng(3)
    rows = table({"x": np.repeat(np.linspace(-1.0, 1.0, 400), 100),
                  "y": np.tile(np.linspace(0.0, 1.0, 100), 400),
                  "re": rng.standard_normal(40000), "im": rng.standard_normal(40000)})
    peak = traced_peak(lambda: writer(str(tmp_path / "t"), rows, META))
    assert peak < 1.15 * mib * 2 ** 20, peak


@pytest.mark.parametrize("writer, mib", [(write_table_csv, 0.178), (write_table_json, 0.171)])
def test_grid_writer_memory_is_bounded(tmp_path, traced_peak, writer, mib):
    # the same 40,000 values as a (400, 100) grid table: one block of cells, one run's
    # text and the file's _BUFFER at a time trace 0.178 MiB for CSV and 0.171 MiB for
    # JSON (0.295 and 0.357 MiB with a block's text at a time); headroom 15 %
    rng = np.random.default_rng(3)
    rows = table({"x": np.linspace(-1.0, 1.0, 400)[:, None], "y": np.linspace(0.0, 1.0, 100),
                  "re": rng.standard_normal((400, 100)), "im": rng.standard_normal((400, 100))})
    peak = traced_peak(lambda: writer(str(tmp_path / "t"), rows, META))
    assert peak < 1.15 * mib * 2 ** 20, peak


def test_grid_text_arrives_one_run_at_a_time():
    # no text of a (400, 100) table holds more than its run of 100 rows, and the texts,
    # each after the first led by the separator, are the rows; a run longer than a block
    # arrives in pieces of at most one block
    rng = np.random.default_rng(5)
    rows = table({"x": np.linspace(-1.0, 1.0, 400)[:, None], "y": np.linspace(0.0, 1.0, 100),
                  "re": rng.standard_normal((400, 100)), "im": rng.standard_normal((400, 100))})
    csv = list(output._blocks(rows, output._CSV_RENDER, "%s,%s,%s,%s\n", ""))
    assert [text.count("\n") for text in csv] == [100] * 400
    json_texts = list(output._blocks(rows, output._JSON_RENDER, "[%s,%s,%s,%s]", ",\n"))
    assert [text.count("[") for text in json_texts] == [100] * 400
    assert not json_texts[0].startswith(",") and all(text.startswith(",\n[") for text in json_texts[1:])
    assert json.loads("[" + "".join(json_texts) + "]") == [list(row) for row in rows.reshape(-1).tolist()]
    long = table({"a": np.arange(3.0)[:, None], "b": np.arange(5000.0), "c": np.arange(15000).reshape(3, 5000)})
    sizes = [text.count("\n") for text in output._blocks(long, output._CSV_RENDER, "%s,%s,%s\n", "")]
    piece = output._BLOCK // 3
    assert sizes == ([piece] * (5000 // piece) + [5000 % piece]) * 3


@pytest.mark.parametrize("n_runs, run_len, block_rows", [
    (9, 1, 4), (9, 2, 4), (9, 3, 4), (5, 3, 2), (2, 3, 1),         # several runs per block, and the last short
    (300, 1, None), (150, 2, None), (100, 3, None),               # hundreds of one- to three-row runs in a block
    (3, 7, 2), (2, 9, 4), (2, 1500, None), (1, 2000, None),       # runs longer than a block: pieces, one shorter
])
def test_short_and_long_runs_match_the_oracles(tmp_path, n_runs, run_len, block_rows):
    # runs of one to three rows, many to a block, and runs longer than a block, with a
    # column of each kind (one text per run, one template text per row, '%' cells,
    # JSON's per-value floats and strings): the writers' bytes are the oracles'
    rng = np.random.default_rng(n_runs * 1000 + run_len)
    shape = (n_runs, run_len)
    columns = {"x": np.linspace(-1.0, 1.0, n_runs)[:, None], "y": np.linspace(0.0, 1.0, run_len),
               "v": np.where(rng.random(shape) < 0.3, rng.choice(EDGE, shape), rng.standard_normal(shape)),
               "n": rng.integers(-5, 5, shape),
               "name": np.array(["kummer", 'a "b", c', "café σ"] * run_len)[:run_len]}
    block = output._BLOCK if block_rows is None else block_rows * len(columns)
    with mock.patch.object(output, "_BLOCK", block):
        assert_same_bytes(tmp_path, columns)


_LONG_RUN = """
import sys
import numpy as np
from wirescat.output import table, write_table_csv, write_table_json

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

rng, marks = np.random.default_rng(int(sys.argv[2])), []
tables = [table({"x": np.linspace(-1.0, 1.0, 400)[:, None], "y": np.linspace(0.0, 1.0, 100),
                 "re": rng.standard_normal((400, 100)), "im": rng.standard_normal((400, 100))}) for _ in range(15)]
for i, rows in enumerate(tables):
    (write_table_json if i % 2 else write_table_csv)(sys.argv[1], rows, {"table": i})
    marks.append(hwm())
print(marks[-1] - marks[2])
"""


def _has_vmhwm() -> bool:
    try:
        with open("/proc/self/status") as fh:
            return any(line.startswith("VmHWM:") for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmhwm(), reason="needs VmHWM in /proc/self/status (Linux)")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_runs_of_grid_tables_hold_the_high_water_mark(tmp_path, seed):
    # a fresh interpreter makes 15 distinct 400 x 100 grid tables, then writes them, CSV and
    # JSON in turn: from the 3rd write on, its resident high-water mark grows by under 0.5 MB
    # (12 kB on seeds 1-4).  Block texts of 45-90 kB fragmented the heap, and the mark grew
    # by 3.1-4.3 MB
    src = str(Path(output.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _LONG_RUN, str(tmp_path / "t"), str(seed)], env=env,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) < 512, done.stdout  # kB


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bits=st.lists(st.lists(st.integers(0, 2 ** 64 - 1), min_size=2, max_size=2),
                     min_size=0, max_size=40),
       block=st.sampled_from([2, 3, 8, 2 ** 12]))
def test_random_bit_patterns(tmp_path_factory, bits, block):
    pairs = np.array(bits, dtype=np.uint64).reshape(-1, 2).view(np.float64)
    # repeat some values so that blocks hold duplicates
    values = np.concatenate([pairs, pairs[::-1]])
    tmp_path = tmp_path_factory.mktemp("bits")
    with mock.patch.object(output, "_BLOCK", block):
        assert_same_bytes(tmp_path, {"x": values[:, 0], "y": values[:, 1],
                                     "n": np.arange(len(values))})


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SPECIAL = st.sampled_from([None, float("nan"), float("inf"), -float("inf"), -0.0])


@st.composite
def _block_values(draw, size):
    """size values for one block of a float column: all distinct (maybe one of them
    NaN, +-inf or -0.0), size // 2 distinct values each twice, or one value."""
    mode = draw(st.sampled_from(["distinct", "half", "one"]))
    if mode == "one":
        return [draw(_FINITE)] * size
    if mode == "half":
        half = draw(st.lists(_FINITE, min_size=size // 2, max_size=size // 2, unique=True))
        return half * 2 + [draw(_FINITE)] * (size % 2)
    values = draw(st.lists(_FINITE, min_size=size, max_size=size, unique=True))
    special = draw(_SPECIAL)
    if special is not None:
        values[draw(st.integers(0, size - 1))] = special
    return values


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.sampled_from([2, 4, 6, 8]), n_blocks=st.integers(1, 4))
def test_template_and_distinct_paths_switch_per_block(tmp_path_factory, data, rows, n_blocks):
    # blocks of distinct, pairwise repeated or constant floats, some holding NaN
    # or +-inf (JSON's per-value texts): both float columns switch between them
    # from block to block, next to int and str columns
    sizes = [rows] * n_blocks + [data.draw(st.integers(0, rows - 1))]
    n = sum(sizes)
    columns = {
        "u": [v for size in sizes if size for v in data.draw(_block_values(size))],
        "terms": data.draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=n, max_size=n)),
        "name": data.draw(st.lists(st.sampled_from(["kummer", 'a "b", c', "café σ"]),
                                   min_size=n, max_size=n)),
        "v": [v for size in sizes if size for v in data.draw(_block_values(size))],
    }
    with mock.patch.object(output, "_BLOCK", rows * len(columns)):
        assert_same_bytes(tmp_path_factory.mktemp("paths"), {k: np.array(v) for k, v in columns.items()})


# one value per row of a column that differs from its neighbours only in its bits
_LOOKALIKES = {"zero": (0.0, -0.0), "nan": (np.uint64(0x7FF8000000000000).view(np.float64),
                                           np.uint64(0x7FF8000000000001).view(np.float64)),
               "inf": (float("inf"), -float("inf"))}


@pytest.mark.parametrize("pair", _LOOKALIKES, ids=str)
def test_lookalike_values_are_not_constant(pair):
    # 0.0/-0.0, two NaN payloads or +-inf in one spot: the column is neither
    # equal in every run nor constant along every run
    same, odd = _LOOKALIKES[pair]
    column = np.full((3, 4), same)
    column[1, 2] = odd
    assert output._kind(column, True) is None
    assert output._kind(column, False) is None


@st.composite
def _grid_column(draw, shape):
    """A float column of the grid shape: constant along runs, equal in every
    run, all constant or mostly distinct.  With a lookalike pair, every copy of
    its first value becomes the pair's first member and one spot its second."""
    n_runs, run_len = shape
    mode = draw(st.sampled_from(["run", "table", "one", "distinct"]))
    value = st.one_of(_FINITE, _SPECIAL.filter(lambda v: v is not None))
    if mode == "run":
        column = np.array(draw(st.lists(value, min_size=n_runs, max_size=n_runs)), float)[:, None]
    elif mode == "table":
        column = np.array(draw(st.lists(value, min_size=run_len, max_size=run_len)), float)[None, :]
    elif mode == "one":
        column = np.array(draw(value), float)
    else:
        column = np.array(draw(st.lists(_FINITE, min_size=n_runs * run_len, max_size=n_runs * run_len)),
                          float).reshape(shape)
    column = np.array(np.broadcast_to(column, shape))
    pair = draw(st.sampled_from([None, *_LOOKALIKES]))
    if pair is not None and column.size:
        i, j = draw(st.integers(0, n_runs - 1)), draw(st.integers(0, run_len - 1))
        bits = column.view(np.int64)
        same, odd = (np.float64(v).view(np.int64) for v in _LOOKALIKES[pair])
        bits[bits == bits.flat[0]] = same
        bits[i, j] = odd
    return column


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), n_runs=st.integers(0, 6), run_len=st.integers(0, 7), block_rows=st.sampled_from([1, 2, 3, 5, 64]))
def test_grid_tables_match_the_oracles_on_flattened_rows(tmp_path_factory, data, n_runs, run_len, block_rows):
    # runs shorter than, as long as and longer than a block of block_rows rows;
    # shapes (1, n), (n, 1), (0, n) and (n, 0) among them
    shape = (n_runs, run_len)
    ints = st.lists(st.sampled_from([7, -2 ** 62, 2 ** 62]), min_size=n_runs * run_len, max_size=n_runs * run_len)
    columns = {"u": data.draw(_grid_column(shape)),
               "run": np.arange(n_runs)[:, None],
               "v": data.draw(_grid_column(shape)),
               "terms": np.array(data.draw(ints), int).reshape(shape),
               "name": np.array(data.draw(st.lists(st.sampled_from(["kummer", 'a "b", c', "café σ"]),
                                                   min_size=run_len, max_size=run_len)), dtype="U8"),
               "w": data.draw(_grid_column(shape))}
    with mock.patch.object(output, "_BLOCK", block_rows * len(columns)):
        assert_same_bytes(tmp_path_factory.mktemp("grid"), columns)


_GRID_COMMANDS = [["field-map", "--kind", kind, "--kd", "9.1", "--y0", "0.3", "--nx", "9", "--ny", "5"]
                  for kind in ("s", "s_plus", "px", "dxy", "f", "greens")]
_GRID_COMMANDS.append(["sweep-geom", "--kd", "7.3", "--a-points", "6", "--y0-points", "4"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _GRID_COMMANDS, ids=lambda argv: "-".join(argv[:3:2]))
def test_grid_commands_write_grid_tables(tmp_path, argv, fmt):
    # the CLI hands the writer a table of the grid's shape, and the file is the
    # oracle writer's on its rows
    with mock.patch.object(cli, "_write", wraps=cli._write) as spy:
        assert cli.main([*argv, "--format", fmt, "--out", str(tmp_path / "got")]) == 0
    (args, rows, meta), = [call.args for call in spy.call_args_list]
    assert rows.shape == ((9, 5) if argv[0] == "field-map" else (6, 4))
    meta = {"generator": f"wirescat {__version__}", "command": args.command, **meta}
    oracle = oracle_json if fmt == "json" else oracle_csv
    oracle(str(tmp_path / "want"), rows.dtype.names, rows.reshape(-1).tolist(), meta)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


_SPIED_COMMANDS = [
    (["sweep-k", "--y0", "0.3", "--a", "0.1", "--kd-min", "1.5", "--kd-max", "23.5", "--points", "2000",
      "--format", fmt], 1) for fmt in ("csv", "json")
] + [(["field-map", "--kind", "s", "--kd", "9.1", "--y0", "0.3", "--nx", "400", "--ny", "100"], 100)]


@pytest.mark.parametrize("argv, fills", _SPIED_COMMANDS, ids=["sweep-k-csv", "sweep-k-json", "field-map-csv"])
def test_each_column_rule_is_fixed_once_per_table(tmp_path, argv, fills):
    # output counts and gathers no distinct values (neither np.unique nor np.sort),
    # and fills the row template once per row of one run: once in all for a
    # one-run sweep of several blocks, once per y for a field map of 400 runs
    looked_up, filled = [], []

    class Numpy:
        def __getattr__(self, name):
            looked_up.append(name)
            return getattr(np, name)

    class Template(str):
        def __mod__(self, values):
            filled.append(values)
            return str.__mod__(self, values)

    blocks = output._blocks
    with mock.patch.object(output, "np", Numpy()), mock.patch.object(
            output, "_blocks", lambda rows, render, template, sep: blocks(rows, render, Template(template), sep)):
        assert cli.main([*argv, "--out", str(tmp_path / "t")]) == 0
    assert looked_up and not {"unique", "sort"} & set(looked_up)
    assert len(filled) == fills


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kd_min, kd_max, constant", [
    ("1.5", "6.0", {"gap", "sigma_asym_below", "sigma_limit_above", "gr_asym_below_re", "gr_asym_above_im"}),
    # the middle row is kd = 2 pi to rounding: a gap row, so no column is constant
    (repr(2 * math.pi - 1.0), repr(2 * math.pi + 1.0), set()),
], ids=["no-gap", "gap"])
def test_a_one_run_table_formats_each_constant_column_once(tmp_path, kd_min, kd_max, constant, fmt):
    # a one-run sweep of several blocks: a column constant along the run is formatted
    # once for the table, every other one row by row, and the file is the oracle's
    argv = ["sweep-k", "--y0", "0.3", "--a", "0.1", "--kd-min", kd_min, "--kd-max", kd_max,
            "--points", "2001", "--format", fmt, "--out", str(tmp_path / "got")]
    with mock.patch.object(cli, "_write", wraps=cli._write) as write, \
            mock.patch.object(output, "_texts", wraps=output._texts) as texts:
        assert cli.main(argv) == 0
    (args, rows, meta), = [call.args for call in write.call_args_list]
    assert rows.shape == (2001,) and ("gap" in constant) != bool(rows["gap"].any())
    bits = {name: rows[name].astype(float).view(np.int64) for name in rows.dtype.names if rows[name].dtype.kind in "fi"}
    assert {name for name, b in bits.items() if (b == b[0]).all()} == constant
    assert [len(call.args[1]) for call in texts.call_args_list] == [1] * len(constant)
    meta = {"generator": f"wirescat {__version__}", "command": args.command, **meta}
    oracle = oracle_json if fmt == "json" else oracle_csv
    oracle(str(tmp_path / "want"), rows.dtype.names, rows.tolist(), meta)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@pytest.mark.parametrize("writer, oracle", [(write_table_csv, oracle_csv), (write_table_json, oracle_json)],
                         ids=["csv", "json"])
def test_a_one_run_tables_blocks_take_only_its_varying_columns(tmp_path, writer, oracle):
    # a gap-free sweep's shape: NaN, -0.0 and int constants next to varying columns.
    # The first tuple fills the row template; each later one is a block's '%'
    # arguments, rows x varying columns, with no constant column among them
    n = 23
    columns = {"kd": np.linspace(1.5, 6.0, n), "asym": np.full(n, np.nan), "n": np.arange(n) % 3,
               "zero": np.full(n, -0.0), "sigma": np.cos(np.arange(n)), "gap": np.zeros(n, int)}
    rows = table(columns)
    with mock.patch.object(output, "_BLOCK", 5 * len(columns)), \
            mock.patch.object(output, "tuple", wraps=tuple, create=True) as spy:
        writer(str(tmp_path / "got"), rows, META)
    fill, *blocks = [call.args[0] for call in spy.call_args_list]
    assert len(fill) == len(columns)
    assert [len(cells) for cells in blocks] == [5 * 3] * 4 + [3 * 3]
    varying = zip(*(columns[name].tolist() for name in ("kd", "n", "sigma")))
    assert [v for cells in blocks for v in cells] == [v for row in varying for v in row]
    oracle(str(tmp_path / "want"), list(columns), rows.tolist(), META)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
