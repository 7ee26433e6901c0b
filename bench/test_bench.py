"""Self-tests of the benchmark's own machinery (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from gate import gate_round, oracle_gr  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Job, round_jobs  # noqa: E402


def test_self_time_of_nested_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, start, end)
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)  # self times telescope to the root span


def test_tracer_wraps_from_import_binding_and_restores_it():
    import wirescat.renorm as renorm
    import wirescat.specfun as specfun
    original = renorm.cylinder_bessel_j
    assert original is specfun.cylinder_bessel_j
    tracer = Tracer("wirescat")
    with tracer:
        assert renorm.cylinder_bessel_j is not original
        renorm.t_matrix(7.3, 0.05)
    assert renorm.cylinder_bessel_j is original
    assert specfun.cylinder_bessel_j is original
    summary = tracer.summary()
    assert summary["specfun.cylinder_bessel_j.calls"] == 1
    names = [tracer.names[i] for i in tracer.span_name]
    j_span = names.index("specfun.cylinder_bessel_j")
    assert names[tracer.span_parent[j_span]] == "renorm.t_matrix"
    assert summary["specfun.calls"] == 2 and summary["specfun.scalar_calls"] == 2
    assert summary["renorm.t_matrix.useful_ratio"] == 1.0


def test_generator_is_seeded():
    for workload in WORKLOADS:
        first = [j.argv for j in round_jobs(workload, 7, 0)]
        assert first == [j.argv for j in round_jobs(workload, 7, 0)]
        assert first != [j.argv for j in round_jobs(workload, 8, 0)]
        assert first != [j.argv for j in round_jobs(workload, 7, 1)]


def test_oracle_gr_bound_is_honest():
    # halving the mode count must move the estimate by less than the two bounds
    g_full, _, b_full = oracle_gr(9.1, 0.31)
    g_half, _, b_half = oracle_gr(9.1, 0.31, modes=1 << 14)
    assert abs(g_full - g_half) <= b_full + b_half
    assert b_full < 1e-12


def _run_small_sweep(tmp_path) -> tuple[Job, dict]:
    from wirescat.cli import main
    job = round_jobs("sweep_k", 3, 0)[0]
    argv = list(job.argv)
    argv[argv.index("--points") + 1] = "60"
    job = Job(job.job_id, tuple(argv), 60, job.ext, job.params)
    out = tmp_path / "sweep.csv"
    rc = main(argv + ["--out", str(out)])
    return job, {"rc": rc, "error": None, "out": str(out)}


def test_gate_fails_one_sigma_perturbed_by_1e8(tmp_path):
    job, rec = _run_small_sweep(tmp_path)
    assert gate_round("sweep_k", [job], [rec]) == {job.job_id: []}
    path = Path(rec["out"])
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[header].split(",")
    row = next(i for i in range(header + 1, len(lines))
               if int(lines[i].split(",")[cols.index("n_open")]) >= 1)
    fields = lines[row].split(",")
    sigma = cols.index("sigma")
    fields[sigma] = repr(float(fields[sigma]) + 1e-8)
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    failures = gate_round("sweep_k", [job], [rec])[job.job_id]
    assert any("sigma = |Rs|^2 Sigma^2" in f for f in failures)
