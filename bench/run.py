"""wirescat benchmark: one workload run, gated on output correctness.

    python3 bench/run.py --workload sweep_k --seed 1 --seconds 10 --trace 0

Run from the repository root (any checkout holding ``src/wirescat``).  Each
run starts fresh Python processes (``child.py``) with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread:

* ``--trace 0``: one warm-up start, ``SETUP_STARTS`` timed starts for
  ``setup_s``, then one measuring process that runs rounds of jobs through
  ``wirescat.cli.main`` for ``--seconds`` and repeats its first job.
  Reports the ``end_to_end`` metrics of BENCHMARK.json.
* ``--trace 1``: round 0 once untraced and once under the layer-boundary
  tracer, each in its own process.  Reports the ``per_layer`` metrics.

``--workload all`` runs every workload in turn and prints one table.
Every job is checked by ``gate.py``; the last stdout line is the JSON
result.  A per-run record with provenance goes to ``bench/_results/`` and
traced spans to ``bench/_results/*.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import NOMINAL_S
from gate import gate_round
from workloads import WORKLOADS, round_jobs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "_results"
WORK = BENCH_DIR / "_work"
SETUP_STARTS = 5
RUN_DEADLINE_S = 170.0
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
# per-layer metric -> tracer summary key, where the two differ
TRACE_KEYS = {"greens.kummer_grid.self_s": "greens.greens_kummer_grid.self_s"}


class BenchError(RuntimeError):
    pass


def provenance(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "thread_env": THREAD_ENV, "git_commit": commit, "src_lines": src_lines}


class Runner:
    """Spawns the child processes of one workload run inside a private work dir."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.tag = f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"

    def spawn(self, mode: str) -> dict:
        jobdir = self.workdir / f"{mode}-{time.time_ns()}"
        jobdir.mkdir(parents=True)
        result_path = jobdir / "result.json"
        request = {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                   "workdir": str(jobdir), "result_path": str(result_path),
                   "spans_path": str(RESULTS / f"{self.tag}-spans.npz")}
        req_path = jobdir / "request.json"
        req_path.write_text(json.dumps(request))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(THREAD_ENV, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        env["BENCH_SPAWNED"] = repr(time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), mode,
                                   str(req_path)], env=env, cwd=ROOT, stdout=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
        if not Path(result["wirescat_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported wirescat from {result['wirescat_file']}, not {SRC}")
        return result

    def gate(self, rounds: list[dict]) -> dict[str, list[str]]:
        failures = {}
        for rnd in rounds:
            jobs = round_jobs(self.workload, self.seed, rnd["index"])
            failures.update(gate_round(self.workload, jobs, rnd["jobs"]))
        return failures

    def measure(self) -> dict:
        self.spawn("setup")  # warm-up: byte-compiles src and fills the page cache
        starts = [self.spawn("setup") for _ in range(SETUP_STARTS)]
        res = self.spawn("measure")
        starts.append(res)
        setups = [r["setup_s"] * NOMINAL_S / r["setup_ref_s"] for r in starts]
        failures = self.gate(res["rounds"])
        rep = res["repeat"]
        first = res["rounds"][0]["jobs"][0]
        failures[rep["job_id"] + " (repeat)"] = [] if identical(first, rep) else \
            ["repeated job output differs from the first run's bytes"]
        rates = [points(r) / normalized_wall(r) for r in res["rounds"]]
        failed = sum(bool(f) for f in failures.values())
        return {"failures": failures, "attempted": len(failures), "failed": failed,
                "values": {"points_per_s": statistics.median(rates),
                           "setup_s": statistics.median(setups),
                           "peak_rss_mb": res["peak_rss_mb"],
                           "ok_frac": (len(failures) - failed) / len(failures)},
                "detail": {"round_points_per_s": rates, "setup_starts_s": setups,
                           "rounds": len(rates),
                           "raw_round_points_per_s": [points(r) / sum(j["wall_s"] for j in r["jobs"])
                                                      for r in res["rounds"]],
                           "raw_setup_starts_s": [r["setup_s"] for r in starts],
                           "jobs": [{k: j[k] for k in ("job_id", "wall_s", "ref_s")}
                                    for r in res["rounds"] for j in r["jobs"]]}}

    def trace(self, metric_names: list[str]) -> dict:
        ref = self.spawn("ref")
        traced = self.spawn("trace")
        failures = self.gate(ref["rounds"])
        failures.update({f"{k} (traced)": v for k, v in self.gate(traced["rounds"]).items()})
        first_ref, first_traced = ref["rounds"][0]["jobs"][0], traced["rounds"][0]["jobs"][0]
        if not identical(first_ref, first_traced):
            failures[f"{first_traced['job_id']} (traced)"].append(
                "traced output differs from the untraced run's bytes")
        summary = traced["trace"]
        job_wall = sum(j["wall_s"] for j in traced["rounds"][0]["jobs"])
        # self times telescope: their sum over all spans is the root (cli.main) time
        derived = {"trace.overhead_ratio": (normalized_wall(traced["rounds"][0])
                                            / normalized_wall(ref["rounds"][0])),
                   "trace.coverage": summary["trace.root_s"] / job_wall}
        values, missing = {}, list(traced["missing"])
        for name in metric_names:
            key = TRACE_KEYS.get(name, name)
            if name in derived:
                values[name] = derived[name]
            elif key in summary:
                values[name] = summary[key]
            else:
                values[name] = 0
                missing.append(key)
        failed = sum(bool(f) for f in failures.values())
        return {"failures": failures, "attempted": len(failures), "failed": failed,
                "values": values,
                "detail": {"missing": missing, "traced_wall_s": job_wall,
                           "untraced_wall_s": sum(j["wall_s"] for j in ref["rounds"][0]["jobs"]),
                           "unattributed_s": job_wall - summary["trace.root_s"],
                           "summary": summary}}


def points(rnd: dict) -> int:
    return sum(j["points"] for j in rnd["jobs"])


def normalized_wall(rnd: dict) -> float:
    """Job wall time of a round in seconds at the reference host speed (calibrate.py)."""
    return sum(j["wall_s"] * NOMINAL_S / j["ref_s"] for j in rnd["jobs"])


def identical(a: dict, b: dict) -> bool:
    try:
        return Path(a["out"]).read_bytes() == Path(b["out"]).read_bytes()
    except OSError:
        return False


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    runner = Runner(workload, seed, seconds)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            out = runner.trace([m["name"] for m in spec["per_layer"]])
        else:
            out = runner.measure()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out["metrics"] = {name: {"value": out["values"][name], "unit": unit}
                      for name, unit in units.items()}
    out["provenance"] = provenance(workload, seed)
    out["trace"] = int(trace)
    (RESULTS / f"{runner.tag}-trace{int(trace)}.json").write_text(json.dumps(out, indent=1))
    return out


def report(workload: str, out: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"{workload}: {out['attempted']} jobs attempted, {out['failed']} failed "
          f"(failed_frac {out['failed'] / out['attempted']:.4g})")
    for job_id, fails in out["failures"].items():
        for msg in fails:
            print(f"  FAIL {job_id}: {msg}")
    detail = out["detail"]
    for name, m in out["metrics"].items():
        note = ""
        if name == "points_per_s":
            note = f"  (median of {detail['rounds']} rounds)"
        elif name == "setup_s":
            note = f"  (median of {len(detail['setup_starts_s'])} starts)"
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    for key in detail.get("missing", []):
        print(f"  missing from the package: {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wirescat" / "__init__.py").is_file():
        print(f"error: no wirescat package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
            report(w, results[w])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(results[workloads[0]]["provenance"]))
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, out in results.items()
                   for name, m in out["metrics"].items()}
    attempted = sum(out["attempted"] for out in results.values())
    failed = sum(out["failed"] for out in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
