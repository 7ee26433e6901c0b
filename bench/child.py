"""The workload process: one fresh interpreter per measurement.

Started by ``run.py`` as ``python child.py <mode> <request.json>`` with the
parent's ``time.monotonic()`` reading at spawn in ``$BENCH_SPAWNED``.  The
package is imported before anything else, so the setup time it reports
covers interpreter start, numpy and ``import wirescat`` only; the reference
kernel is timed right after it (``setup_ref_s``).  Modes:

setup    report the setup time, run nothing.
measure  run rounds until ``seconds`` have passed (at least one), then run
         the first job once more, untimed, for the byte-identity check.
ref      run round 0 without the tracer (the overhead baseline).
trace    run round 0 with the layer-boundary tracer installed.

Jobs go through ``wirescat.cli.main(argv)`` in-process, each timed by
``HostSpeed``.  The result is written as JSON to the path in the request.
"""

import os
import sys
import time

import wirescat.cli  # the import being timed

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from calibrate import kernel_seconds, reference_seconds  # noqa: E402  (this directory is sys.path[0])
from workloads import round_jobs  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process.

    VmHWM belongs to the address space created at exec; ru_maxrss can carry
    the parent's resident set over the fork, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """Reference-kernel samples before, after and inside every job (calibrate.py).

    With ``inside`` set, a SIGALRM every SAMPLE_PERIOD_S of job time runs the
    kernel between two bytecodes of the job and the handler's time is taken
    off the job's wall time; a 9-second job then sees the host speed of its
    whole span, not only of its ends.  Traced runs keep the samples outside
    jobs, so no kernel time lands inside a span.
    """

    SAMPLE_PERIOD_S = 1.0

    def __init__(self, inside: bool):
        kernel_seconds()  # warm-up
        self.last = kernel_seconds()
        self.inside = inside
        self.samples: list[float] = []
        self.spent = 0.0
        if inside:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0

    def timed(self, fn):
        """(fn(), job wall time without sampling, mean kernel time over the job)."""
        self.samples, self.spent = [], 0.0
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_PERIOD_S, self.SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            if self.inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall = time.perf_counter() - t0 - self.spent
        before, self.last = self.last, kernel_seconds()
        refs = [before, *self.samples, self.last]
        return out, wall, sum(refs) / len(refs)


def call_cli(argv: list[str]) -> tuple[int | None, str | None]:
    try:
        return wirescat.cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception as exc:  # a crash is a failed job, never a crashed benchmark
        return None, f"{type(exc).__name__}: {exc}"


def run_job(job, workdir: str, speed: HostSpeed, suffix: str = "") -> dict:
    out = os.path.join(workdir, f"{job.job_id}{suffix}.{job.ext}")
    argv = list(job.argv) + ["--out", out]
    (rc, error), wall, ref = speed.timed(lambda: call_cli(argv))
    return {"job_id": job.job_id, "argv": argv, "out": out, "points": job.points,
            "rc": rc, "error": error, "wall_s": wall, "ref_s": ref}


def run_round(req: dict, index: int, speed: HostSpeed, on_job=None) -> dict:
    jobs = round_jobs(req["workload"], req["seed"], index)
    records = []
    for j, job in enumerate(jobs):
        if on_job:
            on_job(index * 1000 + j)
        records.append(run_job(job, req["workdir"], speed))
    return {"index": index, "jobs": records}


def main() -> None:
    mode, request_path = sys.argv[1], sys.argv[2]
    setup_s = READY - float(os.environ["BENCH_SPAWNED"])
    with open(request_path) as fh:
        req = json.load(fh)
    result = {"mode": mode, "setup_s": setup_s, "setup_ref_s": reference_seconds(),
              "rounds": [], "repeat": None, "wirescat_file": wirescat.__file__}
    if mode == "measure":
        speed = HostSpeed(inside=True)
        t_begin = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - t_begin < req["seconds"]:
            result["rounds"].append(run_round(req, index, speed))
            index += 1
        first = round_jobs(req["workload"], req["seed"], 0)[0]
        result["repeat"] = run_job(first, req["workdir"], speed, suffix=".repeat")
    elif mode == "ref":
        result["rounds"].append(run_round(req, 0, HostSpeed(inside=False)))
    elif mode == "trace":
        from tracer import Tracer
        tracer = Tracer("wirescat")

        def set_job(job_id: int) -> None:
            tracer.job = job_id
        speed = HostSpeed(inside=False)
        with tracer:
            result["rounds"].append(run_round(req, 0, speed, on_job=set_job))
        tracer.save(req["spans_path"])
        result["trace"] = tracer.summary()
        result["missing"] = tracer.missing
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = peak_rss_mb()
    with open(req["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
