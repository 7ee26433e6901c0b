"""Seeded workload generator: the CLI argv of every job the benchmark runs.

A workload run is a sequence of rounds.  Round ``r`` of workload ``w`` under
seed ``n`` is drawn from its own ``random.Random("w/n/r")`` stream, so the
same seed always yields the same jobs, every round of a run draws fresh
inputs (a cache keyed on inputs gains only from work the inputs of one run
really share), and a run that completes more rounds on a faster host still
ran the same first rounds.  The program sees only the generated argv; the
``--out`` path is appended by the runner.

Sizes are passed explicitly instead of relying on CLI defaults, so a later
change of a default cannot silently change the work measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

PI = math.pi
SWEEP_K_POINTS = 2000
GEOM_A_POINTS, GEOM_Y0_POINTS = 101, 51
FIELD_NX, FIELD_NY = 400, 100
BENCH_TERMS = (10, 30, 100, 300, 1000, 3000, 10000)
OFF_AXIS_REPS = ("spectral", "image", "kummer", "kummer_raw", "diffraction")
ON_AXIS_REPS = ("spectral", "image", "kummer", "kummer_raw")
COINCIDENT_REPS = ("kummer", "kummer_raw")


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``points`` is the number of output rows it must produce."""

    job_id: str
    argv: tuple[str, ...]
    points: int
    ext: str
    params: dict = field(default_factory=dict, compare=False)


def num(value: float) -> str:
    """Shortest round-trip rendering, so the CLI parses back the exact double."""
    return repr(float(value))


def _stratified3(rng: random.Random, lo: float, hi: float) -> list[float]:
    """One draw from each third of [lo, hi], shuffled.

    The outer thirds use mirrored offsets u and 1 - u, so the outer two
    draws always sum to lo + hi.
    """
    width = (hi - lo) / 3
    u = rng.random()
    draws = [lo + width * u, lo + width * (1 + rng.random()), lo + width * (3 - u)]
    rng.shuffle(draws)
    return draws


def _sweep_k(rng: random.Random, tag: str) -> list[Job]:
    # One sweep costs up to 1.5 times another depending on y0 and |a|, so
    # each round is the criterion-15 shape of three sweeps with y0 and |a|
    # stratified over their ranges: rounds then cost alike and a run's
    # median does not hinge on one draw.
    kd_min, kd_max = 0.5 * PI, 7.5 * PI
    jobs = []
    ys, mags = _stratified3(rng, 0.05, 0.5), _stratified3(rng, 0.02, 0.1)
    for i, (y0, mag) in enumerate(zip(ys, mags)):
        a = rng.choice((-1.0, 1.0)) * mag
        argv = ("sweep-k", "--y0", num(y0), "--a", num(a), "--kd-min", num(kd_min),
                "--kd-max", num(kd_max), "--points", str(SWEEP_K_POINTS))
        jobs.append(Job(f"{tag}-sweep{i}", argv, SWEEP_K_POINTS, "csv",
                        dict(y0=y0, a=a, kd_min=kd_min, kd_max=kd_max)))
    return jobs


def _sweep_geom(rng: random.Random, tag: str) -> list[Job]:
    kd = rng.uniform(10.0 * PI, 13.0 * PI)
    grid = dict(a_min=-0.1, a_max=0.1, a_points=GEOM_A_POINTS,
                y0_min=0.05, y0_max=0.5, y0_points=GEOM_Y0_POINTS)
    argv = ("sweep-geom", "--kd", num(kd),
            "--a-min", num(grid["a_min"]), "--a-max", num(grid["a_max"]),
            "--a-points", str(GEOM_A_POINTS),
            "--y0-min", num(grid["y0_min"]), "--y0-max", num(grid["y0_max"]),
            "--y0-points", str(GEOM_Y0_POINTS))
    return [Job(f"{tag}-geom", argv, GEOM_A_POINTS * GEOM_Y0_POINTS, "csv",
                dict(kd=kd, **grid))]


def _field_map(rng: random.Random, tag: str) -> list[Job]:
    kd = rng.uniform(2.0 * PI, 13.0 * PI)
    y0 = rng.uniform(0.1, 0.9)
    derivative = rng.choice(("px", "dxy", "f"))
    grid = dict(x_min=-1.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=FIELD_NX, ny=FIELD_NY)
    base = ("field-map", "--kd", num(kd), "--y0", num(y0), "--x0", "0.0",
            "--x-min", num(grid["x_min"]), "--x-max", num(grid["x_max"]),
            "--y-min", num(grid["y_min"]), "--y-max", num(grid["y_max"]),
            "--nx", str(FIELD_NX), "--ny", str(FIELD_NY))
    jobs = []
    for kind, fmt in (("s", "csv"), ("greens", "csv"), (derivative, "csv"), ("s", "json")):
        argv = base + ("--kind", kind, "--format", fmt)
        jobs.append(Job(f"{tag}-{kind}-{fmt}", argv, FIELD_NX * FIELD_NY, fmt,
                        dict(kd=kd, y0=y0, kind=kind, **grid)))
    return jobs


def _greens_pairs(rng: random.Random, tag: str) -> list[Job]:
    # kd < 10 pi keeps every open channel inside the smallest term count (10)
    kd = rng.uniform(1.1 * PI, 9.9 * PI)
    pairs = []
    for _ in range(3):
        x = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.8)
        pairs.append(("off", x, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
    for _ in range(2):
        y0 = rng.uniform(0.05, 0.95)
        y = y0
        while abs(y - y0) < 0.05:
            y = rng.uniform(0.05, 0.95)
        pairs.append(("on", 0.0, y, y0))
    y0 = rng.uniform(0.05, 0.95)
    pairs.append(("coincident", 0.0, y0, y0))
    reps = {"off": OFF_AXIS_REPS, "on": ON_AXIS_REPS, "coincident": COINCIDENT_REPS}
    jobs = []
    for i, (case, x, y, y0) in enumerate(pairs):
        argv = ("greens-bench", "--kd", num(kd), "--x", num(x), "--y", num(y),
                "--x0", "0.0", "--y0", num(y0),
                "--representations", ",".join(reps[case]),
                "--terms", ",".join(str(t) for t in BENCH_TERMS))
        jobs.append(Job(f"{tag}-pair{i}-{case}", argv, len(reps[case]) * len(BENCH_TERMS),
                        "csv", dict(kd=kd, case=case, reps=reps[case], terms=BENCH_TERMS)))
    return jobs


_GENERATORS = {"sweep_k": _sweep_k, "sweep_geom": _sweep_geom,
               "field_map": _field_map, "greens_pairs": _greens_pairs}
WORKLOADS = tuple(_GENERATORS)


def round_jobs(workload: str, seed: int, round_index: int) -> list[Job]:
    """The jobs of one round; identical for identical (workload, seed, round)."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return _GENERATORS[workload](rng, f"r{round_index}")
