"""Correctness gate: every job's output is checked before it counts.

A job fails when it exits nonzero, raises, writes an unreadable or
wrongly-shaped table, or breaks one of the checks below.  Identity
thresholds are the frozen ones of ``wirescat validate`` (1e-10).

sweep_k   on every non-gap row with n_open >= 1, with Sigma = 1/2 - Im G_r:
          sigma = |Rs|^2 Sigma^2, |Rs|^2 Sigma = -Im Rs, G = N - sigma,
          sigma = sin^2 delta0, 0 <= sigma <= 1; n_open = floor(kd/pi) on
          every non-gap row.  Those identities hold for any Re G_r and any
          phase of s, so a seeded sample of rows is recomputed by the oracle.
sweep_geom  0 <= sigma <= 1, sigma = sigma_free = 0 at a = 0, and an oracle
          sample of sigma and sigma_free.
field_map   phi_s = -Im G_w to 1e-10 over the shared grid, the JSON job equal
          to the CSV job value for value, and an oracle sample of the real
          mirror kinds.
greens_pairs  at coincidence the Kummer error reaches 1e-10 by 5000 terms
          (acceptance criterion 13); on axis the completed Kummer sum is within
          1e-10 at the largest term count; off axis the diffraction and
          spectral forms agree with the reference to 1e-10.

The oracle shares no code with ``wirescat``: s(k) from ``scipy.special``
J0/Y0 and G_r from a direct mode sum with its own tail estimate.  Each
comparison tolerance is propagated from the oracle's own error bound plus
the accuracy the package claims (1e-12 envelope for J0/Y0, ``--tol`` 1e-12
for the G_r series).
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
from scipy import special

IDENTITY_TOL = 1e-10          # validate's frozen identity thresholds
CONVERGENCE_TOL = 1e-10       # acceptance criterion 13
COINCIDENT_TERMS = 5000
SERIES_TOL = 1e-12            # the CLI's default --tol
BESSEL_ENVELOPE_ERR = 1e-12   # per implementation: package claim and scipy's measured 5.4e-13
EPS = float(np.finfo(float).eps)
EULER_GAMMA = 0.5772156649015329
ORACLE_MODES = 1 << 15
ORACLE_SAMPLE = 12
FIELD_SAMPLE = 64


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------

def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    """Columns and raw rows of a CSV or JSON table written by the CLI."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        return list(doc["columns"]), [["nan" if v is None else v for v in row]
                                      for row in doc["rows"]]
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def numeric(columns: list[str], rows: list[list]) -> dict[str, np.ndarray]:
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return {name: data[:, i] for i, name in enumerate(columns)}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def oracle_s(k: float, a: float) -> tuple[complex, float]:
    """Hard-disk strength s = -2i J0/(J0 +- i Y0) from scipy, with its error bound.

    With |dJ|, |dY| <= e |H0| per implementation, |ds| <= 6 e; two
    implementations are compared, so the budget is 12 e.
    """
    ka = k * abs(a)
    j, y = special.j0(ka), special.y0(ka)
    denom = j + 1j * y if a > 0 else j - 1j * y
    return complex(-2j * j / denom), 12.0 * BESSEL_ENVELOPE_ERR


def oracle_gr(kd: float, y0: float, modes: int = ORACLE_MODES) -> tuple[complex, float, float]:
    """G_r(kd, y0) by direct mode sum; returns (G_r, Sigma, error bound).

    Past the cut the closed-mode terms are -(1/(m pi)) (q^2/2 + 3q^4/8 + ...)
    chi_m^2 with q = kd/(m pi) and chi_m^2 = 1 - cos(2 pi m y0).  The tail
    estimate keeps the non-oscillating q^2 part; the bound covers the
    oscillating q^2 part (Abel summation: |sum z^m f(m)| <= 2 f(M+1)/|1-z|),
    all higher orders, and rounding, including the growth of the relative
    error of k_x near a mode opening and of sin(m pi y0) with m.
    """
    m = np.arange(1, modes + 1, dtype=float)
    kx2 = kd * kd - (m * math.pi) ** 2
    kx = np.sqrt(np.abs(kx2))
    chi2 = 2.0 * np.sin(m * math.pi * y0) ** 2
    is_open = kx2 > 0.0
    terms = np.where(is_open, -1j / kx, -1.0 / kx) + 1.0 / (m * math.pi)
    terms = terms * chi2
    const = (-math.log((kd / math.pi) * math.sin(math.pi * y0)) / math.pi
             + 0.5j - EULER_GAMMA / math.pi)
    big_m = float(modes)
    zeta3_tail = 1.0 / (2 * big_m**2) - 1.0 / (2 * big_m**3) + 1.0 / (4 * big_m**4)
    zeta5_tail = 1.0 / (4 * big_m**4)
    c3 = kd**2 / (2.0 * math.pi**3)
    c5 = 3.0 * kd**4 / (8.0 * math.pi**5)
    q2 = (kd / (big_m * math.pi)) ** 2
    tail = -c3 * zeta3_tail
    gap = abs(1.0 - complex(math.cos(2 * math.pi * y0), math.sin(2 * math.pi * y0)))
    bound = (c3 * 2.0 / ((big_m + 1.0) ** 3 * gap)
             + 2.0 * c5 * zeta5_tail / (1.0 - q2))
    rel_round = 8.0 * EPS * (1.0 + kd * kd / np.maximum(np.abs(kx2), 1e-300) + m)
    bound += float(np.sum(np.abs(terms) * rel_round)) + 8.0 * EPS * abs(const)
    g_r = complex(terms.sum() + tail + const)
    sigma = float(np.sum(chi2[is_open] / kx[is_open]))
    return g_r, sigma, bound


def oracle_sigma(kd: float, y0: float, a: float) -> dict:
    """sigma, Rs and G_r for one impurity, each with its propagated tolerance."""
    s, s_tol = oracle_s(kd, a)
    g_r, sig_open, g_bound = oracle_gr(kd, y0)
    g_tol = 2.0 * g_bound + SERIES_TOL       # oracle bound, the CLI's rounding and --tol
    den = abs(1.0 - s * g_r)
    rs = s / (1.0 - s * g_r)
    # first-order propagation through Rs = s/(1 - s G_r); factor 2 covers second order
    rs_tol = 2.0 * (s_tol + abs(s) ** 2 * g_tol) / den**2 + 8.0 * EPS * abs(rs)
    sigma = abs(rs) ** 2 * sig_open**2
    sigma_tol = (2.0 * abs(rs) * sig_open**2 * rs_tol + 2.0 * abs(rs) ** 2 * sig_open * g_tol
                 + 8.0 * EPS * sigma)
    sigma_free = abs(s) ** 2 / kd
    return dict(s=s, g_r=g_r, g_tol=g_tol, rs=rs, rs_tol=rs_tol, sigma=sigma,
                sigma_tol=sigma_tol, sigma_free=sigma_free,
                sigma_free_tol=2.0 * abs(s) * s_tol / kd + 8.0 * EPS * sigma_free)


def oracle_mirror(kind: str, x: float, y: float, kd: float, y0: float) -> tuple[float, float]:
    """Mirror wave at (x, y) for the impurity at (0, y0) by its open-mode sum, with tolerance."""
    n = np.arange(1, int(math.floor(kd / math.pi)) + 1, dtype=float)
    if len(n) == 0:
        return 0.0, 0.0
    kx = np.sqrt(kd * kd - (n * math.pi) ** 2)
    chi = 2.0 * np.sin(n * math.pi * y) * np.sin(n * math.pi * y0)
    if kind == "s":
        terms = chi * np.cos(kx * x) / kx
    elif kind == "px":
        terms = -chi * np.sin(kx * x) / kd
    elif kind == "dxy":
        terms = (4.0 / kd**2) * n * math.pi * np.sin(n * math.pi * y) \
            * np.cos(n * math.pi * y0) * np.sin(kx * x)
    elif kind == "f":
        terms = (kx**2 - 3.0 * (n * math.pi) ** 2) * chi * np.sin(kx * x) / kd**3
    else:
        raise ValueError(f"no oracle for kind {kind!r}")
    rel = 64.0 * EPS * (1.0 + kd * abs(x) + kd * kd / kx**2 + n)
    return float(terms.sum()), float(np.sum(np.abs(terms) * rel))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def _sample(job, candidates: np.ndarray, count: int) -> list[int]:
    rng = random.Random(f"gate/{job.job_id}/{' '.join(job.argv)}")
    picks = list(candidates)
    return sorted(rng.sample(picks, min(count, len(picks))))


def _check_sweep_k(job, cols, rows, fails):
    c = numeric(cols, rows)
    p = job.params
    kd = c["kd"]
    if not np.array_equal(kd, np.linspace(p["kd_min"], p["kd_max"], job.points)):
        fails.append("kd column differs from the requested grid")
    normal = c["gap"] == 0
    n_open, sigma = c["n_open"], c["sigma"]
    if np.any(n_open[normal] != np.floor(kd[normal] / math.pi)):
        fails.append("n_open != floor(kd/pi)")
    if np.any(c["conductance_empty"] != n_open):
        fails.append("conductance_empty != n_open")
    live = normal & (n_open >= 1)
    big_sigma = 0.5 - c["g_r_im"][live]
    rs2 = c["rs_re"][live] ** 2 + c["rs_im"][live] ** 2
    sig = sigma[live]
    residuals = {
        "sigma = |Rs|^2 Sigma^2": np.abs(sig - rs2 * big_sigma**2),
        "|Rs|^2 Sigma = -Im Rs": np.abs(rs2 * big_sigma + c["rs_im"][live]),
        "G = N - sigma": np.abs(c["conductance"][live] - (n_open[live] - sig)),
        "sigma = sin^2 delta0": np.abs(sig - np.sin(c["delta0"][live]) ** 2),
    }
    for name, res in residuals.items():
        worst = float(np.max(res)) if res.size else 0.0
        if not worst <= IDENTITY_TOL:
            fails.append(f"{name}: residual {worst:.3e} > {IDENTITY_TOL:g}")
    if not np.all((sig >= 0.0) & (sig <= 1.0)):
        fails.append("sigma outside [0, 1]")
    for i in _sample(job, np.flatnonzero(live), ORACLE_SAMPLE):
        ref = oracle_sigma(float(kd[i]), p["y0"], p["a"])
        g_r = complex(c["g_r_re"][i], c["g_r_im"][i])
        rs = complex(c["rs_re"][i], c["rs_im"][i])
        for name, got, want, tol in (("G_r", g_r, ref["g_r"], ref["g_tol"]),
                                     ("Rs", rs, ref["rs"], ref["rs_tol"]),
                                     ("sigma", sigma[i], ref["sigma"], ref["sigma_tol"]),
                                     ("sigma_free", c["sigma_free"][i], ref["sigma_free"],
                                      ref["sigma_free_tol"])):
            if not abs(got - want) <= tol:
                fails.append(f"oracle {name} at kd={float(kd[i])!r}: |diff| {abs(got - want):.3e} > {tol:.3e}")


def _check_sweep_geom(job, cols, rows, fails):
    c = numeric(cols, rows)
    p = job.params
    a_grid = np.linspace(p["a_min"], p["a_max"], p["a_points"])
    y_grid = np.linspace(p["y0_min"], p["y0_max"], p["y0_points"])
    if not (np.array_equal(c["a"], np.repeat(a_grid, len(y_grid)))
            and np.array_equal(c["y0"], np.tile(y_grid, len(a_grid)))):
        fails.append("(a, y0) columns differ from the requested grid")
        return
    sigma, a = c["sigma"], c["a"]
    if not np.all((sigma >= 0.0) & (sigma <= 1.0)):
        fails.append("sigma outside [0, 1]")
    if np.any(c["gap"] != 0):
        fails.append("gap row in a fixed-kd sweep away from mode openings")
    zero = a == 0.0
    if np.any(sigma[zero] != 0.0) or np.any(c["sigma_free"][zero] != 0.0):
        fails.append("nonzero sigma at a = 0")
    for i in _sample(job, np.flatnonzero(~zero), ORACLE_SAMPLE):
        ref = oracle_sigma(p["kd"], float(c["y0"][i]), float(a[i]))
        for name, got, want, tol in (("sigma", sigma[i], ref["sigma"], ref["sigma_tol"]),
                                     ("sigma_free", c["sigma_free"][i], ref["sigma_free"],
                                      ref["sigma_free_tol"])):
            if not abs(got - want) <= tol:
                fails.append(f"oracle {name} at a={float(a[i])!r}, y0={float(c['y0'][i])!r}: "
                             f"|diff| {abs(got - want):.3e} > {tol:.3e}")


def _check_field(job, cols, rows, fails):
    c = numeric(cols, rows)
    p = job.params
    xs = np.linspace(p["x_min"], p["x_max"], p["nx"])
    ys = np.linspace(p["y_min"], p["y_max"], p["ny"])
    if not (np.array_equal(c["x"], np.repeat(xs, len(ys))) and np.array_equal(c["y"], np.tile(ys, len(xs)))):
        fails.append("(x, y) columns differ from the requested grid")
        return
    if not np.all(np.isfinite(c["value_re"])) or not np.all(np.isfinite(c["value_im"])):
        fails.append("non-finite field value")
    if p["kind"] == "greens":
        return
    if np.any(c["value_im"] != 0.0):
        fails.append("nonzero imaginary part of a real mirror wave")
    for i in _sample(job, np.arange(len(c["x"])), FIELD_SAMPLE):
        want, tol = oracle_mirror(p["kind"], float(c["x"][i]), float(c["y"][i]), p["kd"], p["y0"])
        if not abs(c["value_re"][i] - want) <= tol:
            fails.append(f"oracle {p['kind']} at ({float(c['x'][i])!r}, {float(c['y'][i])!r}): "
                         f"|diff| {abs(c['value_re'][i] - want):.3e} > {tol:.3e}")


def _check_greens_pairs(job, cols, rows, fails):
    p = job.params
    expected = [(rep, t) for rep in p["reps"] for t in p["terms"]]
    got = [(r[0], int(float(r[1]))) for r in rows]
    if got != expected:
        fails.append("(representation, terms) rows differ from the request")
        return
    err = np.array([float(r[2]) for r in rows])
    if not np.all(np.isfinite(err) & (err >= 0.0)):
        fails.append("non-finite or negative error")
        return
    by_rep = {rep: err[i * len(p["terms"]):(i + 1) * len(p["terms"])]
              for i, rep in enumerate(p["reps"])}
    case = p["case"]
    if case == "coincident":
        hit = [t for t, e in zip(p["terms"], by_rep["kummer"]) if e <= CONVERGENCE_TOL]
        if not hit or min(hit) > COINCIDENT_TERMS:
            fails.append(f"kummer error does not reach {CONVERGENCE_TOL:g} by {COINCIDENT_TERMS} terms")
    elif case == "on":
        if not by_rep["kummer"][-1] <= CONVERGENCE_TOL:
            fails.append(f"on-axis kummer error {by_rep['kummer'][-1]:.3e} at {p['terms'][-1]} terms")
    else:
        if not np.all(by_rep["diffraction"] <= CONVERGENCE_TOL):
            fails.append(f"diffraction differs from kummer by {by_rep['diffraction'].max():.3e}")
        if not by_rep["spectral"][-1] <= CONVERGENCE_TOL:
            fails.append(f"off-axis spectral error {by_rep['spectral'][-1]:.3e} at {p['terms'][-1]} terms")


_CHECKS = {"sweep_k": _check_sweep_k, "sweep_geom": _check_sweep_geom,
           "field_map": _check_field, "greens_pairs": _check_greens_pairs}


def gate_round(workload: str, jobs, records) -> dict[str, list[str]]:
    """Failure messages per job id of one round; an empty list means the job passed."""
    failures: dict[str, list[str]] = {}
    tables = {}
    for job, rec in zip(jobs, records):
        fails = failures.setdefault(job.job_id, [])
        if rec["error"] is not None or rec["rc"] != 0:
            fails.append(rec["error"] or f"exit code {rec['rc']}")
            continue
        try:
            cols, rows = read_table(rec["out"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            fails.append(f"unreadable output: {exc}")
            continue
        if len(rows) != job.points:
            fails.append(f"{len(rows)} rows, expected {job.points}")
            continue
        try:
            _CHECKS[workload](job, cols, rows, fails)
        except (KeyError, ValueError) as exc:
            fails.append(f"malformed output: {exc!r}")
            continue
        tables[job.job_id] = (job, cols, rows)
    if workload == "field_map":
        _cross_check_fields(tables, failures)
    return failures


def _cross_check_fields(tables: dict, failures: dict) -> None:
    """phi_s = -Im G_w on the shared grid; the JSON job equals its CSV twin."""
    by_kind = {(job.params["kind"], job.ext): (job, numeric(cols, rows))
               for job, cols, rows in tables.values()}
    s_csv, greens, s_json = by_kind.get(("s", "csv")), by_kind.get(("greens", "csv")), \
        by_kind.get(("s", "json"))
    if s_csv and greens:
        worst = float(np.max(np.abs(s_csv[1]["value_re"] + greens[1]["value_im"])))
        if not worst <= IDENTITY_TOL:
            failures[greens[0].job_id].append(f"|phi_s + Im G_w| = {worst:.3e} > {IDENTITY_TOL:g}")
    if s_csv and s_json:
        same = all(np.array_equal(s_csv[1][k], s_json[1][k]) for k in ("x", "y", "value_re", "value_im"))
        if not same:
            failures[s_json[0].job_id].append("JSON values differ from the CSV of the same field")
