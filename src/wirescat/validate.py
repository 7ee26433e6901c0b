"""Validation registry: every analytically forced identity as a named check.

Each check measures a residual against its frozen threshold and reports
pass/fail.  The CLI ``validate`` subcommand runs the whole registry; the
acceptance suite reads only ``check_smatrix_grid`` (criteria 5-7) and
computes its other criteria itself.  ``fast=True`` shrinks grids for a quick
smoke run without touching thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import greens, mirror, renorm, scattering
from .specfun import SWITCHOVER, cylinder_bessel_j, cylinder_bessel_y
from .waveguide import WireConfig, _n_open, image_positions, transverse_mode

__all__ = ["CheckResult", "run_checks", "CHECK_GROUPS", "standard_kd_grid",
           "STANDARD_Y0", "STANDARD_A"]

STANDARD_Y0 = (0.05, 0.25, 0.32, 0.5)
STANDARD_A = (0.02, -0.02, 0.1, -0.1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    note: str = ""

    @staticmethod
    def from_residual(name: str, residual: float, threshold: float, note: str = "") -> "CheckResult":
        ok = bool(np.isfinite(residual)) and residual <= threshold
        return CheckResult(name, float(residual), float(threshold), ok, note)


def standard_kd_grid(n_points: int = 500) -> np.ndarray:
    """kd in [1.1 pi, 12.9 pi] with guard-band neighbours of n*pi removed."""
    kd = np.linspace(1.1 * np.pi, 12.9 * np.pi, n_points)
    near = np.abs(kd / np.pi - np.round(kd / np.pi)) * np.pi <= 1e-6
    return kd[~near]


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def check_specfun(fast: bool = False):
    rng = np.random.default_rng(2024)
    n = 60 if fast else 300
    xs = 10 ** rng.uniform(-2, 3, n)
    wron = cylinder_bessel_j(0, xs) * cylinder_bessel_y(1, xs) \
        - cylinder_bessel_j(1, xs) * cylinder_bessel_y(0, xs)
    res_w = np.max(np.abs(wron + 2.0 / (np.pi * xs)) / (2.0 / (np.pi * xs)))
    rec = cylinder_bessel_j(0, xs) + cylinder_bessel_j(2, xs) - 2.0 * cylinder_bessel_j(1, xs) / xs
    res_r = np.max(np.abs(rec))
    span = np.linspace(SWITCHOVER - 0.25, SWITCHOVER + 0.25, 11)
    from .specfun import _asym, _miller
    (j0_lo, y0_lo), (j0_hi, y0_hi) = _miller(0, span, True), _asym(0, span)
    y1_lo, y1_hi = _miller(1, span, True)[1], _asym(1, span)[1]
    res_c = float(np.max(np.abs([j0_lo - j0_hi, y0_lo - y0_hi, y1_lo - y1_hi])))
    return [
        CheckResult.from_residual("specfun.wronskian", res_w, 1e-10),
        CheckResult.from_residual("specfun.recurrence", res_r, 1e-10),
        CheckResult.from_residual("specfun.switchover_continuity", res_c, 1e-11),
    ]


# ---------------------------------------------------------------------------
# waveguide geometry
# ---------------------------------------------------------------------------

def check_waveguide(fast: bool = False):
    nodes, weights = np.polynomial.legendre.leggauss(60 if fast else 200)
    y = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    modes = transverse_mode(np.arange(1, 11), y)
    res_o = float(np.max(np.abs((w * modes) @ modes.T - np.eye(10))))
    res_g = 0.0
    for y0 in (0.055, 0.3, 0.47):
        imgs = image_positions(WireConfig(y0=y0, a=0.1), -20, 20)
        mirr = image_positions(WireConfig(y0=1.0 - y0, a=0.1), -20, 20)
        reflected = np.sort(1.0 - mirr.positions[:, 1])
        res_g = max(res_g, float(np.max(np.abs(np.sort(imgs.positions[:, 1]) - reflected))))
        mid = 0.5 * (imgs.positions[:-1, 1] + imgs.positions[1:, 1])
        res_g = max(res_g, float(np.max(np.abs(mid - np.round(mid)))))
    return [
        CheckResult.from_residual("waveguide.mode_orthonormality", res_o, 1e-10),
        CheckResult.from_residual("waveguide.image_geometry", res_g, 1e-12,
                                  "mirror symmetry + midpoints on wall lines"),
    ]


# ---------------------------------------------------------------------------
# Green's function representations
# ---------------------------------------------------------------------------

def check_greens_equivalence(fast: bool = False):
    """|kummer - spectral(1e4)| and |kummer - diffraction| at random interior pairs."""
    rng = np.random.default_rng(7)
    n_pairs = 12 if fast else 100
    res_sp = res_df = 0.0
    for kd in (0.5 * np.pi, 2.5 * np.pi, 12.3 * np.pi):
        for _ in range(n_pairs):
            y0 = rng.uniform(0.05, 0.95)
            y = rng.uniform(0.02, 0.98)
            dx = rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0])
            r0 = (0.0, y0)
            r = (dx, y)
            gk = greens.greens_kummer(r, r0, kd, tol=1e-12).value
            res_sp = max(res_sp, abs(gk - greens.greens_spectral(r, r0, kd, 10**4).value))
            res_df = max(res_df, abs(gk - greens.greens_diffraction(r, r0, kd, tol=1e-12).value))
    return [
        CheckResult.from_residual("greens.kummer_vs_spectral", res_sp, 1e-8),
        CheckResult.from_residual("greens.kummer_vs_diffraction", res_df, 1e-8),
    ]


def check_greens_boundary(fast: bool = False):
    kd = 2.5 * np.pi
    r0 = (0.0, 0.3)
    res = 0.0
    for x in (0.1, 0.45) if fast else (0.1, 0.45, 1.2):
        for wall in (0.0, 1.0):
            res = max(res, abs(greens.greens_kummer((x, wall), r0, kd, 1e-12).value))
            res = max(res, abs(greens.greens_spectral((x, wall), r0, kd, 4000).value))
            res = max(res, abs(greens.greens_diffraction((x, wall), r0, kd, 1e-12).value))
            res = max(res, abs(greens.greens_static((x, wall), r0)))
    interior = abs(greens.greens_kummer((0.37, 0.61), r0, kd, 1e-12).value)
    img_wall = abs(greens.greens_image((0.37, 0.0), r0, kd, 10**4).value)
    return [
        CheckResult.from_residual("greens.wall_values", res, 1e-10),
        CheckResult.from_residual("greens.image_wall_ceiling", img_wall / interior, 1e-2,
                                  "raw image sum at 1e4 images"),
    ]


def check_greens_properties(fast: bool = False):
    kd = 2.5 * np.pi
    r0 = (0.0, 0.3)
    pairs = [((0.3, 0.62), (-0.2, 0.17)), ((0.55, 0.81), (0.1, 0.44))]
    res_rec = 0.0
    reps = (lambda p, q: greens.greens_kummer(p, q, kd, 1e-12).value,
            lambda p, q: greens.greens_spectral(p, q, kd, 4000).value,
            lambda p, q: greens.greens_diffraction(p, q, kd, 1e-12).value)
    for ra, rb in pairs:
        for f in reps:
            res_rec = max(res_rec, abs(f(ra, rb) - f(rb, ra)))
    low = greens.greens_kummer((0.4, 0.7), (0.0, 0.3), 0.5 * np.pi, 1e-12).value
    res_real = abs(low.imag)
    # Helmholtz residual via 5-point stencil must shrink at second order
    x0, y0 = 0.45, 0.62
    def stencil(h):
        c, xp, xm, yp, ym = (greens.greens_kummer(p, r0, kd, 1e-13).value for p in (
            (x0, y0), (x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h)))
        return abs((xp + xm + yp + ym - 4.0 * c) / h**2 + kd**2 * c)
    r1, r2 = stencil(2e-3), stencil(1e-3)
    ratio = r1 / r2 if r2 > 0 else np.inf
    res_helm = abs(ratio - 4.0)
    # coincidence limit of G_static - G_0 (pure-x offset keeps convergence O(dx^2))
    res_coin = 0.0
    for kdc, y0c in ((2.5 * np.pi, 0.3), (5.5 * np.pi, 0.47)):
        r0c = (0.0, y0c)
        rc = (1e-6, y0c)
        lhs = greens.greens_static(rc, r0c) - greens.greens_free(rc, r0c, kdc)
        rhs = (-np.log((kdc / np.pi) * np.sin(np.pi * y0c)) / np.pi
               + 0.5j - renorm.EULER_GAMMA / np.pi)
        res_coin = max(res_coin, abs(lhs - rhs))
    return [
        CheckResult.from_residual("greens.reciprocity", res_rec, 1e-10),
        CheckResult.from_residual("greens.reality_below_threshold", res_real, 1e-12),
        CheckResult.from_residual("greens.helmholtz_stencil_order", res_helm, 1.0,
                                  "ratio of residuals at h, h/2 must be ~4"),
        CheckResult.from_residual("greens.coincidence_constant", res_coin, 1e-8),
    ]


def check_greens_benchmark(fast: bool = False):
    kd = 2.5 * np.pi
    r0 = (0.0, 0.3)
    rows = greens.convergence_benchmark(r0, r0, kd, representations=("kummer",),
                                        term_grid=(30, 100, 300, 1000, 3000, 5000))
    terms_needed = next((r.terms for r in rows if r.error <= 1e-10), None)
    res_k = float(terms_needed) if terms_needed is not None else np.inf
    img = greens.convergence_benchmark((0.37, 0.61), r0, kd, representations=("image",),
                                       term_grid=(10**4,))
    res_i = img[0].error
    # spectral slope at |x-x0| = 0.2: fit ln(err * M) = c - slope M, slope ~ pi |dx| / d
    dx = 0.2
    spec_rows = greens.convergence_benchmark((dx, 0.61), r0, kd, representations=("spectral",),
                                             term_grid=tuple(range(6, 120, 4)))
    terms = np.array([r.terms for r in spec_rows], dtype=float)
    errs = np.array([r.error for r in spec_rows])
    good = (errs > 1e-13) & (errs < 1e-2)
    slope = -np.polyfit(terms[good], np.log(errs[good] * terms[good]), 1)[0]
    res_s = abs(slope / (np.pi * dx) - 1.0)
    small_dx_rows = greens.convergence_benchmark((0.5, 0.61), r0, kd, representations=("spectral",),
                                                 term_grid=(100,))
    return [
        CheckResult.from_residual("benchmark.kummer_terms_to_1e-10", res_k, 5000.0,
                                  "terms needed at coincidence"),
        CheckResult("benchmark.image_error_at_1e4", res_i, 1e-3, bool(res_i > 1e-3),
                    "conditional convergence must still exceed 1e-3"),
        CheckResult.from_residual("benchmark.spectral_slope", res_s, 0.1,
                                  "relative deviation from exp(-m pi |dx|/d)"),
        CheckResult.from_residual("benchmark.spectral_100_terms", small_dx_rows[0].error, 1e-10,
                                  "error at 100 terms, |dx| = 0.5 d"),
    ]


# ---------------------------------------------------------------------------
# t matrix and renormalization
# ---------------------------------------------------------------------------

def check_free_optical(fast: bool = False):
    ka = np.logspace(-3, np.log10(20.0), 40 if fast else 200)
    res = 0.0
    for a in (0.1, -0.1):
        res = max(res, float(np.max(renorm.t_matrix_grid(ka / abs(a), a).optical_residual)))
    return [CheckResult.from_residual("renorm.free_optical_theorem", res, 1e-12)]


def check_hard_disk(fast: bool = False):
    res = 0.0
    a = 0.1
    for ka in (0.5, 2.0, 5.0):
        res = max(res, renorm.hard_disk_boundary_check(ka / a, a))
    return [CheckResult.from_residual("renorm.hard_disk_boundary", res, 1e-10)]


def check_edge_asymptotes(fast: bool = False):
    results = []
    n_mode, y0 = 2, 0.05
    eps_ref = 1e-4
    res_g = 0.0
    for eps in ((1e-6,) if fast else (1e-6, 1e-8)):
        # below the opening G_r diverges in its real part, above in its imaginary part
        for side, sign, part in (("below", -1.0, "real"), ("above", 1.0, "imag")):
            full = (renorm.renorm_sum(n_mode * np.pi + sign * eps, y0).g_r
                    - renorm.renorm_sum(n_mode * np.pi + sign * eps_ref, y0).g_r)
            asym = (renorm.gr_edge_asymptote(n_mode, eps, y0, side)
                    - renorm.gr_edge_asymptote(n_mode, eps_ref, y0, side))
            res_g = max(res_g, abs(getattr(full, part) / getattr(asym, part) - 1.0))
    results.append(CheckResult.from_residual("renorm.gr_edge_asymptote", res_g, 0.1,
                                             "divergent-part comparison"))
    cfg = WireConfig(y0=y0, a=0.1)
    res_s = 0.0
    eps_s = (1e-6,) if fast else (1e-6, 1e-7, 1e-8)
    for eps, full in zip(eps_s, scattering.cross_section(n_mode * np.pi - np.array(eps_s), cfg).tolist()):
        res_s = max(res_s, abs(scattering.sigma_edge_asymptote(n_mode, eps, y0) / full - 1.0))
    results.append(CheckResult.from_residual("scattering.sigma_edge_asymptote", res_s, 0.1))
    return results


def check_foldy(fast: bool = False):
    kd, y0, a = 2.5 * np.pi, 0.3, 0.1
    half = 250 if fast else 1000
    cfg = WireConfig(y0=y0, a=a)
    imgs = image_positions(cfg, -half, half)
    s = renorm.t_matrix(kd, a).s
    phi = imgs.signs.astype(complex)
    prob = renorm.FoldyProblem(positions=imgs.positions, strength=s, incident=phi)
    psi = renorm.foldy_solve(prob, kd)
    i0 = half
    target = renorm.attach_strength(renorm.renorm_sum(kd, y0), s).renorm_factor
    res_f = abs(psi[i0] - target) / abs(target)
    res_a = max(abs(psi[i0 + j] - (-1.0) ** j * psi[i0]) / abs(psi[i0])
                for j in (-2, -1, 1, 2, 5))
    return [
        CheckResult.from_residual("renorm.foldy_consistency", res_f, 1e-2,
                                  f"{2 * half + 1} images"),
        CheckResult.from_residual("renorm.foldy_antisymmetry", res_a, 2e-2),
    ]


# ---------------------------------------------------------------------------
# S matrix grid (unitarity, rank, four-way sigma, conductance, identities)
# ---------------------------------------------------------------------------

def check_smatrix_grid(fast: bool = False):
    """S-matrix and sigma identities on standard_kd_grid x STANDARD_Y0 x STANDARD_A: one
    state grid per y0, one array s(k) per a, S matrices stacked by open-channel count."""
    kd = standard_kd_grid(60 if fast else 500)
    n_open = _n_open(kd)
    res_unit = res_rank = res_four = res_cond = res_flux = res_im = res_opt = 0.0
    sigma_lo, sigma_hi = np.inf, -np.inf
    for y0 in STANDARD_Y0:
        base = renorm.renorm_grid(kd, y0)
        res_im = max(res_im, np.max(base.im_identity_residual))
        for a in STANDARD_A:
            st = renorm.attach_strength(base, renorm.t_matrix_grid(kd, a).s)
            sigma_lo = min(sigma_lo, np.min(st.cross_section))
            sigma_hi = max(sigma_hi, np.max(st.cross_section))
            phi_t = st.sigma_open * st.renorm_factor
            forms = np.array([
                abs(st.rs) ** 2 * st.sigma_open ** 2,
                st.rs.imag ** 2 / abs(st.rs) ** 2,
                abs(st.s * phi_t) ** 2,
                0.25 * abs(1.0 - st.phase_shift.e2id) ** 2,
            ])
            res_four = max(res_four, np.max(np.ptp(forms, axis=0)))
            res_opt = max(res_opt, np.max(st.optical_residual))
            for n in np.unique(n_open).tolist():
                sm = scattering._state_s_matrix(st[n_open == n])
                res_unit = max(res_unit, np.max(sm.unitarity_residual))
                res_rank = max(res_rank, np.max(sm.rank_one_residual))
                tr = np.trace(np.swapaxes(sm.trans.conj(), -1, -2) @ sm.trans,
                              axis1=-2, axis2=-1).real
                sigma_sum = np.sum(sm.sigma_n, axis=-1)
                res_cond = max(res_cond, np.max(np.abs(tr - sm.conductance)),
                               np.max(np.abs(sm.conductance - (n - sigma_sum))))
                if not np.all((n - 1 - 1e-10 <= tr) & (tr <= n + 1e-10)):
                    res_cond = max(res_cond, 1.0)
                res_flux = max(res_flux, np.max(sigma_sum) - 1.0)
    return [
        CheckResult.from_residual("scattering.unitarity", res_unit, 1e-10),
        CheckResult.from_residual("scattering.rank_one", res_rank, 1e-10),
        CheckResult.from_residual("scattering.four_way_sigma", res_four, 1e-10),
        CheckResult.from_residual("scattering.conductance_identities", res_cond, 1e-10,
                                  "N - sigma = Tr T^dag T and N-1 <= Tr <= N"),
        CheckResult.from_residual("scattering.flux_bound", res_flux, 1e-12,
                                  "sum sigma_n <= d"),
        CheckResult("scattering.sigma_in_unit_interval",
                    float(max(0.0 - sigma_lo, sigma_hi - 1.0)), 0.0,
                    bool(sigma_lo >= 0.0 and sigma_hi <= 1.0)),
        CheckResult.from_residual("renorm.im_gr_identity", res_im, 1e-10),
        CheckResult.from_residual("renorm.confined_optical_constraint", res_opt, 1e-10),
    ]


def check_resonances(fast: bool = False):
    below, *seq = scattering.cross_section(2.0 * np.pi + np.array([-1e-4, 1e-4, 1e-6, 1e-8]),
                                           WireConfig(y0=0.05, a=0.1)).tolist()
    mono = seq[0] < seq[1] < seq[2]
    center = scattering.cross_section(np.pi * np.array([2.0, 2.0, 3.0, 3.0]) + [1e-6, -1e-6, 1e-6, -1e-6],
                                      WireConfig(y0=0.5, a=0.1)).tolist()
    cont, jump = abs(center[0] - center[1]), center[2] - center[3]
    return [
        CheckResult.from_residual("scattering.sigma_below_opening", below, 1e-3,
                                  "sigma(2pi - 1e-4), y0=0.05, a=0.1"),
        CheckResult("scattering.sigma_above_opening", seq[1], 0.9,
                    bool(seq[1] >= 0.9 and mono),
                    "sigma(2pi + 1e-6) >= 0.9, increasing as offset shrinks"),
        CheckResult.from_residual("scattering.missing_resonance_continuity", cont, 1e-3,
                                  "y0 = d/2 across kd = 2pi"),
        CheckResult("scattering.odd_resonance_jump", jump, 0.9, bool(jump > 0.9),
                    "y0 = d/2 jump at kd = 3pi"),
    ]


# ---------------------------------------------------------------------------
# mirror basis
# ---------------------------------------------------------------------------

def check_mirror(fast: bool = False):
    res_id = 0.0
    nx, ny = (80, 24) if fast else (400, 100)
    for kd, y0 in ((2.5 * np.pi, 0.3), (40.0, 0.6)):
        cfg = WireConfig(y0=y0, a=0.1)
        spec = mirror.GridSpec(-1.0, 1.0, 0.0, 1.0, nx, ny)
        gw = greens.greens_kummer_grid(spec.xs, spec.ys, cfg.r0, kd, tol=1e-8)
        phi = mirror.field_map(mirror.MirrorKind.S, kd, cfg, spec).values
        res_id = max(res_id, float(np.max(np.abs(phi + gw.imag))))
    res_part = 0.0
    for kd, y0 in ((2.5 * np.pi, 0.3), (12.3 * np.pi, 0.37)):
        cfg = WireConfig(y0=y0, a=0.1)
        for kind in (mirror.MirrorKind.PX, mirror.MirrorKind.DXY, mirror.MirrorKind.F):
            res_part = max(res_part, abs(mirror.mirror_partial(kind, cfg.r0, kd, cfg)))
    cfg = WireConfig(y0=0.3, a=0.1)
    kd = 2.5 * np.pi
    st = renorm.renorm_state(kd, cfg)
    recon = abs(st.s * mirror.renormalized_mirror_at_impurity(kd, cfg)) ** 2
    res_rec = abs(recon - scattering.cross_section(kd, cfg))
    # flux-weighted cross term with the scattering wave vanishes when the
    # two longitudinal parities are combined (x = +L with x = -L)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    y = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xs = (0.8, -0.8)
    phi_s = mirror._mirror_grid(mirror.MirrorKind.S, kd, cfg, xs, y)
    res_orth = 0.0
    for kind in (mirror.MirrorKind.PX, mirror.MirrorKind.DXY, mirror.MirrorKind.F):
        vals = mirror._mirror_grid(kind, kd, cfg, xs, y) * phi_s
        res_orth = max(res_orth, abs(sum(float(np.sum(w * row)) for row in vals)))
    return [
        CheckResult.from_residual("mirror.identity_vs_im_greens", res_id, 1e-10,
                                  f"{nx}x{ny} grid"),
        CheckResult.from_residual("mirror.partials_vanish_at_impurity", res_part, 1e-12),
        CheckResult.from_residual("mirror.sigma_reconstruction", res_rec, 1e-10),
        CheckResult.from_residual("mirror.scattering_channel_orthogonality", res_orth, 1e-8),
    ]


def check_sigma_from_greens(fast: bool = False):
    cfg = WireConfig(y0=0.3, a=0.1)
    kd = 2.5 * np.pi
    res = abs(scattering.sigma_from_greens(kd, cfg, "kummer")
              - scattering.cross_section(kd, cfg))
    return [CheckResult.from_residual("scattering.sigma_from_greens_kummer", res, 1e-8)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECK_GROUPS = {
    "specfun": check_specfun,
    "waveguide": check_waveguide,
    "greens_equivalence": check_greens_equivalence,
    "greens_boundary": check_greens_boundary,
    "greens_properties": check_greens_properties,
    "greens_benchmark": check_greens_benchmark,
    "free_optical": check_free_optical,
    "hard_disk": check_hard_disk,
    "edge_asymptotes": check_edge_asymptotes,
    "foldy": check_foldy,
    "smatrix_grid": check_smatrix_grid,
    "resonances": check_resonances,
    "mirror": check_mirror,
    "sigma_from_greens": check_sigma_from_greens,
}


def run_checks(fast: bool = False, groups: list[str] | None = None) -> list[CheckResult]:
    """Run all (or selected) check groups; returns the flat result list."""
    selected = groups or list(CHECK_GROUPS)
    out: list[CheckResult] = []
    for name in selected:
        out.extend(CHECK_GROUPS[name](fast))
    return out
