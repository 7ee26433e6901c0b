"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they execute.  Thresholds are frozen here and never relaxed at
runtime; criteria 5-7 read the named checks of validate's S-matrix grid,
computed once for the module.
"""

import time

import numpy as np
import pytest

from wirescat import greens, mirror, renorm, scattering
from wirescat.cli import main as cli_main
from wirescat.renorm import EULER_GAMMA
from wirescat.validate import CHECK_GROUPS, STANDARD_A, STANDARD_Y0, check_smatrix_grid, run_checks
from wirescat.waveguide import WireConfig

GRID = f"standard kd grid x {len(STANDARD_Y0)} y0 x {len(STANDARD_A)} a"


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {label} ({detail})"


@pytest.fixture(scope="module")
def smatrix_grid_metrics():
    """The named checks of validate's S-matrix grid, which criteria 5-7 read."""
    return {r.name: r for r in check_smatrix_grid()}


def test_criterion_01_free_optical_theorem():
    ka = np.logspace(-3, np.log10(20.0), 200)
    worst = 0.0
    for a in (0.1, -0.1):
        for x in ka:
            worst = max(worst, renorm.t_matrix(x / abs(a), a).optical_residual)
    report(1, "free-space optical theorem", worst <= 1e-12, f"max residual {worst:.3e}")


def test_criterion_02_hard_disk_boundary():
    worst = max(renorm.hard_disk_boundary_check(ka / 0.1, 0.1)
                for ka in (0.5, 2.0, 5.0))
    report(2, "hard-disk boundary condition", worst <= 1e-10, f"max |psi| {worst:.3e}")


def test_criterion_03_representation_equivalence():
    rng = np.random.default_rng(7)
    worst_sp = worst_df = 0.0
    for kd in (0.5 * np.pi, 2.5 * np.pi, 12.3 * np.pi):
        for _ in range(100):
            r0 = (0.0, rng.uniform(0.05, 0.95))
            r = (rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0]), rng.uniform(0.02, 0.98))
            gk = greens.greens_kummer(r, r0, kd, tol=1e-12).value
            worst_sp = max(worst_sp, abs(gk - greens.greens_spectral(r, r0, kd, 10**4).value))
            worst_df = max(worst_df, abs(gk - greens.greens_diffraction(r, r0, kd, 1e-12).value))
    ok = worst_sp <= 1e-8 and worst_df <= 1e-8
    report(3, "kummer = spectral = diffraction", ok,
           f"spectral {worst_sp:.3e}, diffraction {worst_df:.3e}")


def test_criterion_04_coincidence_constant():
    worst = 0.0
    for kd, y0 in ((2.5 * np.pi, 0.3), (5.5 * np.pi, 0.47)):
        r0 = (0.0, y0)
        r = (1e-6, y0)
        lhs = greens.greens_static(r, r0) - greens.greens_free(r, r0, kd)
        rhs = -np.log((kd / np.pi) * np.sin(np.pi * y0)) / np.pi + 0.5j - EULER_GAMMA / np.pi
        worst = max(worst, abs(lhs - rhs))
    report(4, "Kummer coincidence constant", worst <= 1e-8, f"max residual {worst:.3e}")


def test_criterion_05_im_gr_identity(smatrix_grid_metrics):
    worst = smatrix_grid_metrics["renorm.im_gr_identity"].residual
    report(5, "Im G_r = 1/2 - Sigma on standard grid", worst <= 1e-10,
           f"max residual {worst:.3e} ({GRID})")


def test_criterion_06_unitarity_and_rank(smatrix_grid_metrics):
    u = smatrix_grid_metrics["scattering.unitarity"].residual
    r = smatrix_grid_metrics["scattering.rank_one"].residual
    report(6, "S-matrix unitarity and rank-one R", u <= 1e-10 and r <= 1e-10,
           f"unitarity {u:.3e}, sv2/sv1 {r:.3e} ({GRID})")


def test_criterion_07_four_way_sigma(smatrix_grid_metrics):
    f = smatrix_grid_metrics["scattering.four_way_sigma"].residual
    c = smatrix_grid_metrics["scattering.conductance_identities"].residual
    in_range = smatrix_grid_metrics["scattering.sigma_in_unit_interval"]
    ok = f <= 1e-10 and c <= 1e-10 and in_range.passed
    report(7, "four-way sigma agreement + conductance identities", ok,
           f"four-way {f:.3e}, conductance {c:.3e}, sigma outside [0, 1] by "
           f"{in_range.residual:.3e} ({GRID})")


def test_criterion_08_resonance_structure():
    cfg = WireConfig(y0=0.05, a=0.1)
    below = scattering.cross_section(2.0 * np.pi - 1e-4, cfg)
    seq = [scattering.cross_section(2.0 * np.pi + eps, cfg) for eps in (1e-4, 1e-6, 1e-8)]
    ok = below <= 1e-3 and seq[1] >= 0.9 and seq[0] < seq[1] < seq[2]
    report(8, "resonance structure at mode opening", ok,
           f"sigma(2pi-1e-4)={below:.3e}, sigma(2pi+1e-6)={seq[1]:.6f}, "
           f"monotone {seq[0] < seq[1] < seq[2]}")


def test_criterion_09_missing_resonance():
    cfg = WireConfig(y0=0.5, a=0.1)
    cont = abs(scattering.cross_section(2.0 * np.pi + 1e-6, cfg)
               - scattering.cross_section(2.0 * np.pi - 1e-6, cfg))
    jump = (scattering.cross_section(3.0 * np.pi + 1e-6, cfg)
            - scattering.cross_section(3.0 * np.pi - 1e-6, cfg))
    ok = cont <= 1e-3 and jump > 0.9
    report(9, "missing resonance at centered impurity", ok,
           f"|dsigma| at 2pi = {cont:.3e}, jump at 3pi = {jump:.6f}")


def test_criterion_10_edge_asymptotes():
    n_mode, y0 = 2, 0.05
    worst = 0.0
    for eps in (1e-6, 1e-8):
        full = (renorm.renorm_sum(n_mode * np.pi - eps, y0).g_r
                - renorm.renorm_sum(n_mode * np.pi - 1e-4, y0).g_r)
        asym = (renorm.gr_edge_asymptote(n_mode, eps, y0, "below")
                - renorm.gr_edge_asymptote(n_mode, 1e-4, y0, "below"))
        worst = max(worst, abs(asym.real / full.real - 1.0))
        full_up = (renorm.renorm_sum(n_mode * np.pi + eps, y0).g_r
                   - renorm.renorm_sum(n_mode * np.pi + 1e-4, y0).g_r)
        asym_up = (renorm.gr_edge_asymptote(n_mode, eps, y0, "above")
                   - renorm.gr_edge_asymptote(n_mode, 1e-4, y0, "above"))
        worst = max(worst, abs(asym_up.imag / full_up.imag - 1.0))
    cfg = WireConfig(y0=y0, a=0.1)
    for eps in (1e-6, 1e-7, 1e-8):
        full = scattering.cross_section(n_mode * np.pi - eps, cfg)
        worst = max(worst, abs(scattering.sigma_edge_asymptote(n_mode, eps, y0) / full - 1.0))
    report(10, "edge asymptotes of G_r and sigma", worst <= 0.1,
           f"worst relative deviation {worst:.3e}")


def test_criterion_11_foldy_consistency(foldy_image_array):
    kd, y0 = 2.5 * np.pi, 0.3
    s, psi = foldy_image_array
    target = 1.0 / (1.0 - s * renorm.renorm_sum(kd, y0).g_r)
    rel = abs(psi[1000] - target) / abs(target)
    report(11, "Foldy solve reproduces renormalization (2001 images)", rel <= 1e-2,
           f"relative deviation {rel:.3e}")


def test_criterion_12_mirror_identities():
    worst_id = 0.0
    for kd, y0 in ((2.5 * np.pi, 0.3), (40.0, 0.6)):
        cfg = WireConfig(y0=y0, a=0.1)
        spec = mirror.GridSpec(-1.0, 1.0, 0.0, 1.0, 400, 100)
        gw = greens.greens_kummer_grid(spec.xs, spec.ys, cfg.r0, kd, tol=1e-8)
        phi = mirror.field_map(mirror.MirrorKind.S, kd, cfg, spec).values
        worst_id = max(worst_id, float(np.max(np.abs(phi + gw.imag))))
    worst_part = 0.0
    for kd, y0 in ((2.5 * np.pi, 0.3), (12.3 * np.pi, 0.37)):
        cfg = WireConfig(y0=y0, a=0.1)
        for kind in (mirror.MirrorKind.PX, mirror.MirrorKind.DXY, mirror.MirrorKind.F):
            worst_part = max(worst_part, abs(mirror.mirror_partial(kind, cfg.r0, kd, cfg)))
    ok = worst_id <= 1e-10 and worst_part <= 1e-12
    report(12, "mirror identities", ok,
           f"max |phi_s + Im G_w| = {worst_id:.3e} (400x100), partials at r0 {worst_part:.3e}")


def test_criterion_13_convergence_benchmark(tmp_path):
    r0 = (0.0, 0.3)
    kd = 2.5 * np.pi
    rows = greens.convergence_benchmark(r0, r0, kd, representations=("kummer",),
                                        term_grid=(30, 100, 300, 1000, 3000, 5000))
    hit = [r.terms for r in rows if r.error <= 1e-10]
    img = greens.convergence_benchmark((0.37, 0.61), r0, kd,
                                       representations=("image",), term_grid=(10**4,))
    # the CSV documenting both claims
    out = tmp_path / "bench.csv"
    rc = cli_main(["greens-bench", "--kd", str(kd), "--x", "0", "--y", "0.3",
                   "--x0", "0", "--y0", "0.3", "--representations", "kummer,kummer_raw",
                   "--terms", "30,100,300,1000,3000,5000", "--out", str(out)])
    ok = bool(hit) and min(hit) <= 5000 and img[0].error > 1e-3 and rc == 0
    report(13, "convergence benchmark", ok,
           f"kummer reaches 1e-10 at {min(hit) if hit else 'never'} terms; "
           f"image error at 1e4 = {img[0].error:.3e}; CSV written {rc == 0}")


def test_criterion_14_geometry_sweep_structure():
    kd = 12.5 * np.pi
    a_grid = np.linspace(-0.1, 0.1, 101)
    sigma = np.array([scattering.cross_section(kd, WireConfig(y0=0.25, a=float(a)))
                      if a != 0.0 else 0.0 for a in a_grid])
    sigma_f = np.array([scattering.free_cross_section(kd, float(a)) if a != 0.0 else 0.0
                        for a in a_grid])
    # sigma_f is even in a, so its maximum is attained at +-a simultaneously;
    # the confined maximum must land within one step of that maximizer set
    free_max_idx = np.where(sigma_f >= sigma_f.max() - 1e-12 * sigma_f.max())[0]
    gap = int(np.min(np.abs(free_max_idx - int(np.argmax(sigma)))))
    report(14, "confined sigma tracks free-space maximum in a", gap <= 1,
           f"argmax offset = {gap} grid steps (free maximizers at a = "
           f"{[float(a_grid[i]) for i in free_max_idx]})")


def test_criterion_15_sweep_performance_and_determinism(tmp_path):
    args_common = ["sweep-k", "--a", "0.1", "--kd-min", str(0.5 * np.pi),
                   "--kd-max", str(7.5 * np.pi), "--points", "2000"]
    t0 = time.perf_counter()
    for y0 in ("0.05", "0.32", "0.5"):
        rc = cli_main(args_common + ["--y0", y0, "--out", str(tmp_path / f"s{y0}.csv")])
        assert rc == 0
    elapsed = time.perf_counter() - t0
    rc = cli_main(args_common + ["--y0", "0.32", "--out", str(tmp_path / "repeat.csv")])
    assert rc == 0
    identical = (tmp_path / "s0.32.csv").read_bytes() == (tmp_path / "repeat.csv").read_bytes()
    ok = elapsed <= 10.0 and identical
    report(15, "full k-sweep performance and determinism", ok,
           f"3 x 2000 points in {elapsed:.2f}s, byte-identical={identical}")


# every named check of validate, group by group in CHECK_GROUPS order
VALIDATE_CHECKS = {
    "specfun": ["specfun.wronskian", "specfun.recurrence", "specfun.switchover_continuity"],
    "waveguide": ["waveguide.mode_orthonormality", "waveguide.image_geometry"],
    "greens_equivalence": ["greens.kummer_vs_spectral", "greens.kummer_vs_diffraction"],
    "greens_boundary": ["greens.wall_values", "greens.image_wall_ceiling"],
    "greens_properties": ["greens.reciprocity", "greens.reality_below_threshold", "greens.helmholtz_stencil_order",
                          "greens.coincidence_constant"],
    "greens_benchmark": ["benchmark.kummer_terms_to_1e-10", "benchmark.image_error_at_1e4",
                         "benchmark.spectral_slope", "benchmark.spectral_100_terms"],
    "free_optical": ["renorm.free_optical_theorem"],
    "hard_disk": ["renorm.hard_disk_boundary"],
    "edge_asymptotes": ["renorm.gr_edge_asymptote", "scattering.sigma_edge_asymptote"],
    "foldy": ["renorm.foldy_consistency", "renorm.foldy_antisymmetry"],
    "smatrix_grid": ["scattering.unitarity", "scattering.rank_one", "scattering.four_way_sigma",
                     "scattering.conductance_identities", "scattering.flux_bound", "scattering.sigma_in_unit_interval",
                     "renorm.im_gr_identity", "renorm.confined_optical_constraint"],
    "resonances": ["scattering.sigma_below_opening", "scattering.sigma_above_opening",
                   "scattering.missing_resonance_continuity", "scattering.odd_resonance_jump"],
    "mirror": ["mirror.identity_vs_im_greens", "mirror.partials_vanish_at_impurity", "mirror.sigma_reconstruction",
               "mirror.scattering_channel_orthogonality"],
    "sigma_from_greens": ["scattering.sigma_from_greens_kummer"],
}


def test_validate_fast_runs_every_group_and_passes_every_check():
    # the other tests run a few groups; this one runs all 14 at --fast sizes, and each of the 40 checks by name
    assert list(VALIDATE_CHECKS) == list(CHECK_GROUPS)
    results = run_checks(fast=True)
    assert [r.name for r in results] == [name for names in VALIDATE_CHECKS.values() for name in names]
    assert len(results) == 40 and [r.name for r in results if not r.passed] == []
