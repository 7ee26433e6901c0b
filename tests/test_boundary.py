"""Input checks at the public boundary: every entry refuses a bad y or kd, once per call."""

import ast
import dataclasses
import inspect
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from wirescat import cli, greens, mirror, renorm, scattering, waveguide
from wirescat.errors import DomainError, WireError
from wirescat.mirror import GridSpec
from wirescat.renorm import FoldyProblem
from wirescat.waveguide import WireConfig

KD, Y = 2.5 * np.pi, 0.45
R0 = (0.0, 0.3)
CFG = WireConfig(y0=0.3, a=0.1)
BAD_Y = {"y=1.5": 1.5, "y=-0.2": -0.2, "y=nan": np.nan}
WALL_Y = {"y=0": 0.0, "y=1": 1.0}
BAD_KD = {"kd=3pi+1e-10": 3 * np.pi + 1e-10, "kd=3pi-1e-10": 3 * np.pi - 1e-10,
          "kd=0": 0.0, "kd=-1": -1.0, "kd=nan": np.nan, "kd=inf": np.inf}

# (id, function, call(y, kd), what it takes): "y" and "kd" get every bad value
# of theirs, "y0i" (a source height, strictly inside) the walls too; free-space
# forms ("y0", "kd0": no walls, no openings) get only a NaN y and every kd that
# is not a positive finite number
ENTRIES = [
    ("greens_free", greens.greens_free, lambda y, kd: greens.greens_free((0.3, y), R0, kd), "y0 kd0"),
    ("greens_spectral", greens.greens_spectral,
     lambda y, kd: greens.greens_spectral((0.3, y), R0, kd, 100), "y kd"),
    ("greens_image", greens.greens_image, lambda y, kd: greens.greens_image((0.3, y), R0, kd, 10), "y kd"),
    ("greens_static", greens.greens_static, lambda y, kd: greens.greens_static((0.3, y), R0), "y"),
    ("greens_kummer", greens.greens_kummer, lambda y, kd: greens.greens_kummer((0.3, y), R0, kd), "y kd"),
    ("greens_kummer_grid", greens.greens_kummer_grid,
     lambda y, kd: greens.greens_kummer_grid([0.3], [0.5, y], R0, kd), "y kd"),
    ("greens_kummer_grid[r0]", greens.greens_kummer_grid,
     lambda y, kd: greens.greens_kummer_grid([0.3], [0.5], (0.0, y), kd), "y kd"),
    ("greens_diffraction", greens.greens_diffraction,
     lambda y, kd: greens.greens_diffraction((0.3, y), R0, kd), "y kd"),
    ("semiclassical_renorm_sum", greens.semiclassical_renorm_sum,
     lambda y, kd: greens.semiclassical_renorm_sum(kd, y), "y y0i kd"),
    ("convergence_benchmark", greens.convergence_benchmark,
     lambda y, kd: greens.convergence_benchmark((0.3, y), R0, kd, ("spectral", "kummer"), (10, 100)), "y kd"),
    ("convergence_benchmark[coincident]", greens.convergence_benchmark,
     lambda y, kd: greens.convergence_benchmark((0.0, y), (0.0, y), kd, ("kummer", "kummer_raw"), (10, 100)),
     "y y0i kd"),
    ("image_sum_alternating", greens.image_sum_alternating,
     lambda y, kd: greens.image_sum_alternating((0.3, y), R0, kd, 10), "y0 kd0"),
    ("image_sum_positive", greens.image_sum_positive,
     lambda y, kd: greens.image_sum_positive((0.3, y), R0, kd, 10), "y0 kd0"),
    ("t_matrix", renorm.t_matrix, lambda y, kd: renorm.t_matrix(kd, 0.1), "kd0"),
    ("t_matrix_grid", renorm.t_matrix_grid, lambda y, kd: renorm.t_matrix_grid(np.array([KD, kd]), 0.1), "kd0"),
    ("hard_disk_boundary_check", renorm.hard_disk_boundary_check,
     lambda y, kd: renorm.hard_disk_boundary_check(kd, 0.1), "kd0"),
    ("renorm_sum", renorm.renorm_sum, lambda y, kd: renorm.renorm_sum(kd, y), "y y0i kd"),
    ("renorm_grid", renorm.renorm_grid, lambda y, kd: renorm.renorm_grid(np.array([KD, kd]), y), "y y0i kd"),
    ("renorm_state", renorm.renorm_state, lambda y, kd: renorm.renorm_state(kd, WireConfig(y0=y)), "y kd"),
    ("effective_strength", renorm.effective_strength,
     lambda y, kd: renorm.effective_strength(kd, y, 0.1), "y kd"),
    ("effective_strength[a=0]", renorm.effective_strength,
     lambda y, kd: renorm.effective_strength(kd, y, 0.0), "y kd"),
    ("gr_edge_asymptote", renorm.gr_edge_asymptote, lambda y, kd: renorm.gr_edge_asymptote(3, 1e-4, y), "y"),
    ("foldy_solve", renorm.foldy_solve,
     lambda y, kd: renorm.foldy_solve(FoldyProblem([[0.0, y]], 0.5j, [1.0]), kd), "y0 kd0"),
    ("s_matrix", scattering.s_matrix, lambda y, kd: scattering.s_matrix(kd, WireConfig(y0=y)), "y kd"),
    ("cross_section_mode", scattering.cross_section_mode,
     lambda y, kd: scattering.cross_section_mode(1, kd, WireConfig(y0=y)), "y kd"),
    ("cross_section", scattering.cross_section,
     lambda y, kd: scattering.cross_section(kd, WireConfig(y0=y)), "y kd"),
    ("conductance", scattering.conductance, lambda y, kd: scattering.conductance(kd, WireConfig(y0=y)), "y kd"),
    ("free_cross_section", scattering.free_cross_section,
     lambda y, kd: scattering.free_cross_section(kd, 0.1), "kd0"),
    ("optical_residual", scattering.optical_residual,
     lambda y, kd: scattering.optical_residual(kd, WireConfig(y0=y)), "y kd"),
    ("forward_amplitude", scattering.forward_amplitude,
     lambda y, kd: scattering.forward_amplitude(1, kd, WireConfig(y0=y)), "y kd"),
    ("phase_shift", scattering.phase_shift, lambda y, kd: scattering.phase_shift(kd, WireConfig(y0=y)), "y kd"),
    ("sigma_edge_asymptote", scattering.sigma_edge_asymptote,
     lambda y, kd: scattering.sigma_edge_asymptote(3, 1e-4, y), "y"),
    ("sigma_from_greens", scattering.sigma_from_greens,
     lambda y, kd: scattering.sigma_from_greens(kd, WireConfig(y0=y)), "y kd"),
    ("sigma_from_greens[semiclassical]", scattering.sigma_from_greens,
     lambda y, kd: scattering.sigma_from_greens(kd, WireConfig(y0=y), "semiclassical"), "y kd"),
    ("mirror_s", mirror.mirror_s, lambda y, kd: mirror.mirror_s((0.2, y), kd, CFG), "y kd"),
    ("mirror_s_plus", mirror.mirror_s_plus, lambda y, kd: mirror.mirror_s_plus((0.2, y), kd, CFG), "y kd"),
    ("mirror_partial", mirror.mirror_partial,
     lambda y, kd: mirror.mirror_partial("f", (0.2, y), kd, CFG), "y kd"),
    ("renormalized_mirror_at_impurity", mirror.renormalized_mirror_at_impurity,
     lambda y, kd: mirror.renormalized_mirror_at_impurity(kd, WireConfig(y0=y)), "y kd"),
    ("field_map", mirror.field_map,
     lambda y, kd: mirror.field_map("s", kd, CFG, GridSpec(-1.0, 1.0, 0.0, y, 3, 3)), "y kd"),
    ("field_map[greens]", mirror.field_map,
     lambda y, kd: mirror.field_map("greens", kd, WireConfig(y0=y), GridSpec(-1.0, 1.0, 0.0, 1.0, 3, 3)),
     "y kd"),
    ("GridSpec", GridSpec, lambda y, kd: GridSpec(-1.0, 1.0, y, 1.0, 3, 3), "y"),
    ("WireConfig", WireConfig, lambda y, kd: WireConfig(y0=y), "y y0i"),
    ("open_channel_count", waveguide.open_channel_count, lambda y, kd: waveguide.open_channel_count(kd), "kd"),
    ("longitudinal_wavenumber", waveguide.longitudinal_wavenumber,
     lambda y, kd: waveguide.longitudinal_wavenumber(3, kd), "kd"),
    ("channels", waveguide.channels, lambda y, kd: waveguide.channels(kd, 10), "kd"),
    ("transverse_mode", waveguide.transverse_mode, lambda y, kd: waveguide.transverse_mode(2, y), "y"),
    ("image_positions", waveguide.image_positions,
     lambda y, kd: waveguide.image_positions(WireConfig(y0=y), -2, 2), "y"),
    ("guard_mode_openings", waveguide.guard_mode_openings,
     lambda y, kd: waveguide.guard_mode_openings(kd), "kd"),
]

# mode_opening_gaps is the guard's predicate: it classifies kd (sweeps flag
# gap rows with it) and evaluates nothing there
EXEMPT = {waveguide.mode_opening_gaps}
_POINT_ARGS = {"k", "kd", "y", "y0", "r", "r0", "xs", "ys", "cfg"}


def _bad_inputs(takes):
    kinds = takes.split()
    cases = {}
    if "y" in kinds:
        cases |= {c: (y, KD) for c, y in BAD_Y.items()}
    if "y0i" in kinds:
        cases |= {c: (y, KD) for c, y in WALL_Y.items()}
    if "y0" in kinds:
        cases["y=nan"] = (np.nan, KD)
    if "kd" in kinds:
        cases |= {c: (Y, kd) for c, kd in BAD_KD.items()}
    if "kd0" in kinds:
        cases |= {c: (Y, kd) for c, kd in BAD_KD.items() if not 0.0 < kd < np.inf}
    return cases


def test_every_public_entry_is_covered():
    public = {getattr(mod, name) for mod in (greens, renorm, scattering, mirror, waveguide)
              for name in mod.__all__}
    takes_point = {fn for fn in public if inspect.isfunction(fn)
                   and _POINT_ARGS & set(inspect.signature(fn).parameters)}
    covered = {fn for _, fn, _, _ in ENTRIES}
    assert takes_point - covered - EXEMPT == set()
    assert covered <= public


@pytest.mark.parametrize("call,takes", [e[2:] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
def test_a_bad_y_or_kd_raises_a_named_wire_error(call, takes):
    # never a value, a bare exception or a warning
    wrong = {}
    for case, (y, kd) in _bad_inputs(takes).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(y, kd)
                wrong[case] = "returned"
            except WireError as exc:
                if type(exc) is WireError:
                    wrong[case] = "bare WireError"
            except Exception as exc:  # noqa: BLE001  (reported, not swallowed)
                wrong[case] = repr(exc)
    assert wrong == {}


def _check_counts(call):
    """Calls of each input check of waveguide made during call()."""
    codes = {getattr(waveguide, name).__code__: name
             for name in ("transverse_mode", "channels", "open_channel_count",
                          "guard_mode_openings", "_check_strip") if hasattr(waveguide, name)}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


def test_renorm_grid_guards_its_kd_once():
    # one guard over the whole kd array; the row blocks take k_x and chi_m(y0)
    # from the unchecked kernels
    kd = np.linspace(0.5 * np.pi, 7.5 * np.pi, 2000)
    kd = kd[~waveguide.mode_opening_gaps(kd)[1]]
    counts = _check_counts(lambda: renorm.renorm_grid(kd, 0.32))
    assert counts["guard_mode_openings"] == 1
    assert counts["transverse_mode"] == counts["channels"] == 0


@pytest.mark.parametrize("call", [
    lambda: greens.greens_kummer((0.37, 0.61), R0, KD),
    lambda: greens.greens_kummer((0.0, 0.61), R0, KD),
    lambda: greens.greens_kummer_grid(np.linspace(-1.0, 1.0, 41), np.linspace(0.0, 1.0, 11), R0, KD),
    lambda: greens.greens_spectral((0.37, 0.61), R0, KD, 100),
    lambda: greens.convergence_benchmark(R0, R0, KD, ("kummer", "kummer_raw"), (10, 100, 1000)),
    lambda: renorm.renorm_sum(KD, 0.3),
    lambda: mirror.mirror_s((0.2, 0.5), KD, CFG),
    lambda: mirror.renormalized_mirror_at_impurity(KD, CFG),
    lambda: mirror.field_map("dxy", KD, CFG, GridSpec(-1.0, 1.0, 0.0, 1.0, 21, 11)),
    lambda: mirror.field_map("greens", KD, CFG, GridSpec(-1.0, 1.0, 0.0, 1.0, 21, 11)),
    lambda: scattering.s_matrix(KD, CFG),
    lambda: scattering.cross_section_mode(2, KD, CFG),
    lambda: scattering.conductance(KD, CFG),
    lambda: scattering.forward_amplitude(2, KD, CFG),
    lambda: scattering.phase_shift(KD, CFG),
], ids=["kummer", "kummer-axis", "kummer-grid", "spectral", "benchmark-coincident", "renorm-sum",
        "mirror-s", "renormalized-mirror", "field-map-dxy", "field-map-greens", "s-matrix",
        "cross-section-mode", "conductance", "forward-amplitude", "phase-shift"])
def test_one_strip_check_and_one_guard_per_call(call):
    counts = _check_counts(call)
    assert counts["_check_strip"] <= 1 and counts["guard_mode_openings"] <= 1, counts
    assert counts["transverse_mode"] == 0, counts


# ---------------------------------------------------------------------------
# one home per impurity rule
# ---------------------------------------------------------------------------

_SRC = Path(waveguide.__file__).resolve().parent
_IMPURITY_A = {"a", "a_grid"}


def _is_pi(node):
    return (isinstance(node, ast.Attribute) and node.attr == "pi") or \
        (isinstance(node, ast.Name) and node.id == "pi")


def _divides_by_pi(node):
    """Whether the expression at node contains x / pi, x // pi or np.divide(x, pi)."""
    return any((isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Div, ast.FloorDiv)) and _is_pi(n.right))
               or (isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "divide"
                   and len(n.args) == 2 and _is_pi(n.args[1]))
               for n in ast.walk(node))


def _counts_channels(node):
    """floor(... / pi), int(... / pi) or ... // pi: an open-channel count N = floor(kd/pi)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and _is_pi(node.right):
        return True
    name = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
    return name in ("floor", "int", "trunc") and any(_divides_by_pi(arg) for arg in node.args)


def _tests_a_against_zero(node):
    """a == 0, cfg.a != 0.0, a_grid == 0, ...: the s = 0 rule of a transparent impurity."""
    if not (isinstance(node, ast.Compare) and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)):
        return False
    operands = [node.left, *node.comparators]
    is_a = [(isinstance(n, ast.Name) and n.id in _IMPURITY_A) or (isinstance(n, ast.Attribute) and n.attr == "a")
            for n in operands]
    is_zero = [isinstance(n, ast.Constant) and n.value == 0 for n in operands]
    return any(is_a) and any(is_zero)


def _rule_sites(predicate, *homes):
    """(module, line) of every node matching predicate in src/, outside every home = (module, function)."""
    sites = []
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {id(n) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) in homes for n in ast.walk(fn)}
        sites += [(path.stem, n.lineno) for n in ast.walk(tree) if predicate(n) and id(n) not in inside]
    return sites


def test_open_channel_count_lives_in_waveguide_alone():
    # N = floor(kd/pi) is waveguide._n_open; everything else reads it from there
    # (open_channel_count, RenormState.n_open)
    assert _rule_sites(_counts_channels, ("waveguide", "_n_open")) == []


def test_transparent_impurity_rule_lives_in_strength_alone():
    # s = 0 at a = 0 is applied by renorm._strength only; no caller branches on a = 0
    assert _rule_sites(_tests_a_against_zero, ("renorm", "_strength")) == []


# ---------------------------------------------------------------------------
# one home per shared rule of the observables
# ---------------------------------------------------------------------------

def _tests_closed_wire(node):
    """kd < pi, bare, chained (0 < kd < pi) or in (0 < kd) & (kd < pi): the closed-wire test."""
    return isinstance(node, ast.Compare) and any(isinstance(op, ast.Lt) and _is_pi(right)
                                                 for op, right in zip(node.ops, node.comparators))


def _raises_degenerate_mode(node):
    return isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
        and getattr(node.exc.func, "id", None) == "DegenerateMode"


def _subtracts_cross_section(node):
    """... - x.cross_section: G = N - sigma."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
        and isinstance(node.right, ast.Attribute) and node.right.attr == "cross_section"


def test_closed_wire_test_lives_in_waveguide_alone():
    # 0 < kd < pi is waveguide._closed; renorm._open_state is the one refusal built on it
    assert _rule_sites(_tests_closed_wire, ("waveguide", "_closed")) == []


def test_cli_leaves_the_closed_wire_rules_and_the_phase_shift_to_the_library():
    # cli chooses and writes columns: sigma = 0, Im Rs = 0 and delta0 = NaN below kd = pi
    # are renorm's, and so is the phase shift's assembly
    tree = ast.parse((_SRC / "cli.py").read_text())
    names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None) for n in ast.walk(tree)}
    assert not names & {"_closed", "PhaseShift"}


def test_threshold_node_rule_lives_in_one_helper():
    assert _rule_sites(_raises_degenerate_mode, ("renorm", "_threshold_chi2")) == []


def test_conductance_lives_in_the_state_alone():
    # G = N - sigma is RenormState.conductance; sweeps and the S matrix read it
    assert _rule_sites(_subtracts_cross_section, ("renorm", "conductance")) == []


def _bounds_a_mode_index(node):
    """1 <= n <= st.n_open or _integer_in(n, 1, st.n_open): the open-mode index check."""
    operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else \
        node.args if isinstance(node, ast.Call) else []
    return any(getattr(n, "attr", getattr(n, "id", None)) == "n_open" for n in operands) \
        and any(isinstance(n, ast.Constant) and n.value == 1 for n in operands)


def _tests_for_an_integer(node):
    """np.integer or numbers.Integral: part of an integer test of an order, index or count."""
    return isinstance(node, ast.Attribute) and node.attr in ("integer", "Integral")


def test_open_mode_index_check_lives_in_one_helper():
    # cross_section_mode and forward_amplitude both take their state from scattering._open_mode_state
    assert _rule_sites(_bounds_a_mode_index, ("scattering", "_open_mode_state")) == []


def test_integer_test_lives_in_specfun_alone():
    # orders, mode indices and counts (nx, ny, n_images, terms) all use specfun._integer_in
    assert _rule_sites(_tests_for_an_integer, ("specfun", "_integer_in")) == []


def _names_strength(node):
    """_strength, renorm._strength or an import of it: the hard-disk strength kernel."""
    return (isinstance(node, ast.Name) and node.id == "_strength") or \
        (isinstance(node, ast.Attribute) and node.attr == "_strength") or \
        (isinstance(node, ast.alias) and node.name == "_strength")


def _is_object(node):
    return (isinstance(node, ast.Name) and node.id == "object") or \
        (isinstance(node, ast.Attribute) and node.attr == "object_") or \
        (isinstance(node, ast.Constant) and node.value in ("O", "object"))


def _uses_object_dtype(node):
    """dtype=object (or "O", np.object_), or object as a positional dtype of np.* or .astype."""
    if isinstance(node, ast.keyword):
        return node.arg == "dtype" and _is_object(node.value)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and (node.func.attr == "astype" or getattr(node.func.value, "id", None) == "np") \
        and any(map(_is_object, node.args))


def test_strength_kernel_is_private_to_renorm():
    # callers take s from t_matrix or t_matrix_grid, never from renorm._strength
    assert [site for site in _rule_sites(_names_strength, (None, None)) if site[0] != "renorm"] == []


def test_no_module_uses_object_arrays():
    # grids and lone points share one elementwise arithmetic (greens._cmul, _cabs, _cdiv)
    assert any(map(_uses_object_dtype, ast.walk(ast.parse("np.multiply(s, g, dtype=object)"))))
    assert any(map(_uses_object_dtype, ast.walk(ast.parse("rs.astype(object)"))))
    assert any(map(_uses_object_dtype, ast.walk(ast.parse("np.array(text, object)"))))
    assert _rule_sites(_uses_object_dtype, (None, None)) == []


def _calls_coincidence_constant(node):
    """A call of greens._coincidence_constant, the closed-form part of G_r."""
    return isinstance(node, ast.Call) and \
        getattr(node.func, "id", getattr(node.func, "attr", None)) == "_coincidence_constant"


def _names_complex_kx(node):
    """_kx by name, attribute or import: the complex longitudinal wavenumbers."""
    return (isinstance(node, ast.Name) and node.id == "_kx") or \
        (isinstance(node, ast.Attribute) and node.attr == "_kx") or \
        (isinstance(node, ast.alias) and node.name == "_kx")


def test_coincident_mode_sum_lives_in_one_kernel():
    # G_r's mode sum and its constant are greens._kummer_coincident's, in real arithmetic;
    # renorm takes G_r and Sigma from it and builds no k_x of its own
    assert any(map(_names_complex_kx, ast.walk(ast.parse("from .waveguide import _chi, _kx"))))
    assert _rule_sites(_calls_coincidence_constant, ("greens", "_kummer_coincident")) == []
    assert [site for site in _rule_sites(_names_complex_kx, (None, None)) if site[0] == "renorm"] == []
    callers = {(path.stem, fn.name) for path in sorted(_SRC.glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef) and fn.name != "_kummer_coincident"
               and any(getattr(n, "id", None) == "_kummer_coincident" for n in ast.walk(fn))}
    assert callers == {("renorm", "renorm_grid"), ("greens", "_kummer_truncated")}


def _reads(name):
    """A predicate: the node reads name, bare or as an attribute (a call, a reference or a constant)."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)) \
        or (isinstance(node, ast.Attribute) and node.attr == name)


# the off-source Kummer sum: one stop rule, one mode kernel, and one driver per shape of it
# (a grid of field points, one point pair) with the callers that each shape has
_KUMMER_READERS = {"_EXP_UNDERFLOW": ("_live_modes",), "_mode_product": ("_kummer_sum", "_kummer_truncated"),
                   "_kummer_sum": ("greens_kummer_grid",),
                   "_kummer_truncated": ("greens_kummer", "convergence_benchmark")}


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls_outside_loops(fn, name):
    """(calls of name in fn, those of them outside every loop or comprehension of fn)."""
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and _reads(name)(n.func)]
    looped = {id(n) for loop in ast.walk(fn) if isinstance(loop, _LOOPS) for n in ast.walk(loop)}
    return calls, [n for n in calls if id(n) not in looped]


def _function(module, name):
    tree = ast.parse((_SRC / f"{module}.py").read_text())
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


@pytest.mark.parametrize("name", sorted(_KUMMER_READERS))
def test_the_kummer_sum_has_one_driver_per_shape_and_one_stop_rule(name):
    assert _rule_sites(_reads(name), *(("greens", fn) for fn in _KUMMER_READERS[name])) == []
    if name == "_mode_product":
        # the grid driver makes one pass over the modes: one kernel call, in no loop
        calls, unlooped = _calls_outside_loops(_function("greens", "_kummer_sum"), name)
        assert len(calls) == len(unlooped) == 1


def test_the_one_call_guard_sees_a_call_in_a_loop():
    loop = ast.parse("def f(kd):\n    for m in ms:\n        _mode_product(kd, [m])\n    _mode_product(kd, ms)\n")
    calls, unlooped = _calls_outside_loops(loop.body[0], "_mode_product")
    assert len(calls) == 2 and len(unlooped) == 1
    comprehension = ast.parse("def f(kd):\n    return [_mode_product(kd, [m]) for m in ms]\n")
    assert _calls_outside_loops(comprehension.body[0], "_mode_product")[1] == []


def test_the_guards_see_the_rules_they_guard():
    # each predicate matches its rule's home, so an empty site list means something
    home = {"_closed": _tests_closed_wire, "_threshold_chi2": _raises_degenerate_mode,
            "conductance": _subtracts_cross_section, "_open_mode_state": _bounds_a_mode_index,
            "_integer_in": _tests_for_an_integer, "t_matrix": _names_strength,
            "_kummer_coincident": _calls_coincidence_constant, "_pair": _pairs_coordinates,
            "_interior": _tests_source_height, "_attached": _tests_attached_strength,
            **{fn: _reads(name) for name, fns in _KUMMER_READERS.items() for fn in fns}}
    found = set()
    for path in (_SRC / "waveguide.py", _SRC / "renorm.py", _SRC / "scattering.py", _SRC / "specfun.py",
                 _SRC / "greens.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in home and any(map(home[fn.name], ast.walk(fn))):
                found.add(fn.name)
    assert found == set(home)


def _coordinate(node):
    """(point, index) of r[i] or r0[i], bare or as float(r[i]), else None."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float" and len(node.args) == 1:
        node = node.args[0]
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id in ("r", "r0") \
            and isinstance(node.slice, ast.Constant):
        return node.value.id, node.slice.value
    return None


def _pairs_coordinates(node):
    """(r[i], r0[i]), r[i] - r0[i], float(r[i]) - float(r0[i]), ...: one coordinate of a point pair unpacked."""
    sides = node.elts if isinstance(node, ast.Tuple) else [node.left, node.right] if isinstance(node, ast.BinOp) else []
    points = [_coordinate(n) for n in sides]
    return any(a and b and a[0] != b[0] and a[1] == b[1] for a in points for b in points)


def _tests_source_height(node):
    """0 < y0 < 1, cfg.y0 > 0.0, ...: an interior comparison on a source height."""
    if not (isinstance(node, ast.Compare) and all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                                                  for op in node.ops)):
        return False
    operands = [node.left, *node.comparators]
    return any(getattr(n, "id", getattr(n, "attr", None)) == "y0" for n in operands) and \
        any(isinstance(n, ast.Constant) and n.value in (0, 1) for n in operands)


def _tests_attached_strength(node):
    """rs is None, self.rs is not None: whether a state has its strength attached."""
    return isinstance(node, ast.Compare) and getattr(node.left, "id", getattr(node.left, "attr", None)) == "rs" \
        and isinstance(node.ops[0], (ast.Is, ast.IsNot)) and getattr(node.comparators[0], "value", 0) is None


def _reads_own_strength(node):
    """self.s or self.rs: a state's own strength, read bare."""
    return isinstance(node, ast.Attribute) and node.attr in ("s", "rs") and getattr(node.value, "id", None) == "self"


def test_a_point_pair_is_unpacked_in_one_place():
    # greens._pair strip-checks a pair and unpacks it for every wire form; the free-space forms
    # (greens_free, the image sums) take no strip check and read their distances from _image_distances
    assert _rule_sites(_pairs_coordinates, ("greens", "_pair"), ("greens", "_image_distances")) == []


def test_the_interior_source_rule_lives_in_waveguide_alone():
    # 0 < y0 < d is waveguide._interior: WireConfig, renorm_grid, semiclassical_renorm_sum and the
    # coincident benchmark test it there, each with its own message
    assert _rule_sites(_tests_source_height, ("waveguide", "_interior")) == []


def test_the_attached_strength_check_lives_in_the_state_alone():
    # every RenormState property that reads s or Rs takes them from RenormState._attached
    assert _rule_sites(_tests_attached_strength, ("renorm", "_attached")) == []
    state = next(n for n in ast.walk(ast.parse((_SRC / "renorm.py").read_text()))
                 if isinstance(n, ast.ClassDef) and n.name == "RenormState")
    assert [fn.name for fn in state.body if isinstance(fn, ast.FunctionDef) and fn.name != "_attached"
            and any(map(_reads_own_strength, ast.walk(fn)))] == []


def test_the_boundary_guards_see_what_they_guard():
    for text, predicate in (("(r[0], r0[0])", _pairs_coordinates), ("float(r[1]) - float(r0[1])", _pairs_coordinates),
                            ("0.0 < cfg.y0 < 1.0", _tests_source_height), ("st.rs is None", _tests_attached_strength),
                            ("self.s.imag", _reads_own_strength)):
        assert any(map(predicate, ast.walk(ast.parse(text)))), text
    assert not any(map(_pairs_coordinates, ast.walk(ast.parse("(r[0], r[1]), r0[0] - x0"))))


def _is_square(node):
    """x ** 2, x * x or np.square(x)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 2
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "square"


def _subtracts_squares(node):
    """kd * kd - (m * np.pi) ** 2, q ** 2 - k ** 2, ...: the difference of squares under r_m = |k_x^(m)|."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
        and _is_square(node.left) and _is_square(node.right)


def _compares_with_the_guard(node):
    """abs(kd - m * np.pi) <= DEFAULT_MODE_GUARD, ...: a test against the guard band of an opening."""
    return isinstance(node, ast.Compare) and any(map(_reads("DEFAULT_MODE_GUARD"), ast.walk(node)))


# the copies of r_m and of the guard band that waveguide._abs_kx, _kx and mode_opening_gaps replaced:
# waveguide._branch_kx, greens._abs_kx, greens._grating_sum's kappa and longitudinal_wavenumber's band
_FORMER_COPIES = ("val = k * k - q ** 2", "r = kd * kd - (m * np.pi) ** 2",
                  "kappa = np.sqrt(max(kyq ** 2 - k ** 2, 0.0))")


def test_r_m_and_the_guard_band_live_in_waveguide_alone():
    # r_m = sqrt|kd^2 - (m pi)^2| is waveguide._abs_kx; _kx picks its branch by N = _n_open(kd), and every
    # mode sum, the S matrix, the mirror waves and the grating orders read one of the two.  The edge law's
    # sqrt(N^2 - n^2) in sigma_edge_asymptote is its asymptote at kd = N pi, not a copy of r_m
    for text in _FORMER_COPIES:
        assert any(map(_subtracts_squares, ast.walk(ast.parse(text)))), text
    assert any(map(_subtracts_squares, ast.walk(_function("waveguide", "_abs_kx"))))
    assert _rule_sites(_subtracts_squares, ("waveguide", "_abs_kx"), ("scattering", "sigma_edge_asymptote")) == []
    assert any(map(_compares_with_the_guard, ast.walk(ast.parse("abs(kd - m * np.pi) <= DEFAULT_MODE_GUARD"))))
    assert any(map(_compares_with_the_guard, ast.walk(_function("waveguide", "mode_opening_gaps"))))
    assert _rule_sites(_compares_with_the_guard, ("waveguide", "mode_opening_gaps")) == []
    assert any(map(_reads("_n_open"), ast.walk(_function("waveguide", "_kx"))))
    assert not hasattr(waveguide, "_branch_kx") and greens._abs_kx is waveguide._abs_kx


def test_no_module_uses_the_private_argparse_api():
    # --config values go through parse_args like any flag
    for path in sorted(_SRC.glob("*.py")):
        text = path.read_text()
        assert "argparse._" not in text and "parser._actions" not in text, path.name


# ---------------------------------------------------------------------------
# the wire width is the unit; indices and counts are integers
# ---------------------------------------------------------------------------

def test_no_module_keeps_a_width_variable():
    # d = 1 is the unit of length (waveguide's docstring), not a constant or a field
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
            assert not any(isinstance(t, ast.Name) and t.id == "_D" for t in targets), (path.name, node.lineno)
    assert [f.name for f in dataclasses.fields(WireConfig)] == ["y0", "a", "x0"]


@pytest.mark.parametrize("fn", [scattering.cross_section_mode, scattering.forward_amplitude])
@pytest.mark.parametrize("n", [1.5, 0, 3], ids=["n=1.5", "n=0", "n=N+1"])
def test_a_mode_index_that_is_not_an_open_mode_is_a_domain_error(fn, n):
    assert waveguide.open_channel_count(KD) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="mode must be an integer in 1..2"):
            fn(n, KD, CFG)


@pytest.mark.parametrize("call", [
    lambda: GridSpec(-1, 1, 0, 1, 2.5, 3),
    lambda: GridSpec(-1, 1, 0, 1, 3, 3.0),
    lambda: greens.greens_image((0.37, 0.61), R0, KD, 10.5),
    lambda: greens.image_sum_positive((0.37, 0.61), R0, KD, 10.5),
    lambda: greens.greens_spectral((0.37, 0.61), R0, KD, 100.5),
    lambda: greens.greens_spectral((0.37, 0.61), R0, KD, 100.0),
    lambda: waveguide.channels(KD, 10.0),
    lambda: waveguide.longitudinal_wavenumber(1.5, KD),
    lambda: greens.convergence_benchmark((0.37, 0.61), R0, KD, ("kummer",), (10, 30.5)),
    lambda: greens.convergence_benchmark((0.37, 0.61), R0, KD, ("kummer",), ()),
    lambda: waveguide.image_positions(CFG, -2.5, 2),
    lambda: scattering.sigma_edge_asymptote(2.5, 1e-6, 0.3),
    lambda: renorm.gr_edge_asymptote(2.5, 1e-6, 0.3),
    lambda: greens.greens_spectral((0.3, 0.6), R0, 4.0, True),
    lambda: greens.greens_image((0.37, 0.61), R0, KD, True),
    lambda: greens.convergence_benchmark((0.37, 0.61), R0, KD, ("kummer",), (10, True)),
    lambda: waveguide.transverse_mode(True, 0.3),
    lambda: waveguide.transverse_mode(np.array([True, True]), 0.3),
    lambda: waveguide.transverse_mode(1.0, 0.3),
    lambda: waveguide.longitudinal_wavenumber(True, KD),
    lambda: GridSpec(-1, 1, 0, 1, True, 3),
], ids=["nx", "ny", "image", "image-positive", "spectral", "spectral-whole-float", "channels", "mode-index",
        "benchmark-terms", "benchmark-no-terms", "image-range", "sigma-edge-mode", "gr-edge-mode",
        "spectral-bool", "image-bool", "benchmark-bool", "transverse-bool", "transverse-bool-array",
        "transverse-float", "mode-index-bool", "nx-bool"])
def test_a_count_that_is_not_an_integer_is_a_domain_error(call):
    # no numpy TypeError, no RuntimeWarning from (-1.0) ** n, no value with a fractional count,
    # and no bool taken for the int it subclasses (greens_spectral at kd = 4 once read True as 1 mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="integer"):
            call()


@pytest.mark.parametrize("law", [scattering.sigma_edge_asymptote, renorm.gr_edge_asymptote])
@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-6, 2e-3])
def test_an_edge_law_refuses_an_eps_outside_its_window(law, eps):
    # both laws take their domain from renorm._threshold_chi2: eps in (0, 1e-3], never a NaN or inf value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="eps must lie in"):
            law(2, eps, 0.3)


# a truncation tolerance is a positive finite number; greens._check_tol is its one check
_BAD_TOL = {"tol=nan": np.nan, "tol=-1": -1.0, "tol=0": 0.0, "tol=inf": np.inf}


@pytest.mark.parametrize("tol", _BAD_TOL.values(), ids=list(_BAD_TOL))
@pytest.mark.parametrize("call", [
    lambda tol: greens.greens_kummer((0.3, 0.5), R0, KD, tol=tol),
    lambda tol: greens.greens_kummer((0.0, 0.5), R0, KD, tol=tol),
    lambda tol: greens.greens_kummer_grid([0.3], [0.5], R0, KD, tol=tol),
    lambda tol: greens.greens_kummer_grid([0.0, 0.3], [0.3, 0.5], R0, KD, tol=tol),
    lambda tol: renorm.renorm_sum(KD, 0.3, tol=tol),
    lambda tol: renorm.renorm_grid(np.array([KD, 3.5 * np.pi]), 0.3, tol=tol),
    lambda tol: mirror.field_map("greens", KD, CFG, GridSpec(-1.0, 1.0, 0.0, 1.0, 3, 3), tol=tol),
    lambda tol: greens.greens_diffraction((0.3, 0.5), R0, KD, tol=tol),
], ids=["kummer", "kummer-axis", "kummer-grid", "kummer-grid-r0", "renorm-sum", "renorm-grid", "field-map",
        "diffraction"])
def test_a_tol_that_is_not_positive_and_finite_is_a_domain_error(call, tol):
    # never a TruncationLimit after doubling to the cap, and never a value with tail_bound 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"tol must be positive and finite, got (nan|-1\.0|0\.0|inf)$"):
            call(tol)


@pytest.mark.parametrize("argv", [
    ["field-map", "--kind", "greens", "--kd", "7.3", "--y0", "0.3", "--nx", "3", "--ny", "3"],
    ["sweep-k", "--y0", "0.3", "--kd-min", "4.0", "--kd-max", "6.0", "--points", "5"],
], ids=["field-map", "sweep-k"])
def test_a_nan_tol_on_the_command_line_exits_2(tmp_path, capsys, argv):
    assert cli.main([*argv, "--tol", "nan", "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == "error: tol must be positive and finite, got nan\n"
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# finite points whose separation x - x0 overflows
# ---------------------------------------------------------------------------

_FAR, _FAR0 = (1e308, 0.5), (-1e308, 0.3)
_FAR_CFG = WireConfig(y0=0.3, x0=-1e308)


@pytest.mark.parametrize("call", [
    lambda: greens.greens_static(_FAR, _FAR0),
    lambda: greens.greens_spectral(_FAR, _FAR0, 7.3, 100),
    lambda: greens.greens_image(_FAR, _FAR0, 7.3, 10),
    lambda: greens.greens_kummer(_FAR, _FAR0, 7.3),
    lambda: greens.greens_kummer_grid([0.0, 1e308], [0.5], _FAR0, 7.3),
    lambda: greens.greens_diffraction(_FAR, _FAR0, 7.3),
    lambda: greens.convergence_benchmark(_FAR, _FAR0, 7.3, ("spectral", "kummer"), (10, 100)),
    lambda: mirror.mirror_s(_FAR, 7.3, _FAR_CFG),
    lambda: mirror.mirror_s_plus(_FAR, 7.3, _FAR_CFG),
    lambda: mirror.mirror_partial("px", _FAR, 7.3, _FAR_CFG),
    lambda: mirror.field_map("s", 7.3, _FAR_CFG, GridSpec(1e308, 1.5e308, 0.0, 1.0, 2, 2)),
    lambda: mirror.field_map("greens", 7.3, _FAR_CFG, GridSpec(1e308, 1.5e308, 0.0, 1.0, 2, 2)),
], ids=["static", "spectral", "image", "kummer", "kummer-grid", "diffraction", "benchmark", "mirror-s",
        "mirror-s-plus", "mirror-partial", "field-map-s", "field-map-greens"])
def test_a_separation_that_overflows_is_a_domain_error(call):
    # x and x0 are finite, x - x0 is not: one DomainError from waveguide._check_separation, never a NaN
    # value (greens_kummer summed 64 terms to nan+nanj) nor greens_static's far limit 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="x - x0 must be finite"):
            call()


def test_the_free_space_forms_refuse_an_overflowing_separation_through_their_bessel_kernels():
    # greens_free and the image sums take no strip check; their distance is inf, which hankel1 and J_0 refuse
    for call in (lambda: greens.greens_free(_FAR, _FAR0, 7.3),
                 lambda: greens.image_sum_alternating(_FAR, _FAR0, 7.3, 10),
                 lambda: greens.image_sum_positive(_FAR, _FAR0, 7.3, 10)):
        with pytest.raises(DomainError, match="must be finite"):
            call()
