"""wirescat: scattering and transport for a point impurity in a hard-walled 2D waveguide.

A library plus CLI built around the method of images: the empty-wire
Green's function in free/image/spectral/static/Kummer/diffraction
representations, the renormalized point-scatterer strength (its G_r also
in a semiclassical form), the rank-one S-matrix with its Landauer
conductance, the mirror-basis wavefunctions, and a validation suite
covering every analytically forced identity.  Units are nondimensional with the wire width d = 1 and
conductance in quanta.
"""

__version__ = "0.1.0"

from .errors import (CoincidentPoints, DegenerateMode, DomainError, ModeOpeningSingularity,
                     PoleEncountered, SingularSystem, TruncationLimit, WireError)
from .greens import (GreensValue, convergence_benchmark, greens_diffraction, greens_free,
                     greens_image, greens_kummer, greens_kummer_grid, greens_spectral,
                     greens_static, semiclassical_renorm_sum)
from .mirror import (FieldGrid, GridSpec, MirrorKind, field_map, mirror_partial,
                     mirror_s, mirror_s_plus, renormalized_mirror_at_impurity)
from .renorm import (FoldyProblem, RenormState, TMatrix, effective_strength,
                     foldy_solve, gr_edge_asymptote, hard_disk_boundary_check,
                     renorm_state, renorm_sum, t_matrix)
from .scattering import (PhaseShift, SMatrixResult, conductance, cross_section,
                         cross_section_mode, forward_amplitude, free_cross_section,
                         optical_residual, phase_shift, s_matrix,
                         sigma_edge_asymptote, sigma_from_greens)
from .specfun import cylinder_bessel_j, cylinder_bessel_y, hankel1
from .waveguide import (ChannelSet, ImageArray, WireConfig, channels,
                        image_positions, longitudinal_wavenumber,
                        open_channel_count, transverse_mode)

__all__ = [
    "__version__",
    # errors
    "WireError", "DomainError", "ModeOpeningSingularity", "CoincidentPoints",
    "PoleEncountered", "DegenerateMode", "SingularSystem", "TruncationLimit",
    # specfun
    "cylinder_bessel_j", "cylinder_bessel_y", "hankel1",
    # waveguide
    "WireConfig", "ChannelSet", "ImageArray", "open_channel_count",
    "longitudinal_wavenumber", "channels", "transverse_mode", "image_positions",
    # greens
    "GreensValue", "greens_free", "greens_spectral", "greens_image",
    "greens_static", "greens_kummer", "greens_kummer_grid", "greens_diffraction",
    "semiclassical_renorm_sum", "convergence_benchmark",
    # renorm
    "TMatrix", "RenormState", "FoldyProblem", "t_matrix", "hard_disk_boundary_check",
    "renorm_sum", "renorm_state", "effective_strength", "gr_edge_asymptote", "foldy_solve",
    # scattering
    "SMatrixResult", "PhaseShift", "s_matrix", "cross_section", "cross_section_mode",
    "conductance", "free_cross_section", "optical_residual", "forward_amplitude",
    "phase_shift", "sigma_edge_asymptote", "sigma_from_greens",
    # mirror
    "MirrorKind", "GridSpec", "FieldGrid", "mirror_s", "mirror_s_plus",
    "mirror_partial", "renormalized_mirror_at_impurity", "field_map",
]
