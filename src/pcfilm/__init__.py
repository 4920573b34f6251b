"""Layer-multiple-scattering solver for the thermal emissivity of finite
photonic-crystal films: stacked 2D-periodic sphere planes and homogeneous
plates between half-spaces, with a 1D transfer-matrix reference engine,
complex band structure, and Planck-weighted emissivity sweeps."""

from .band import BandPoint, complex_bands, gap_edges
from .emissivity import EmissivityMap, angular_map, planck_b, planck_weight
from .errors import (
    ConfigError,
    ConvergenceError,
    InvalidArgumentError,
    PcfilmError,
    SingularArgumentError,
    SingularSolveError,
)
from .lattice import SQUARE, TRIANGULAR, Lattice2D, beam_set, structure_constants
from .layer import LayerS, Plate, PlaneOfSpheres, star_product
from .mie import VACUUM, Material, SphereScatterer, mie_cross_sections, mie_t
from .onedim import OneDimLayer, solve_onedim
from .scenes import Scene, parse_config, preset, serialize_scene
from .stack import (
    Gap,
    Interface,
    NumericalControls,
    Repeat,
    SpectrumPoint,
    StackDescription,
    solve_stack,
    stack_smatrix,
)

__version__ = "0.1.0"
