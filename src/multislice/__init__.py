"""Random walks, symmetric-group special vectors, and junta-sum correction on
balanced multislices."""

from .budget import CapacityError, capacity_limit
from .correction import (
    NoisyOracle,
    build_gadget,
    build_interpolating_set,
    subgrid_decode,
    subgrid_error_reduce,
    torsion_correct,
    torsion_scheme,
)
from .groups import AbelianGroup
from .juntas import (
    JuntaPolynomial,
    ball_interpolation_coeffs,
    grid_points,
    poly_distance,
    random_polynomial,
)
from .listcorr import brute_force_list, local_list_correct
from .seeding import derive_rng
from .slices import SliceSpec, distance_matrix, enumerate_slice, slice_size
from .subgrids import random_identification, random_subgrid, sampling_deviation
from .tableaux import chi_vector, enumerate_ssyt, gram_det, young_rule_sides
from .walks import (
    expander_mixing_check,
    independence_report,
    respects_symmetries,
    spectral_report,
    walk_from_distance,
    walk_odlsz,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CapacityError",
    "JuntaPolynomial",
    "NoisyOracle",
    "SliceSpec",
    "ball_interpolation_coeffs",
    "brute_force_list",
    "build_gadget",
    "build_interpolating_set",
    "capacity_limit",
    "chi_vector",
    "derive_rng",
    "distance_matrix",
    "enumerate_slice",
    "enumerate_ssyt",
    "expander_mixing_check",
    "gram_det",
    "grid_points",
    "independence_report",
    "local_list_correct",
    "poly_distance",
    "random_identification",
    "random_polynomial",
    "random_subgrid",
    "respects_symmetries",
    "sampling_deviation",
    "slice_size",
    "spectral_report",
    "subgrid_decode",
    "subgrid_error_reduce",
    "torsion_correct",
    "torsion_scheme",
    "walk_from_distance",
    "walk_odlsz",
    "young_rule_sides",
    "__version__",
]
