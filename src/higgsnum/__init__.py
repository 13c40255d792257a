"""Exact calculator for spectral surfaces and Higgs sheaf numerics.

Everything is integer or rational arithmetic: intersection numbers on
the divisor lattice of a polarized surface, characteristic classes of
the compactified line bundle total space and of spectral covers inside
it, the Diophantine non-emptiness test for generic spectral fibers, and
the enumeration of fixed-locus component candidates.
"""

from .ns_lattice import (
    HiggsError,
    LatticeError,
    NSLattice,
    NSVector,
    QNSVector,
    Rat,
    divide,
    inertia,
    pair,
    qvec,
    ratnorm,
)
from .surface_chow import (
    ChowClass,
    HiggsNumerics,
    SurfaceGeometry,
    ValidationError,
    chi,
    chow_inverse,
    chow_mul,
    cotangent_ch,
    discriminant,
    hilbert_polynomial,
    ideal_twist_ch,
    line_bundle_ch,
    todd_surface,
)
from .proj_bundle import (
    YClass,
    canonical_y,
    dinfty_class,
    hyperplane_class,
    pullback,
    restrict_to_spectral,
    spectral_divisor_class,
    y_mul,
    y_pushforward,
)
from .spectral import (
    SpectralCover,
    chi_on_cover,
    chi_two_ways,
    grr_pushforward,
    pushforward_structure_ch,
    spectral_c2_tangent,
    spectral_canonical,
    spectral_cotangent_ch,
    spectral_todd,
)
from .hitchin_criterion import (
    FiberWitness,
    Regime,
    RegimeReport,
    c2_gbun,
    classify,
    n_points,
    solve_delta,
)
from .hn_branches import (
    HNFactor,
    HNType,
    Rank2Report,
    RegimeError,
    component_betas,
    discriminant_identity,
    iter_compositions,
    iter_monopole_components,
    iter_partitions_at_most,
    monopole_components,
    olympic_sum,
    partition_count,
    rank2_fixed_components,
    slope_gaps,
)
from . import presets

__version__ = "0.1.0"
