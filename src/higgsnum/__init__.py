"""Exact calculator for spectral surfaces and Higgs sheaf numerics.

Everything is integer or rational arithmetic: intersection numbers on
the divisor lattice of a polarized surface, characteristic classes of
the compactified line bundle total space and of spectral covers inside
it, the Diophantine non-emptiness test for generic spectral fibers, and
the enumeration of fixed-locus component candidates.  The package
re-exports each math module's __all__.
"""

from .ns_lattice import *
from .surface_chow import *
from .proj_bundle import *
from .spectral import *
from .hitchin_criterion import *
from .hn_branches import *
from . import presets

__version__ = "0.1.0"
