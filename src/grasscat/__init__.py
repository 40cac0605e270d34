"""Exact computations for Cohen-Macaulay modules over the circular
boundary algebra: rim combinatorics, power-series linear algebra,
Hom/Ext/syzygies, Auslander-Reiten tubes, root-lattice dictionaries and
the rigid-module censuses for the finite and tame parameter pairs."""

__version__ = "0.1.0"

from .rims import Rim, rim, all_rims, parse_rim
from .modules import Profile, profile, parse_profile, build_rank1
from .roots import RootVector

__all__ = [
    "Rim", "rim", "all_rims", "parse_rim",
    "Profile", "profile", "parse_profile", "build_rank1",
    "RootVector",
    "__version__",
]
