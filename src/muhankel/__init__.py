"""Weighted block Hankel-type operators on truncated duals of compact groups.

The package assembles operators T(pi, rho) = mu(pi) a(pi, rho) nu(rho) from
sparse matrix-valued symbols over enumerated group duals, analyzes their
singular spectra (operator and Schatten norms, boundedness and compactness
criteria), evaluates index diagnostics, and recovers band-limited symbols
from (possibly noisy) singular-value data.
"""

from .duals import SU2, PowerLaw, enumerate_dual, parse_group
from .operators import assemble
from .recovery import forward, tikhonov_recover
from .spectral import norm_criteria, schatten_norm
from .symbols import (
    Symbol,
    SymbolClassParams,
    class_norm,
    diagonal_symbol,
    random_matching_symbol,
    random_symbol,
)

__version__ = "0.1.0"
