"""Weighted block Hankel-type operators on truncated duals of compact groups.

The package assembles operators T(pi, rho) = mu(pi) a(pi, rho) nu(rho) from
sparse matrix-valued symbols over enumerated group duals, analyzes their
singular spectra (operator and Schatten norms, boundedness and compactness
criteria), evaluates index diagnostics, and recovers band-limited symbols
from (possibly noisy) singular-value data.
"""

from .duals import (
    SU2,
    DualCatalog,
    IrrepLabel,
    PowerLaw,
    Product,
    TableWeight,
    Torus,
    UNIT_WEIGHT,
    Weight,
    casimir,
    dim,
    enumerate_dual,
    parse_group,
    weight_eval,
)
from .fredholm import (
    FormulaInapplicableError,
    index_formula,
    index_report,
    numerical_index,
    winding_number,
)
from .operators import BlockOperator, assemble
from .recovery import (
    AttributionError,
    SpectralData,
    StabilityRow,
    forward,
    perturb_spectral_data,
    stability_scan,
    tikhonov_recover,
)
from .spectral import (
    SpectrumReport,
    carleson_test,
    compactness_report,
    norm_criteria,
    schatten_norm,
    schatten_series_scan,
    schur_constant,
    spectrum,
)
from .symbols import (
    Symbol,
    SymbolClassParams,
    class_norm,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    hs_norm,
    random_matching_symbol,
    random_symbol,
    symbol_difference,
)

__version__ = "0.1.0"
