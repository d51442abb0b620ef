"""Singular spectra, Schatten norms, and executable spectral criteria.

Criteria over infinite duals are necessarily evaluated on truncations, so
each evaluator states an explicit finite proxy:

* the two-sided norm test brackets the measured operator norm between the
  largest weighted-block norm and the Schur product constant;
* summability tests (Carleson, Schatten series) compare partial sums across
  a cutoff ladder and call the trend convergent when increments shrink;
* compactness is reported as a pair of decay indicators, not a verdict on
  the full operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import (
    MAX_DENSE_DIM,
    DualCatalog,
    GroupKind,
    IrrepLabel,
    SU2,
    Weight,
    weight_eval,
    _finite,
)
from .operators import ZERO_REL_TOL, BlockOperator, retained_count
from .symbols import SymbolClassParams, class_norm

# Trend thresholds for the truncated proxies of infinite-sum criteria.
SERIES_RATIO_THRESHOLD = 0.75     # Cauchy-increment ratio meaning "converges"
CARLESON_GROWTH_THRESHOLD = 0.05  # relative growth across half/full cutoffs
SPECTRAL_DECAY_RATIO = 0.9        # min-singular-value shrink meaning "decays"
OUTER_DECAY_RATIO = 0.5           # outer-half weighted-norm shrink


@dataclass
class CriterionVerdict:
    name: str
    bound_value: float
    measured_value: float
    satisfied: bool
    detail: str


def schatten_norm(values: np.ndarray, p: float) -> float:
    """(sum s_n^p)^(1/p) over the singular values ``values``, taken as
    s_0 (sum (s_n / s_0)^p)^(1/p) with s_0 the largest, so that no power
    underflows to 0 or overflows to inf; 0.0 for the zero operator."""
    _finite(p, "Schatten exponent p", "> 0")
    if (s0 := float(values.max(initial=0.0))) == 0.0:
        return 0.0
    total = np.sum((values / s0) ** p)  # in [1, n]
    with np.errstate(over="ignore"):  # an inf is refused below
        norm = float(s0 * total ** (1.0 / p))
    if not math.isfinite(norm):
        raise ValueError(f"Schatten exponent p={p} overflows the norm (sum {total:.6g})")
    return norm


def schur_constant(params: SymbolClassParams, codomain: DualCatalog, domain: DualCatalog) -> float:
    """C with C^2 = (sum_rho d_rho (1+lambda)^-n) (sum_pi (1+lambda)^-m)."""
    rho_sum = sum(r.dim * (1.0 + r.casimir) ** (-params.n) for r in domain.labels)
    pi_sum = sum((1.0 + p.casimir) ** (-params.m) for p in codomain.labels)
    return float(np.sqrt(rho_sum * pi_sum))


def norm_criteria(
    op: BlockOperator, params: SymbolClassParams
) -> tuple[CriterionVerdict, CriterionVerdict]:
    """Both norm criteria against the operator norm, with C * M computed once.

    ``schur_bound`` checks the upper bound ||T|| <= C * M; ``norm_equivalence``
    brackets the norm: max weighted-block norm <= ||T|| <= C * M.
    """
    big_m = class_norm(op, params)
    c = schur_constant(params, op.codomain, op.domain)
    if not math.isfinite(upper := c * big_m):
        raise ValueError(f"C*M = {c:.6g} * {big_m:.6g} overflows at m={params.m}, n={params.n}")
    lower = class_norm(op, SymbolClassParams(0.0, 0.0))
    measured = float(op.singular_values[0]) if op.singular_values.size else 0.0
    schur = CriterionVerdict(
        name="schur_bound",
        bound_value=upper,
        measured_value=measured,
        satisfied=measured <= upper + 1e-9,
        detail=f"C={c:.6g}, M={big_m:.6g}, m={params.m}, n={params.n}",
    )
    equivalence = CriterionVerdict(
        name="norm_equivalence",
        bound_value=upper,
        measured_value=measured,
        satisfied=(lower - 1e-9 <= measured) and (measured <= upper + 1e-9),
        detail=f"lower={lower:.6g}, measured={measured:.6g}, upper={upper:.6g}",
    )
    return schur, equivalence


def _ratio(num: float, den: float) -> float:
    """num / den, with 0 / 0 = 0 and any other x / 0 = inf."""
    return num / den if den != 0.0 else 0.0 if num == 0.0 else math.inf


def _carleson_value(nu: Weight, labels: list[IrrepLabel], t: float) -> float:
    if not labels:
        return 0.0
    total = sum(
        r.dim ** 2 * weight_eval(nu, r) ** 2 / (1.0 + r.casimir) ** t
        for r in labels
    )
    return total / min(r.dim for r in labels)


def carleson_test(nu: Weight, catalog: DualCatalog, t: float) -> CriterionVerdict:
    """Truncated Carleson sum with sigma({rho}) = d_rho nu(rho)^2; the sum is
    recomputed at half the cutoff and called bounded when the relative growth
    across the outer half stays below 5%."""
    _finite(t, "Carleson exponent", "> 0")
    half = [r for r in catalog.labels if r.casimir <= catalog.cutoff / 2.0]
    v_half = _carleson_value(nu, half, t)
    v_full = _carleson_value(nu, list(catalog.labels), t)
    growth = _ratio(v_full - v_half, v_half)
    return CriterionVerdict(
        name="carleson",
        bound_value=CARLESON_GROWTH_THRESHOLD,
        measured_value=growth,
        satisfied=growth < CARLESON_GROWTH_THRESHOLD,
        detail=f"t={t}, sum(half)={v_half:.6g}, sum(full)={v_full:.6g}",
    )


def compactness_report(op: BlockOperator, params: SymbolClassParams) -> CriterionVerdict:
    """Two decay indicators standing in for compactness of the full operator.

    (i) decay: the column quantity (1+lambda_rho)^(n/2) * max_pi ||T(pi,rho)||
    must shrink across the outer half of the domain's Casimir levels (final
    value at most half the first outer value, no growth beyond 5% along the
    way; a single level is its own outer half);
    (ii) spectral: the smallest retained singular value must drop by at least
    10% when the truncation cutoff doubles from half to full; the half-cutoff
    values are ``op.support_values`` of the blocks inside the half catalogs.
    The verdict is satisfied only when both fire.
    """
    col_norm = dict.fromkeys(sorted({r.casimir for r in op.domain.labels}), 0.0)
    for (pi, rho), values in op.block_singular_values.items():
        val = params.decay(rho, "n") * float(values[0])
        col_norm[rho.casimir] = max(col_norm[rho.casimir], val)
    outer = list(col_norm.values())[len(col_norm) // 2 :]
    if all(v == 0.0 for v in outer):
        decay_fired = True
        outer_ratio = 0.0
    else:
        monotone = all(b <= a * 1.05 + 1e-15 for a, b in zip(outer, outer[1:]))
        outer_ratio = outer[-1] / outer[0] if outer[0] > 0 else float("inf")
        decay_fired = monotone and outer_ratio <= OUTER_DECAY_RATIO

    half = [(pi, rho) for pi, rho in op.weighted
            if pi.casimir <= op.codomain.cutoff / 2 and rho.casimir <= op.domain.cutoff / 2]
    v_half, v_full = (
        float(values[k - 1]) if (k := retained_count(values, ZERO_REL_TOL)) else 0.0
        for values in (op.support_values(half), op.singular_values)
    )
    sv_ratio = _ratio(v_full, v_half)
    spectral_fired = sv_ratio < SPECTRAL_DECAY_RATIO

    names = [name for name, fired in (("decay", decay_fired), ("spectral", spectral_fired))
             if fired]
    return CriterionVerdict(
        name="compactness_indicators",
        bound_value=SPECTRAL_DECAY_RATIO,
        measured_value=sv_ratio,
        satisfied=decay_fired and spectral_fired,
        detail=(
            f"fired={names or 'none'}; outer-half ratio={outer_ratio:.6g}, "
            f"min-sv ratio={sv_ratio:.6g}"
        ),
    )


def schatten_series_scan(
    alpha: float,
    p: float,
    l_ladder: tuple[float, ...] = (64, 128, 256, 512),
    group: GroupKind = SU2(half_integers=False),
) -> tuple[CriterionVerdict, list[dict]]:
    """Convergence scan of the diagonal Schatten criterion series.

    Each rung of the ladder gives a row with the partial sum of
    (2l+1)^2 (1+l)^(-p*alpha), its increment over the previous rung and the
    ratio of successive increments, together with the exact truncated
    Schatten norm of the diagonal operator with decay alpha (whose block
    singular values are (1+l)^(-alpha), each with multiplicity 2l+1). The
    verdict calls the series convergent when the increments across the
    factor-2 ladder shrink geometrically (every ratio below 0.75). Returns
    (verdict, rows).
    """
    _finite(p, "Schatten exponent p", "> 0")
    _finite(alpha, "decay alpha")
    if not isinstance(group, SU2):
        raise ValueError(f"series scan is defined on SU(2) duals, got {group!r}")
    if (len(l_ladder) < 3 or not all(math.isfinite(l) for l in l_ladder)
            or any(b <= a for a, b in zip(l_ladder, l_ladder[1:]))):
        raise ValueError(
            f"cutoff ladder must be finite and increasing with at least 3 rungs, "
            f"got {list(l_ladder)}"
        )
    step = 0.5 if group.half_integers else 1.0
    if l_ladder[0] < 0:  # the ladder increases: the first rung is the least
        raise ValueError(f"cutoff ladder rung {l_ladder[0]:g} is negative")
    if l_ladder[-1] / step + 1 > MAX_DENSE_DIM:
        raise ValueError(f"cutoff ladder rung {l_ladder[-1]:g} has over {MAX_DENSE_DIM} spins")
    rows: list[dict] = []
    for l_max in l_ladder:
        ls = np.arange(0.0, l_max + step / 2, step)
        with np.errstate(over="ignore"):  # an inf is refused below
            decay = (1 + ls) ** (-p * alpha)
            partial = float(np.sum((2 * ls + 1) ** 2 * decay))
            schatten = float(np.sum((2 * ls + 1) * decay) ** (1.0 / p))
        if not (math.isfinite(partial) and math.isfinite(schatten)):
            raise ValueError(f"cutoff ladder rung {l_max:g} overflows the series at "
                             f"p={p}, alpha={alpha}")
        row = {"l_max": float(l_max), "partial_sum": partial, "operator_schatten": schatten}
        if rows:
            row["increment"] = increment = row["partial_sum"] - rows[-1]["partial_sum"]
            if (prev := rows[-1].get("increment")) is not None:
                row["increment_ratio"] = _ratio(increment, prev)
        rows.append(row)
    measured = max(row["increment_ratio"] for row in rows[2:])  # >= 3 rungs
    converges = measured < SERIES_RATIO_THRESHOLD
    verdict = CriterionVerdict(
        name="schatten_series",
        bound_value=SERIES_RATIO_THRESHOLD,
        measured_value=measured,
        satisfied=converges,
        detail=(
            f"p={p}, alpha={alpha}, p*alpha={p * alpha:.6g}, "
            f"verdict={'converges' if converges else 'diverges'}, "
            f"last partial sum={rows[-1]['partial_sum']:.6g}"
        ),
    )
    return verdict, rows
