"""Path-loss components, composite assembly, and empirical model fitting.

The LoS component is free-space path loss at 28 GHz and the
building-blocked component an urban mmWave NLoS model, both log-distance
forms. Tree-blocked links add an excess foliage attenuation whose
saturation constant depends on the first-Fresnel-zone illumination area.
Per distance bin the composite loss is the probability-weighted mixture
of the components, and an A + 10 B log10(d) model is fitted to the bins
by count-weighted least squares.

Unit conventions for the foliage model, isolated here so they can be
changed in one place: frequency enters the initial/final slopes in GHz
and the wet-leaf factor in MHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AggregationError, ParameterError
from .montecarlo import DISTANCE_BIN_M, NLOS_T, ClassCounts

C_M_PER_NS = 0.299792458  # speed of light, meters per nanosecond (m * GHz)

FSPL_INTERCEPT_DB = 61.4
FSPL_SLOPE = 20.0
NLOS_B_INTERCEPT_DB = 72.0
NLOS_B_SLOPE = 29.2

# In-leaf constants of the ITU-R P.833 non-zero-gradient foliage model:
# initial slope a*f, final slope b/f^c, and the saturation constant from
# k0, the wet-leaf factor rf and the illumination scale a0 (m^2).
FOLIAGE_A = 0.2
FOLIAGE_B = 1.27
FOLIAGE_C = 0.63
FOLIAGE_K0_DB = 6.57
FOLIAGE_RF = 0.0002
FOLIAGE_A0_M2 = 10.0

# Stream id for per-bin vegetation geometry draws.
_VEG_STREAM = 101

TREE_MEAN_RADIUS_M = 1.0
VEG_D2_RANGE_M = (4.0, 8.0)
VEG_DEPTH_RANGE_M = (0.5, 2.0 * TREE_MEAN_RADIUS_M)

PL_THETA_ALTITUDE_M = 100.0  # fixed ABS altitude of the PL-vs-theta table


@dataclass(frozen=True)
class VegetationParams:
    """Carrier frequency of the foliage term."""

    f_ghz: float = 28.0

    def __post_init__(self):
        if not (math.isfinite(self.f_ghz) and self.f_ghz > 0.0):
            raise ParameterError(f"f_ghz must be finite and > 0, got {self.f_ghz}")

    @property
    def wavelength_m(self) -> float:
        return C_M_PER_NS / self.f_ghz


@dataclass(frozen=True)
class VegGeometry:
    """Link geometry through one foliage obstruction.

    d1/d2 are transmitter/receiver distances to the obstruction, d_t the
    foliage depth traversed, r_t the foliage radius. The Fresnel radius
    uses the wavelength implied by the carrier frequency.
    """

    d1: float
    d2: float
    d_t: float
    r_t: float

    def __post_init__(self):
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ParameterError("d1 and d2 must be > 0")
        if self.r_t <= 0.0:
            raise ParameterError("r_t must be > 0")
        if not 0.0 <= self.d_t <= 2.0 * self.r_t:
            raise ParameterError(
                f"d_t must be in [0, 2 r_t], got d_t={self.d_t}, r_t={self.r_t}"
            )


def fspl(d: float | np.ndarray) -> float | np.ndarray:
    """Free-space path loss at 28 GHz, dB."""
    if np.any(np.asarray(d) <= 0.0):
        raise ParameterError("distance must be > 0")
    return FSPL_INTERCEPT_DB + FSPL_SLOPE * np.log10(d)


def pl_nlos_building(d: float | np.ndarray) -> float | np.ndarray:
    """Building-blocked urban path loss at 28 GHz, dB."""
    if np.any(np.asarray(d) <= 0.0):
        raise ParameterError("distance must be > 0")
    return NLOS_B_INTERCEPT_DB + NLOS_B_SLOPE * np.log10(d)


def fresnel_radius(wavelength_m: float, d1: float, d2: float) -> float:
    """First Fresnel zone radius at the point splitting the path d1/d2."""
    if wavelength_m <= 0.0:
        raise ParameterError("wavelength must be > 0")
    if d1 <= 0.0 or d2 <= 0.0:
        raise ParameterError("d1 and d2 must be > 0")
    return math.sqrt(wavelength_m * d1 * d2 / (d1 + d2))


def min_illumination_area(r_f: float, r_t: float) -> float:
    """Illuminated foliage area, capped by Fresnel and foliage radii."""
    if r_f <= 0.0 or r_t <= 0.0:
        raise ParameterError("radii must be > 0")
    side = 2.0 * min(r_f, r_t)
    return side * side


def veg_attenuation(geom: VegGeometry, params: VegetationParams) -> float:
    """Excess attenuation through foliage depth d_t, dB.

    Zero at zero depth, strictly increasing, with initial slope a*f and
    final slope b/f^c (f in GHz). The saturation constant uses the
    Fresnel-limited illumination area and the wet-leaf factor with f in
    MHz; a nonpositive constant means the units are misconfigured.
    """
    f = params.f_ghz
    r0 = FOLIAGE_A * f
    r_inf = FOLIAGE_B / f**FOLIAGE_C
    r_f = fresnel_radius(params.wavelength_m, geom.d1, geom.d2)
    a_min = min_illumination_area(r_f, geom.r_t)
    k = FOLIAGE_K0_DB - 10.0 * math.log10(
        FOLIAGE_A0_M2
        * (1.0 - math.exp(-a_min / FOLIAGE_A0_M2))
        * (1.0 - math.exp(-FOLIAGE_RF * f * 1000.0))
    )
    if k <= 0.0:
        raise ParameterError(
            f"attenuation constant k={k:.3f} dB is not positive; "
            "check frequency units and illumination geometry"
        )
    return r_inf * geom.d_t + k * (1.0 - math.exp(-(r0 - r_inf) * geom.d_t / k))


def pl_nlos_tree(d: float, geom: VegGeometry, params: VegetationParams) -> float:
    """Tree-blocked path loss: free space plus foliage excess, dB."""
    return float(fspl(d)) + veg_attenuation(geom, params)


def composite_pl(p, d_m, veg=(), params: VegetationParams = VegetationParams()) -> np.ndarray:
    """Probability-weighted mixture of the per-class path losses, dB, of
    each row of p, a (rows, 4) probability matrix in class-code order, at
    its distance in d_m. veg holds the VegGeometry of each row with
    p_nlos_t > 0, in row order.

    Streetlight-blocked links carry no excess loss, so their probability
    is charged free-space loss together with the LoS term.
    """
    p, d = np.asarray(p, dtype=float), np.asarray(d_m, dtype=float)
    bad = (p < 0.0).any(axis=1) | (abs(p.sum(axis=1) - 1.0) > 1e-9)
    if bad.any():
        raise AggregationError(f"probabilities {tuple(p[bad.argmax()].tolist())} are negative or do not sum to 1")
    if np.any(d <= 0.0):
        raise ParameterError("bin distance must be > 0")
    p_los, p_b, p_t, p_s = p.T
    treed = p_t > 0.0
    if len(veg) != np.count_nonzero(treed):
        raise ParameterError("vegetation geometry required for each row with p_nlos_t > 0")

    pl = p_b * pl_nlos_building(d)
    pl[treed] += p_t[treed] * [pl_nlos_tree(x, g, params) for x, g in zip(d[treed].tolist(), veg)]
    pl += (p_los + p_s) * fspl(d)
    return pl


def sample_veg_geometry(d_m: float, seed: int, bin_index: int) -> VegGeometry:
    """Deterministic per-bin vegetation geometry draw.

    The receiver-side distance is uniform in 4-8 m (trees sit near
    users), the transmitter side takes the remainder, and the traversed
    depth is uniform up to the mean foliage diameter.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_VEG_STREAM, bin_index)))
    d2 = min(rng.uniform(*VEG_D2_RANGE_M), d_m / 2.0)
    d_t = rng.uniform(*VEG_DEPTH_RANGE_M)
    return VegGeometry(d1=d_m - d2, d2=d2, d_t=d_t, r_t=TREE_MEAN_RADIUS_M)


def _composite_rows(p: np.ndarray, d: Sequence[float], keys: Sequence[int], params: VegetationParams, seed: int) -> list[float]:
    """Composite PL of each row of p at its distance in d; vegetation is
    drawn, under the row's key, only for rows with tree mass."""
    veg = [sample_veg_geometry(d[i], seed, keys[i]) for i in np.flatnonzero(p[:, NLOS_T] > 0.0)]
    return composite_pl(p, d, veg, params).tolist()


def composite_bins(
    stats: ClassCounts,
    params: VegetationParams = VegetationParams(),
    seed: int = 0,
) -> list[tuple[float, float, int]]:
    """(bin center, composite PL, sample count) for every populated bin;
    vegetation is keyed by the distance bin index."""
    bins = [int(round(center / DISTANCE_BIN_M - 0.5)) for center in stats.keys]
    pls = _composite_rows(stats.p, stats.keys, bins, params, seed)
    return list(zip(stats.keys, pls, (int(v) for v in stats.n)))


@dataclass(frozen=True)
class FitResult:
    """Fitted A-B log-distance model with its residual error."""

    a_db: float
    b: float
    rmse_db: float
    n_points: int


def fit_ab(
    samples: Sequence[tuple[float, float]],
    weights: Sequence[float] | None = None,
) -> FitResult:
    """Least-squares fit of pl = A + 10 B log10(d).

    Weights (e.g. bin sample counts) scale squared residuals; the RMSE is
    the weighted root-mean-square residual. Noiseless A-B data is
    recovered exactly.
    """
    if len(samples) < 2:
        raise ParameterError("need at least 2 samples to fit")
    d = np.array([s[0] for s in samples], dtype=float)
    pl = np.array([s[1] for s in samples], dtype=float)
    if np.any(d <= 0.0):
        raise ParameterError("distances must be > 0")
    x = 10.0 * np.log10(d)
    if np.ptp(x) < 1e-12:
        raise ParameterError("rank-deficient fit: all distances are equal")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != x.shape or np.any(w < 0.0) or not np.any(w > 0.0):
        raise ParameterError("weights must be nonnegative, same length, not all zero")
    sw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, pl * sw, rcond=None)
    resid = pl - (coef[0] + coef[1] * x)
    rmse = float(np.sqrt(np.sum(w * resid**2) / np.sum(w)))
    return FitResult(a_db=float(coef[0]), b=float(coef[1]), rmse_db=rmse, n_points=len(x))


def pl_vs_theta(
    curve: ClassCounts,
    h_gu_m: float = 1.5,
    params: VegetationParams = VegetationParams(),
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """(theta, 3-D distance, composite PL) per angle at the fixed ABS
    altitude PL_THETA_ALTITUDE_M.

    The distance follows d = (h_abs - h_gu) / sin(theta); theta = 0 has
    no finite distance and is excluded from the table. Vegetation is
    keyed by the angle index.
    """
    if PL_THETA_ALTITUDE_M <= h_gu_m:
        raise ParameterError("h_abs must exceed h_gu")
    kept = [i for i, theta in enumerate(curve.keys) if theta > 0.0]
    d = [(PL_THETA_ALTITUDE_M - h_gu_m) / math.sin(math.radians(curve.keys[i])) for i in kept]
    pls = _composite_rows(curve.p[kept], d, kept, params, seed)
    return [(curve.keys[i], x, pl) for i, x, pl in zip(kept, d, pls)]


def median_extra_loss(
    pl_with: Sequence[tuple[float, float]],
    pl_without: Sequence[tuple[float, float]],
) -> tuple[float, float]:
    """Median and 95th-percentile extra loss between paired bin tables."""
    if len(pl_with) != len(pl_without):
        raise AggregationError("paired inputs have different lengths")
    diffs = []
    for (d_w, pl_w), (d_o, pl_o) in zip(pl_with, pl_without):
        if abs(d_w - d_o) > 1e-9:
            raise AggregationError(f"unpaired bins: {d_w} vs {d_o}")
        diffs.append(pl_w - pl_o)
    arr = np.array(diffs)
    return float(np.median(arr)), float(np.percentile(arr, 95.0))
