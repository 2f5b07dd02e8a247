"""Elevation-angle sweep engine and aggregations.

For every city a layout is generated, one ABS ground position is drawn
uniformly over open space, and each user is evaluated at every elevation
angle: the ABS altitude follows h = h_gu + g * tan(theta) for the user's
own ground distance g, capped at a maximum altitude, with the 90 degree
angle evaluated just below vertical. Per-link critical altitudes make the
whole angle sweep a set of comparisons, whose one product is a count of
blockage masks (one bit per obstacle family) per angle and per 3-D
distance bin, once per tree limit a pass needs. The counts are summed
over cities as integers, so the reduction is independent of city order,
and each view (a scenario or a tree density) is folded once from the sums
through MASK_CLASS. Paired views share exactly the same cities, users and
ABS positions; the tree-density sweep reuses each city's buildings,
lights and trees from the same build, with its own users and ABS position.

Every result is one ClassCounts table, a read-only (rows, 4) count
matrix: per elevation angle, or per non-empty distance bin with the bin's
mean distance; outputs writes it to its CSV and reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .citygen import (
    STREAM_ABS,
    BuiltUpParams,
    CityLayout,
    GenConfig,
    add_users,
    city_rng,
    generate_obstacles,
    sample_open_point,
)
from .errors import AggregationError, ParameterError
from .geometry import LayoutGeometry, link_maxima

#: The nominal 90 degree angle is evaluated at this elevation.
TOP_ANGLE_EVAL_DEG = 89.9
#: ABS altitudes are capped here to keep near-vertical links finite. The
#: cap only binds above 89 degrees for city-scale ground distances.
ALTITUDE_CAP_M = 100_000.0
#: Width of the 3-D distance bins.
DISTANCE_BIN_M = 50.0
#: Links per block of the angle sweep, which bounds its (links, angles) arrays.
SWEEP_BLOCK = 256

LOS, NLOS_B, NLOS_T, NLOS_S = 0, 1, 2, 3
#: Class of each blockage mask (bit 0 building, 1 tree, 2 light): the lowest set bit's family; 0 is LoS.
MASK_CLASS = np.array([LOS, NLOS_B, NLOS_T, NLOS_B, NLOS_S, NLOS_B, NLOS_T, NLOS_B])


@dataclass(frozen=True)
class Scenario:
    """One classification view: the name its outputs go under, how many of
    the city's trees block (None = all), and whether lights block."""

    name: str
    tree_limit: int | None
    lights: bool


BUILDINGS_ONLY = Scenario("buildings-only", tree_limit=0, lights=False)
WITH_TREES = Scenario("trees", tree_limit=None, lights=False)
FULL = Scenario("full", tree_limit=None, lights=True)

SCENARIOS = {s.name: s for s in (BUILDINGS_ONLY, WITH_TREES, FULL)}


def parse_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ParameterError(f"unknown scenario {name!r}; expected one of {list(SCENARIOS)}") from None


@dataclass(frozen=True)
class SweepConfig:
    """Sweep extent and ABS altitude policy."""

    n_cities: int = 30
    angles: tuple[float, ...] = tuple(float(a) for a in range(1, 91))
    altitude_policy: str = "per-angle"  # "per-angle" | "fixed"
    fixed_altitude_m: float = 100.0

    def __post_init__(self):
        if self.n_cities < 1:
            raise ParameterError("n_cities must be >= 1")
        if not self.angles:
            raise ParameterError("angles must be non-empty")
        if len(set(self.angles)) < len(self.angles):
            raise ParameterError(f"each angle may be given once, got {list(self.angles)}")
        if any(not 0.0 <= a <= 90.0 for a in self.angles):
            raise ParameterError("angles must lie in [0, 90] degrees")
        if self.altitude_policy not in ("per-angle", "fixed"):
            raise ParameterError(
                f"altitude_policy must be 'per-angle' or 'fixed', got {self.altitude_policy!r}"
            )
        if not 0.0 < self.fixed_altitude_m <= ALTITUDE_CAP_M:
            raise ParameterError(f"fixed_altitude_m must lie in (0, {ALTITUDE_CAP_M:g}], got {self.fixed_altitude_m}")


@dataclass(frozen=True, eq=False)
class ClassCounts:
    """Class counts per row of a table, and the probabilities they give.

    keys are the elevation angles in degrees of a P_LoS curve, or the 3-D
    distance-bin centres in metres of a distance table (non-empty bins
    only); counts is their read-only (rows, 4) int64 matrix in class-code
    order. Only distance tables carry mean_d, the mean 3-D distance of
    each bin. Rows with no samples read probability 0. Tables are values:
    equal when their keys, counts and mean_d are.
    """

    keys: tuple[float, ...]
    counts: np.ndarray
    mean_d: tuple[float, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, ClassCounts):
            return NotImplemented
        return (self.keys, self.counts.tolist(), self.mean_d) == (other.keys, other.counts.tolist(), other.mean_d)

    @property
    def n(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def p(self) -> np.ndarray:
        """(rows, 4) class probabilities in class-code order."""
        n = self.n[:, None]
        return np.divide(self.counts, n, out=np.zeros(self.counts.shape), where=n > 0)

    @property
    def p_los(self) -> np.ndarray:
        return self.p[:, LOS]

    @property
    def p_nlos_b(self) -> np.ndarray:
        return self.p[:, NLOS_B]

    @property
    def p_nlos_t(self) -> np.ndarray:
        return self.p[:, NLOS_T]

    @property
    def p_nlos_s(self) -> np.ndarray:
        return self.p[:, NLOS_S]


def class_counts(keys, counts, mean_d=None) -> ClassCounts:
    """The table of keys, a read-only copy of their (rows, 4) counts in
    class-code order and, for a distance table, their mean distances."""
    counts = np.array(counts, dtype=np.int64).reshape(-1, 4)
    counts.flags.writeable = False
    mean_d = None if mean_d is None else tuple(float(v) for v in mean_d)
    return ClassCounts(tuple(float(k) for k in keys), counts, mean_d)


def _blockage_masks(h_abs: np.ndarray, alt_b: np.ndarray, alt_t: np.ndarray, alt_s: np.ndarray) -> np.ndarray:
    """uint8 blockage masks of an (L, A) altitude matrix: bit i is set where
    the (L,) critical altitudes of the i-th family in FAMILIES order reach
    h_abs. A family left out reads -inf and never blocks."""
    masks = np.zeros(h_abs.shape, np.uint8)
    for bit, alt in enumerate((alt_b, alt_t, alt_s)):
        masks |= (h_abs <= alt[:, None]).view(np.uint8) << bit
    return masks


def _city_worker(
    layout: CityLayout, sweep: SweepConfig, limits: Sequence[int | None], city_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blockage mask counts for one city: (limits, angles, 8), (limits,
    bins, 8) and the d sums per bin. A limit is how many of the city's trees
    block (None = all); the masks of each limit are counted once. The ABS
    draw and the kernel read the layout's LayoutGeometry. The (links,
    angles) arrays are built SWEEP_BLOCK links at a time, and the d sums
    add in link order, as one bincount over the whole city would."""
    gen = layout.config
    geom = LayoutGeometry(layout)
    abs_rng = city_rng(gen.seed, city_index, STREAM_ABS)
    ax, ay = sample_open_point(geom, abs_rng, what="abs")

    gu = np.column_stack((layout.users.x, layout.users.y))
    alt_b, alt_s, t_link, t_idx, t_alt = geom.batch_critical_altitudes(
        (ax, ay), gu, gen.h_gu
    )
    keeps = (slice(None) if limit is None else t_idx < limit for limit in limits)
    alt_t = [link_maxima(len(gu), t_link[keep], t_alt[keep]) for keep in keeps]  # per limit, once
    g = np.hypot(gu[:, 0] - ax, gu[:, 1] - ay)
    angles = np.asarray(sweep.angles)
    tan = np.tan(np.radians(np.where(angles >= 90.0, TOP_ANGLE_EVAL_DEG, angles)))
    # the bins cover the capped altitude over the city's diagonal
    n_bins = int(math.hypot(ALTITUDE_CAP_M, layout.side * math.sqrt(2.0)) / DISTANCE_BIN_M) + 2

    # one count per tree limit, keyed 8 * angle + mask and 8 * bin + mask
    angle_counts = np.zeros((len(limits), angles.size, 8), dtype=np.int64)
    dist_counts = np.zeros((len(limits), n_bins, 8), dtype=np.int64)
    d_sums = np.zeros(n_bins)
    for block in range(0, len(gu), SWEEP_BLOCK):
        links = slice(block, block + SWEEP_BLOCK)
        if sweep.altitude_policy == "per-angle":
            h_abs = np.minimum(gen.h_gu + g[links, None] * tan[None, :], ALTITUDE_CAP_M)
        else:
            h_abs = np.full((g[links].size, angles.size), sweep.fixed_altitude_m)
        d = np.hypot(g[links, None], h_abs - gen.h_gu)
        bins = np.minimum((d / DISTANCE_BIN_M).astype(np.int64), n_bins - 1)
        for v, alt in enumerate(alt_t):
            masks = _blockage_masks(h_abs, alt_b[links], alt[links], alt_s[links])
            for out, key in ((angle_counts, 8 * np.arange(angles.size)), (dist_counts, 8 * bins)):
                out[v] += np.bincount((key + masks).ravel(), minlength=out[v].size).reshape(-1, 8)
        np.add.at(d_sums, bins.ravel(), d.ravel())
    return angle_counts, dist_counts, d_sums


def run_simulation(
    params: BuiltUpParams,
    gen: GenConfig,
    sweep: SweepConfig,
    scenarios: Sequence[Scenario],
    densities: Sequence[int] = (),
    on_layout: Callable[[CityLayout], None] | None = None,
) -> dict[str, tuple[ClassCounts, ClassCounts]]:
    """Every view's (angle table, distance table) over one build per city:
    the scenarios by name, then each tree density k as ``density_<k>``.

    The scenario pass generates each city as ``generate_city(params, gen,
    i)`` does; on_layout gets each city's layout of the first pass (the
    density pass when there is no scenario). All scenarios see the same
    layouts, users and ABS positions, so their outputs are exactly paired.

    The density pass (lights excluded) sees the city with max(densities)
    trees; lower densities use a prefix of the same tree population, so
    its curves are paired and p_los is pointwise non-increasing in
    density. Both passes share the buildings, lights and trees of each
    city; users and the ABS position are drawn per pass.
    """
    if any(a >= b for a, b in zip(densities, densities[1:])):
        raise ParameterError(f"densities must be strictly ascending, got {list(densities)}")
    if any(d < 0 for d in densities):
        raise ParameterError("densities must be >= 0")
    names = [s.name for s in scenarios]
    if len(set(names)) < len(names):
        raise ParameterError(f"each scenario may be given once, got {names}")
    if gen.h_gu > ALTITUDE_CAP_M:  # every capped ABS would sit below its users
        raise ParameterError(f"gen.h_gu ({gen.h_gu}) must be <= the ABS altitude cap {ALTITUDE_CAP_M:g}")
    if sweep.altitude_policy == "fixed" and sweep.fixed_altitude_m < gen.h_gu:
        raise ParameterError(
            f"sweep.fixed_altitude_m ({sweep.fixed_altitude_m}) must be >= gen.h_gu ({gen.h_gu})"
        )
    passes = []
    if scenarios:
        passes.append((gen.n_trees, scenarios))
    if densities:
        passes.append((max(densities), [Scenario(f"density_{k}", k, False) for k in densities]))
    if not passes:
        return {}
    # each pass's distinct tree limits, whose mask counts its views read; a treeless view reads the first
    limits = [list(dict.fromkeys(v.tree_limit for v in pass_views if v.tree_limit != 0)) or [0] for _, pass_views in passes]
    totals = [[0, 0, 0] for _ in passes]  # each pass's sums over cities, summed in place after the first
    most_trees = replace(gen, n_trees=max(n_trees for n_trees, _ in passes))
    for city_index in range(sweep.n_cities):
        city = generate_obstacles(params, most_trees, city_index)
        for k, (n_trees, _) in enumerate(passes):
            layout = add_users(city, n_trees, city_index)
            if k == 0 and on_layout is not None:
                on_layout(layout)
            for i, counts in enumerate(_city_worker(layout, sweep, limits[k], city_index)):
                totals[k][i] += counts
    views = {}
    for (_, pass_views), pass_limits, (angle_counts, dist_counts, d_sums) in zip(passes, limits, totals):
        for view in pass_views:
            at = 0 if view.tree_limit == 0 else pass_limits.index(view.tree_limit)
            kept_bits = 1 | 2 * (view.tree_limit != 0) | 4 * view.lights  # the families the view counts
            fold = np.eye(4, dtype=np.int64)[MASK_CLASS[np.arange(8) & kept_bits]]  # (8, 4), one class per mask
            angles, bins = angle_counts[at] @ fold, dist_counts[at] @ fold
            keep = np.nonzero(bins.sum(axis=1) > 0)[0]  # non-empty bins only
            kept = bins[keep]
            views[view.name] = (
                class_counts(sweep.angles, angles),
                class_counts((keep + 0.5) * DISTANCE_BIN_M, kept, d_sums[keep] / kept.sum(axis=1)),
            )
    return views


def run_scenarios(
    params: BuiltUpParams,
    gen: GenConfig,
    sweep: SweepConfig,
    scenarios: Sequence[Scenario],
) -> dict[str, tuple[ClassCounts, ClassCounts]]:
    """The scenario pass of :func:`run_simulation` on its own."""
    return run_simulation(params, gen, sweep, scenarios)


def tree_density_sweep(
    params: BuiltUpParams,
    gen: GenConfig,
    sweep: SweepConfig,
    densities: Sequence[int],
) -> dict[int, ClassCounts]:
    """The density pass of :func:`run_simulation` on its own: one curve
    per tree count, lights excluded, over shared layouts."""
    if not densities:
        raise ParameterError("densities must be non-empty")
    views = run_simulation(params, gen, sweep, (), densities)
    return {k: views[f"density_{k}"][0] for k in densities}


def mean_abs_delta_p_los(curve_a: ClassCounts, curve_b: ClassCounts) -> float:
    """Mean absolute P_LoS difference over the shared angle grid."""
    if curve_a.keys != curve_b.keys:
        raise AggregationError("curves are on different angle grids")
    return float(np.mean(np.abs(curve_a.p_los - curve_b.p_los)))
