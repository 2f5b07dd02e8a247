"""City generation: dimension math, height statistics, placement invariants,
determinism, and the JSON form."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import default_rng

from urbanlos.citygen import (
    BUILDING,
    DISC,
    PRESETS,
    RETRY_LIMIT,
    BuiltUpParams,
    FootprintIndex,
    GenConfig,
    add_users,
    derive_building_dims,
    generate_city,
    generate_obstacles,
    layout_json,
    place_lights,
    place_users,
    rayleigh_icdf,
    sample_open_point,
    table,
)
from urbanlos.errors import InfeasibleLayoutError, ParameterError

URBAN = PRESETS["urban"]
FAMILIES = ("buildings", "trees", "lights", "users")

# chi-square critical value, p = 0.01, 99 degrees of freedom
CHI2_CRIT_99 = 134.64161685578915


# -- building dimensions ------------------------------------------------------


def test_square_dims_urban():
    w, l = derive_building_dims(URBAN, 1e6, shape=1.0)
    assert w == pytest.approx(24.494897427831781, abs=1e-9)
    assert l == pytest.approx(w, abs=1e-12)
    assert w * l == pytest.approx(600.0, rel=1e-12)


def test_rect_dims_preserve_area():
    w, l = derive_building_dims(URBAN, 1e6, shape=1.5)
    assert w == pytest.approx(36.742346141747671, abs=1e-9)
    assert l == pytest.approx(16.329931618554521, abs=1e-9)
    assert w * l == pytest.approx(600.0, rel=1e-12)


def test_square_dims_dense_urban():
    w, l = derive_building_dims(PRESETS["dense_urban"], 1e6, shape=1.0)
    assert w == pytest.approx(40.824829046386302, abs=1e-9)


def test_dims_domain_errors():
    with pytest.raises(ParameterError):
        derive_building_dims(URBAN, 1e6, shape=0.4)
    with pytest.raises(ParameterError):
        derive_building_dims(URBAN, -1.0, shape=1.0)
    with pytest.raises(ParameterError):
        BuiltUpParams(alpha=1.5, beta=500, gamma=15)
    with pytest.raises(ParameterError):
        BuiltUpParams(alpha=0.3, beta=0, gamma=15)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: GenConfig(area=v), "area"),
        (lambda v: GenConfig(d_o=v), "d_o"),
        (lambda v: GenConfig(h_gu=v), "h_gu"),
        (lambda v: BuiltUpParams(alpha=0.3, beta=v, gamma=15.0), "beta"),
        (lambda v: BuiltUpParams(alpha=0.3, beta=500.0, gamma=v), "gamma"),
    ],
    ids=["area", "d_o", "h_gu", "beta", "gamma"],
)
def test_config_rejects_non_finite_values(make, name, value):
    """A NaN or infinite real fails where it is given, not later in
    generation or binning."""
    with pytest.raises(ParameterError, match=name):
        make(value)


@given(
    alpha=st.floats(0.05, 0.9),
    beta=st.floats(10.0, 2000.0),
    shape=st.floats(0.5, 1.5),
)
def test_dims_area_invariant(alpha, beta, shape):
    params = BuiltUpParams(alpha=alpha, beta=beta, gamma=15.0)
    w, l = derive_building_dims(params, 1e6, shape)
    b_avg = alpha * 1e6 / beta
    assert abs(w * l - b_avg) / b_avg < 1e-9


# -- heights ------------------------------------------------------------------


def test_rayleigh_icdf_at_zero():
    assert rayleigh_icdf(15.0, 0.0) == 0.0


def test_rayleigh_icdf_domain():
    with pytest.raises(ParameterError):
        rayleigh_icdf(-1.0, 0.5)
    with pytest.raises(ParameterError):
        rayleigh_icdf(15.0, 1.0)


@pytest.mark.parametrize(
    "gamma,mean",
    [(15.0, 18.799712059732504), (20.0, 25.066282746310005), (50.0, 62.665706865775013)],
)
def test_height_sample_mean(gamma, mean):
    rng = default_rng(7)
    h = np.array([rayleigh_icdf(gamma, u) for u in rng.random(200_000).tolist()])
    assert abs(h.mean() - mean) / mean < 0.02


def test_height_sample_variance():
    rng = default_rng(8)
    h = np.array([rayleigh_icdf(50.0, u) for u in rng.random(200_000).tolist()])
    target = 1073.0091830127585
    assert abs(h.var() - target) / target < 0.02


# -- full generation ----------------------------------------------------------


def test_urban_counts_and_built_area(urban_layout):
    assert len(urban_layout.buildings) == 500
    assert len(urban_layout.trees) == 200
    assert len(urban_layout.lights) == 500
    assert len(urban_layout.users) == 100
    assert 2.94e5 <= sum((urban_layout.buildings.w * urban_layout.buildings.l).tolist()) <= 3.06e5


def _boxes(buildings):
    """(x0, y0, x1, y1) of each building, as Python floats."""
    return [(x, y, x + w, y + l) for x, y, w, l, _ in buildings.tolist()]


def _discs(layout):
    """(x, y, r) of each tree, then each light, as Python floats."""
    return [(x, y, r) for x, y, r, _ in layout.trees.tolist() + layout.lights.tolist()]


def test_per_building_footprint_exact(urban_layout):
    for x, y, w, l, h in urban_layout.buildings.tolist():
        assert abs(w * l - 600.0) / 600.0 < 1e-9
        assert 0.0 <= x and x + w <= urban_layout.side
        assert 0.0 <= y and y + l <= urban_layout.side
        assert h > 0.0


def test_no_building_pair_overlaps(urban_layout):
    bs = _boxes(urban_layout.buildings)
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            a, b = bs[i], bs[j]
            overlap = a[0] < b[2] and a[2] > b[0] and a[1] < b[3] and a[3] > b[1]
            assert not overlap, (i, j)


def _distance_to_side(px, py, b):
    """(perpendicular distance, foot-on-side) against each side of the box b."""
    bx0, by0, bx1, by1 = b
    for x0, y0, x1, y1 in (
        (bx0, by0, bx1, by0),  # south
        (bx0, by1, bx1, by1),  # north
        (bx0, by0, bx0, by1),  # west
        (bx1, by0, bx1, by1),  # east
    ):
        if x0 == x1:  # vertical side
            on = y0 - 1e-9 <= py <= y1 + 1e-9
            yield abs(px - x0), on
        else:
            on = x0 - 1e-9 <= px <= x1 + 1e-9
            yield abs(py - y0), on


def test_obstacles_sit_on_sidewalks(urban_layout):
    d_o, boxes = urban_layout.config.d_o, _boxes(urban_layout.buildings)
    for x, y, _ in _discs(urban_layout):
        anchored = any(abs(dist - d_o) < 1e-9 and on for b in boxes for dist, on in _distance_to_side(x, y, b))
        assert anchored, (x, y)


def test_obstacle_discs_clear_of_buildings(urban_layout):
    side, boxes = urban_layout.side, _boxes(urban_layout.buildings)
    for x, y, r in _discs(urban_layout):
        assert 0.0 <= x - r and x + r <= side
        assert 0.0 <= y - r and y + r <= side
        for x0, y0, x1, y1 in boxes:
            dx = max(x0 - x, 0.0, x - x1)
            dy = max(y0 - y, 0.0, y - y1)
            assert math.hypot(dx, dy) >= r - 1e-9


def test_tree_trunk_ratios(urban_layout):
    for t in json.loads(layout_json(urban_layout))["trees"]:
        assert 2.0 <= t["h"] <= 5.0
        assert 0.5 <= t["r"] <= 1.5
        assert t["h_trunk"] == pytest.approx(0.2 * t["h"], rel=1e-12)
        assert t["r_trunk"] == pytest.approx(0.1 * t["r"], rel=1e-12)


def test_users_avoid_all_footprints(urban_layout):
    boxes, discs = _boxes(urban_layout.buildings), _discs(urban_layout)
    for ux, uy, _ in urban_layout.users.tolist():
        for x0, y0, x1, y1 in boxes:
            assert not (x0 <= ux <= x1 and y0 <= uy <= y1)
        for x, y, r in discs:
            assert math.hypot(ux - x, uy - y) > r


def test_users_uniform_without_buildings():
    # a sub-one building count rounds to zero buildings
    params = BuiltUpParams(alpha=0.001, beta=0.4, gamma=15.0)
    gen = GenConfig(n_trees=0, n_lights=0, n_gu=10_000, seed=9)
    layout = generate_city(params, gen)
    assert len(layout.buildings) == 0
    counts, _, _ = np.histogram2d(layout.users.x, layout.users.y, bins=10, range=[[0, 1000], [0, 1000]])
    expected = 10_000 / 100.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_99


# -- determinism --------------------------------------------------------------


def test_same_seed_bit_identical():
    a = generate_city(URBAN, GenConfig(seed=42))
    b = generate_city(URBAN, GenConfig(seed=42))
    assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in FAMILIES)
    assert layout_json(a) == layout_json(b)


def test_different_seed_differs():
    a = generate_city(URBAN, GenConfig(seed=42))
    b = generate_city(URBAN, GenConfig(seed=43))
    assert layout_json(a) != layout_json(b)


def test_distinct_city_indices_differ():
    a = generate_city(URBAN, GenConfig(seed=42), city_index=0)
    b = generate_city(URBAN, GenConfig(seed=42), city_index=1)
    assert not np.array_equal(a.buildings, b.buildings)


def test_tree_count_does_not_perturb_other_streams():
    a = generate_city(URBAN, GenConfig(seed=4, n_trees=100))
    b = generate_city(URBAN, GenConfig(seed=4, n_trees=200))
    assert np.array_equal(a.buildings, b.buildings)
    assert np.array_equal(a.lights, b.lights)
    # trees are drawn sequentially, so the smaller population is a prefix
    assert np.array_equal(a.trees, b.trees[:100])


def test_layout_tables_are_read_only():
    """No cell of a layout's tables can be written, neither in a generated
    layout nor in add_users' tree prefix."""
    city = generate_obstacles(URBAN, GenConfig(seed=4, n_trees=50, n_gu=5), 0)
    layout = generate_city(URBAN, GenConfig(seed=4, n_gu=5))
    tables = [getattr(layout, f) for f in FAMILIES] + [add_users(city, 20, 0).trees]
    for t in tables:
        assert len(t)
        with pytest.raises(ValueError, match="read-only"):
            t.x[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            t[0] = t[-1]
        with pytest.raises(ValueError, match="read-only"):
            t[0].h = 1.0


@pytest.mark.parametrize("n_trees", [0, 60, 150])
def test_users_on_a_tree_prefix_match_generate_city(n_trees):
    city = generate_obstacles(URBAN, GenConfig(seed=4, n_trees=150, n_gu=40), 2)
    layout = add_users(city, n_trees, 2)
    expected = generate_city(URBAN, GenConfig(seed=4, n_trees=n_trees, n_gu=40), 2)
    assert layout_json(layout) == layout_json(expected)
    with pytest.raises(ParameterError):
        add_users(city, 151, 2)


# -- JSON form ----------------------------------------------------------------

# the record keys of layout.json, as README lists them
LAYOUT_KEYS = {
    "params": {"alpha", "beta", "gamma"},
    "config": {"area", "n_trees", "n_lights", "n_gu", "d_o", "h_gu", "seed"},
    "buildings": {"x", "y", "w", "l", "h"},
    "trees": {"x", "y", "r", "h", "r_trunk", "h_trunk"},
    "lights": {"x", "y", "r", "h"},
    "users": {"x", "y", "h"},
}


def test_layout_json_writes_every_field(urban_layout):
    doc = json.loads(layout_json(urban_layout))
    assert set(doc) == set(LAYOUT_KEYS)
    for section in ("params", "config"):
        assert set(doc[section]) == LAYOUT_KEYS[section]
    for section in ("buildings", "trees", "lights", "users"):
        assert doc[section]
        assert all(set(record) == LAYOUT_KEYS[section] for record in doc[section])
    for tree in doc["trees"]:
        assert tree["r_trunk"] == 0.1 * tree["r"] and tree["h_trunk"] == 0.2 * tree["h"]


def _reference_layout_json(layout):
    """The layout document built as dicts and written by json.dumps: the
    form layout_json writes row by row from templates."""
    doc = {"params": vars(layout.params), "config": vars(layout.config)}
    for family in FAMILIES:
        t = getattr(layout, family)
        doc[family] = [dict(zip(t.dtype.names, row)) for row in t.tolist()]
    for tree in doc["trees"]:
        tree.update(r_trunk=0.1 * tree["r"], h_trunk=0.2 * tree["h"])
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("env", sorted(PRESETS))
@pytest.mark.parametrize("seed", [0, 1])
def test_layout_json_is_canonical_json(env, seed):
    layout = generate_city(PRESETS[env], GenConfig(seed=seed))
    assert layout_json(layout) == _reference_layout_json(layout)


def test_layout_json_of_empty_tables():
    layout = generate_city(URBAN, GenConfig(n_trees=0, n_lights=0, n_gu=0, seed=1))
    assert [len(getattr(layout, f)) for f in FAMILIES[1:]] == [0, 0, 0]
    assert layout_json(layout) == _reference_layout_json(layout)


# -- infeasible configurations ------------------------------------------------


def test_packing_failure_names_entity():
    # 98% built area cannot pack by rejection sampling
    params = BuiltUpParams(alpha=0.98, beta=20.0, gamma=15.0)
    with pytest.raises(InfeasibleLayoutError, match="building"):
        generate_city(params, GenConfig(n_trees=0, n_lights=0, n_gu=0, seed=1))


def test_obstacles_require_buildings():
    params = BuiltUpParams(alpha=0.001, beta=0.4, gamma=15.0)
    with pytest.raises(InfeasibleLayoutError, match="tree"):
        generate_city(params, GenConfig(n_trees=5, n_lights=0, n_gu=0, seed=1))


def test_streetlights_require_buildings():
    params = BuiltUpParams(alpha=0.001, beta=0.4, gamma=15.0)
    with pytest.raises(InfeasibleLayoutError, match="^could not place streetlight 0: no building edges available$"):
        generate_city(params, GenConfig(n_trees=0, n_lights=5, n_gu=0, seed=1))


def test_streetlight_retry_limit_names_entity():
    # two buildings fill the city side by side: each sidewalk point lies
    # beyond the border or inside the other building
    halves = table([(x, 0.0, 500.0, 1000.0, 10.0) for x in (0.0, 500.0)], BUILDING)
    index = FootprintIndex(halves, table((), DISC), table((), DISC), 1000.0)
    with pytest.raises(InfeasibleLayoutError, match=f"^could not place streetlight 0 after {RETRY_LIMIT} attempts$"):
        place_lights(index, GenConfig(n_lights=3), default_rng(0))


def test_user_retry_limit_names_entity():
    """Buildings cover the city but for a 2 mm hole around the first point
    drawn; the area check reads config's area, four times the city's."""
    px, py = 1000.0 * default_rng(0).random(2)
    e = 1e-3
    cover = [(0.0, 0.0, px - e, 1000.0), (px + e, 0.0, 1000.0, 1000.0),
             (px - e, 0.0, px + e, py - e), (px - e, py + e, px + e, 1000.0)]
    buildings = table([(a, b, c - a, d - b, 10.0) for a, b, c, d in cover], BUILDING)
    index = FootprintIndex(buildings, table((), DISC), table((), DISC), 1000.0)
    config = GenConfig(area=4e6, n_gu=2)
    with pytest.raises(InfeasibleLayoutError, match=f"^could not place user 1 after {RETRY_LIMIT} attempts$"):
        place_users(index, config, default_rng(0))
    assert sample_open_point(index, default_rng(0), what="abs") == (px, py)
    rng = default_rng(0)
    rng.random(2)
    with pytest.raises(InfeasibleLayoutError, match=f"^could not place abs after {RETRY_LIMIT} attempts$"):
        sample_open_point(index, rng, what="abs")
