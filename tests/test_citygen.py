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
    PRESETS,
    RETRY_LIMIT,
    Building,
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
)
from urbanlos.errors import InfeasibleLayoutError, ParameterError

URBAN = PRESETS["urban"]

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
    assert 2.94e5 <= sum(b.area for b in urban_layout.buildings) <= 3.06e5


def test_per_building_footprint_exact(urban_layout):
    for b in urban_layout.buildings:
        assert abs(b.area - 600.0) / 600.0 < 1e-9
        assert 0.0 <= b.x and b.x1 <= urban_layout.side
        assert 0.0 <= b.y and b.y1 <= urban_layout.side
        assert b.h > 0.0


def test_no_building_pair_overlaps(urban_layout):
    bs = urban_layout.buildings
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            a, b = bs[i], bs[j]
            overlap = a.x < b.x1 and a.x1 > b.x and a.y < b.y1 and a.y1 > b.y
            assert not overlap, (i, j)


def _distance_to_side(px, py, b):
    """(perpendicular distance, foot-on-side) against each side of b."""
    for x0, y0, x1, y1 in (
        (b.x, b.y, b.x1, b.y),  # south
        (b.x, b.y1, b.x1, b.y1),  # north
        (b.x, b.y, b.x, b.y1),  # west
        (b.x1, b.y, b.x1, b.y1),  # east
    ):
        if x0 == x1:  # vertical side
            on = y0 - 1e-9 <= py <= y1 + 1e-9
            yield abs(px - x0), on
        else:
            on = x0 - 1e-9 <= px <= x1 + 1e-9
            yield abs(py - y0), on


def test_obstacles_sit_on_sidewalks(urban_layout):
    d_o = urban_layout.config.d_o
    for obstacle in urban_layout.trees + urban_layout.lights:
        anchored = any(
            abs(dist - d_o) < 1e-9 and on
            for b in urban_layout.buildings
            for dist, on in _distance_to_side(obstacle.x, obstacle.y, b)
        )
        assert anchored, (obstacle.x, obstacle.y)


def test_obstacle_discs_clear_of_buildings(urban_layout):
    side = urban_layout.side
    for obstacle in urban_layout.trees + urban_layout.lights:
        r = obstacle.r
        assert 0.0 <= obstacle.x - r and obstacle.x + r <= side
        assert 0.0 <= obstacle.y - r and obstacle.y + r <= side
        for b in urban_layout.buildings:
            dx = max(b.x - obstacle.x, 0.0, obstacle.x - b.x1)
            dy = max(b.y - obstacle.y, 0.0, obstacle.y - b.y1)
            assert math.hypot(dx, dy) >= r - 1e-9


def test_tree_trunk_ratios(urban_layout):
    for t in urban_layout.trees:
        assert 2.0 <= t.h <= 5.0
        assert 0.5 <= t.r <= 1.5
        assert t.h_trunk == pytest.approx(0.2 * t.h, rel=1e-12)
        assert t.r_trunk == pytest.approx(0.1 * t.r, rel=1e-12)


def test_users_avoid_all_footprints(urban_layout):
    for u in urban_layout.users:
        for b in urban_layout.buildings:
            assert not (b.x <= u.x <= b.x1 and b.y <= u.y <= b.y1)
        for t in urban_layout.trees:
            assert math.hypot(u.x - t.x, u.y - t.y) > t.r
        for s in urban_layout.lights:
            assert math.hypot(u.x - s.x, u.y - s.y) > s.r


def test_users_uniform_without_buildings():
    # a sub-one building count rounds to zero buildings
    params = BuiltUpParams(alpha=0.001, beta=0.4, gamma=15.0)
    gen = GenConfig(n_trees=0, n_lights=0, n_gu=10_000, seed=9)
    layout = generate_city(params, gen)
    assert len(layout.buildings) == 0
    xs = np.array([u.x for u in layout.users])
    ys = np.array([u.y for u in layout.users])
    counts, _, _ = np.histogram2d(xs, ys, bins=10, range=[[0, 1000], [0, 1000]])
    expected = 10_000 / 100.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_99


# -- determinism --------------------------------------------------------------


def test_same_seed_bit_identical():
    a = generate_city(URBAN, GenConfig(seed=42))
    b = generate_city(URBAN, GenConfig(seed=42))
    assert a == b
    assert layout_json(a) == layout_json(b)


def test_different_seed_differs():
    a = generate_city(URBAN, GenConfig(seed=42))
    b = generate_city(URBAN, GenConfig(seed=43))
    assert a != b


def test_distinct_city_indices_differ():
    a = generate_city(URBAN, GenConfig(seed=42), city_index=0)
    b = generate_city(URBAN, GenConfig(seed=42), city_index=1)
    assert a.buildings != b.buildings


def test_tree_count_does_not_perturb_other_streams():
    a = generate_city(URBAN, GenConfig(seed=4, n_trees=100))
    b = generate_city(URBAN, GenConfig(seed=4, n_trees=200))
    assert a.buildings == b.buildings
    assert a.lights == b.lights
    # trees are drawn sequentially, so the smaller population is a prefix
    assert a.trees == b.trees[:100]


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
    halves = [Building(x=x, y=0.0, w=500.0, l=1000.0, h=10.0) for x in (0.0, 500.0)]
    index = FootprintIndex(halves, (), (), 1000.0)
    with pytest.raises(InfeasibleLayoutError, match=f"^could not place streetlight 0 after {RETRY_LIMIT} attempts$"):
        place_lights(index, GenConfig(n_lights=3), default_rng(0))


def test_user_retry_limit_names_entity():
    """Buildings cover the city but for a 2 mm hole around the first point
    drawn; the area check reads config's area, four times the city's."""
    px, py = 1000.0 * default_rng(0).random(2)
    e = 1e-3
    cover = [(0.0, 0.0, px - e, 1000.0), (px + e, 0.0, 1000.0, 1000.0),
             (px - e, 0.0, px + e, py - e), (px - e, py + e, px + e, 1000.0)]
    index = FootprintIndex([Building(x=a, y=b, w=c - a, l=d - b, h=10.0) for a, b, c, d in cover], (), (), 1000.0)
    config = GenConfig(area=4e6, n_gu=2)
    with pytest.raises(InfeasibleLayoutError, match=f"^could not place user 1 after {RETRY_LIMIT} attempts$"):
        place_users(index, config, default_rng(0))
    assert sample_open_point(index, default_rng(0), what="abs") == (px, py)
    rng = default_rng(0)
    rng.random(2)
    with pytest.raises(InfeasibleLayoutError, match=f"^could not place abs after {RETRY_LIMIT} attempts$"):
        sample_open_point(index, rng, what="abs")
