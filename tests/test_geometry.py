"""Link classification: blockage-line math, tree profile, crossing
detection, precedence, monotonicity, and agreement with the
rasterization oracle."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import default_rng

from urbanlos.citygen import (
    PRESETS,
    Building,
    BuiltUpParams,
    CityLayout,
    GenConfig,
    GroundUser,
    Streetlight,
    Tree,
    generate_city,
)
from urbanlos.errors import DegenerateLinkError, ParameterError
from urbanlos.geometry import (
    LayoutGeometry,
    Link,
    LinkClass,
    blockage_height,
    tree_height_at,
)
from urbanlos.oracle import classify_link_bruteforce, compare_on_links, random_links

URBAN = PRESETS["urban"]


def _fixture_layout(buildings=(), trees=(), lights=()):
    params = BuiltUpParams(alpha=0.3, beta=max(len(buildings), 1) * 1.0, gamma=15.0)
    config = GenConfig(
        n_trees=len(trees), n_lights=len(lights), n_gu=1, seed=0
    )
    return CityLayout(
        params=params,
        config=config,
        buildings=tuple(buildings),
        trees=tuple(trees),
        lights=tuple(lights),
        users=(GroundUser(x=5.0, y=5.0, h=1.5),),
    )


# -- blockage height -----------------------------------------------------------


def test_blockage_height_midpoint():
    assert blockage_height(100.0, 1.5, 50.0, 100.0) == pytest.approx(50.75, abs=1e-12)


def test_blockage_height_endpoints():
    assert blockage_height(100.0, 1.5, 0.0, 80.0) == 100.0
    assert blockage_height(100.0, 1.5, 80.0, 80.0) == pytest.approx(1.5, abs=1e-12)


def test_blockage_height_degenerate():
    with pytest.raises(DegenerateLinkError):
        blockage_height(100.0, 1.5, 0.0, 0.0)
    with pytest.raises(ParameterError):
        blockage_height(100.0, 1.5, -1.0, 10.0)
    with pytest.raises(ParameterError):
        blockage_height(100.0, 1.5, 11.0, 10.0)


@given(
    h_abs=st.floats(2.0, 5000.0),
    h_gu=st.floats(0.0, 2.0),
    r=st.floats(1.0, 2000.0),
    f=st.floats(0.0, 1.0),
)
def test_blockage_height_affine(h_abs, h_gu, r, f):
    lo = blockage_height(h_abs, h_gu, 0.0, r)
    hi = blockage_height(h_abs, h_gu, r, r)
    mid = blockage_height(h_abs, h_gu, f * r, r)
    assert mid == pytest.approx(lo + f * (hi - lo), rel=1e-9, abs=1e-9)


# -- tree profile ---------------------------------------------------------------


def test_tree_profile_values():
    tree = Tree(x=0.0, y=0.0, r=1.0, h=5.0)
    assert tree_height_at(tree, 0.0) == 5.0
    assert tree_height_at(tree, 0.05) == 5.0  # inside the trunk column
    assert tree_height_at(tree, 0.5) == pytest.approx(3.0, abs=1e-12)
    assert tree_height_at(tree, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert tree_height_at(tree, 1.2) == 0.0
    with pytest.raises(ParameterError):
        tree_height_at(tree, -0.1)


@given(rho=st.floats(0.0, 2.0))
def test_tree_profile_monotone_outside_trunk(rho):
    tree = Tree(x=0.0, y=0.0, r=1.3, h=4.0)
    if rho > tree.r_trunk:
        # cone surface decreases with radius
        assert tree_height_at(tree, rho) <= tree_height_at(
            tree, max(rho - 0.1, tree.r_trunk + 1e-9)
        ) + 1e-12


# -- crossings -------------------------------------------------------------------


def test_single_building_crossing():
    b = Building(x=40.0, y=-12.245, w=24.49, l=24.49, h=20.0)
    layout = _fixture_layout(buildings=[b])
    link = Link(abs_xy=(100.0, 0.0), h_abs=120.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    hits = LayoutGeometry(layout).crossings(link)
    assert [h.kind for h in hits] == ["building"]
    assert hits[0].obstacle_height == 20.0


def test_streetlight_near_miss():
    s = Streetlight(x=50.0, y=0.2, h=4.0)
    layout = _fixture_layout(lights=[s])
    link = Link(abs_xy=(100.0, 0.0), h_abs=50.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    assert LayoutGeometry(layout).crossings(link) == []


def test_hits_sorted_by_distance_from_abs():
    layout = _fixture_layout(
        buildings=[Building(x=20.0, y=-5.0, w=10.0, l=10.0, h=30.0)],
        trees=[Tree(x=60.0, y=0.0, r=1.0, h=5.0)],
        lights=[Streetlight(x=80.0, y=0.0, h=4.0)],
    )
    link = Link(abs_xy=(100.0, 0.0), h_abs=40.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    hits = LayoutGeometry(layout).crossings(link)
    assert [h.kind for h in hits] == ["streetlight", "tree", "building"]
    assert all(a.r_i <= b.r_i for a, b in zip(hits, hits[1:]))
    for h in hits:
        assert 0.0 <= h.r_i <= link.ground_distance
        assert link.h_gu <= h.blockage_height <= link.h_abs


# -- classification ---------------------------------------------------------------


def test_overhead_open_street_is_los(urban_layout, urban_geometry):
    user = urban_layout.users[0]
    link = Link(
        abs_xy=(user.x + 0.5, user.y), h_abs=500.0, gu_xy=(user.x, user.y), h_gu=1.5
    )
    assert urban_geometry.classify(link) is LinkClass.LOS


def test_blocking_building_classifies_nlos_b():
    b = Building(x=40.0, y=-10.0, w=20.0, l=20.0, h=20.0)
    layout = _fixture_layout(buildings=[b])
    # blockage height at the crossing sits near 15 m, below the 20 m roof
    link = Link(abs_xy=(100.0, 0.0), h_abs=25.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    hits = LayoutGeometry(layout).crossings(link)
    assert hits[0].blocks and hits[0].blockage_height < 20.0
    assert LayoutGeometry(layout).classify(link) is LinkClass.NLOS_BUILDING


def test_building_takes_precedence_over_tree():
    layout = _fixture_layout(
        buildings=[Building(x=60.0, y=-10.0, w=20.0, l=20.0, h=50.0)],
        trees=[Tree(x=3.0, y=0.0, r=1.0, h=5.0)],
    )
    link = Link(abs_xy=(100.0, 0.0), h_abs=10.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    brute = classify_link_bruteforce(link, layout)
    assert brute.blocked["tree"] and brute.blocked["building"]
    assert LayoutGeometry(layout).classify(link) is LinkClass.NLOS_BUILDING


def test_tree_blocks_when_low():
    layout = _fixture_layout(trees=[Tree(x=4.0, y=0.0, r=1.0, h=5.0)])
    low = Link(abs_xy=(100.0, 0.0), h_abs=3.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    high = Link(abs_xy=(100.0, 0.0), h_abs=300.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    assert LayoutGeometry(layout).classify(low) is LinkClass.NLOS_TREE
    assert LayoutGeometry(layout).classify(high) is LinkClass.LOS


def test_streetlight_blocks_when_grazing():
    layout = _fixture_layout(lights=[Streetlight(x=2.0, y=0.0, h=5.0)])
    low = Link(abs_xy=(100.0, 0.0), h_abs=2.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    assert LayoutGeometry(layout).classify(low) is LinkClass.NLOS_LIGHT


def test_degenerate_link_raises(urban_layout):
    link = Link(abs_xy=(10.0, 10.0), h_abs=100.0, gu_xy=(10.0, 10.0), h_gu=1.5)
    with pytest.raises(DegenerateLinkError):
        LayoutGeometry(urban_layout).classify(link)


# -- structural properties ----------------------------------------------------------


def test_altitude_monotonicity(urban_layout, urban_geometry):
    rng = default_rng(21)
    links = random_links(urban_layout, urban_geometry, rng, 300)
    for link in links:
        was_los = False
        for h in (link.h_gu + 0.5, 5.0, 20.0, 100.0, 1000.0, 20000.0):
            if h < link.h_gu:
                continue
            cls = urban_geometry.classify(
                Link(abs_xy=link.abs_xy, h_abs=h, gu_xy=link.gu_xy, h_gu=link.h_gu)
            )
            if was_los:
                assert cls is LinkClass.LOS
            was_los = cls is LinkClass.LOS


def test_fewer_obstacles_never_hurt_los(urban_layout, urban_geometry):
    rng = default_rng(22)
    links = random_links(urban_layout, urban_geometry, rng, 500)
    for link in links:
        alt_b, alt_t, alt_s = urban_geometry.critical_altitudes(link)
        los_full = link.h_abs > max(alt_b, alt_t, alt_s)
        los_no_extras = link.h_abs > alt_b
        assert los_no_extras or not los_full


def test_critical_altitude_is_threshold(urban_layout, urban_geometry):
    rng = default_rng(23)
    links = random_links(urban_layout, urban_geometry, rng, 200)
    for link in links:
        alt = max(urban_geometry.critical_altitudes(link))
        if not math.isfinite(alt) or alt <= link.h_gu:
            continue
        just_below = Link(link.abs_xy, alt * (1.0 - 1e-9), link.gu_xy, link.h_gu)
        just_above = Link(link.abs_xy, alt * (1.0 + 1e-9), link.gu_xy, link.h_gu)
        assert urban_geometry.classify(just_below) is not LinkClass.LOS
        assert urban_geometry.classify(just_above) is LinkClass.LOS


# -- oracle agreement -----------------------------------------------------------------


@pytest.mark.parametrize("env", ["urban", "dense_urban", "high_rise"])
def test_oracle_agreement(env):
    layout = generate_city(PRESETS[env], GenConfig(seed=13))
    geom = LayoutGeometry(layout)
    links = random_links(layout, geom, default_rng(31), 150)
    assert compare_on_links(layout, links) == []


def test_oracle_hit_sets_match(urban_layout, urban_geometry):
    rng = default_rng(32)
    links = random_links(urban_layout, urban_geometry, rng, 150)
    for link in links:
        analytic = {"building": set(), "tree": set(), "streetlight": set()}
        for hit in urban_geometry.crossings(link):
            analytic[hit.kind].add(hit.index)
        brute = classify_link_bruteforce(link, urban_layout)
        for kind in analytic:
            assert analytic[kind] == set(brute.crossed[kind]), kind
