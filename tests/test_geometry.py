"""Link classification: blockage-line math, tree profile, crossing
detection, precedence, monotonicity, and agreement with the exact
oracle."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from urbanlos import oracle
from urbanlos.citygen import (
    BUILDING,
    DISC,
    GRID_PAD,
    PRESETS,
    STREAM_ABS,
    USER,
    BuiltUpParams,
    CityLayout,
    GenConfig,
    city_rng,
    generate_city,
    sample_open_point,
    table,
)
from urbanlos.errors import DegenerateLinkError, ParameterError
from urbanlos.geometry import (
    FAMILIES,
    LayoutGeometry,
    Link,
    LinkClass,
    ObstructionHit,
    blockage_height,
    classify_hits,
    tree_height_at,
)
from urbanlos.montecarlo import LOS, MASK_CLASS, NLOS_B, NLOS_S, NLOS_T
from urbanlos.oracle import check_links, classify_link_bruteforce, obstacle_families, random_links
from urbanlos.outputs import P_COLUMNS

URBAN = PRESETS["urban"]


def _fixture_layout(buildings=(), trees=(), lights=()):
    """A layout of the given rows: (x, y, w, l, h) per building and
    (x, y, r, h) per tree and light, with one user at (5, 5)."""
    params = BuiltUpParams(alpha=0.3, beta=max(len(buildings), 1) * 1.0, gamma=15.0)
    config = GenConfig(
        n_trees=len(trees), n_lights=len(lights), n_gu=1, seed=0
    )
    return CityLayout(
        params=params,
        config=config,
        buildings=table(buildings, BUILDING),
        trees=table(trees, DISC),
        lights=table(lights, DISC),
        users=table([(5.0, 5.0, 1.5)], USER),
    )


# -- blockage height -----------------------------------------------------------


def test_blockage_height_midpoint():
    assert blockage_height(100.0, 1.5, 50.0, 100.0) == pytest.approx(50.75, abs=1e-12)


def test_blockage_height_endpoints():
    assert blockage_height(100.0, 1.5, 0.0, 80.0) == 100.0
    assert blockage_height(100.0, 1.5, 80.0, 80.0) == pytest.approx(1.5, abs=1e-12)


def test_link_with_abs_below_its_user_raises():
    with pytest.raises(ParameterError, match=r"h_abs \(1.0\) must be >= h_gu \(2.0\)"):
        Link((0.0, 0.0), 1.0, (5.0, 0.0), 2.0)


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
    tree = table([(0.0, 0.0, 1.0, 5.0)], DISC)[0]
    assert tree_height_at(tree, 0.0) == 5.0
    assert tree_height_at(tree, 0.05) == 5.0  # inside the trunk column
    assert tree_height_at(tree, 0.5) == pytest.approx(3.0, abs=1e-12)
    assert tree_height_at(tree, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert tree_height_at(tree, 1.2) == 0.0
    with pytest.raises(ParameterError):
        tree_height_at(tree, -0.1)


@given(rho=st.floats(0.0, 2.0))
def test_tree_profile_monotone_outside_trunk(rho):
    tree = table([(0.0, 0.0, 1.3, 4.0)], DISC)[0]
    r_trunk = 0.1 * tree.r
    if rho > r_trunk:
        # cone surface decreases with radius
        assert tree_height_at(tree, rho) <= tree_height_at(
            tree, max(rho - 0.1, r_trunk + 1e-9)
        ) + 1e-12


# user at the origin, ABS at (g, 0), one tree between them and clear of both;
# offset is the tree axis's distance from the link as a fraction of its radius
@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(1.0, 3.0),
    h=st.floats(4.0, 12.0),
    g=st.floats(10.0, 300.0),
    along=st.floats(0.0, 1.0),
    offset=st.one_of(  # through the trunk cap, the off-axis cone, near the rim
        st.floats(0.0, 0.09), st.floats(0.11, 0.9), st.floats(0.9, 0.999)
    ),
    h_gu=st.sampled_from([0.0, 1.5, 3.0, 4.5]),
)
# qa of the stationary-point quadratic is zero up to rounding, which made the
# naive root formula cancel
@example(r=2.0, h=4.0, g=11.0, along=0.0, offset=0.5, h_gu=0.0)
def test_tree_critical_altitude_is_chord_maximum(r, h, g, along, offset, h_gu):
    assume(g > 2.0 * r + 1.0)
    tx, ty = r + 0.5 + along * (g - 2.0 * r - 1.0), offset * r
    tree = (tx, ty, r, h)
    link = Link(abs_xy=(g, 0.0), h_abs=h_gu + 100.0, gu_xy=(0.0, 0.0), h_gu=h_gu)
    _, alt_tree, _ = LayoutGeometry(_fixture_layout(trees=[tree])).critical_altitudes(link)

    # a fine grid over the chord plus the profile's breakpoints (trunk-cap
    # ends, the axis foot), pulled just inside so each keeps its height
    def half_chord(radius):
        return math.sqrt(radius * radius - ty * ty) * (1.0 - 1e-9)

    xs = list(tx + np.linspace(-1.0, 1.0, 20001) * half_chord(r)) + [tx]
    if ty < 0.1 * r:
        xs += [tx - half_chord(0.1 * r), tx + half_chord(0.1 * r)]
    required = []
    for x in xs:
        u = (g - x) / g  # fraction along the link from the ABS
        profile = tree_height_at(tree, math.hypot(x - tx, ty))
        required.append((profile - h_gu * u) / (1.0 - u))
    top = max(required)
    scale = max(abs(top), 1.0)
    # near the rim the chord ends come from a cancelling discriminant, so the
    # bound holds to rounding, not to the last bit
    assert alt_tree >= top - 1e-9 * scale
    assert abs(alt_tree - top) <= 1e-6 * scale


def _tree_critical_loop(ax, ay, dx, dy, g2, tree_x, tree_y, r_t, h_t, h_gu):
    """One (link, tree) pair in scalar arithmetic, the per-pair loop the
    array tree pass replaced: (u_crit, profile, alt), or None if the link
    misses the tree. Kept as the pass's reference."""
    ex, ey = ax - tree_x, ay - tree_y
    b = 2.0 * (ex * dx + ey * dy)
    c = ex * ex + ey * ey - r_t * r_t
    disc = b * b - 4.0 * g2 * c
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    lo = max((-b - sq) / (2.0 * g2), 0.0)
    hi = min((-b + sq) / (2.0 * g2), 1.0)
    if lo > hi:
        return None

    u0 = -b / (2.0 * g2)
    d2 = max(ex * ex + ey * ey - g2 * u0 * u0, 0.0)
    r_trunk = 0.1 * r_t
    kappa = 0.8 * h_t / r_t

    def cone_height(u):
        rho = math.sqrt(max(g2 * (u - u0) ** 2 + d2, 0.0))
        if rho <= r_trunk:
            return h_t
        return h_t * (1.0 - 0.8 * min(rho, r_t) / r_t)

    candidates = []
    cap = None
    if d2 <= r_trunk * r_trunk:
        half = math.sqrt((r_trunk * r_trunk - d2) / g2)
        t1, t2 = max(u0 - half, lo), min(u0 + half, hi)
        if t1 <= t2:
            cap = (t1, t2)
            candidates += [(t1, h_t), (t2, h_t)]

    intervals = [(lo, hi)] if cap is None else [(lo, cap[0]), (cap[1], hi)]
    c0 = (h_t - h_gu) / kappa
    m = g2 * (1.0 - u0)
    qa = m * m - c0 * c0 * g2
    qb = 2.0 * m * d2
    qc = d2 * d2 - c0 * c0 * d2
    roots = []
    if abs(qa) > 0.0:
        qd = qb * qb - 4.0 * qa * qc
        if qd >= 0.0:
            sqd = math.sqrt(qd)
            roots = [(-qb - sqd) / (2.0 * qa), (-qb + sqd) / (2.0 * qa)]
            if qb * qb > 1e8 * abs(4.0 * qa * qc):  # the root where -qb +- sqd cancels
                if qb < 0.0:
                    roots[0] = 2.0 * qc / (-qb + sqd)
                elif qb > 0.0:
                    roots[1] = 2.0 * qc / (-qb - sqd)
    elif abs(qb) > 0.0:
        roots = [-qc / qb]

    for ia, ib in intervals:
        if ia > ib:
            continue
        candidates += [(ia, cone_height(ia)), (ib, cone_height(ib))]
        candidates += [(u0 + w, cone_height(u0 + w)) for w in roots if ia < u0 + w < ib]
        if ia < u0 < ib:
            candidates.append((u0, cone_height(u0)))

    best = None
    for u, prof in candidates:
        if u >= 1.0 - 1e-12:
            alt = math.inf if prof > h_gu else -math.inf
        else:
            alt = (prof - h_gu * u) / (1.0 - u)
        if best is None or alt > best[2]:
            best = (u, prof, alt)
    return best


@pytest.mark.parametrize("h_gu", [0.0, 1.5, 4.5])
@pytest.mark.parametrize("env", ["urban", "dense_urban", "high_rise"])
def test_tree_pass_matches_loop_reference(env, h_gu):
    layout = generate_city(PRESETS[env], GenConfig(n_gu=300, seed=5, h_gu=h_gu))
    geom = LayoutGeometry(layout)
    ax, ay = sample_open_point(geom, default_rng(6))
    gu = np.column_stack((layout.users.x, layout.users.y))
    _, trees, _ = geom._critical_points((ax, ay), gu, h_gu)
    expected = []
    for row, (x, y) in enumerate(gu.tolist()):
        dx, dy = x - ax, y - ay
        for col, (tx, ty, r_t, h_t) in enumerate(layout.trees.tolist()):
            found = _tree_critical_loop(ax, ay, dx, dy, dx * dx + dy * dy, tx, ty, r_t, h_t, h_gu)
            if found is not None:
                expected.append((row, col, *found))
    assert expected  # some links cross trees
    assert list(zip(*(a.tolist() for a in trees))) == expected


# -- crossings -------------------------------------------------------------------


def test_single_building_crossing():
    layout = _fixture_layout(buildings=[(40.0, -12.245, 24.49, 24.49, 20.0)])
    link = Link(abs_xy=(100.0, 0.0), h_abs=120.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    hits = LayoutGeometry(layout).crossings(link)
    assert [h.kind for h in hits] == ["building"]
    assert hits[0].obstacle_height == 20.0


def test_streetlight_near_miss():
    layout = _fixture_layout(lights=[(50.0, 0.2, 0.1, 4.0)])
    link = Link(abs_xy=(100.0, 0.0), h_abs=50.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    assert LayoutGeometry(layout).crossings(link) == []


def test_hits_sorted_by_distance_from_abs():
    layout = _fixture_layout(
        buildings=[(20.0, -5.0, 10.0, 10.0, 30.0)],
        trees=[(60.0, 0.0, 1.0, 5.0)],
        lights=[(80.0, 0.0, 0.1, 4.0)],
    )
    link = Link(abs_xy=(100.0, 0.0), h_abs=40.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    hits = LayoutGeometry(layout).crossings(link)
    assert [h.kind for h in hits] == ["streetlight", "tree", "building"]
    assert all(a.r_i <= b.r_i for a, b in zip(hits, hits[1:]))
    for h in hits:
        assert 0.0 <= h.r_i <= link.ground_distance
        assert link.h_gu <= h.blockage_height <= link.h_abs


def _assert_crossings_of_per_link(geom, links):
    """crossings_of over all links gives each link's own crossings, in order."""
    batch = geom.crossings_of(links)
    assert batch == [geom.crossings(link) for link in links]
    return batch


@pytest.mark.parametrize("env", ["urban", "dense_urban", "high_rise"])
def test_crossings_of_matches_crossings(env):
    geom = LayoutGeometry(generate_city(PRESETS[env], GenConfig(seed=17)))
    batch = _assert_crossings_of_per_link(geom, random_links(geom, default_rng(5), 200))
    kinds = {hit.kind for hits in batch for hit in hits}
    assert kinds >= {"building", "tree"} and any(hit.blocks for hits in batch for hit in hits)


def test_crossings_of_without_trees_or_lights():
    geom = LayoutGeometry(generate_city(URBAN, GenConfig(n_trees=0, n_lights=0, seed=4)))
    batch = _assert_crossings_of_per_link(geom, random_links(geom, default_rng(6), 100))
    assert {hit.kind for hits in batch for hit in hits} == {"building"}


def test_crossings_of_axis_parallel_links_from_distinct_abs(urban_layout, urban_geometry):
    """Links with dx == 0 or dy == 0, each from its own ABS, among oblique
    ones: the cell walk's vertical branch reads each link's own ABS."""
    links = []
    for k, (x, y, h) in enumerate(urban_layout.users.tolist()[:40]):
        reach = 30.0 + 7.0 * k
        links += [
            Link(abs_xy=(x, y + reach), h_abs=20.0 + k, gu_xy=(x, y), h_gu=h),
            Link(abs_xy=(x - reach, y), h_abs=20.0 + k, gu_xy=(x, y), h_gu=h),
            Link(abs_xy=(x + reach, y - reach / 3.0), h_abs=20.0 + k, gu_xy=(x, y), h_gu=h),
        ]
    batch = _assert_crossings_of_per_link(urban_geometry, links)
    assert sum(map(len, batch[0::3])) > 0 and sum(map(len, batch[1::3])) > 0


# the city of tests/test_golden.py's simulate run with trees and lights (city 0)
CROWDED_GOLDEN = GenConfig(area=250_000.0, n_trees=400, n_lights=400, n_gu=1000, seed=1)


def _assert_shared_abs_is_per_link_abs(geom, abs_xy, gu, h_gu=1.5):
    """_critical_points from one shared ABS (the bearing broad phase) equals
    it from the same ABS given per link (the grid walk), byte for byte, and
    fan_pairs gives each of its pairs once, row-major. Returns the pairs."""
    ax, ay = abs_xy
    shared = geom._critical_points((ax, ay), gu, h_gu)
    per_link = geom._critical_points((np.full(len(gu), ax), np.full(len(gu), ay)), gu, h_gu)
    for a, b in zip(shared, per_link):
        assert [(x.dtype, x.tobytes()) for x in a] == [(y.dtype, y.tobytes()) for y in b]
    row, item = geom.fan_pairs(ax, ay, gu[:, 0], gu[:, 1])
    assert np.all(np.diff(row * (geom.n_items + 1) + item) > 0)
    return shared


def test_shared_and_per_link_abs_give_the_same_pairs():
    """1,500 users of each preset, and the crowded golden city's 1,000,
    from two ABS positions each; every family is crossed."""
    cities = [(PRESETS[env], GenConfig(n_gu=1500, seed=5)) for env in ("urban", "dense_urban", "high_rise")]
    for params, gen in cities + [(URBAN, CROWDED_GOLDEN)]:
        layout = generate_city(params, gen)
        geom = LayoutGeometry(layout)
        gu = np.column_stack((layout.users.x, layout.users.y))
        for seed in (8, 9):
            shared = _assert_shared_abs_is_per_link_abs(geom, sample_open_point(geom, default_rng(seed)), gu)
            assert all(pairs[0].size > 0 for pairs in shared)


@pytest.mark.parametrize("left_out", [None, "buildings", "trees", "lights"])
def test_shared_abs_pairs_at_bearing_pi_on_walls_and_corners(left_out):
    """The bearing intervals where they are at risk: users due west of the
    ABS, at bearing exactly pi, and items whose interval straddles +-pi;
    full-circle items, from an ABS within GRID_PAD of a wall, on a building
    corner, inside a light's widened disc and on a tree's axis; one user;
    and layouts with one family left out."""
    rows = {
        "buildings": [(300.0, 490.0, 20.0, 20.0, 30.0), (500.0, 520.0, 40.0, 30.0, 25.0), (560.0, 440.0, 30.0, 30.0, 40.0)],
        "trees": [(420.0, 500.0, 1.5, 4.0), (450.0, 503.0, 1.0, 3.0), (700.0, 600.0, 1.2, 5.0)],
        "lights": [(200.0, 500.0, 0.1, 3.0), (600.0, 480.0, 0.1, 4.0), (505.0, 500.0, 0.1, 2.5)],
    }
    geom = LayoutGeometry(_fixture_layout(**{k: [] if k == left_out else v for k, v in rows.items()}))
    rng = default_rng(12)
    starts = [
        (500.0, 500.0),  # open street, with a building, a tree and a light due west
        (500.0 - GRID_PAD / 2.0, 530.0),  # within GRID_PAD of a wall
        (500.0 - 2.0 * GRID_PAD, 530.0),  # just beyond the widened wall
        (560.0, 440.0),  # on a building corner
        (505.0 + 0.1 + GRID_PAD / 2.0, 500.0),  # in a light's widened disc, beyond the light
        (450.0, 503.0),  # on a tree's axis
    ]
    crossed_west = 0
    for ax, ay in starts:
        west = [(ax - d, ay) for d in (40.0, 90.0, 220.0, 400.0)]
        beside = [(ax - 300.0, ay + s) for s in (1e-9, -1e-9, 8.0, -8.0)]
        # links through each building corner and tangent to each disc, which the pad keeps
        corners = [(x + dx, y + dy) for x, y, w, l, _ in rows["buildings"] for dx in (0.0, w) for dy in (0.0, l)]
        through = [(2.0 * x - ax, 2.0 * y - ay) for x, y in corners if (x, y) != (ax, ay)]
        for x, y, r, _ in rows["trees"] + rows["lights"]:
            rho, mid = math.hypot(x - ax, y - ay), math.atan2(y - ay, x - ax)
            for side in (-1.0, 1.0) if rho > r else ():
                bearing = mid + side * math.asin(r / rho)
                through.append((ax + 2.0 * rho * math.cos(bearing), ay + 2.0 * rho * math.sin(bearing)))
        gu = np.concatenate([west, beside, through, rng.uniform(0.0, 1000.0, (300, 2))])
        assert np.arctan2(gu[:4, 1] - ay, gu[:4, 0] - ax).tolist() == [np.pi] * 4
        shared = _assert_shared_abs_is_per_link_abs(geom, (ax, ay), gu)
        crossed_west += sum(int(np.sum(pairs[0] < 8)) for pairs in shared)
        for one in gu[:8]:
            _assert_shared_abs_is_per_link_abs(geom, (ax, ay), one[None, :])
    assert crossed_west > 0


@pytest.mark.parametrize("env, gen", [("urban", CROWDED_GOLDEN), ("dense_urban", GenConfig(n_gu=1500, seed=1))])
def test_bearing_broad_phase_hands_out_few_candidates(env, gen):
    """On the crowded golden city and on a heavy-shape city (1,500 users),
    the bearing broad phase hands out at most 30 % of the grid walk's
    candidate pairs."""
    layout = generate_city(PRESETS[env], gen)
    geom = LayoutGeometry(layout)
    ax, ay = sample_open_point(geom, city_rng(gen.seed, 0, STREAM_ABS))
    x, y, n = layout.users.x, layout.users.y, gen.n_gu
    fan = geom.fan_pairs(ax, ay, x, y)[0].size
    grid = geom.segment_pairs(np.full(n, ax), np.full(n, ay), x, y)[0].size
    assert 0 < fan <= 0.3 * grid


def test_crossings_of_needs_one_h_gu(urban_geometry):
    assert urban_geometry.crossings_of([]) == []
    links = [
        Link(abs_xy=(100.0, 0.0), h_abs=50.0, gu_xy=(0.0, 0.0), h_gu=1.5),
        Link(abs_xy=(100.0, 0.0), h_abs=50.0, gu_xy=(0.0, 0.0), h_gu=2.0),
    ]
    with pytest.raises(ParameterError, match="h_gu"):
        urban_geometry.crossings_of(links)


# -- classification ---------------------------------------------------------------


def test_overhead_open_street_is_los(urban_layout, urban_geometry):
    user = urban_layout.users[0]
    link = Link(
        abs_xy=(user.x + 0.5, user.y), h_abs=500.0, gu_xy=(user.x, user.y), h_gu=1.5
    )
    assert urban_geometry.classify(link) is LinkClass.LOS


def test_blocking_building_classifies_nlos_b():
    layout = _fixture_layout(buildings=[(40.0, -10.0, 20.0, 20.0, 20.0)])
    # blockage height at the crossing sits near 15 m, below the 20 m roof
    link = Link(abs_xy=(100.0, 0.0), h_abs=25.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    hits = LayoutGeometry(layout).crossings(link)
    assert hits[0].blocks and hits[0].blockage_height < 20.0
    assert LayoutGeometry(layout).classify(link) is LinkClass.NLOS_BUILDING


def test_building_takes_precedence_over_tree():
    layout = _fixture_layout(
        buildings=[(60.0, -10.0, 20.0, 20.0, 50.0)],
        trees=[(3.0, 0.0, 1.0, 5.0)],
    )
    link = Link(abs_xy=(100.0, 0.0), h_abs=10.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    brute = classify_link_bruteforce(link, obstacle_families(layout))
    assert brute.blocked["tree"] and brute.blocked["building"]
    assert LayoutGeometry(layout).classify(link) is LinkClass.NLOS_BUILDING


def test_tree_blocks_when_low():
    layout = _fixture_layout(trees=[(4.0, 0.0, 1.0, 5.0)])
    low = Link(abs_xy=(100.0, 0.0), h_abs=3.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    high = Link(abs_xy=(100.0, 0.0), h_abs=300.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    assert LayoutGeometry(layout).classify(low) is LinkClass.NLOS_TREE
    assert LayoutGeometry(layout).classify(high) is LinkClass.LOS


def test_streetlight_blocks_when_grazing():
    layout = _fixture_layout(lights=[(2.0, 0.0, 0.1, 5.0)])
    low = Link(abs_xy=(100.0, 0.0), h_abs=2.0, gu_xy=(0.0, 0.0), h_gu=1.5)
    assert LayoutGeometry(layout).classify(low) is LinkClass.NLOS_LIGHT


def test_degenerate_link_raises(urban_layout):
    link = Link(abs_xy=(10.0, 10.0), h_abs=100.0, gu_xy=(10.0, 10.0), h_gu=1.5)
    with pytest.raises(DegenerateLinkError):
        LayoutGeometry(urban_layout).classify(link)
    with pytest.raises(DegenerateLinkError):
        classify_link_bruteforce(link, obstacle_families(urban_layout))


# -- structural properties ----------------------------------------------------------


def test_altitude_monotonicity(urban_layout, urban_geometry):
    rng = default_rng(21)
    links = random_links(urban_geometry, rng, 300)
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
    links = random_links(urban_geometry, rng, 500)
    for link in links:
        alt_b, alt_t, alt_s = urban_geometry.critical_altitudes(link)
        los_full = link.h_abs > max(alt_b, alt_t, alt_s)
        los_no_extras = link.h_abs > alt_b
        assert los_no_extras or not los_full


def test_critical_altitude_is_threshold(urban_layout, urban_geometry):
    rng = default_rng(23)
    links = random_links(urban_geometry, rng, 200)
    for link in links:
        alt = max(urban_geometry.critical_altitudes(link))
        if not math.isfinite(alt) or alt <= link.h_gu:
            continue
        just_below = Link(link.abs_xy, alt * (1.0 - 1e-9), link.gu_xy, link.h_gu)
        just_above = Link(link.abs_xy, alt * (1.0 + 1e-9), link.gu_xy, link.h_gu)
        assert urban_geometry.classify(just_below) is not LinkClass.LOS
        assert urban_geometry.classify(just_above) is LinkClass.LOS


# -- oracle agreement -----------------------------------------------------------------


# (env, seed, link index) of oracle-check --env <env> --seed <seed> links
# that dip under a roof for less than 1 cm, which a 1 cm raster missed
SUB_STEP_LINKS = [
    ("high_rise", 101, 146),
    ("high_rise", 72012, 123),
    ("high_rise", 3000, 178),
    ("high_rise", 7, 796),
    ("dense_urban", 3000, 88),
    ("high_rise", 37, 132),
    ("dense_urban", 22, 13),
    ("urban", 16, 24),
    ("urban", 24, 41),
    ("high_rise", 44, 253),
    ("urban", 44, 92),
    ("urban", 50, 177),
]


def _sub_step_link(env: str, seed: int, index: int):
    layout = generate_city(PRESETS[env], GenConfig(seed=seed))
    geom = LayoutGeometry(layout)
    return layout, geom, random_links(geom, default_rng(seed), index + 1)[index]


def _assert_matches_kernel(geom, links):
    """The oracle crosses and blocks exactly the obstacles of each family
    that the kernel's array pass, crossings_of, reports, and gives the
    kernel's class; returns the oracle's results."""
    results = []
    for hits, fast, brute in check_links(geom, links):
        assert brute.link_class is fast
        for kind in brute.crossed:
            assert brute.crossed[kind] == {hit.index for hit in hits if hit.kind == kind}, kind
            assert brute.blocked[kind] == {hit.index for hit in hits if hit.kind == kind and hit.blocks}, kind
        results.append(brute)
    return results


@pytest.mark.parametrize("env, seed, index", SUB_STEP_LINKS)
def test_oracle_sees_sub_step_dip_at_default_step(env, seed, index):
    """The oracle, classify and crossings_of all read nlos_b, and the
    oracle blocks under the buildings the kernel does: on a link that cuts
    a footprint corner between two 1 cm steps too."""
    _, geom, link = _sub_step_link(env, seed, index)
    [(hits, fast, brute)] = check_links(geom, [link])
    assert brute.link_class is geom.classify(link) is fast is LinkClass.NLOS_BUILDING
    blocking = {hit.index for hit in hits if hit.kind == "building" and hit.blocks}
    assert blocking == brute.blocked["building"] <= brute.crossed["building"]


@pytest.mark.parametrize("env, seed, index", SUB_STEP_LINKS)
def test_oracle_sees_sub_step_dip_at_fine_step(monkeypatch, env, seed, index):
    """On a grid 2**1074 times finer than the coarsest one the link's values
    share, the oracle finds what it finds on that one: every predicate is
    homogeneous in scale."""
    layout, _, link = _sub_step_link(env, seed, index)
    families = obstacle_families(layout)
    coarse = classify_link_bruteforce(link, families)
    integers = oracle._integers
    monkeypatch.setattr(oracle, "_integers", lambda values: [n << 1074 for n in integers(values)])
    assert classify_link_bruteforce(link, families) == coarse


def test_one_class_order_everywhere():
    """The CSV probability columns, the sweep's class codes, the analytic
    family precedence and the oracle's family list name the classes in
    one order, and the sweep's mask-to-class map is that precedence for
    every subset of blocking families (bit i for the i-th family)."""
    assert P_COLUMNS == tuple(f"p_{c.value}" for c in LinkClass)
    assert (LOS, NLOS_B, NLOS_T, NLOS_S) == (0, 1, 2, 3)
    assert [c for _, c in FAMILIES] == list(LinkClass)[1:]
    families, _ = obstacle_families(_fixture_layout())
    assert tuple((kind, c) for kind, c, *_ in families) == FAMILIES
    assert len(MASK_CLASS) == 2 ** len(FAMILIES)
    for mask, code in enumerate(MASK_CLASS):
        # one hit per family, blocking where its bit is set
        hits = [ObstructionHit(kind, 0, 1.0, 5.0, 4.0, bool(mask >> bit & 1)) for bit, (kind, _) in enumerate(FAMILIES)]
        assert list(LinkClass)[code] is classify_hits(hits), mask


# (layout, link, the oracle's crossed and blocked obstacles per family)
EXACT_CASES = {
    "abs-end": (
        _fixture_layout(buildings=[(-2.0, -2.0, 4.0, 4.0, 20.0)]),
        Link((0.0, 0.0), 10.0, (30.3, 7.1), 1.5), {"building": {0}}, {"building": {0}},
    ),
    # a 3 mm tree around the GU end
    "gu-end-tail": (
        _fixture_layout(trees=[(10.005, 0.0, 0.003, 5.0)]),
        Link((0.0, 0.0), 10.0, (10.005, 0.0), 1.5), {"tree": {0}}, {"tree": {0}},
    ),
    # a box that starts 1 mm before the GU end
    "gu-end-tail-box": (
        _fixture_layout(buildings=[(10.004, -1.0, 0.5, 2.0, 5.0)]),
        Link((0.0, 0.0), 10.0, (10.005, 0.0), 1.5), {"building": {0}}, {"building": {0}},
    ),
    # centres past the GU and ABS ends, the footprints reaching over them
    "past-ends": (
        _fixture_layout(
            buildings=[(20.9, -3.0, 6.0, 6.0, 30.0)], trees=[(-0.6, -0.2, 1.0, 5.0)], lights=[(21.05, 0.0, 0.1, 5.0)]
        ),
        Link((0.0, 0.0), 6.0, (21.0, 0.0), 1.5),
        {"building": {0}, "tree": {0}, "streetlight": {0}},
        {"building": {0}, "streetlight": {0}},
    ),
    # a covering disc that reaches the link while the footprint does not
    "disc-only": (
        _fixture_layout(buildings=[(10.5, 0.5, 4.0, 4.0, 30.0)]), Link((0.0, 0.0), 6.0, (11.0, 0.0), 1.5), {}, {}
    ),
    # a 4 mm link
    "shorter-than-a-step": (
        _fixture_layout(trees=[(0.002, 0.001, 0.5, 5.0)]),
        Link((0.0, 0.0), 3.0, (0.004, 0.0), 1.5), {"tree": {0}}, {"tree": {0}},
    ),
    # a 3 mm tree centred on the GU end
    "exact-multiple": (
        _fixture_layout(trees=[(6.0, 8.0, 0.003, 5.0)]),
        Link((0.0, 0.0), 3.0, (6.0, 8.0), 1.5), {"tree": {0}}, {"tree": {0}},
    ),
    "coarse-step-diagonal": (
        _fixture_layout(
            buildings=[(40.0, 25.0, 12.0, 8.0, 30.0)], trees=[(20.0, 13.5, 1.5, 5.0)], lights=[(70.3, 42.3, 0.6, 5.0)]
        ),
        Link((100.0, 60.0), 12.0, (1.0, 0.5), 1.5),
        {"building": {0}, "tree": {0}, "streetlight": {0}},
        {"building": {0}},
    ),
    "empty-families": (_fixture_layout(), Link((0.0, 0.0), 10.0, (30.0, 40.0), 1.5), {}, {}),
    # ex == 0 with y rising, then ey == 0 with x falling: one coordinate constant
    "axis-parallel-x": (
        _fixture_layout(buildings=[(2.0, 10.0, 2.0, 5.0, 8.0), (3.5, 20.0, 1.0, 1.0, 30.0)]),
        Link((3.0, 0.0), 10.0, (3.0, 30.0), 1.5), {"building": {0}}, {"building": {0}},
    ),
    "axis-parallel-y": (
        _fixture_layout(buildings=[(10.0, 3.0, 5.0, 3.0, 4.0), (20.0, 4.5, 1.0, 1.0, 30.0)]),
        Link((30.0, 4.0), 10.0, (0.0, 4.0), 1.5), {"building": {0}}, {},
    ),
    # the link runs along a box's bottom edge (y = 0) and another's top edge (y = -2 + 2)
    "on-box-edges": (
        _fixture_layout(buildings=[(5.0, 0.0, 4.0, 3.0, 20.0), (12.0, -2.0, 3.0, 2.0, 1.0)]),
        Link((0.0, 0.0), 10.0, (20.0, 0.0), 1.5), {"building": {0, 1}}, {"building": {0}},
    ),
    # the run is u in [0.45, 0.5], both ends on the box's edges
    "step-on-edges": (
        _fixture_layout(buildings=[(4.5, -1.0, 0.5, 2.0, 20.0)]),
        Link((0.0, 0.0), 10.0, (10.0, 0.0), 1.5), {"building": {0}}, {"building": {0}},
    ),
    # a box that starts one ulp above 0.7
    "rounded-step-on-edge": (
        _fixture_layout(buildings=[(0.7000000000000001, -1.0, 0.05, 2.0, 20.0)]),
        Link((0.0, 0.0), 10.0, (3.0, 0.0), 1.5), {"building": {0}}, {"building": {0}},
    ),
    # the link meets box 0 at its corner (1.5, 2.0) alone, at u = 0.5, and
    # passes 2**-52 m above box 1's corner (1.5, 2 - 2**-52)
    "corner-graze": (
        _fixture_layout(buildings=[(1.5, 1.0, 1.0, 1.0, 20.0), (1.5, 0.5, 1.0, 1.4999999999999998, 20.0)]),
        Link((0.0, 0.0), 10.0, (3.0, 4.0), 2.0), {"building": {0}}, {"building": {0}},
    ),
    # the run's end is u = 0.5, where the line is exactly 6 m: a 6 m roof
    # blocks, one an ulp lower does not
    "roof-at-line-height": (
        _fixture_layout(buildings=[(1.0, 0.0, 0.5, 3.0, 6.0), (1.0, 0.0, 0.5, 3.0, math.nextafter(6.0, 0.0))]),
        Link((0.0, 0.0), 10.0, (3.0, 4.0), 2.0), {"building": {0, 1}}, {"building": {0}},
    ),
    # one box covers the whole link
    "clipped-window": (
        _fixture_layout(buildings=[(-5.0, -5.0, 20.0, 20.0, 20.0)]),
        Link((0.0, 0.0), 30.0, (7.0, 3.2), 1.5), {"building": {0}}, {"building": {0}},
    ),
    # the link touches light 0's disc at (5, 0), where the line is 2.25 m,
    # and passes an ulp outside light 1's
    "disc-tangent": (
        _fixture_layout(lights=[(5.0, 1.0, 1.0, 5.0), (5.0, 1.0, math.nextafter(1.0, 0.0), 5.0)]),
        Link((0.0, 0.0), 3.0, (10.0, 0.0), 1.5), {"streetlight": {0}}, {"streetlight": {0}},
    ),
    # the line passes 0.1 m from both axes at u = 0.5 at the trees' full 4 m:
    # on tree 0's trunk rim, an ulp outside tree 1's, and above both crowns
    "trunk-cap-boundary": (
        _fixture_layout(trees=[(5.0, 0.1, 1.0, 4.0), (5.0, math.nextafter(0.1, 1.0), 1.0, 4.0)]),
        Link((0.0, 0.0), 6.5, (10.0, 0.0), 1.5), {"tree": {0, 1}}, {"tree": {0}},
    ),
    # the line crosses the axis at 4.5 m, above the 4 m trunk, and falls
    # 4 m per m: under tree 0's crown at the rim (0.5 m against 0.8 m) but
    # not under tree 1's, which drops to 0.4 m
    "across-tree-axis": (
        _fixture_layout(trees=[(5.0, 0.0, 1.0, 4.0), (5.0, 0.0, 1.0, 2.0)]),
        Link((0.0, 0.0), 24.5, (6.0, 0.0), 0.5), {"tree": {0, 1}}, {"tree": {0}},
    ),
    # h_abs == h_gu: the line is 5 m all along, at the roof of box 0 and of
    # the light, an ulp over box 1, and over the tree it passes 0.5 m off axis
    "flat-link": (
        _fixture_layout(
            buildings=[(2.0, -1.0, 1.0, 2.0, 5.0), (4.0, -1.0, 1.0, 2.0, math.nextafter(5.0, 0.0))],
            trees=[(9.0, 0.5, 1.0, 5.0)],
            lights=[(7.0, 0.0, 0.1, 5.0)],
        ),
        Link((0.0, 0.0), 5.0, (10.0, 0.0), 5.0),
        {"building": {0, 1}, "tree": {0}, "streetlight": {0}},
        {"building": {0}, "streetlight": {0}},
    ),
    # the link crosses the light's disc for u in [0.4, 0.6] and the line
    # reaches 5 m at u = 0.6, on the rim: a 5 m light blocks, while under one
    # an ulp lower the line falls below the top only past the disc
    "light-top-on-rim": (
        _fixture_layout(lights=[(5.0, 0.0, 1.0, 5.0)]),
        Link((0.0, 0.0), 11.0, (10.0, 0.0), 1.0), {"streetlight": {0}}, {"streetlight": {0}},
    ),
    "light-top-past-rim": (
        _fixture_layout(lights=[(5.0, 0.0, 1.0, math.nextafter(5.0, 0.0))]),
        Link((0.0, 0.0), 11.0, (10.0, 0.0), 1.0), {"streetlight": {0}}, {},
    ),
    # "corner-graze" from 1e-30 m off the ABS, on a grid finer than 2**-128: the line
    # now passes just below the corner (1.5, 2.0), through box 0 and past box 1
    "off-grid-inside": (
        _fixture_layout(buildings=[(1.5, 1.0, 1.0, 1.0, 20.0), (1.5, 0.5, 1.0, 1.4999999999999998, 20.0)]),
        Link((1e-30, 0.0), 10.0, (3.0, 4.0), 2.0), {"building": {0}}, {"building": {0}},
    ),
    # and from 1e-30 m the other way, just above the corner: past box 0
    "off-grid-outside": (
        _fixture_layout(buildings=[(1.5, 1.0, 1.0, 1.0, 20.0)]), Link((-1e-30, 0.0), 10.0, (3.0, 4.0), 2.0), {}, {}
    ),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_oracle_window_matches_full_walk(case):
    """The oracle, which tests only the obstacles whose covering disc
    reaches the link, finds the case's exact sets, as a walk that tests
    every obstacle does."""
    layout, link, crossed, blocked = EXACT_CASES[case]
    families = obstacle_families(layout)
    rows, (cx, cy, reach) = families
    every = (rows, np.array([cx, cy, np.full(len(reach), np.inf)]))
    for fams in (families, every):
        brute = classify_link_bruteforce(link, fams)
        assert brute.crossed == {kind: crossed.get(kind, set()) for kind, _ in FAMILIES}
        assert brute.blocked == {kind: blocked.get(kind, set()) for kind, _ in FAMILIES}


@pytest.mark.parametrize("env", ["urban", "dense_urban", "high_rise"])
def test_building_runs_match_array_scan(env):
    """The exact building runs, and the disc tests, cross and block what the
    kernel's array pass does, on random links."""
    geom = LayoutGeometry(generate_city(PRESETS[env], GenConfig(seed=17)))
    _assert_matches_kernel(geom, random_links(geom, default_rng(41), 200))


@pytest.mark.parametrize("env, seed, index", SUB_STEP_LINKS)
def test_building_runs_match_array_scan_on_sub_step_links(env, seed, index):
    _, geom, link = _sub_step_link(env, seed, index)
    _assert_matches_kernel(geom, [link])


def _links_over(discs, rng):
    """One short link over each disc (x, y, r, h): it passes within 0.2 r of
    the axis at a height in [0.85 h, 1.05 h], falling 0.1 to 1 m per m, from
    1 to 10 m before that point down to a GU at 1.5 m."""
    x, y, r, h = np.array(discs).T
    n = len(x)
    phi, off = rng.uniform(0.0, 2 * np.pi, n), rng.uniform(-0.2, 0.2, n) * r
    level, slope, before = rng.uniform(0.85, 1.05, n) * h, rng.uniform(0.1, 1.0, n), rng.uniform(1.0, 10.0, n)
    ux, uy = np.cos(phi), np.sin(phi)
    px, py, after = x - off * uy, y + off * ux, (level - 1.5) / slope
    ends = np.column_stack([
        px - before * ux, py - before * uy, level + slope * before, px + after * ux, py + after * uy
    ])
    return [Link((ax, ay), top, (gx, gy), 1.5) for ax, ay, top, gx, gy in ends.tolist()]


def test_tree_and_light_sets_match_the_kernel_in_a_crowded_city():
    """3,000 trees and 3,000 lights on 0.25 km², with short, low links over
    200 of each, which the default links barely reach."""
    layout = generate_city(URBAN, GenConfig(area=250_000.0, n_trees=3000, n_lights=3000, n_gu=1, seed=2))
    geom, rng = LayoutGeometry(layout), default_rng(2)
    links = _links_over(layout.trees.tolist()[:200], rng) + _links_over(layout.lights.tolist()[:200], rng)
    results = _assert_matches_kernel(geom, links)
    assert sum(bool(brute.blocked["tree"]) for brute in results) >= 36
    assert sum(bool(brute.blocked["streetlight"]) for brute in results) >= 36


def test_oracle_takes_no_intersection_math_from_geometry():
    """oracle.py imports only the link types, the family precedence and the
    layout wrapper from geometry.py, so none of its intersection math, and
    not citygen's FootprintIndex, so it never takes its candidates from the
    kernel's cell table."""
    source = ast.parse(Path(oracle.__file__).read_text())
    imported = [
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(source)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    from_geometry = {name for module, name in imported if module and module.endswith("geometry")}
    assert from_geometry == {"Link", "LinkClass", "ObstructionHit", "classify_hits", "LayoutGeometry"}
    assert not [pair for pair in imported if "geometry" in pair[1]]
    from_citygen = {name for module, name in imported if module and module.endswith("citygen")}
    assert from_citygen and "FootprintIndex" not in from_citygen
