"""Link classification: blockage-line math, tree profile, crossing
detection, precedence, monotonicity, and agreement with the
rasterization oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from urbanlos.citygen import (
    BUILDING,
    DISC,
    PRESETS,
    USER,
    BuiltUpParams,
    CityLayout,
    GenConfig,
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
    ax, ay = sample_open_point(geom.index, default_rng(6))
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


def test_shared_and_per_link_abs_give_the_same_pairs(urban_layout, urban_geometry):
    gu = np.column_stack((urban_layout.users.x, urban_layout.users.y))
    ax, ay = sample_open_point(urban_geometry.index, default_rng(8))
    shared = urban_geometry._critical_points((ax, ay), gu, 1.5)
    per_link = urban_geometry._critical_points((np.full(len(gu), ax), np.full(len(gu), ay)), gu, 1.5)
    assert sum(pairs[0].size for pairs in shared) > 0
    for a, b in zip(shared, per_link):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


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


@pytest.mark.parametrize("env", ["urban", "dense_urban", "high_rise"])
def test_oracle_agreement(env):
    layout = generate_city(PRESETS[env], GenConfig(seed=13))
    geom = LayoutGeometry(layout)
    links = random_links(geom, default_rng(31), 150)
    results = check_links(geom, links)
    assert [i for i, (_, fast, brute) in enumerate(results) if fast is not brute.link_class] == []


# (env, seed, link index) of oracle-check --env <env> --seed <seed> links
# that dip under a roof for less than the 1 cm oracle step
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
]


def _sub_step_link(env: str, seed: int, index: int):
    layout = generate_city(PRESETS[env], GenConfig(seed=seed))
    geom = LayoutGeometry(layout)
    return layout, geom, random_links(geom, default_rng(seed), index + 1)[index]


@pytest.mark.parametrize("env, seed, index", SUB_STEP_LINKS)
def test_oracle_sees_sub_step_dip_at_fine_step(env, seed, index):
    layout, geom, link = _sub_step_link(env, seed, index)
    brute = classify_link_bruteforce(link, obstacle_families(layout), step=1e-4)
    assert geom.classify(link) is brute.link_class is LinkClass.NLOS_BUILDING


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the 1 cm oracle misses a sub-step roof dip")
@pytest.mark.parametrize("env, seed, index", SUB_STEP_LINKS)
def test_oracle_sees_sub_step_dip_at_default_step(env, seed, index):
    _, geom, link = _sub_step_link(env, seed, index)
    [(_, fast, brute)] = check_links(geom, [link])
    assert fast is brute.link_class


def test_one_class_order_everywhere():
    """The CSV probability columns, the sweep's class codes, the analytic
    family precedence and the oracle's family list name the classes in
    one order, and the sweep's mask-to-class map is that precedence for
    every subset of blocking families (bit i for the i-th family)."""
    assert P_COLUMNS == tuple(f"p_{c.value}" for c in LinkClass)
    assert (LOS, NLOS_B, NLOS_T, NLOS_S) == (0, 1, 2, 3)
    assert [c for _, c in FAMILIES] == list(LinkClass)[1:]
    assert tuple((kind, c) for kind, c, *_ in obstacle_families(_fixture_layout())) == FAMILIES
    assert len(MASK_CLASS) == 2 ** len(FAMILIES)
    for mask, code in enumerate(MASK_CLASS):
        # one hit per family, blocking where its bit is set
        hits = [ObstructionHit(kind, 0, 1.0, 5.0, 4.0, bool(mask >> bit & 1)) for bit, (kind, _) in enumerate(FAMILIES)]
        assert list(LinkClass)[code] is classify_hits(hits), mask


def _full_walk(link, families, step):
    """Reference walk: every step point (one step apart from the ABS end,
    plus the GU end when the distance is no multiple of the step) against
    every obstacle, with no prefilter and no window."""
    g = link.ground_distance
    n = int(math.floor(g / step))
    dists = np.arange(n + 1, dtype=float) * step
    if g - dists[-1] > 1e-12:
        dists = np.append(dists, g)
    u = dists / g
    ax, ay = link.abs_xy
    px = ax + u * (link.gu_xy[0] - ax)
    py = ay + u * (link.gu_xy[1] - ay)
    h_line = link.h_abs - u * (link.h_abs - link.h_gu)
    crossed, blocked = {}, {}
    for kind, _, obstacles, _, _, _, point_test in families:
        tests = [point_test(o, px, py) for o in obstacles]
        crossed[kind] = {i for i, (inside, _) in enumerate(tests) if inside.any()}
        blocked[kind] = {i for i, (inside, h) in enumerate(tests) if (inside & (h_line <= h)).any()}
    return crossed, blocked


# (layout, link, step, the families the link crosses)
WINDOW_CASES = {
    "abs-end": (
        _fixture_layout(buildings=[(-2.0, -2.0, 4.0, 4.0, 20.0)]),
        Link(abs_xy=(0.0, 0.0), h_abs=10.0, gu_xy=(30.3, 7.1), h_gu=1.5),
        0.01,
        {"building"},
    ),
    # only the appended point at g = 10.005 m lies inside the tree
    "gu-end-tail": (
        _fixture_layout(trees=[(10.005, 0.0, 0.003, 5.0)]),
        Link(abs_xy=(0.0, 0.0), h_abs=10.0, gu_xy=(10.005, 0.0), h_gu=1.5),
        0.01,
        {"tree"},
    ),
    # centres past the GU and ABS ends, the footprints reaching over them
    "past-ends": (
        _fixture_layout(
            buildings=[(20.9, -3.0, 6.0, 6.0, 30.0)],
            trees=[(-0.6, -0.2, 1.0, 5.0)],
            lights=[(21.05, 0.0, 0.1, 5.0)],
        ),
        Link(abs_xy=(0.0, 0.0), h_abs=6.0, gu_xy=(21.0, 0.0), h_gu=1.5),
        0.01,
        {"building", "tree", "streetlight"},
    ),
    # a covering disc that reaches the link while the footprint does not
    "disc-only": (
        _fixture_layout(buildings=[(10.5, 0.5, 4.0, 4.0, 30.0)]),
        Link(abs_xy=(0.0, 0.0), h_abs=6.0, gu_xy=(11.0, 0.0), h_gu=1.5),
        0.01,
        set(),
    ),
    "shorter-than-a-step": (
        _fixture_layout(trees=[(0.002, 0.001, 0.5, 5.0)]),
        Link(abs_xy=(0.0, 0.0), h_abs=3.0, gu_xy=(0.004, 0.0), h_gu=1.5),
        0.01,
        {"tree"},
    ),
    # g / step = 40 exactly: the last step point is the GU end, no tail
    "exact-multiple": (
        _fixture_layout(trees=[(6.0, 8.0, 0.003, 5.0)]),
        Link(abs_xy=(0.0, 0.0), h_abs=3.0, gu_xy=(6.0, 8.0), h_gu=1.5),
        0.25,
        {"tree"},
    ),
    "coarse-step-diagonal": (
        _fixture_layout(
            buildings=[(40.0, 25.0, 12.0, 8.0, 30.0)],
            trees=[(20.0, 13.5, 1.5, 5.0)],
            lights=[(70.3, 42.3, 0.6, 5.0)],
        ),
        Link(abs_xy=(100.0, 60.0), h_abs=12.0, gu_xy=(1.0, 0.5), h_gu=1.5),
        0.37,
        {"building", "tree", "streetlight"},
    ),
    "empty-families": (
        _fixture_layout(),
        Link(abs_xy=(0.0, 0.0), h_abs=10.0, gu_xy=(30.0, 40.0), h_gu=1.5),
        0.01,
        set(),
    ),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_oracle_window_matches_full_walk(case):
    """The per-candidate step windows find exactly what a walk of every
    step point against every obstacle finds."""
    layout, link, step, families_crossed = WINDOW_CASES[case]
    families = obstacle_families(layout)
    crossed, blocked = _full_walk(link, families, step)
    assert {kind for kind, hit in crossed.items() if hit} == families_crossed
    brute = classify_link_bruteforce(link, families, step)
    assert {kind: set(hit) for kind, hit in brute.crossed.items()} == crossed
    assert {kind: set(low) for kind, low in brute.blocked.items()} == blocked


def test_oracle_hit_sets_match(urban_layout, urban_geometry):
    rng = default_rng(32)
    links = random_links(urban_geometry, rng, 150)
    families = obstacle_families(urban_layout)
    for link in links:
        analytic = {"building": set(), "tree": set(), "streetlight": set()}
        for hit in urban_geometry.crossings(link):
            analytic[hit.kind].add(hit.index)
        brute = classify_link_bruteforce(link, families)
        for kind in analytic:
            assert analytic[kind] == set(brute.crossed[kind]), kind
