"""The placers draw their candidates in blocks, decoded from raw PCG64 words,
and test them with array queries; their layouts and the generator states
they leave must equal those of drawing and testing one candidate at a time.
The one-at-a-time placers are kept here, compact, as the reference: numpy's
scalar calls, and dense tests over every footprint."""

import json
import math

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from urbanlos.citygen import (
    _first_accepted,
    BUILDING,
    DISC,
    LIGHT_HEIGHT_RANGE,
    LIGHT_RADIUS,
    PRESETS,
    RETRY_LIMIT,
    SHAPE_FACTOR_HIGH,
    SHAPE_FACTOR_LOW,
    STREAM_ABS,
    STREAM_BUILDINGS,
    STREAM_LIGHTS,
    STREAM_TREES,
    STREAM_USERS,
    TREE_HEIGHT_RANGE,
    TREE_RADIUS_RANGE,
    USER,
    BuiltUpParams,
    CityLayout,
    FootprintIndex,
    GenConfig,
    _sidewalk_draws,
    building_count,
    city_rng,
    derive_building_dims,
    generate_city,
    layout_json,
    place_buildings,
    place_lights,
    place_trees,
    place_users,
    rayleigh_icdf,
    sample_open_point,
    table,
)
from urbanlos.errors import InfeasibleLayoutError
from urbanlos.geometry import LayoutGeometry, Link
from urbanlos.oracle import LINK_ALTITUDE_CAP_M, LINK_ANGLES_DEG, random_links

# -- the one-at-a-time reference ----------------------------------------------


def _rects(buildings):
    return np.column_stack((buildings.x, buildings.y, buildings.x + buildings.w, buildings.y + buildings.l))


def _jitter(rng, lo, size, dim, side):
    c = rng.uniform(lo + dim / 2.0, lo + size - dim / 2.0) if dim <= size else lo + size / 2.0
    return min(max(c, dim / 2.0), side - dim / 2.0)


def ref_buildings(params, config, rng):
    n = building_count(params, config.area)
    if n == 0:
        return table((), BUILDING)
    side, gdim = config.side, math.ceil(math.sqrt(n))
    block, rects, out = side / gdim, np.empty((0, 4)), []
    for i, blk in enumerate(rng.permutation(gdim * gdim)[:n]):
        bx, by = float(blk % gdim) * block, float(blk // gdim) * block
        for attempt in range(RETRY_LIMIT):
            w, l = derive_building_dims(params, config.area, rng.uniform(SHAPE_FACTOR_LOW, SHAPE_FACTOR_HIGH))
            if rng.random() < 0.5:
                w, l = l, w
            if w > side or l > side:
                continue
            if attempt < RETRY_LIMIT // 2:
                cx, cy = _jitter(rng, bx, block, w, side), _jitter(rng, by, block, l, side)
            else:
                cx, cy = rng.uniform(w / 2.0, side - w / 2.0), rng.uniform(l / 2.0, side - l / 2.0)
            x0, y0 = cx - w / 2.0, cy - l / 2.0
            x1, y1 = x0 + w, y0 + l
            if not ((x0 < rects[:, 2]) & (x1 > rects[:, 0]) & (y0 < rects[:, 3]) & (y1 > rects[:, 1])).any():
                rects = np.vstack([rects, [x0, y0, x1, y1]])
                out.append((x0, y0, w, l, rayleigh_icdf(params.gamma, rng.random())))
                break
        else:
            raise InfeasibleLayoutError(f"could not place building {i} after {RETRY_LIMIT} attempts")
    return table(out, BUILDING)


def ref_sidewalk(buildings, config, rng, count, what, draw):
    rects, side, d_o, out = _rects(buildings), config.side, config.d_o, []
    for i in range(count):
        if not len(buildings):
            raise InfeasibleLayoutError(f"could not place {what} {i}: no building edges available")
        for _ in range(RETRY_LIMIT):
            bx, by, w, l, _ = buildings[int(rng.integers(len(buildings)))].tolist()
            edge, u = int(rng.integers(4)), rng.random()
            x, y = [(bx + u * w, by - d_o), (bx + u * w, by + l + d_o),
                    (bx - d_o, by + u * l), (bx + w + d_o, by + u * l)][edge]
            r, h = draw(rng)
            dx = np.maximum(np.maximum(rects[:, 0] - x, 0.0), x - rects[:, 2])
            dy = np.maximum(np.maximum(rects[:, 1] - y, 0.0), y - rects[:, 3])
            inside = x - r >= 0.0 and y - r >= 0.0 and x + r <= side and y + r <= side
            if inside and not (dx * dx + dy * dy < r * r).any():
                out.append((x, y, r, h))
                break
        else:
            raise InfeasibleLayoutError(f"could not place {what} {i} after {RETRY_LIMIT} attempts")
    return table(out, DISC)


def ref_tree(rng):
    h = rng.uniform(*TREE_HEIGHT_RANGE)
    return rng.uniform(*TREE_RADIUS_RANGE), h


def ref_light(rng):
    return LIGHT_RADIUS, rng.uniform(*LIGHT_HEIGHT_RANGE)


def ref_open_point(layout, rng, what):
    rects = _rects(layout.buildings)
    discs = np.column_stack([np.concatenate((layout.trees[k], layout.lights[k])) for k in "xyr"])
    for _ in range(RETRY_LIMIT):
        x, y = rng.uniform(0.0, layout.side), rng.uniform(0.0, layout.side)
        in_rect = (rects[:, 0] <= x) & (x <= rects[:, 2]) & (rects[:, 1] <= y) & (y <= rects[:, 3])
        dx, dy = x - discs[:, 0], y - discs[:, 1]
        if not (in_rect.any() or (dx * dx + dy * dy <= discs[:, 2] * discs[:, 2]).any()):
            return x, y
    raise InfeasibleLayoutError(f"could not place {what} after {RETRY_LIMIT} attempts")


def _streams(config, city_index):
    streams = (STREAM_BUILDINGS, STREAM_TREES, STREAM_LIGHTS, STREAM_USERS)
    return {s: city_rng(config.seed, city_index, s) for s in streams}


def ref_city(params, config, city_index):
    """The layout and each stream's generator state after its placer."""
    rngs = _streams(config, city_index)
    buildings = ref_buildings(params, config, rngs[STREAM_BUILDINGS])
    trees = ref_sidewalk(buildings, config, rngs[STREAM_TREES], config.n_trees, "tree", ref_tree)
    lights = ref_sidewalk(buildings, config, rngs[STREAM_LIGHTS], config.n_lights, "streetlight", ref_light)
    city = CityLayout(params, config, buildings, trees, lights, table((), USER))
    users = table([(*ref_open_point(city, rngs[STREAM_USERS], f"user {i}"), config.h_gu)
                   for i in range(config.n_gu)], USER)
    return CityLayout(params, config, buildings, trees, lights, users), rngs


def new_city(params, config, city_index):
    rngs = _streams(config, city_index)
    buildings = place_buildings(params, config, rngs[STREAM_BUILDINGS])
    index = FootprintIndex(buildings, table((), DISC), table((), DISC), config.side)
    trees = place_trees(index, config, rngs[STREAM_TREES])
    lights = place_lights(index, config, rngs[STREAM_LIGHTS])
    index = FootprintIndex(buildings, trees, lights, config.side)
    users = place_users(index, config, rngs[STREAM_USERS])
    return CityLayout(params, config, buildings, trees, lights, users), rngs


def _state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def _assert_same_city(params, config, city_index=0):
    want, want_rngs = ref_city(params, config, city_index)
    got, got_rngs = new_city(params, config, city_index)
    assert layout_json(got) == layout_json(want)
    assert {s: _state(r) for s, r in got_rngs.items()} == {s: _state(r) for s, r in want_rngs.items()}
    assert layout_json(got) == layout_json(generate_city(params, config, city_index))


# -- decoding ------------------------------------------------------------------


def _scalar_attempts(rng, nb, m):
    """m tree attempts through numpy's scalar calls: building, side, then
    the fraction along it, height and radius."""
    rows = [(rng.integers(nb), rng.integers(4), rng.random(), rng.uniform(*TREE_HEIGHT_RANGE),
             rng.uniform(*TREE_RADIUS_RANGE)) for _ in range(m)]
    return [list(c) for c in zip(*rows)]


def _assert_decodes_like_numpy(make_rng, nb, m=300):
    got_rng, want_rng = make_rng(), make_rng()
    pick, side, u = _sidewalk_draws(got_rng, nb, 3, m)
    want = _scalar_attempts(want_rng, nb, m)
    (a, b), (c, d) = TREE_HEIGHT_RANGE, TREE_RADIUS_RANGE
    got = [pick, side, u[:, 0], a + (b - a) * u[:, 1], c + (d - c) * u[:, 2]]
    assert [v.tolist() for v in got] == want
    assert _state(got_rng) == _state(want_rng)
    return pick


def test_decoding_matches_numpy_on_an_ordinary_stream():
    for nb in (2, 3, 300, 500, 2**31 + 11):
        _assert_decodes_like_numpy(lambda: default_rng(7), nb)


# The trees stream of seed 1, city 0 rejects a Lemire multiply for 500
# buildings at attempt 5,818,082: numpy redraws, and takes 478 from the high
# half of the word whose low half gave 461.
REJECTED_AT = 5_818_082


def _at_rejection():
    rng = default_rng(SeedSequence(1, spawn_key=(0, STREAM_TREES)))
    rng.bit_generator.advance(4 * REJECTED_AT)
    return rng


def test_decoding_replays_a_lemire_rejection():
    pick = _assert_decodes_like_numpy(_at_rejection, 500)
    assert pick[0] == 478

    def one_attempt_before():
        rng = default_rng(SeedSequence(1, spawn_key=(0, STREAM_TREES)))
        rng.bit_generator.advance(4 * (REJECTED_AT - 1))
        return rng

    assert _assert_decodes_like_numpy(one_attempt_before, 500)[1] == 478


def test_decoding_starts_on_a_pending_half():
    def pending(seed, half=None):
        rng = default_rng(seed)
        rng.integers(7)  # takes a low half and keeps the high one
        assert rng.bit_generator.state["has_uint32"]
        if half is not None:
            rng.bit_generator.state = dict(rng.bit_generator.state, uinteger=half)
        return rng

    for seed in range(3):
        _assert_decodes_like_numpy(lambda: pending(seed), 500)
    # a pending 0 is a rejected multiply: numpy redraws from a fresh word
    _assert_decodes_like_numpy(lambda: pending(0, half=0), 500)
    _assert_decodes_like_numpy(lambda: pending(0), 1)  # integers(1) draws nothing


# -- whole layouts ---------------------------------------------------------------


@pytest.mark.parametrize("env", sorted(PRESETS))
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_layouts_match_the_one_at_a_time_reference(env, seed):
    _assert_same_city(PRESETS[env], GenConfig(seed=seed), city_index=seed % 2)


@pytest.mark.parametrize("seed", [2, 1001])
def test_jammed_city_matches_the_reference(seed):
    """Blocks whose shape draws overflow them fall back to uniform positions."""
    _assert_same_city(PRESETS["dense_urban"], GenConfig(seed=seed, n_trees=20, n_lights=20, n_gu=20))


@pytest.mark.parametrize("counts", [dict(n_trees=0), dict(n_gu=0), dict(n_trees=0, n_lights=0, n_gu=0)])
def test_empty_families_match_the_reference(counts):
    _assert_same_city(PRESETS["urban"], GenConfig(seed=3, **counts))


def test_one_building_city_matches_the_reference():
    _assert_same_city(BuiltUpParams(alpha=0.3, beta=1.0, gamma=15.0), GenConfig(seed=4, n_trees=30, n_lights=30))


def test_sidewalks_match_the_reference_through_a_rejection():
    params, config = PRESETS["urban"], GenConfig(seed=1, n_trees=6, n_lights=0, n_gu=0)
    buildings = place_buildings(params, config, city_rng(1, 0, STREAM_BUILDINGS))
    assert len(buildings) == 500
    index = FootprintIndex(buildings, table((), DISC), table((), DISC), config.side)
    for pending in (False, True):
        got_rng, want_rng = _at_rejection(), _at_rejection()
        if pending:
            got_rng.bit_generator.state = want_rng.bit_generator.state = dict(
                want_rng.bit_generator.state, has_uint32=1, uinteger=0)  # a pending rejection first
        got = place_trees(index, config, got_rng)
        assert np.array_equal(got, ref_sidewalk(buildings, config, want_rng, config.n_trees, "tree", ref_tree))
        assert _state(got_rng) == _state(want_rng)


def test_random_links_match_the_reference():
    layout = generate_city(PRESETS["high_rise"], GenConfig(seed=6))
    geom = LayoutGeometry(layout)
    got_rng, want_rng = city_rng(6, 0, STREAM_ABS), city_rng(6, 0, STREAM_ABS)
    want = []
    for _ in range(30):
        user = layout.users[int(want_rng.integers(len(layout.users)))]
        ax, ay = ref_open_point(layout, want_rng, "abs")
        theta = math.radians(want_rng.uniform(*LINK_ANGLES_DEG))
        h_abs = min(user.h + math.hypot(user.x - ax, user.y - ay) * math.tan(theta), LINK_ALTITUDE_CAP_M)
        want.append(Link(abs_xy=(ax, ay), h_abs=h_abs, gu_xy=(user.x, user.y), h_gu=user.h))
    assert random_links(geom, got_rng, 30) == want
    assert _state(got_rng) == _state(want_rng)
    assert sample_open_point(geom.index, got_rng) == ref_open_point(layout, want_rng, "point")
    assert _state(got_rng) == _state(want_rng)


@pytest.mark.parametrize("misses, placed", [(RETRY_LIMIT - 1, True), (RETRY_LIMIT, False)])
def test_retry_limit_counts_misses_across_blocks(misses, placed):
    """Entity 1 follows entity 0 after misses failed attempts, which span
    many blocks; RETRY_LIMIT of them in a row are too many."""
    accepted, drawn = [0, misses + 1, misses + 2], []

    def sample(m):  # candidate k is the row [k]
        drawn.extend(range(len(drawn), len(drawn) + m))
        return np.array(drawn[-m:])[:, None]

    rng = default_rng(0)
    test = lambda rows: np.isin(rows[:, 0], accepted)
    if placed:
        assert _first_accepted(rng, 3, "thing {}", sample, test).tolist() == [[0], [misses + 1], [misses + 2]]
    else:
        with pytest.raises(InfeasibleLayoutError, match=f"^could not place thing 1 after {RETRY_LIMIT} attempts$"):
            _first_accepted(rng, 3, "thing {}", sample, test)


def test_rewind_replays_the_sampler_once_untested():
    """Over several blocks, the rows are the first n accepted one at a
    time, and rng ends as one sample(used) call from its start leaves it,
    used counting the candidates up to the last accepted one; the replay's
    rows are not tested."""
    n, sampled, tested = 12, [], []

    def sample(m):
        sampled.append(m)
        return rng.random((m, 3))

    def test(rows):
        tested.append(len(rows))
        return rows[:, 0] < 0.05

    rng = default_rng(11)
    got = _first_accepted(rng, n, "thing {}", sample, test)
    assert len(tested) >= 2 and sampled == tested + [sampled[-1]]  # each block tested, then one replay
    one_at_a_time, want, used = default_rng(11), [], 0
    while len(want) < n:
        row, used = one_at_a_time.random(3), used + 1
        if row[0] < 0.05:
            want.append(row.tolist())
    assert got.tolist() == want
    assert sampled[-1] == used
    replayed = default_rng(11)
    replayed.random((used, 3))
    assert _state(rng) == _state(replayed) == _state(one_at_a_time)


def test_no_entities_leave_the_generator_untouched():
    rng, calls = default_rng(5), []
    before = _state(rng)
    rows = _first_accepted(rng, 0, "thing {}", lambda m: calls.append(m), lambda rows: calls.append(rows))
    assert rows.size == 0 and not calls
    assert _state(rng) == before
