"""Sweep engine: partitions, determinism, scenario pairing, density sweep,
and the altitude policies."""

import numpy as np
import pytest
from dataclasses import replace

from urbanlos import montecarlo
from urbanlos.citygen import PRESETS, GenConfig, generate_city, generate_obstacles, layout_json
from urbanlos.errors import AggregationError, ParameterError
from urbanlos.montecarlo import (
    ALTITUDE_CAP_M,
    BUILDINGS_ONLY,
    DISTANCE_BIN_M,
    FULL,
    LOS,
    NLOS_B,
    NLOS_S,
    NLOS_T,
    SCENARIOS,
    WITH_TREES,
    SweepConfig,
    class_counts,
    mean_abs_delta_p_los,
    parse_scenario,
    run_scenarios,
    run_simulation,
    tree_density_sweep,
)
from urbanlos.outputs import ANGLE_KEY, DISTANCE_KEY, read_counts_csv, write_counts_csv

URBAN = PRESETS["urban"]
SMALL_SWEEP = SweepConfig(n_cities=2)


@pytest.fixture(scope="module")
def small_results(small_gen):
    return run_scenarios(
        URBAN, small_gen, SMALL_SWEEP, [BUILDINGS_ONLY, WITH_TREES, FULL]
    )


@pytest.fixture(scope="module")
def crowded_gen(small_gen):
    """small_gen's 40 trees on 0.0625 km² with 600 lights and 60 users, so
    that trees and lights block samples of the two-city sweep."""
    return replace(small_gen, area=62_500.0, n_lights=600, n_gu=60)


@pytest.fixture(scope="module")
def crowded_results(crowded_gen):
    return run_scenarios(URBAN, crowded_gen, SMALL_SWEEP, [BUILDINGS_ONLY, WITH_TREES, FULL])


def test_default_angle_grid():
    sweep = SweepConfig()
    assert len(sweep.angles) == 90
    assert sweep.angles[0] == 1.0 and sweep.angles[-1] == 90.0


def test_default_scale_sample_count():
    sweep, gen = SweepConfig(), GenConfig()
    assert sweep.n_cities * gen.n_gu * len(sweep.angles) == 270_000


def test_sweep_config_validation():
    with pytest.raises(ParameterError):
        SweepConfig(n_cities=0)
    with pytest.raises(ParameterError):
        SweepConfig(angles=(95.0,))
    with pytest.raises(ParameterError, match="each angle may be given once"):
        SweepConfig(angles=(5.0, 5.0, 10.0))
    with pytest.raises(ParameterError):
        SweepConfig(altitude_policy="hover")
    with pytest.raises(ParameterError):
        SweepConfig(altitude_policy="fixed", fixed_altitude_m=-5.0)
    for beyond_cap in (ALTITUDE_CAP_M * 3, float("nan")):
        with pytest.raises(ParameterError, match="fixed_altitude_m"):
            SweepConfig(altitude_policy="fixed", fixed_altitude_m=beyond_cap)


def test_parse_scenario_aliases():
    """Each scenario has one exact name; no other spelling is accepted."""
    assert list(SCENARIOS) == ["buildings-only", "trees", "full"]
    assert [parse_scenario(name) for name in SCENARIOS] == [BUILDINGS_ONLY, WITH_TREES, FULL]
    for name in ("nope", "+trees", "buildings", "TREES", " trees"):
        with pytest.raises(ParameterError, match="buildings-only"):
            parse_scenario(name)


def test_partition_and_totals(small_results, small_gen):
    for curve, stats in small_results.values():
        total = SMALL_SWEEP.n_cities * small_gen.n_gu
        assert all(int(v) == total for v in curve.n)
        partition = curve.p_los + curve.p_nlos_b + curve.p_nlos_t + curve.p_nlos_s
        assert np.all(np.abs(partition - 1.0) < 1e-12)
        dist_partition = stats.p_los + stats.p_nlos_b + stats.p_nlos_t + stats.p_nlos_s
        assert np.all(np.abs(dist_partition - 1.0) < 1e-12)
        assert int(np.sum(stats.n)) == total * len(SMALL_SWEEP.angles)


def test_distance_bins_cover_samples(small_results):
    _, stats = small_results["full"]
    centers = np.array(stats.keys)
    assert DISTANCE_BIN_M == 50.0
    assert np.all(np.mod(centers, DISTANCE_BIN_M) == DISTANCE_BIN_M / 2.0)
    assert np.all(np.diff(centers) > 0)
    assert np.all(np.array(stats.mean_d) >= centers - 25.0 - 1e-9)
    assert np.all(np.array(stats.mean_d) <= centers + 25.0 + 1e-9)


def test_deterministic_rerun(small_gen):
    a = run_scenarios(URBAN, small_gen, SMALL_SWEEP, [FULL])
    b = run_scenarios(URBAN, small_gen, SMALL_SWEEP, [FULL])
    assert a == b


def test_scenarios_are_paired(crowded_results):
    curve_b = crowded_results["buildings-only"][0]
    curve_t = crowded_results["trees"][0]
    curve_f = crowded_results["full"][0]
    # trees and lights block samples, so the orderings below are not all ties
    assert curve_t.counts[:, NLOS_T].sum() > 0 and curve_f.counts[:, NLOS_S].sum() > 0
    assert np.all(curve_b.p_los >= curve_t.p_los - 1e-15)
    assert np.all(curve_t.p_los >= curve_f.p_los - 1e-15)
    # building-blocked counts are identical across scenarios by construction
    nlos_b = [curve.counts[:, NLOS_B].tolist() for curve in (curve_b, curve_t, curve_f)]
    assert nlos_b[0] == nlos_b[1] == nlos_b[2]


def test_top_angle_is_los_maximum(small_results):
    curve = small_results["full"][0]
    los = curve.counts[:, LOS]
    assert los[-1] == los.max()
    assert np.all(np.diff(los) >= 0)


def test_count_table_is_a_read_only_value(small_results, tmp_path):
    """A sweep's tables and a table read back from CSV hold read-only
    counts; class_counts copies its input, and tables compare by value."""
    curve, stats = small_results["full"]
    write_counts_csv(tmp_path / "angles.csv", curve)
    for table in (curve, stats, read_counts_csv(tmp_path / "angles.csv", ANGLE_KEY)):
        with pytest.raises(ValueError):
            table.counts[0, 0] = 0
    keys, counts, mean_d = (1.0, 2.0), np.array([(1, 2, 3, 4), (5, 6, 7, 8)]), (10.0, 20.0)
    table = class_counts(keys, counts, mean_d)
    counts[0, 0] = 9
    assert table.counts[0, 0] == 1
    assert table == class_counts([1, 2], [(1, 2, 3, 4), (5, 6, 7, 8)], [10, 20])
    assert table != class_counts((1.0, 3.0), table.counts, mean_d)
    assert table != class_counts(keys, [(1, 2, 3, 4), (5, 6, 7, 9)], mean_d)
    assert table != class_counts(keys, table.counts, (10.0, 21.0))
    assert table != class_counts(keys, table.counts)


def test_count_csv_header_follows_the_table(small_results, tmp_path):
    """An angle table is written under theta_deg without mean_d_m, a
    distance table under bin_center_m with mean_d_m last."""
    curve, stats = small_results["full"]
    probabilities = "p_los,p_nlos_b,p_nlos_t,p_nlos_s,n"
    for table, key, header in (
        (curve, ANGLE_KEY, f"theta_deg,{probabilities}"),
        (stats, DISTANCE_KEY, f"bin_center_m,{probabilities},mean_d_m"),
    ):
        write_counts_csv(tmp_path / "table.csv", table)
        assert (tmp_path / "table.csv").read_text().splitlines()[0] == header
        assert read_counts_csv(tmp_path / "table.csv", key) == table


def test_streetlight_delta_identity(small_results):
    curve = small_results["trees"][0]
    assert mean_abs_delta_p_los(curve, curve) == 0.0


def test_streetlight_delta_zero_lights(crowded_gen, crowded_results):
    gen = replace(crowded_gen, n_lights=0)
    res = run_scenarios(URBAN, gen, SMALL_SWEEP, [WITH_TREES, FULL])
    assert mean_abs_delta_p_los(res["trees"][0], res["full"][0]) == 0.0
    # with its lights, the same city's trees and full views differ
    assert mean_abs_delta_p_los(crowded_results["trees"][0], crowded_results["full"][0]) > 0.0


def test_streetlight_delta_grid_mismatch(small_results):
    curve = small_results["trees"][0]
    other = replace(curve, keys=tuple(t + 1.0 for t in curve.keys))
    with pytest.raises(AggregationError):
        mean_abs_delta_p_los(curve, other)


def test_density_zero_matches_buildings_only(small_gen, small_results):
    curves = tree_density_sweep(URBAN, small_gen, SMALL_SWEEP, [0])
    assert curves[0] == small_results["buildings-only"][0]


def test_density_monotone(crowded_gen):
    # 200 users per city, so that the trees past the 50th block samples too
    # (tree-blocked counts 0, 41 and 137)
    curves = tree_density_sweep(URBAN, replace(crowded_gen, n_gu=200), SMALL_SWEEP, [0, 50, 200])
    p0, p50, p200 = (curves[k].p_los for k in (0, 50, 200))
    assert np.all(p0 >= p50 - 1e-15)
    assert np.all(p50 >= p200 - 1e-15)
    # more trees block more samples, so each curve differs from the next
    assert np.any(p0 > p50) and np.any(p50 > p200)
    assert [curves[k].counts[:, NLOS_T].sum() for k in (0, 50, 200)] == [0, 41, 137]


def test_density_validation(small_gen):
    with pytest.raises(ParameterError):
        tree_density_sweep(URBAN, small_gen, SMALL_SWEEP, [200, 0])
    with pytest.raises(ParameterError):
        tree_density_sweep(URBAN, small_gen, SMALL_SWEEP, [])


def test_run_simulation_returns_every_view():
    """One dict of (angle table, distance table) per view: the scenarios
    first, then density_<k>, whose angle table is tree_density_sweep's curve."""
    gen = GenConfig(n_trees=30, n_lights=40, n_gu=10, seed=5)
    views = run_simulation(URBAN, gen, SMALL_SWEEP, [BUILDINGS_ONLY, WITH_TREES, FULL], [0, 10, 30])
    assert list(views) == ["buildings-only", "trees", "full", "density_0", "density_10", "density_30"]
    assert all(stats.mean_d is not None for _, stats in views.values())
    curves = tree_density_sweep(URBAN, gen, SMALL_SWEEP, [0, 10, 30])
    assert {k: views[f"density_{k}"][0] for k in (0, 10, 30)} == curves


@pytest.mark.parametrize(
    "scenarios, densities",
    [((), ()), ([FULL], ()), ((), [0, 10, 30]), ([BUILDINGS_ONLY, FULL], [0, 30])],
    ids=["no-view", "scenarios-only", "densities-only", "both"],
)
def test_run_simulation_builds_each_city_once(monkeypatch, scenarios, densities):
    """No view builds no city; otherwise each city's obstacles are placed
    once, and on_layout gets each city's layout of the first pass, as
    generate_city gives it at that pass's tree count."""
    gen = GenConfig(n_trees=20, n_lights=30, n_gu=5, seed=4)
    built = []

    def counting_generate_obstacles(params, config, city_index):
        built.append(city_index)
        return generate_obstacles(params, config, city_index)

    monkeypatch.setattr(montecarlo, "generate_obstacles", counting_generate_obstacles)
    layouts = []
    views = run_simulation(URBAN, gen, SMALL_SWEEP, scenarios, densities, on_layout=layouts.append)
    if not scenarios and not densities:
        assert (views, built, layouts) == ({}, [], [])
        return
    assert built == list(range(SMALL_SWEEP.n_cities))
    first = replace(gen, n_trees=gen.n_trees if scenarios else max(densities))
    expected = [layout_json(generate_city(URBAN, first, i)) for i in range(SMALL_SWEEP.n_cities)]
    assert [layout_json(layout) for layout in layouts] == expected


def test_fixed_altitude_policy(small_gen):
    sweep = SweepConfig(
        n_cities=2, angles=(30.0, 60.0, 90.0), altitude_policy="fixed",
        fixed_altitude_m=100.0,
    )
    curve, stats = run_scenarios(URBAN, small_gen, sweep, [FULL])["full"]
    # altitude does not vary with angle, so every column is identical
    los = curve.counts[:, LOS]
    assert los[0] == los[1] == los[2]
    assert max(stats.keys) < 1600.0


def test_city_order_independent(small_gen):
    from urbanlos.montecarlo import _city_worker

    per_city = [
        _city_worker(generate_city(URBAN, small_gen, idx), SMALL_SWEEP, [None], idx)
        for idx in range(SMALL_SWEEP.n_cities)
    ]
    forward = sum(ac.sum() for ac, _, _ in per_city)
    angle_sum_fwd = np.sum([ac for ac, _, _ in per_city], axis=0)
    angle_sum_rev = np.sum([ac for ac, _, _ in reversed(per_city)], axis=0)
    assert np.array_equal(angle_sum_fwd, angle_sum_rev)
    assert forward == angle_sum_fwd.sum()


def _fold(mask_counts, kept_bits):
    """(rows, 4) class counts of (rows, 8) blockage mask counts, each mask
    read with the bits not in kept_bits cleared."""
    from urbanlos.montecarlo import MASK_CLASS

    classes = MASK_CLASS[np.arange(8) & kept_bits]
    return np.stack([mask_counts[:, classes == c].sum(axis=1) for c in range(4)], axis=1)


def test_every_view_folds_from_city_summed_mask_counts(crowded_gen):
    """Each table run_simulation returns is its view's fold of
    _city_worker's mask counts for the view's tree limit, summed over
    cities; a treeless view folded from any limit's counts is the same.
    In crowded_gen's cities every class occurs and the tree limits count
    different masks."""
    from urbanlos.montecarlo import _city_worker

    gen, densities = crowded_gen, [0, 10, 40]
    assert gen.n_trees == max(densities)  # both passes see generate_city's layouts
    tables = run_simulation(URBAN, gen, SMALL_SWEEP, [BUILDINGS_ONLY, WITH_TREES, FULL], densities)
    limits = [None, 0, 10, 40]
    per_city = [
        _city_worker(generate_city(URBAN, gen, idx), SMALL_SWEEP, limits, idx) for idx in range(SMALL_SWEEP.n_cities)
    ]
    angle_sums, dist_sums, d_sums = (sum(counts[j] for counts in per_city) for j in range(3))
    assert len({counts.tobytes() for counts in angle_sums[1:]}) == 3
    # view -> (its tree limit's position in limits, the bits of the families it counts)
    reads = {"buildings-only": (0, 1), "trees": (0, 3), "full": (0, 7), "density_0": (1, 1)}
    reads |= {"density_10": (2, 3), "density_40": (3, 3)}
    assert list(tables) == list(reads)
    treeless = [("buildings-only", (at, 1)) for at in range(len(limits))]
    for name, (at, kept_bits) in list(reads.items()) + treeless:
        curve, stats = tables[name]
        assert curve.counts.tolist() == _fold(angle_sums[at], kept_bits).tolist(), name
        keep = np.flatnonzero(dist_sums[at].sum(axis=1))
        assert stats.keys == tuple((keep + 0.5) * DISTANCE_BIN_M)
        assert stats.counts.tolist() == _fold(dist_sums[at], kept_bits)[keep].tolist(), name
        assert stats.mean_d == tuple(d_sums[keep] / dist_sums[at][keep].sum(axis=1))
    assert tables["full"][0].counts.sum(axis=0).all()


def test_sweep_classes_match_single_link_classify():
    """The sweep's blockage masks, from the batch critical altitudes, agree
    with LayoutGeometry.crossings of each (user, altitude) link: bit i is
    set iff some hit of the i-th family in FAMILIES blocks, and MASK_CLASS
    of the mask is the link's class (classify is classify_hits of the
    crossings). The layout is a small urban city crowded with trees and
    lights, so every class and several multi-family masks occur."""
    from urbanlos.citygen import STREAM_ABS, city_rng, generate_city, sample_open_point
    from urbanlos.geometry import FAMILIES, LayoutGeometry, Link, LinkClass, classify_hits, link_maxima
    from urbanlos.montecarlo import LOS, MASK_CLASS, NLOS_B, NLOS_S, NLOS_T, _blockage_masks

    gen = GenConfig(area=250_000.0, n_trees=400, n_lights=400, n_gu=200, seed=2)
    layout = generate_city(URBAN, gen)
    geom = LayoutGeometry(layout)
    ax, ay = sample_open_point(geom.index, city_rng(gen.seed, 0, STREAM_ABS))
    gu = np.array([[u.x, u.y] for u in layout.users])
    alt_b, alt_s, t_link, _, t_alt = geom.batch_critical_altitudes((ax, ay), gu, gen.h_gu)
    g = np.hypot(gu[:, 0] - ax, gu[:, 1] - ay)
    h_abs = gen.h_gu + g[:, None] * np.tan(np.radians(np.arange(1.0, 90.0, 4.0)))
    masks = _blockage_masks(h_abs, alt_b, link_maxima(len(gu), t_link, t_alt), alt_s)
    assert masks.dtype == np.uint8

    code = {LinkClass.LOS: LOS, LinkClass.NLOS_BUILDING: NLOS_B, LinkClass.NLOS_TREE: NLOS_T, LinkClass.NLOS_LIGHT: NLOS_S}
    single_bits, single_classes = [], []
    for (x, y), row in zip(gu, h_abs):
        for h in row:
            hits = geom.crossings(Link((ax, ay), float(h), (float(x), float(y)), gen.h_gu))
            blocking = {hit.kind for hit in hits if hit.blocks}
            single_bits.append([bit for bit, (kind, _) in enumerate(FAMILIES) if kind in blocking])
            single_classes.append(code[classify_hits(hits)])
    bits = [[bit for bit in range(len(FAMILIES)) if mask >> bit & 1] for mask in masks.ravel().tolist()]
    assert bits == single_bits
    assert MASK_CLASS[masks].ravel().tolist() == single_classes
    assert set(np.unique(MASK_CLASS[masks])) == {LOS, NLOS_B, NLOS_T, NLOS_S}
    # building and tree, building and light, all three
    assert {3, 5, 7}.issubset(np.unique(masks).tolist())
