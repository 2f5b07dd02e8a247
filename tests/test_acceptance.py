"""Acceptance suite: one test per release criterion, each printed as a
PASS/FAIL line with the measured values.

Run with `pytest tests/test_acceptance.py -v -s`. The simulation-scale
criteria use 30 cities x 100 users per environment under a fixed master
seed; the tree-peak criterion uses a larger sample because the tree
blockage probability is small and its angular profile needs resolving.
"""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from urbanlos.citygen import PRESETS, GenConfig, generate_city
from urbanlos.geometry import LayoutGeometry
from urbanlos.montecarlo import (
    BUILDINGS_ONLY,
    FULL,
    WITH_TREES,
    SweepConfig,
    mean_abs_delta_p_los,
    run_scenarios,
)
from urbanlos.oracle import check_links, random_links
from urbanlos.outputs import write_counts_csv
from urbanlos.pathloss import (
    VegGeometry,
    VegetationParams,
    composite_bins,
    fit_ab,
    fspl,
    median_extra_loss,
    pl_nlos_building,
    veg_attenuation,
)

ACCEPT_SEED = 1
ENVS = ("urban", "dense_urban", "high_rise")

# Target coefficients and tolerances for the A-B model reproduction.
TABLE_TARGETS = {
    # env: (A buildings-only, A with trees, shared B)
    "urban": (43.90, 46.55, 3.38),
    "dense_urban": (40.83, 43.52, 3.75),
    "high_rise": (38.64, 40.26, 4.26),
}
TOL_A_DB = 1.5
TOL_B = 0.15
TOL_DELTA_B = 0.02

MEDIAN_TARGETS = {"urban": 2.74, "dense_urban": 2.71, "high_rise": 1.62}
TOL_MEDIAN_DB = 0.5
P95_TARGET_URBAN = 2.99
TOL_P95_DB = 0.7


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="session")
def env_results():
    """Default-scale paired scenario runs for all three environments."""
    sweep = SweepConfig(n_cities=30)
    out = {}
    for env in ENVS:
        out[env] = run_scenarios(
            PRESETS[env],
            GenConfig(seed=ACCEPT_SEED),
            sweep,
            [BUILDINGS_ONLY, WITH_TREES, FULL],
        )
    return out


def _fits(results, env):
    fits = {}
    for scenario in ("buildings-only", "trees"):
        stats = results[env][scenario][1]
        bins = composite_bins(stats, seed=ACCEPT_SEED)
        fits[scenario] = fit_ab(
            [(d, pl) for d, pl, _ in bins], weights=[n for *_, n in bins]
        )
    return fits


def test_table2_reproduction(env_results):
    """A-B coefficients per environment, buildings-only and +200 trees."""
    failures = []
    for env, (a_b_target, a_t_target, b_target) in TABLE_TARGETS.items():
        fits = _fits(env_results, env)
        fb, ft = fits["buildings-only"], fits["trees"]
        checks = [
            (f"{env} buildings-only A", fb.a_db, a_b_target, TOL_A_DB),
            (f"{env} buildings-only B", fb.b, b_target, TOL_B),
            (f"{env} trees A", ft.a_db, a_t_target, TOL_A_DB),
            (f"{env} |dB|", abs(ft.b - fb.b), 0.0, TOL_DELTA_B),
        ]
        for name, measured, target, tol in checks:
            if abs(measured - target) > tol:
                failures.append(f"{name}={measured:.2f} (target {target}±{tol})")
        _report(
            f"table-2 {env}",
            not any(f.startswith(env) for f in failures),
            f"buildings-only A={fb.a_db:.2f} B={fb.b:.2f} rmse={fb.rmse_db:.2f}; "
            f"trees A={ft.a_db:.2f} B={ft.b:.2f} rmse={ft.rmse_db:.2f}",
        )
    assert not failures, "; ".join(failures)


def test_median_tree_loss(env_results):
    """Median (and urban 95th percentile) extra composite loss from trees."""
    failures = []
    for env, target in MEDIAN_TARGETS.items():
        stats_b = env_results[env]["buildings-only"][1]
        stats_t = env_results[env]["trees"][1]
        bins_b = [(d, pl) for d, pl, _ in composite_bins(stats_b, seed=ACCEPT_SEED)]
        bins_t = [(d, pl) for d, pl, _ in composite_bins(stats_t, seed=ACCEPT_SEED)]
        med, p95 = median_extra_loss(bins_t, bins_b)
        ok = abs(med - target) <= TOL_MEDIAN_DB
        if env == "urban":
            ok = ok and abs(p95 - P95_TARGET_URBAN) <= TOL_P95_DB
            detail = f"median={med:.4f} dB (target {target}±{TOL_MEDIAN_DB}), p95={p95:.4f} (target {P95_TARGET_URBAN}±{TOL_P95_DB})"
        else:
            detail = f"median={med:.4f} dB (target {target}±{TOL_MEDIAN_DB})"
        _report(f"median tree loss {env}", ok, detail)
        if not ok:
            failures.append(f"{env}: {detail}")
    assert not failures, "; ".join(failures)


def test_streetlight_negligibility(env_results):
    """500 streetlights shift mean P_LoS by at most 0.03."""
    delta = mean_abs_delta_p_los(
        env_results["urban"]["trees"][0], env_results["urban"]["full"][0]
    )
    ok = delta <= 0.03
    _report("streetlight delta", ok, f"mean |dP_LoS| = {delta:.6f} (limit 0.03)")
    assert ok, delta


def test_tree_blockage_peak():
    """Tree-caused NLoS probability peaks between 50 and 60 degrees."""
    failures = []
    for env in ("urban", "dense_urban"):
        res = run_scenarios(
            PRESETS[env],
            GenConfig(seed=ACCEPT_SEED, n_gu=1500),
            SweepConfig(n_cities=60),
            [WITH_TREES],
        )
        curve = res["trees"][0]
        p_t = curve.p_nlos_t
        # 9-degree moving average to resolve the argmax of a small probability
        kernel = np.ones(9) / 9.0
        smooth = np.convolve(p_t, kernel, mode="valid")
        peak_theta = float(curve.keys[int(np.argmax(smooth)) + 4])
        ok = 50.0 <= peak_theta <= 60.0
        _report(
            f"tree-blockage peak {env}",
            ok,
            f"smoothed argmax at {peak_theta:.0f} deg (target [50, 60]), "
            f"max p_nlos_t = {p_t.max():.5f}",
        )
        if not ok:
            failures.append(f"{env} peak at {peak_theta:.0f} deg")
    assert not failures, "; ".join(failures)


def test_high_elevation_limit(env_results):
    """P_LoS at the capped top angle reaches at least 0.97 everywhere."""
    failures = []
    for env in ENVS:
        curve = env_results[env]["full"][0]
        top = float(curve.p_los[-1])
        ok = top >= 0.97
        _report(f"high-elevation P_LoS {env}", ok, f"P_LoS(90deg) = {top:.4f} (floor 0.97)")
        if not ok:
            failures.append(f"{env}: {top:.4f}")
    assert not failures, "; ".join(failures)


def test_oracle_equivalence():
    """Analytic classifier vs the exact-predicate oracle on 1000 links per environment."""
    rng = default_rng(ACCEPT_SEED)
    total = 0
    for env in ENVS:
        layout = generate_city(PRESETS[env], GenConfig(seed=ACCEPT_SEED))
        geom = LayoutGeometry(layout)
        links = random_links(geom, rng, 1000)
        results = check_links(geom, links)
        mismatches = [i for i, (_, fast, brute) in enumerate(results) if fast is not brute.link_class]
        _report(
            f"oracle equivalence {env}",
            not mismatches,
            f"{len(mismatches)} disagreements over 1000 links",
        )
        total += len(mismatches)
    assert total == 0


def test_closed_form_golden_values():
    """Frozen component values: FSPL, building NLoS, foliage attenuation."""
    ok_fspl = fspl(100.0) == 101.4
    ok_plb = pl_nlos_building(100.0) == 130.4
    t_att = veg_attenuation(
        VegGeometry(d1=100.0, d2=5.0, d_t=2.0, r_t=1.0), VegetationParams()
    )
    ok_veg = abs(t_att - 7.7918751013142272) < 1e-6
    _report(
        "closed-form golden values",
        ok_fspl and ok_plb and ok_veg,
        f"fspl(100)={fspl(100.0)}, pl_nlos_b(100)={pl_nlos_building(100.0)}, "
        f"T_att={t_att:.10f}",
    )
    assert ok_fspl and ok_plb and ok_veg


def test_probability_partitions(env_results):
    """Per-angle and per-bin partitions sum to one within 1e-12."""
    worst = 0.0
    for env in ENVS:
        for curve, stats in env_results[env].values():
            angle_err = np.abs(
                curve.p_los + curve.p_nlos_b + curve.p_nlos_t + curve.p_nlos_s - 1.0
            ).max()
            bin_err = np.abs(
                stats.p_los + stats.p_nlos_b + stats.p_nlos_t + stats.p_nlos_s - 1.0
            ).max()
            worst = max(worst, float(angle_err), float(bin_err))
    ok = worst < 1e-12
    _report("probability partitions", ok, f"worst |sum - 1| = {worst:.2e}")
    assert ok


def test_paired_obstacle_monotonicity():
    """Adding obstacle families never converts NLoS links to LoS (10^4 links)."""
    layout = generate_city(PRESETS["urban"], GenConfig(seed=ACCEPT_SEED, n_gu=500))
    geom = LayoutGeometry(layout)
    rng = default_rng(ACCEPT_SEED + 1)
    violations = 0
    checked = 0
    for _ in range(20):
        from urbanlos.citygen import sample_open_point

        ax, ay = sample_open_point(geom.index, rng, what="abs")
        gu = np.array([[u.x, u.y] for u in layout.users])
        alt_b, alt_s, t_link, t_idx, t_alt = geom.batch_critical_altitudes(
            (ax, ay), gu, 1.5
        )
        alt_t = np.full(len(gu), -np.inf)
        if t_alt.size:
            np.maximum.at(alt_t, t_link, t_alt)
        h = 1.5 + np.hypot(gu[:, 0] - ax, gu[:, 1] - ay) * math.tan(math.radians(40.0))
        los_b = h > alt_b
        los_bt = los_b & (h > alt_t)
        los_full = los_bt & (h > alt_s)
        violations += int(np.sum(~los_b & los_bt)) + int(np.sum(~los_bt & los_full))
        checked += len(gu)
    ok = violations == 0 and checked >= 10_000
    _report(
        "paired obstacle monotonicity",
        ok,
        f"{violations} violations over {checked} links",
    )
    assert ok


def test_fit_exact_recovery_battery():
    """100 random noiseless A-B datasets recover exactly."""
    rng = default_rng(ACCEPT_SEED + 2)
    d = np.logspace(1.0, 4.0, 40)
    worst_a = worst_b = worst_rmse = 0.0
    for _ in range(100):
        a = float(rng.uniform(20.0, 80.0))
        b = float(rng.uniform(1.0, 5.0))
        fit = fit_ab(list(zip(d, a + 10.0 * b * np.log10(d))))
        worst_a = max(worst_a, abs(fit.a_db - a))
        worst_b = max(worst_b, abs(fit.b - b))
        worst_rmse = max(worst_rmse, fit.rmse_db)
    ok = worst_a < 1e-9 and worst_b < 1e-9 and worst_rmse < 1e-9
    _report(
        "fit exact recovery",
        ok,
        f"worst |dA|={worst_a:.2e}, |dB|={worst_b:.2e}, rmse={worst_rmse:.2e}",
    )
    assert ok


def test_seeded_run_reproduction(env_results, tmp_path):
    """Re-running the urban sweep reproduces bit-identical outputs."""
    rerun = run_scenarios(
        PRESETS["urban"],
        GenConfig(seed=ACCEPT_SEED),
        SweepConfig(n_cities=30),
        [BUILDINGS_ONLY, WITH_TREES, FULL],
    )
    equal = all(
        rerun[name] == env_results["urban"][name] for name in ("buildings-only", "trees", "full")
    )
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    write_counts_csv(a_path, env_results["urban"]["full"][0])
    write_counts_csv(b_path, rerun["full"][0])
    identical = a_path.read_bytes() == b_path.read_bytes()
    _report(
        "seeded byte-identical reproduction",
        equal and identical,
        f"curves equal: {equal}, serialized bytes equal: {identical}",
    )
    assert equal and identical
