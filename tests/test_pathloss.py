"""Path-loss components, foliage attenuation, composite assembly, and the
A-B model fit. Golden values were frozen from high-precision scalar
evaluation before the implementation existed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanlos.errors import AggregationError, ParameterError
from urbanlos.montecarlo import DISTANCE_BIN_M, NLOS_T, class_counts
from urbanlos.pathloss import (
    VegGeometry,
    VegetationParams,
    composite_bins,
    composite_pl,
    fit_ab,
    fresnel_radius,
    fspl,
    median_extra_loss,
    min_illumination_area,
    pl_nlos_building,
    pl_nlos_tree,
    pl_vs_theta,
    sample_veg_geometry,
    veg_attenuation,
)

# frozen scalar-oracle values for f = 28 GHz, d1 = 100 m, d2 = 5 m, r_t = 1 m
GOLDEN_FRESNEL_M = 0.22579883060981938
GOLDEN_A_MIN_M2 = 0.20394044761904762
GOLDEN_T_ATT_DB = 7.7918751013142272  # at d_t = 2 m

GOLDEN_GEOM = VegGeometry(d1=100.0, d2=5.0, d_t=2.0, r_t=1.0)
PARAMS_28 = VegetationParams()


# -- log-distance components ---------------------------------------------------


def test_fspl_values():
    assert fspl(1.0) == 61.4
    assert fspl(10.0) == 81.4
    assert fspl(100.0) == 101.4
    with pytest.raises(ParameterError):
        fspl(0.0)


def test_nlos_building_values():
    assert pl_nlos_building(1.0) == 72.0
    assert pl_nlos_building(10.0) == 101.2
    assert pl_nlos_building(100.0) == 130.4
    with pytest.raises(ParameterError):
        pl_nlos_building(-5.0)


# -- Fresnel geometry ------------------------------------------------------------


def test_fresnel_radius_golden():
    r = fresnel_radius(PARAMS_28.wavelength_m, 100.0, 5.0)
    assert r == pytest.approx(GOLDEN_FRESNEL_M, abs=1e-12)


def test_fresnel_radius_symmetry():
    lam = PARAMS_28.wavelength_m
    assert fresnel_radius(lam, 100.0, 5.0) == fresnel_radius(lam, 5.0, 100.0)


@given(d=st.floats(1.0, 5000.0))
def test_fresnel_equal_arms(d):
    lam = 0.0107
    assert fresnel_radius(lam, d, d) == pytest.approx(math.sqrt(lam * d / 2.0), rel=1e-12)


def test_fresnel_domain():
    with pytest.raises(ParameterError):
        fresnel_radius(0.01, 0.0, 5.0)


def test_min_illumination_area():
    assert min_illumination_area(GOLDEN_FRESNEL_M, 1.0) == pytest.approx(
        GOLDEN_A_MIN_M2, abs=1e-12
    )
    assert min_illumination_area(0.5, 0.5) == 1.0
    assert min_illumination_area(10.0, 1.5) == 9.0
    with pytest.raises(ParameterError):
        min_illumination_area(-1.0, 1.0)


# -- foliage attenuation -----------------------------------------------------------


def test_veg_attenuation_zero_depth():
    geom = VegGeometry(d1=100.0, d2=5.0, d_t=0.0, r_t=1.0)
    assert veg_attenuation(geom, PARAMS_28) == 0.0


def test_veg_attenuation_golden():
    assert veg_attenuation(GOLDEN_GEOM, PARAMS_28) == pytest.approx(
        GOLDEN_T_ATT_DB, abs=1e-9
    )


def test_veg_attenuation_initial_slope():
    # derivative at zero equals the initial slope a * f = 5.6 dB/m
    geom = VegGeometry(d1=100.0, d2=5.0, d_t=1e-6, r_t=1.0)
    slope = veg_attenuation(geom, PARAMS_28) / 1e-6
    assert slope == pytest.approx(0.2 * 28.0, rel=1e-4)


def test_veg_attenuation_final_slope():
    # with the exponential saturated, consecutive depths differ by b / f^c
    r_inf = 1.27 / 28.0**0.63
    a = veg_attenuation(VegGeometry(d1=100.0, d2=5.0, d_t=1000.0, r_t=500.0), PARAMS_28)
    b = veg_attenuation(VegGeometry(d1=100.0, d2=5.0, d_t=999.0, r_t=500.0), PARAMS_28)
    assert a - b == pytest.approx(r_inf, abs=1e-9)


@given(
    pair=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).filter(
        lambda p: abs(p[0] - p[1]) > 1e-9
    )
)
@settings(max_examples=50)
def test_veg_attenuation_strictly_increasing(pair):
    lo, hi = sorted(pair)
    t_lo = veg_attenuation(VegGeometry(100.0, 5.0, lo, 1.0), PARAMS_28)
    t_hi = veg_attenuation(VegGeometry(100.0, 5.0, hi, 1.0), PARAMS_28)
    assert t_hi > t_lo


def test_veg_attenuation_flags_bad_units():
    # mid-path split with a wide canopy drives the saturation constant negative
    geom = VegGeometry(d1=500.0, d2=500.0, d_t=2.0, r_t=1.5)
    with pytest.raises(ParameterError, match="k="):
        veg_attenuation(geom, PARAMS_28)


def test_veg_geometry_validation():
    with pytest.raises(ParameterError):
        VegGeometry(d1=0.0, d2=5.0, d_t=1.0, r_t=1.0)
    with pytest.raises(ParameterError):
        VegGeometry(d1=10.0, d2=5.0, d_t=3.0, r_t=1.0)  # depth beyond diameter


def test_pl_nlos_tree_composition():
    geom = VegGeometry(d1=100.0, d2=5.0, d_t=0.0, r_t=1.0)
    assert pl_nlos_tree(100.0, geom, PARAMS_28) == fspl(100.0)
    assert pl_nlos_tree(100.0, GOLDEN_GEOM, PARAMS_28) == pytest.approx(
        101.4 + GOLDEN_T_ATT_DB, abs=1e-9
    )


# -- composite ----------------------------------------------------------------------


def test_composite_pure_los():
    assert composite_pl([[1.0, 0.0, 0.0, 0.0]], d_m=[250.0]).tolist() == [fspl(250.0)]


def test_composite_pure_building():
    assert composite_pl([[0.0, 1.0, 0.0, 0.0]], d_m=[100.0]).tolist() == [130.4]


def test_composite_equal_mix_is_mean():
    (pl,) = composite_pl([[0.5, 0.5, 0.0, 0.0]], d_m=[100.0])
    assert pl == pytest.approx((101.4 + 130.4) / 2.0, abs=1e-12)


def test_composite_partition_violation():
    with pytest.raises(AggregationError, match=r"\(0\.6, 0\.6, 0\.0, 0\.0\)"):
        composite_pl([[0.5, 0.5, 0.0, 0.0], [0.6, 0.6, 0.0, 0.0]], d_m=[100.0, 100.0])
    with pytest.raises(AggregationError):
        composite_pl([[1.5, -0.5, 0.0, 0.0]], d_m=[100.0])


def test_composite_needs_positive_distance():
    with pytest.raises(ParameterError):
        composite_pl([[1.0, 0.0, 0.0, 0.0]], d_m=[0.0])


def test_composite_needs_veg_geometry():
    with pytest.raises(ParameterError):
        composite_pl([[0.5, 0.0, 0.5, 0.0]], d_m=[100.0])
    with pytest.raises(ParameterError):  # one geometry per row with tree mass
        composite_pl([[0.5, 0.0, 0.5, 0.0]] * 2, d_m=[100.0] * 2, veg=[GOLDEN_GEOM])


def test_composite_streetlight_charged_free_space():
    assert composite_pl([[0.0, 0.0, 0.0, 1.0]], d_m=[400.0]).tolist() == [fspl(400.0)]
    (mixed,) = composite_pl([[0.6, 0.3, 0.0, 0.1]], d_m=[400.0])
    expected = 0.7 * fspl(400.0) + 0.3 * pl_nlos_building(400.0)
    assert mixed == pytest.approx(expected, abs=1e-12)


def test_composite_of_no_rows_is_empty():
    pl = composite_pl(np.zeros((0, 4)), d_m=[])
    assert isinstance(pl, np.ndarray) and pl.shape == (0,)


def test_composite_tables_without_rows_give_no_rows():
    """An empty distance table, and an angle curve whose only angle is 0°
    (no finite distance), give empty tables."""
    assert composite_bins(class_counts((), (), mean_d=())) == []
    assert pl_vs_theta(class_counts((0.0,), [(1, 0, 0, 0)])) == []


@given(
    raw=st.tuples(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
    ).filter(lambda r: sum(r) > 1e-6),
    d=st.floats(30.0, 3000.0),
)
@settings(max_examples=80)
def test_composite_within_component_envelope(raw, d):
    total = sum(raw)
    p = [v / total for v in raw]
    veg = VegGeometry(d1=max(d - 6.0, 1.0), d2=6.0, d_t=1.0, r_t=1.0)
    (pl,) = composite_pl([p], d_m=[d], veg=[veg] if p[2] > 0.0 else [])
    components = [fspl(d), pl_nlos_building(d), pl_nlos_tree(d, veg, PARAMS_28)]
    assert min(components) - 1e-9 <= pl <= max(components) + 1e-9


def _reference_composite_pl(probs, d, veg):
    """The mixture for one row in Python floats, the per-row form of
    composite_pl."""
    p_los, p_b, p_t, p_s = probs
    pl = p_b * float(pl_nlos_building(d))
    if p_t > 0.0:
        pl += p_t * (float(fspl(d)) + veg_attenuation(veg, PARAMS_28))
    return pl + (p_los + p_s) * float(fspl(d))


def test_composite_rows_match_the_per_row_formula():
    """composite_pl of a table's probability matrix, composite_bins and
    pl_vs_theta give bit for bit the floats of the per-row formula, on
    tables whose rows hold every mix of classes, with and without tree
    mass."""
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 4, size=(91, 4)) * rng.integers(0, 2, size=(91, 4))
    counts[:, 0] += counts.sum(axis=1) == 0  # no row without samples
    assert (counts[:, NLOS_T] > 0).sum() > 20 and (counts[:, NLOS_T] == 0).sum() > 20
    centers = [(k + 0.5) * DISTANCE_BIN_M for k in range(91)]
    stats = class_counts(centers, counts, mean_d=centers)
    curve = class_counts([float(k) for k in range(91)], counts)
    probs = stats.p.tolist()

    veg = [sample_veg_geometry(d, 5, k) for k, d in enumerate(centers)]
    want = [_reference_composite_pl(probs[k], d, veg[k]) for k, d in enumerate(centers)]
    treed = [g for g, row in zip(veg, counts) if row[NLOS_T] > 0]
    assert composite_pl(stats.p, centers, treed).tolist() == want
    assert [pl for _, pl, _ in composite_bins(stats, seed=5)] == want
    rows = pl_vs_theta(curve, seed=5)
    want = [_reference_composite_pl(probs[k], d, sample_veg_geometry(d, 5, k)) for k, (_, d, _) in enumerate(rows, 1)]
    assert [pl for *_, pl in rows] == want


def test_sample_veg_geometry_deterministic():
    a = sample_veg_geometry(500.0, seed=7, bin_index=3)
    b = sample_veg_geometry(500.0, seed=7, bin_index=3)
    assert a == b
    assert 4.0 <= a.d2 <= 8.0
    assert 0.5 <= a.d_t <= 2.0
    assert a.d1 == 500.0 - a.d2


# -- fitting ------------------------------------------------------------------------


def test_fit_two_point_hand_case():
    fit = fit_ab([(1.0, 61.4), (10.0, 81.4)])
    assert fit.a_db == pytest.approx(61.4, abs=1e-9)
    assert fit.b == pytest.approx(2.0, abs=1e-9)
    assert fit.rmse_db < 1e-9


def test_fit_recovers_table_row():
    d = np.logspace(1.5, 3.2, 40)
    pl = 46.55 + 10 * 3.38 * np.log10(d)
    fit = fit_ab(list(zip(d, pl)))
    assert fit.a_db == pytest.approx(46.55, abs=1e-9)
    assert fit.b == pytest.approx(3.38, abs=1e-9)
    assert fit.rmse_db < 1e-9


@given(a=st.floats(10.0, 90.0), b=st.floats(0.5, 6.0))
@settings(max_examples=60)
def test_fit_exact_recovery(a, b):
    d = np.logspace(1.0, 4.0, 25)
    pl = a + 10.0 * b * np.log10(d)
    fit = fit_ab(list(zip(d, pl)))
    assert abs(fit.a_db - a) < 1e-8
    assert abs(fit.b - b) < 1e-9
    assert fit.rmse_db < 1e-8


def test_fit_constant_offset_shifts_only_intercept():
    rng = np.random.default_rng(5)
    d = np.logspace(1.5, 3.0, 30)
    pl = 44.0 + 10 * 3.4 * np.log10(d) + rng.normal(0.0, 1.0, d.size)
    base = fit_ab(list(zip(d, pl)))
    shifted = fit_ab(list(zip(d, pl + 2.65)))
    assert shifted.b == pytest.approx(base.b, abs=1e-9)
    assert shifted.a_db - base.a_db == pytest.approx(2.65, abs=1e-9)


def test_fit_weights_match_duplication():
    pts = [(100.0, 100.0), (1000.0, 140.0), (5000.0, 160.0)]
    doubled = fit_ab(pts + [pts[1]])
    weighted = fit_ab(pts, weights=[1.0, 2.0, 1.0])
    assert weighted.a_db == pytest.approx(doubled.a_db, abs=1e-9)
    assert weighted.b == pytest.approx(doubled.b, abs=1e-9)


def test_fit_rank_deficient():
    with pytest.raises(ParameterError, match="rank"):
        fit_ab([(100.0, 90.0), (100.0, 95.0)])
    with pytest.raises(ParameterError):
        fit_ab([(100.0, 90.0)])


# -- PL against elevation ---------------------------------------------------------------


def _curve(theta_list, p_los_list):
    n = 1000
    los = [int(round(p * n)) for p in p_los_list]
    return class_counts(theta_list, [(v, n - v, 0, 0) for v in los])


def test_pl_vs_theta_distances():
    curve = _curve([0.0, 30.0, 90.0], [0.0, 0.5, 1.0])
    rows = pl_vs_theta(curve)
    assert [r[0] for r in rows] == [30.0, 90.0]  # theta = 0 excluded
    assert rows[0][1] == pytest.approx(197.0, rel=1e-9)
    assert rows[1][1] == pytest.approx(98.5, rel=1e-9)
    assert rows[1][2] < rows[0][2]  # nearer and clearer means less loss


def test_median_extra_loss_identity():
    bins = [(25.0, 100.0), (75.0, 110.0)]
    assert median_extra_loss(bins, bins) == (0.0, 0.0)


def test_median_extra_loss_values():
    without = [(float(d), 100.0) for d in range(5)]
    withs = [(float(d), 100.0 + v) for d, v in zip(range(5), (1.0, 2.0, 3.0, 4.0, 5.0))]
    med, p95 = median_extra_loss(withs, without)
    assert med == 3.0
    assert p95 == pytest.approx(4.8, abs=1e-12)


def test_median_extra_loss_unpaired():
    with pytest.raises(AggregationError):
        median_extra_loss([(25.0, 1.0)], [(75.0, 1.0)])
    with pytest.raises(AggregationError):
        median_extra_loss([(25.0, 1.0)], [(25.0, 1.0), (75.0, 2.0)])
