"""Byte contract: fixed-seed outputs pinned to sha256 values.

The simulate, hit-dump and kernel digests were recorded before the
critical-altitude derivation was unified, the fit, report and path-loss
digests before the composite path-loss input was flattened into
arguments, and the crowded run's digests before the scenarios were
folded from blockage masks; a refactor that keeps them keeps every CSV
byte, the layout hash, the oracle hit dump and the kernel's floats
unchanged. A deliberate change of outputs must re-record them and say
why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from urbanlos.citygen import PRESETS, STREAM_ABS, GenConfig, city_rng, generate_city, sample_open_point
from urbanlos.cli import main
from urbanlos.geometry import LayoutGeometry, Link
from urbanlos.montecarlo import class_counts
from urbanlos.oracle import check_links, random_links
from urbanlos.outputs import ANGLE_KEY, DISTANCE_KEY, read_counts_csv, write_counts_csv, write_hit_dump
from urbanlos.pathloss import VegetationParams, composite_bins, pl_vs_theta

ANGLES_SHA = "b7ad24ada62bfb63e0eae5519a1dc5c34354496d511fe685f0469cd913baf671"
DISTANCE_SHA = "7f6d479bff56187f08ebdb614e0f99d1da07b238832ee77446b459c17f064016"
SIMULATE_GOLDEN = {
    "angles_buildings-only.csv": ANGLES_SHA,
    "angles_full.csv": ANGLES_SHA,
    "angles_trees.csv": ANGLES_SHA,
    "delta_buildings-only_vs_trees.csv": "5020af7c9744bcab2e9116635e21338d0807c592facb2ba8f2bd64c1ad9ebc10",
    "density_0.csv": ANGLES_SHA,
    "density_50.csv": ANGLES_SHA,
    "distance_buildings-only.csv": DISTANCE_SHA,
    "distance_full.csv": DISTANCE_SHA,
    "distance_trees.csv": DISTANCE_SHA,
}
# fit and report of the same run; it has no tree-blocked bin, so the
# vegetation draws are pinned separately by PATHLOSS_SHA
PATHLOSS_GOLDEN = {
    "fits.csv": "f666a9d631b25c755d044bcc1418e6cb827dadb3abb46dc20e28d3a8a89550e1",
    "report_density.csv": "987fbbfe438a862c01958c82ed9dd88e26c4ebc3cd0343a7216fa3043df0941c",
    "report_pl_vs_theta.csv": "4844ab447ebdc9bf45bdb81ea22bfab1c17eac95635d69fbe7930764043052ad",
    "report_plos_vs_distance.csv": "f1d58c1008d610aee8d69e7754528a8ad2bbfb1355319012d65c05018be50ad2",
    "report_tree_nlos_vs_theta.csv": "4879934b644c35af4c43bfd5a0b06f4f211dddfdc6b4c23469b615815ac7d6db",
}
PATHLOSS_SHA = "b56b2aa791d9e7db06df0e3421bac2ee55dea1590e6b321dd438c254575d28a8"
# a small city crowded with trees and lights, so its links are blocked by
# every family and the three scenarios differ; its fit and report included
CROWDED_ARGS = ["--area", "250000", "--n-trees", "400", "--n-lights", "400", "--densities", "0,100,400"]
CROWDED_BUILDINGS = "673bc21ae9fda6a76d5582fd4f83fbfe439d36c2e405d222c21257abbbc90bf8"
CROWDED_TREES = "606e87ef69274d54e45b540c0e6f47c9c13c4a70248e8971811483e372daf9cd"
CROWDED_GOLDEN = {
    "angles_buildings-only.csv": CROWDED_BUILDINGS,
    "angles_full.csv": "21c691a0975250e567d8193468533776c967c5f445e7265a821349981a026671",
    "angles_trees.csv": CROWDED_TREES,
    "delta_buildings-only_vs_trees.csv": "cecfad45087bf1094f15147d3453487cfd948cc4a86293f198c97338b5a91d73",
    "density_0.csv": CROWDED_BUILDINGS,
    "density_100.csv": "24064c9dc079872e7c0c52153e60df877ebab20e50616f6d8365b9d050cc3b2c",
    "density_400.csv": CROWDED_TREES,
    "distance_buildings-only.csv": "fc57ed2c5a13cbdbe775b42acc77331491689645b90c6a42a196b95d2ae35ba9",
    "distance_full.csv": "f61f3619f3913bb57e7b9f724901431276f8a45cf2604566814d69a1e1b10c1d",
    "distance_trees.csv": "ee1c638200562eb9a1fc97c49027540900f783455729476dc847bd36b2096413",
    "fits.csv": "7714c86203b11ff4ab4954312a0ddd8f9a0c7042823df3fd6415994ed786cc57",
    "report_density.csv": "8206d177399d784b2711a5d53dd1dd95357a7f2732c369094ad3c5bd5c5c65d9",
    "report_pl_vs_theta.csv": "8b9d8430ef5d13f26d0410f072b19068580056857a2ed249f7914d1e77ee4eb4",
    "report_plos_vs_distance.csv": "2aae62d4e9e79d1e2476b0c28652b1d0aabe36580393cdc8aac2510abe3a410b",
    "report_tree_nlos_vs_theta.csv": "f81dc7304a0cdee1270f1c134f6417c0050ce0a29a8050194aa7c26c6429a5d8",
}
LAYOUT_HASH = "2b4a0690c41f38dbcac70aee8c9864cac444c51fc6e367ec74ecb09d07da4676"
HITS_SHA = "eadf0e5ee34330dbcf08ae8ca0290aba6a081958da349a1a34b70aa73ff8bbc0"
# the same dump for the layouts whose links cross trees and streetlights
OBSTACLE_HITS_SHA = {
    "urban": "8218f9ac1e922824022d63b7588aa21d73f83b86b1955735e42c540c6bb28cf4",
    "dense_urban": "7b270d6e04d5a5fb227b073c7a6cf4fd9717b4ad1982c94babe7fef5a915974e",
}
# oracle-check --env high_rise --seed 37 --n-links 300, whose link 132 dips
# under building 97 for less than 1 cm, which a 1 cm raster missed: its
# summary and dump
MISS_ARGS = ["oracle-check", "--env", "high_rise", "--seed", "37", "--n-links", "300"]
MISS_STDOUT = "300 links, 0 disagreements\n"
MISS_HITS_SHA = "858a0713e264d658df22385309055fcc983322871533292019e938a1b38f0a4a"
# dense_urban, seed 2, 1000 users: batch arrays, and the crossings, class and
# critical altitudes of 300 links at 20 m (these include blocking tree and
# streetlight hits, which the small simulate run above never produces)
KERNEL_SHA = "85c3334b1eee0a286cbd62383c67a53cb07be33d726665301c84babe6d0f8d38"
CROSSINGS_SHA = "e5d4db92977986fe49dfa8d6eaf2ec545767e2b5a61a7573b6740ede841ce3b4"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    args = ["simulate", "--env", "urban", "--seed", "1", "--n-cities", "2", "--n-gu", "20"]
    assert main(args + ["--densities", "0,50", "--out", str(root)]) == 0
    (run,) = [p for p in root.iterdir() if p.is_dir()]
    return run


def test_simulate_golden_bytes(golden_run):
    assert {p.name: _sha(p) for p in golden_run.glob("*.csv")} == SIMULATE_GOLDEN
    assert json.loads((golden_run / "manifest.json").read_text())["layout_hash"] == LAYOUT_HASH
    assert main(["fit", "--run", str(golden_run)]) == 0
    assert main(["report", "--run", str(golden_run)]) == 0
    written = {p.name: _sha(p) for p in golden_run.glob("*.csv") if p.name not in SIMULATE_GOLDEN}
    assert written == PATHLOSS_GOLDEN


def test_simulate_golden_bytes_with_tree_and_light_blockage(tmp_path):
    args = ["simulate", "--env", "urban", "--seed", "1", "--n-cities", "2", "--n-gu", "1000"]
    assert main(args + CROWDED_ARGS + ["--out", str(tmp_path)]) == 0
    (run,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert main(["fit", "--run", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 0
    assert {p.name: _sha(p) for p in run.glob("*.csv")} == CROWDED_GOLDEN


@pytest.mark.parametrize(
    "prefix, key_column", [("angles", ANGLE_KEY), ("density", ANGLE_KEY), ("distance", DISTANCE_KEY)]
)
def test_count_csv_round_trip(golden_run, tmp_path, prefix, key_column):
    """Reading a count CSV and writing the table again gives its bytes."""
    paths = sorted(golden_run.glob(f"{prefix}_*.csv"))
    assert paths
    for path in paths:
        write_counts_csv(tmp_path / path.name, read_counts_csv(path, key_column))
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_pathloss_golden():
    """Composite rows with tree-blocked mass: vegetation keyed by distance
    bin index and by angle index, theta = 0 dropped, a non-default h_gu."""
    stats = class_counts(
        (25.0, 125.0, 175.0, 975.0, 5025.0),
        # los, nlos_b, nlos_t, nlos_s per row
        [(5, 0, 2, 1), (3, 4, 1, 0), (0, 2, 3, 1), (1, 6, 0, 1), (0, 7, 2, 0)],
        mean_d=(0.0,) * 5,
    )
    curve = class_counts(
        (0.0, 1.0, 30.0, 89.0, 90.0),
        [(0, 9, 0, 0), (1, 5, 3, 0), (4, 2, 2, 1), (8, 0, 1, 0), (9, 0, 0, 0)],
    )
    digest = hashlib.sha256()
    digest.update(repr(composite_bins(stats, params=VegetationParams(f_ghz=28.0), seed=4)).encode())
    rows = pl_vs_theta(curve, h_gu_m=3.0, params=VegetationParams(f_ghz=60.0), seed=4)
    digest.update(repr(rows).encode())
    assert digest.hexdigest() == PATHLOSS_SHA


def test_oracle_hit_dump_golden(tmp_path):
    dump = tmp_path / "hits.json"
    args = ["oracle-check", "--env", "high_rise", "--seed", "1", "--n-links", "50"]
    assert main(args + ["--dump-hits", str(dump)]) == 0
    assert _sha(dump) == HITS_SHA


@pytest.mark.parametrize("env", sorted(OBSTACLE_HITS_SHA))
def test_oracle_hit_dump_golden_with_trees_and_lights(tmp_path, env):
    dump = tmp_path / "hits.json"
    args = ["oracle-check", "--env", env, "--seed", "1", "--n-links", "50"]
    assert main(args + ["--dump-hits", str(dump)]) == 0
    assert _sha(dump) == OBSTACLE_HITS_SHA[env]


def test_oracle_hit_dump_golden_on_a_known_miss(tmp_path, capsys):
    """A seed where a 1 cm raster disagreed keeps its exit code, summary and
    dump bytes, link 132 blocked by building 97."""
    dump = tmp_path / "hits.json"
    assert main(MISS_ARGS + ["--dump-hits", str(dump)]) == 0
    assert capsys.readouterr().out == MISS_STDOUT
    assert _sha(dump) == MISS_HITS_SHA


def _hit_record(link, hits, brute) -> dict:
    """One link's hit-dump record built field by field, the reference
    write_hit_dump's templates are checked against."""
    return {
        "abs_xy": list(link.abs_xy),
        "gu_xy": list(link.gu_xy),
        "h_abs": link.h_abs,
        "analytic_hits": [vars(h) for h in hits],
        "bruteforce_crossed": {k: sorted(v) for k, v in brute.crossed.items()},
        "bruteforce_blocked": {k: sorted(v) for k, v in brute.blocked.items()},
    }


@pytest.mark.parametrize("env", sorted(PRESETS))
def test_hit_dump_is_indented_json(tmp_path, env):
    """write_hit_dump writes json.dumps(records, indent=2) + "\n" for no
    link, one, and random links plus a 0.5 m one that crosses nothing."""
    geom = LayoutGeometry(generate_city(PRESETS[env], GenConfig(seed=1)))
    links = random_links(geom, np.random.default_rng(1), 20)
    x, y = links[0].gu_xy
    links.append(Link((x + 0.5, y), links[0].h_abs, (x, y), links[0].h_gu))
    checked = [(link, hits, brute) for link, (hits, _, brute) in zip(links, check_links(geom, links))]
    assert not checked[-1][1] and {h.blocks for _, hits, _ in checked for h in hits} == {False, True}
    assert not all(checked[-1][2].crossed.values())  # a family with an empty id list
    path = tmp_path / "hits.json"
    for part in ([], checked[-1:], checked):
        write_hit_dump(path, part)
        assert path.read_text() == json.dumps([_hit_record(*c) for c in part], indent=2) + "\n"


def test_kernel_golden():
    layout = generate_city(PRESETS["dense_urban"], GenConfig(n_gu=1000, seed=2))
    geom = LayoutGeometry(layout)
    ax, ay = sample_open_point(geom, city_rng(2, 0, STREAM_ABS))
    gu = np.array([[u.x, u.y] for u in layout.users])
    digest = hashlib.sha256()
    for arr in geom.batch_critical_altitudes((ax, ay), gu, 1.5):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == KERNEL_SHA

    digest = hashlib.sha256()
    for user in layout.users[:300]:
        link = Link((ax, ay), 20.0, (user.x, user.y), 1.5)
        for h in geom.crossings(link):
            fields = (h.kind, h.index, h.r_i, h.obstacle_height, h.blockage_height, h.blocks)
            digest.update(repr(fields).encode())
        digest.update(repr((geom.classify(link).value, geom.critical_altitudes(link))).encode())
    assert digest.hexdigest() == CROSSINGS_SHA
