"""Command-line pipeline: generate, simulate, fit, report, oracle-check.

Each run writes into a directory keyed by the hash of its fully resolved
configuration, next to a manifest that reproduces the run byte-for-byte.
Configuration comes from defaults, then an optional YAML/JSON config
file or a previous manifest, then explicit flags, which win. A manifest is
accepted only when its config resolves to its own config_hash.

Exit codes: 0 success, 1 validation error, 2 infeasible generation,
3 missing inputs.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import sys
from pathlib import Path

import numpy as np

from .citygen import PRESETS, BuiltUpParams, GenConfig, generate_city, layout_json
from .errors import InfeasibleLayoutError, MissingInputError, ParameterError, UrbanLosError
from .geometry import LayoutGeometry
from .montecarlo import (
    BUILDINGS_ONLY,
    SCENARIOS,
    WITH_TREES,
    SweepConfig,
    mean_abs_delta_p_los,
    parse_scenario,
    run_simulation,
)
from .outputs import (
    ANGLE_KEY,
    DISTANCE_KEY,
    FITS_CSV_COLUMNS,
    P_COLUMNS,
    config_hash,
    layouts_hash,
    read_counts_csv,
    write_counts_csv,
    write_csv,
    write_delta_csv,
    write_hit_dump,
    write_manifest,
)
from .pathloss import PL_THETA_ALTITUDE_M, VegetationParams, composite_bins, fit_ab, pl_vs_theta

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_MISSING = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the validation path
        raise ParameterError(message)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="YAML/JSON config file or a previous manifest")
    p.add_argument("--env", choices=sorted(PRESETS), help="environment preset")
    p.add_argument("--alpha", type=float, help="built-area ratio, overrides preset")
    p.add_argument("--beta", type=float, help="buildings per km^2, overrides preset")
    p.add_argument("--gamma", type=float, help="height scale in m, overrides preset")
    p.add_argument("--area", type=float, help="land area in m^2")
    p.add_argument("--n-trees", type=int, dest="n_trees")
    p.add_argument("--n-lights", type=int, dest="n_lights")
    p.add_argument("--n-gu", type=int, dest="n_gu")
    p.add_argument("--seed", type=int, help="master RNG seed")


# An empty list flag counts as not given.
def comma_separated_names(text: str) -> list[str] | None:
    return [s.strip() for s in text.split(",") if s.strip()] if text else None


def comma_separated_integers(text: str) -> list[int] | None:
    return [int(v) for v in text.split(",")] if text else None


def positive_integer(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urbanlos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate one city layout as JSON")
    _add_param_flags(p)
    p.add_argument("--out", type=Path, default=Path("runs"), help="output root directory")

    p = sub.add_parser("simulate", help="run the elevation-angle sweep")
    _add_param_flags(p)
    p.add_argument("--out", type=Path, default=Path("runs"), help="output root directory")
    p.add_argument("--n-cities", type=int, dest="n_cities")
    p.add_argument(
        "--scenario",
        type=comma_separated_names,
        help="comma-separated scenarios: buildings-only,trees,full",
    )
    p.add_argument(
        "--densities",
        type=comma_separated_integers,
        help="comma-separated tree counts for a density sweep (lights excluded)",
    )
    p.add_argument("--freq-ghz", type=float, dest="freq_ghz")

    p = sub.add_parser("fit", help="fit A-B path-loss models from simulate outputs")
    p.add_argument("--run", type=Path, required=True, help="simulate run directory")

    p = sub.add_parser("report", help="emit plot-ready CSV bundle from a run")
    p.add_argument("--run", type=Path, required=True, help="simulate run directory")

    p = sub.add_parser("oracle-check", help="compare the classifier against exact predicates")
    _add_param_flags(p)
    p.add_argument("--n-links", type=positive_integer, dest="n_links", default=1000)
    p.add_argument("--dump-hits", type=Path, dest="dump_hits", help="write per-link hit lists as JSON")
    return parser


# -- configuration resolution ------------------------------------------------

# Kinds of config values, named as an error message names them. bool is
# neither a count nor a number, and a string is never a number.
COUNT, REAL, TEXT = "an integer", "a finite number", "a string"
COUNTS, REALS, TEXTS = "a list of integers", "a list of finite numbers", "a list of strings"
ENVIRONMENT = "one of " + ", ".join(sorted(PRESETS))


def _is_count(value) -> bool:
    return type(value) is int


def _is_real(value) -> bool:
    # the comparison is exact for ints, so it also rejects ints beyond float range
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_text(value) -> bool:
    return type(value) is str


_KINDS = {
    COUNT: _is_count,
    REAL: _is_real,
    TEXT: _is_text,
    COUNTS: lambda v: type(v) is list and all(map(_is_count, v)),
    REALS: lambda v: type(v) is list and all(map(_is_real, v)),
    TEXTS: lambda v: type(v) is list and all(map(_is_text, v)),
    ENVIRONMENT: lambda v: _is_text(v) and v in PRESETS,
}

#: Every config key: path -> (default, kind, flag dest that overrides it).
#: A key whose default is None may also be null. The gen, sweep and
#: carrier defaults are those of the dataclasses the keys build.
CONFIG_SCHEMA = {
    "environment": (None, ENVIRONMENT, "env"),
    "alpha": (None, REAL, "alpha"),
    "beta": (None, REAL, "beta"),
    "gamma": (None, REAL, "gamma"),
    "gen.area": (GenConfig.area, REAL, "area"),
    "gen.n_trees": (GenConfig.n_trees, COUNT, "n_trees"),
    "gen.n_lights": (GenConfig.n_lights, COUNT, "n_lights"),
    "gen.n_gu": (GenConfig.n_gu, COUNT, "n_gu"),
    "gen.d_o": (GenConfig.d_o, REAL, None),
    "gen.h_gu": (GenConfig.h_gu, REAL, None),
    "sweep.n_cities": (SweepConfig.n_cities, COUNT, "n_cities"),
    "sweep.angles": (list(SweepConfig.angles), REALS, None),
    "sweep.altitude_policy": (SweepConfig.altitude_policy, TEXT, None),
    "sweep.fixed_altitude_m": (SweepConfig.fixed_altitude_m, REAL, None),
    "scenarios": (list(SCENARIOS), TEXTS, "scenario"),
    "densities": (None, COUNTS, "densities"),
    "freq_ghz": (VegetationParams.f_ghz, REAL, "freq_ghz"),
    "seed": (None, COUNT, "seed"),
}


def _put(config: dict, path: str, value) -> None:
    *sections, key = path.split(".")
    for section in sections:
        config = config.setdefault(section, {})
    config[key] = value


def _overlay(config: dict, doc: dict, where: str = "") -> None:
    """Write doc into config; raise ParameterError on an unknown key, a
    section that is not a mapping, or a value not of its key's kind."""
    for key, value in doc.items():
        path = f"{where}{key}"
        if key not in config:
            raise ParameterError(f"unknown config key {path!r}")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise ParameterError(f"config key {path} must be a mapping")
            _overlay(config[key], value, f"{path}.")
            continue
        default, kind, _ = CONFIG_SCHEMA[path]
        if not (value is None and default is None or _KINDS[kind](value)):
            raise ParameterError(f"config value {path} must be {kind}, got {value!r}")
        config[key] = value


class _Pairs(list):
    """A parsed mapping as its (key, value) pairs in file order, repeats kept."""


def _unique(doc, where: str = ""):
    """doc with each _Pairs in it made a dict; ParameterError names, by its
    path, the first key that a mapping repeats."""
    if isinstance(doc, _Pairs):
        out = {}
        for key, value in doc:
            if key in out:
                raise ParameterError(f"repeated config key '{where}{key}'")
            out[key] = _unique(value, f"{where}{key}.")
        return out
    return [_unique(item, where) for item in doc] if isinstance(doc, list) else doc


def read_config(path: Path | None) -> dict:
    """The config a config file or manifest at path lays over the
    CONFIG_SCHEMA defaults (the defaults alone for None). A manifest, a
    mapping with a config_hash, keeps the kind it records and must hash to
    its config_hash; a config file's kind is ignored. Errors name the file."""
    config = {}
    for key, (default, _, _) in CONFIG_SCHEMA.items():
        _put(config, key, copy.deepcopy(default))
    if path is None:
        return config
    if path.suffix == ".json":  # YAML 1.1 reads JSON's exponent form (1e-05) as a string
        parse, parse_error = lambda text: json.loads(text, object_pairs_hook=_Pairs), json.JSONDecodeError
    else:  # PyYAML is imported only when a YAML file is read
        import yaml

        class PairsLoader(yaml.SafeLoader):  # safe_load, with each mapping as its _Pairs
            def construct_yaml_map(self, node):
                self.construct_mapping(node)  # PyYAML's merge keys and hashable-key check
                return _Pairs(self.construct_pairs(node))
        PairsLoader.add_constructor("tag:yaml.org,2002:map", PairsLoader.construct_yaml_map)
        parse, parse_error = lambda text: yaml.load(text, PairsLoader), yaml.YAMLError
    try:
        doc = _unique(parse(path.read_text(encoding="utf-8")))
    except OSError as exc:
        raise MissingInputError(f"cannot read config file {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, parse_error) as exc:
        raise ParameterError(f"config file {path} does not parse: {exc}") from None
    except ParameterError as exc:
        raise ParameterError(f"config file {path}: {exc}") from None
    manifest = isinstance(doc, dict) and "config_hash" in doc
    if manifest:
        recorded, doc = doc["config_hash"], doc.get("config")
    if not isinstance(doc, dict):
        raise ParameterError(f"config file {path} must hold a mapping")
    kind = doc.pop("kind", None)
    try:
        _overlay(config, doc)
    except ParameterError as exc:
        raise ParameterError(f"config file {path}: {exc}") from None
    if manifest:
        config["kind"] = kind
        if config_hash(config) != recorded:
            raise ParameterError(
                f"manifest {path} records config_hash {recorded!r}, "
                f"but its config resolves to {config_hash(config)!r}"
            )
    return config


def resolve_config(args: argparse.Namespace, kind: str) -> dict:
    """read_config of --config with the flags laid over it; flags win over
    a manifest too, as a new config of this kind."""
    config, flags = read_config(args.config), {}
    for path, (_, _, flag) in CONFIG_SCHEMA.items():
        if flag and getattr(args, flag, None) is not None:
            _put(flags, path, getattr(args, flag))
    _overlay(config, flags)
    config["kind"] = kind
    return config


def _built_up_params(config: dict) -> BuiltUpParams:
    preset = PRESETS.get(config["environment"])
    values = {
        name: config[name] if config[name] is not None else getattr(preset, name, None)
        for name in ("alpha", "beta", "gamma")
    }
    if None in values.values():
        raise ParameterError("provide --env or all of --alpha/--beta/--gamma")
    return BuiltUpParams(**{name: float(value) for name, value in values.items()})


def _fields(config: dict, section: str) -> dict:
    """A config section as its dataclass takes it: numbers as floats,
    lists of numbers as tuples of floats."""
    cast = {REAL: float, REALS: lambda v: tuple(map(float, v))}
    return {
        key: cast.get(CONFIG_SCHEMA[f"{section}.{key}"][1], lambda v: v)(value)
        for key, value in config[section].items()
    }


def _gen_config(config: dict, need_users: bool = False) -> GenConfig:
    gen = GenConfig(**_fields(config, "gen"), seed=config["seed"])
    if need_users and gen.n_gu < 1:  # a command that draws links to users
        raise ParameterError(f"{config['kind']} needs gen.n_gu >= 1, got {gen.n_gu}")
    return gen


def _run_dir(out_root: Path, config: dict) -> Path:
    """out_root/<config hash>; ParameterError unless it is a directory or
    can be made one, checked before the work whose outputs go there."""
    run_dir = out_root / config_hash(config)
    try:
        ancestor = next(p for p in (run_dir, *run_dir.parents) if p.exists())
    except OSError as exc:
        raise ParameterError(f"--out: cannot check {run_dir}: {exc.strerror}") from None
    if not ancestor.is_dir():
        raise ParameterError(f"--out: {ancestor} is not a directory")
    return run_dir


# -- subcommands -------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    config = resolve_config(args, "generate")
    if config["seed"] is None:
        config["seed"] = 0
    run_dir = _run_dir(args.out, config)
    params = _built_up_params(config)
    layout = generate_city(params, _gen_config(config))
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "layout.json").write_text(layout_json(layout))
    write_manifest(
        run_dir / "manifest.json",
        {
            "kind": "generate",
            "config": config,
            "config_hash": run_dir.name,
            "layout_hash": layouts_hash([layout]),
            "counts": {
                "buildings": len(layout.buildings),
                "trees": len(layout.trees),
                "lights": len(layout.lights),
                "users": len(layout.users),
            },
        },
    )
    print(run_dir / "layout.json")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args, "simulate")
    if config["seed"] is None:
        raise ParameterError("simulate requires --seed (or seed in the config file)")
    run_dir = _run_dir(args.out, config)
    params = _built_up_params(config)
    gen = _gen_config(config, need_users=True)
    sweep = SweepConfig(**_fields(config, "sweep"))
    scenarios = [parse_scenario(s) for s in config["scenarios"]]
    if not scenarios:
        raise ParameterError("at least one scenario is required")
    VegetationParams(f_ghz=config["freq_ghz"])  # fit's carrier rule, checked before the run

    densities = config["densities"] or ()
    layouts = []
    views = run_simulation(params, gen, sweep, scenarios, densities, on_layout=layouts.append)
    run_dir.mkdir(parents=True, exist_ok=True)  # only once the run has succeeded
    for scenario in scenarios:
        curve, stats = views[scenario.name]
        write_counts_csv(run_dir / f"angles_{scenario.name}.csv", curve)
        write_counts_csv(run_dir / f"distance_{scenario.name}.csv", stats)
    delta = None
    if len(scenarios) >= 2:
        a, b = scenarios[0].name, scenarios[1].name
        curve_a, curve_b = views[a][0], views[b][0]
        delta = mean_abs_delta_p_los(curve_a, curve_b)
        write_delta_csv(run_dir / f"delta_{a}_vs_{b}.csv", curve_a, curve_b)
    for k in densities:
        write_counts_csv(run_dir / f"density_{k}.csv", views[f"density_{k}"][0])

    write_manifest(
        run_dir / "manifest.json",
        {
            "kind": "simulate",
            "config": config,
            "config_hash": run_dir.name,
            "layout_hash": layouts_hash(layouts),
            "n_samples": sweep.n_cities * gen.n_gu * len(sweep.angles),
            "scenarios": [s.name for s in scenarios],
            "mean_abs_delta_p_los": delta,
        },
    )
    print(run_dir)
    return EXIT_OK


def _require(run_dir: Path, names: list[str]) -> None:
    try:
        missing = [str(run_dir / n) for n in names if not (run_dir / n).exists()]
    except OSError as exc:
        raise MissingInputError(f"cannot read {run_dir}: {exc.strerror}") from None
    if missing:
        raise MissingInputError("missing inputs: " + ", ".join(missing))


def _simulate_run(run_dir: Path) -> tuple[dict, list[str]]:
    """(config, scenario names) of a simulate run, read from its manifest
    by read_config."""
    path = run_dir / "manifest.json"
    _require(run_dir, [path.name])
    config = read_config(path)
    if config.get("kind") != "simulate":
        raise ParameterError(f"{path} is not the manifest of a simulate run")
    return config, [parse_scenario(s).name for s in config["scenarios"]]


def cmd_fit(args: argparse.Namespace) -> int:
    run_dir = args.run
    config, names = _simulate_run(run_dir)
    env = config["environment"] or "custom"
    params = VegetationParams(f_ghz=config["freq_ghz"])

    scenarios = [s.name for s in (BUILDINGS_ONLY, WITH_TREES) if s.name in names]
    if not scenarios:
        raise MissingInputError(
            "fit requires buildings-only and/or trees scenario outputs"
        )
    _require(run_dir, [f"distance_{s}.csv" for s in scenarios])
    rows = []
    for scenario in scenarios:
        path = run_dir / f"distance_{scenario}.csv"
        bins = composite_bins(read_counts_csv(path, DISTANCE_KEY), params=params, seed=config["seed"])
        try:
            fit = fit_ab([(d, pl) for d, pl, _ in bins], weights=[n for *_, n in bins])
        except ParameterError as exc:
            raise ParameterError(f"{path}: {exc}") from None
        rows.append((env, scenario, fit.a_db, fit.b, fit.rmse_db, fit.n_points))
    write_csv(run_dir / "fits.csv", FITS_CSV_COLUMNS, rows)
    print(run_dir / "fits.csv")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = args.run
    config, scenarios = _simulate_run(run_dir)
    _require(run_dir, ["fits.csv"])
    seed, h_gu = config["seed"], config["gen"]["h_gu"]
    if h_gu >= PL_THETA_ALTITUDE_M:
        raise ParameterError(
            f"report needs gen.h_gu ({h_gu:g}) below {PL_THETA_ALTITUDE_M:g} m, the ABS altitude of report_pl_vs_theta.csv"
        )
    params = VegetationParams(f_ghz=config["freq_ghz"])
    if WITH_TREES.name not in scenarios:
        raise MissingInputError("report requires the trees scenario for the tree-NLoS table")
    densities = config["densities"] or ()
    _require(run_dir, [f"distance_{s}.csv" for s in scenarios])
    _require(run_dir, [f"angles_{s}.csv" for s in scenarios])
    _require(run_dir, [f"density_{k}.csv" for k in densities])

    # every table is read and computed before the first write, so a bad
    # input leaves the run directory as it was
    tables = {}  # file name -> (columns, rows)

    # P_LoS against 3-D distance, one block per scenario
    rows = []
    for scenario in scenarios:
        stats = read_counts_csv(run_dir / f"distance_{scenario}.csv", DISTANCE_KEY)
        for center, probs, n in zip(stats.keys, stats.p.tolist(), stats.n.tolist()):
            rows.append((scenario, center, *probs, n))
    tables["report_plos_vs_distance.csv"] = (["scenario", DISTANCE_KEY, *P_COLUMNS, "n"], rows)

    # extra tree-caused NLoS probability against elevation angle
    trees = read_counts_csv(run_dir / f"angles_{WITH_TREES.name}.csv", ANGLE_KEY)
    tables["report_tree_nlos_vs_theta.csv"] = (
        ["theta_deg", "p_nlos_t", "n"],
        list(zip(trees.keys, trees.p_nlos_t.tolist(), trees.n.tolist())),
    )

    # density sweep, when the simulate run made one
    if densities:
        rows = []
        for density in densities:
            curve = read_counts_csv(run_dir / f"density_{density}.csv", ANGLE_KEY)
            for theta, p_los, n in zip(curve.keys, curve.p_los.tolist(), curve.n.tolist()):
                rows.append((density, theta, p_los, n))
        tables["report_density.csv"] = (["density", "theta_deg", "p_los", "n"], rows)

    # composite PL against elevation angle at a fixed 100 m ABS altitude
    rows = []
    for scenario in scenarios:
        if scenario not in (BUILDINGS_ONLY.name, WITH_TREES.name):
            continue
        curve = trees if scenario == WITH_TREES.name else read_counts_csv(run_dir / f"angles_{scenario}.csv", ANGLE_KEY)
        for theta, d, pl in pl_vs_theta(curve, h_gu_m=h_gu, params=params, seed=seed):
            rows.append((scenario, theta, d, pl))
    tables["report_pl_vs_theta.csv"] = (["scenario", "theta_deg", "d_m", "pl_db"], rows)

    for name, (columns, rows) in tables.items():
        write_csv(run_dir / name, columns, rows)
    print(run_dir)
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from .oracle import check_links, random_links  # imported only by the one command that uses it
    try:
        bad_dump = args.dump_hits and (args.dump_hits.is_dir() or not args.dump_hits.parent.is_dir())
    except OSError as exc:
        raise ParameterError(f"--dump-hits: cannot check {args.dump_hits}: {exc.strerror}") from None
    if bad_dump:
        raise ParameterError(f"--dump-hits: {args.dump_hits} is not a file in an existing directory")
    config = resolve_config(args, "oracle-check")
    if config["seed"] is None:
        config["seed"] = 0
    layout = generate_city(_built_up_params(config), _gen_config(config, need_users=True))
    geom = LayoutGeometry(layout)
    rng = np.random.default_rng(config["seed"])
    links = random_links(geom, rng, args.n_links)
    disagreements, checked = [], []
    for i, (link, (hits, fast, brute)) in enumerate(zip(links, check_links(geom, links))):
        if fast is not brute.link_class:
            disagreements.append(f"  link {i}: analytic={fast.value} bruteforce={brute.link_class.value}")
        if args.dump_hits:
            checked.append((link, hits, brute))
    if args.dump_hits:
        write_hit_dump(args.dump_hits, checked)
    print(f"{len(links)} links, {len(disagreements)} disagreements")
    if disagreements:
        print(*disagreements[:10], sep="\n")
        return EXIT_VALIDATION
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "report": cmd_report,
    "oracle-check": cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InfeasibleLayoutError as exc:
        print(f"error: infeasible generation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except UrbanLosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if argv is None:  # main owns the process: shutdown then skips collecting the import-time heap
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
