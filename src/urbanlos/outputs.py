"""CSV and manifest emission with byte-stable formatting.

Every run directory is keyed by a hash of its fully resolved
configuration and carries a manifest sufficient to reproduce the run
byte-for-byte. The csv module writes each cell as str, which for a
float (Python or numpy) is the shortest round-trip repr, so identical
results always serialize to identical bytes.

This module owns the count CSV both ways: write_counts_csv writes a
ClassCounts table under the key column its kind decides and
read_counts_csv rebuilds it, so reading a count CSV and writing it again
gives the same bytes, and a file that holds no such table fails loudly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .citygen import CityLayout, layout_json
from .errors import AggregationError
from .montecarlo import ClassCounts, class_counts

#: Key columns of the count CSVs: the elevation angle of angle and
#: density tables, and the bin centre of distance tables, which alone
#: end with a mean_d_m column.
ANGLE_KEY, DISTANCE_KEY = "theta_deg", "bin_center_m"
P_COLUMNS = ("p_los", "p_nlos_b", "p_nlos_t", "p_nlos_s")
FITS_CSV_COLUMNS = ["environment", "scenario", "A_dB", "B", "rmse_dB", "n"]


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_counts_csv(path: Path, table: ClassCounts) -> None:
    """Write table as key, one probability per class, n and, for a
    distance table (one with mean_d), mean_d_m."""
    columns = [table.keys, *table.p.T.tolist(), table.n.tolist()]
    if table.mean_d is None:
        write_csv(path, [ANGLE_KEY, *P_COLUMNS, "n"], zip(*columns))
    else:
        write_csv(path, [DISTANCE_KEY, *P_COLUMNS, "n", "mean_d_m"], zip(*columns, table.mean_d))


def read_counts_csv(path: Path, key_column: str) -> ClassCounts:
    """The table write_counts_csv wrote to path, of key_column's kind.

    Each class count comes back as round(p * n). A missing or non-finite
    cell, products farther than 1e-6 from a nonnegative integer, or counts
    not summing to n mean the file does not hold counts, and raise
    AggregationError naming it.
    """
    with_mean = key_column == DISTANCE_KEY
    keys, counts, mean_d = [], [], []
    for line, r in enumerate(read_csv_dicts(path), start=2):
        try:
            n = int(r["n"])
            products = [float(r[p]) * n for p in P_COLUMNS]
            reals = {key_column: float(r[key_column])}
            if with_mean:
                reals["mean_d_m"] = float(r["mean_d_m"])
        except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row's None cells
            raise AggregationError(f"{path} line {line}: {exc}") from None
        if not all(map(math.isfinite, reals.values())):
            raise AggregationError(f"{path} line {line}: {reals} must be finite")
        row = [round(x) if math.isfinite(x) else -1 for x in products]
        if (
            min(row) < 0
            or sum(row) != n
            or any(abs(x - c) > 1e-6 for x, c in zip(products, row))
        ):
            raise AggregationError(
                f"{path} line {line}: p * n = {products} are not class counts summing to n = {n}"
            )
        keys.append(reals[key_column])
        mean_d.append(reals.get("mean_d_m"))
        counts.append(row)
    return class_counts(keys, counts, mean_d if with_mean else None)


def write_delta_csv(path: Path, curve_a: ClassCounts, curve_b: ClassCounts) -> None:
    p_a, p_b = curve_a.p_los.tolist(), curve_b.p_los.tolist()
    rows = zip(curve_a.keys, p_a, p_b, (abs(a - b) for a, b in zip(p_a, p_b)))
    write_csv(path, [ANGLE_KEY, "p_los_a", "p_los_b", "abs_delta"], rows)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]


def layouts_hash(layouts: Iterable[CityLayout]) -> str:
    digest = hashlib.sha256()
    for layout in layouts:
        digest.update(layout_json(layout).encode())
    return digest.hexdigest()


def write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def write_json_list(path: Path, records: list) -> None:
    """json.dumps(records, indent=2) + "\n", a record at a time: JSON escapes
    newlines in strings, so indenting each record's lines nests it."""
    items = ["  " + json.dumps(r, indent=2).replace("\n", "\n  ") for r in records]
    path.write_text("[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n")


def read_csv_dicts(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
