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
import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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


def _count(cell) -> int:
    """cell as a sample count: an integer in [1, 2**63)."""
    if 1 <= (n := int(cell)) < 2**63:
        return n
    raise ValueError(f"n = {n} is not a sample count in [1, 2**63)")


def read_counts_csv(path: Path, key_column: str) -> ClassCounts:
    """The table write_counts_csv wrote to path, of key_column's kind.

    Each class count comes back as round(p * n). A missing column, a
    missing or non-finite cell, n < 1, products farther than 1e-6 from a
    nonnegative integer, or counts not summing to n mean the file does not
    hold counts, and raise AggregationError naming it and the line of the
    first faulty row (line 2 for a column, with or without data rows).
    """
    with open(path, newline="") as fh:  # as csv.DictReader: the first row is the header, blank rows are skipped
        header, *rows = [r for i, r in enumerate(csv.reader(fh)) if r or i == 0] or [[]]
    names = ["n", *P_COLUMNS, key_column] + (["mean_d_m"] if key_column == DISTANCE_KEY else [])
    if missing := [name for name in names if name not in header]:
        raise AggregationError(f"{path} line 2: no column {missing[0]!r}")
    at, cells = {name: i for i, name in enumerate(header)}, list(itertools.zip_longest(*rows))  # short rows read None
    columns, end, error = [], len(rows), None
    for name in names:  # each column up to the first row whose cell does not parse
        column = cells[at[name]] if at[name] < len(cells) else [None] * len(rows)
        columns.append([])
        try:  # extend keeps the values parsed before the cell that raises
            columns[-1].extend(map(_count if name == "n" else float, column[:end]))
        except (TypeError, ValueError) as exc:
            end, error = len(columns[-1]), exc
    n = np.array(columns[0][:end], dtype=np.int64)
    reals = np.array([col[:end] for col in columns[5:]], dtype=float)
    with np.errstate(all="ignore"):  # a non-finite product is a fault, not a warning
        products = np.array([col[:end] for col in columns[1:5]], dtype=float).T * n[:, None]
        c = np.rint(products)
        counted = ((c >= 0) & (c <= n[:, None]) & (abs(products - c) <= 1e-6)).all(axis=1)
    counts = np.where(counted[:, None], c, 0).astype(np.int64)
    finite = np.isfinite(reals).all(axis=0)
    faulty = np.flatnonzero(~finite | ~counted | (counts.sum(axis=1) != n))
    if faulty.size:
        end = faulty[0]
        error = f"p * n = {products[end].tolist()} are not class counts summing to n = {n[end]}"
        if not finite[end]:
            error = f"{dict(zip(names[5:], reals[:, end].tolist()))} must be finite"
    if error is not None:
        raise AggregationError(f"{path} line {end + 2}: {error}")
    return class_counts(reals[0], counts, reals[1] if len(reals) > 1 else None)


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


def _indented(indent: int, brackets: str, items: list[str]) -> str:
    """A JSON list or object of items, each laid out one level deeper, as
    json.dumps(..., indent=2) lays it out at indent spaces."""
    pad = "\n" + " " * indent
    return brackets[0] + pad + "  " + f",{pad}  ".join(items) + pad + brackets[1] if items else brackets


_HIT = _indented(6, "{}", ['"kind": "%s"', '"index": %d', '"r_i": %r', '"obstacle_height": %r', '"blockage_height": %r', '"blocks": %s'])
_PAIR = _indented(4, "[]", ["%r", "%r"])
_RECORD = _indented(2, "{}", [f'"abs_xy": {_PAIR}', f'"gu_xy": {_PAIR}', '"h_abs": %r', '"analytic_hits": %s',
                              '"bruteforce_crossed": %s', '"bruteforce_blocked": %s'])


def write_hit_dump(path: Path, checked: Sequence[tuple]) -> None:
    """Write one record per (link, hits, brute) triple, a link with what
    check_links finds for it, a record at a time: the bytes of
    json.dumps(records, indent=2) + "\n", as JSON writes a finite float as
    float.__repr__ does and link ends, h_abs, r_i and heights are finite."""
    with open(path, "w") as fh:
        start = "[\n  "
        for link, hits, brute in checked:
            rows = [_HIT % (h.kind, h.index, h.r_i, h.obstacle_height, h.blockage_height, "true" if h.blocks else "false") for h in hits]
            families = [_indented(4, "{}", [f'"{kind}": ' + _indented(6, "[]", [*map(str, sorted(ids))]) for kind, ids in found.items()])
                        for found in (brute.crossed, brute.blocked)]
            fh.write(start + _RECORD % (*link.abs_xy, *link.gu_xy, link.h_abs, _indented(4, "[]", rows), *families))
            start = ",\n  "
        fh.write("\n]\n" if checked else "[]\n")


def read_csv_dicts(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
