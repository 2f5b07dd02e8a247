#!/usr/bin/env python3
"""Print one sha256 over the critical-altitude kernel's outputs.

A fixed recipe, wider than tests/test_golden.py: the urban, dense_urban
and high_rise presets, master seeds 1-4, 1500 users per city, and ground
user heights 0, 1.5, 3.0 and 4.5 m. For each (environment, seed) one city
and one ABS ground position are drawn; for each h_gu the digest takes the
five batch_critical_altitudes arrays over all users, then the crossings,
class and critical altitudes of the links from the ABS at 20 m to the
first 300 users. A refactor of geometry.py that keeps this digest keeps
every float the kernel returns. It exits 1 when the digest differs from
PINNED. It also takes each h_gu's 300 links through one crossings_of call
after their single-link calls, which adds nothing to the digest, and exits
1 when any link's hit list there differs from its crossings, compared by
the repr the digest takes. Standard error gets the seconds spent in the
batch calls, in the single-link calls (crossings, classify,
critical_altitudes) and in the crossings_of calls.

Usage: PYTHONPATH=src python scripts/kernel_digest.py
"""

import hashlib
import sys
import time

import numpy as np

from urbanlos.citygen import PRESETS, STREAM_ABS, GenConfig, city_rng, generate_city, sample_open_point
from urbanlos.geometry import LayoutGeometry, Link

ENVIRONMENTS = ("urban", "dense_urban", "high_rise")
SEEDS = (1, 2, 3, 4)
H_GU = (0.0, 1.5, 3.0, 4.5)
N_USERS = 1500
N_LINKS = 300
H_ABS = 20.0
PINNED = "53928153e69c51a69ce8bf9c0fbfb582069050be7b911f92a3ef283bfa176275"


def hit_record(hits) -> bytes:
    """The bytes the digest takes for one link's crossings."""
    fields = ((h.kind, h.index, h.r_i, h.obstacle_height, h.blockage_height, h.blocks) for h in hits)
    return b"".join(repr(f).encode() for f in fields)


def main() -> int:
    digest = hashlib.sha256()
    tree_pairs = 0
    batch_s = single_s = many_s = 0.0
    mismatched = 0
    for env in ENVIRONMENTS:
        for seed in SEEDS:
            layout = generate_city(PRESETS[env], GenConfig(n_gu=N_USERS, seed=seed))
            geom = LayoutGeometry(layout)
            ax, ay = sample_open_point(geom.index, city_rng(seed, 0, STREAM_ABS))
            gu = np.column_stack((layout.users.x, layout.users.y))
            for h_gu in H_GU:
                start = time.perf_counter()
                arrays = geom.batch_critical_altitudes((ax, ay), gu, h_gu)
                batch_s += time.perf_counter() - start
                tree_pairs += arrays[2].size
                for arr in arrays:
                    digest.update(arr.tobytes())
                links = [Link((ax, ay), H_ABS, (x, y), h_gu) for x, y in gu[:N_LINKS].tolist()]
                records = []  # bytes, not hit objects: the single-link timing sees no larger heap
                for link in links:
                    start = time.perf_counter()
                    hits = geom.crossings(link)
                    views = (geom.classify(link).value, geom.critical_altitudes(link))
                    single_s += time.perf_counter() - start
                    records.append(hit_record(hits))
                    digest.update(records[-1])
                    digest.update(repr(views).encode())
                start = time.perf_counter()
                hits_of = geom.crossings_of(links)
                many_s += time.perf_counter() - start
                mismatched += sum(hit_record(hits) != record for hits, record in zip(hits_of, records))
    print(f"{digest.hexdigest()}  ({tree_pairs} crossed (link, tree) pairs)")
    print(
        f"batch calls {batch_s:.3f} s, single-link calls {single_s:.3f} s, crossings_of calls {many_s:.3f} s",
        file=sys.stderr,
    )
    status = 0
    if digest.hexdigest() != PINNED:
        print(f"differs from the pinned {PINNED}", file=sys.stderr)
        status = 1
    if mismatched:
        print(f"crossings_of differs from crossings on {mismatched} links", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
