"""Time a fixed mix of the kinds of work the urbanlos workloads do.

Usage: python perfbench/reference.py

Prints the seconds the mix took, excluding interpreter start and imports.
On a shared 2-core virtual machine the CPU's speed drifts by tens of
percent within minutes, and the workloads slow with it; run.py divides
each repetition's wall time by this time, measured just before and after
it, to give wall_norm, which cancels much of that drift.
"""

import time

import numpy as np


def reference_seconds() -> float:
    """Interpreter arithmetic, a row list converted to an array after every
    append (as the building placer does), dense (1500, 500) array arithmetic
    (the critical-altitude kernel), and scans of an 80,000-point line against
    discs (the oracle)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    rows = []
    for i in range(400):
        rows.append((i, i + 1.0, 2.0 * i, 3.0 * i))
        a = np.asarray(rows)
        total += int(np.any((1.0 < a[:, 2]) & (2.0 > a[:, 0])))
    x = np.linspace(0.0, 1.0, 1500)[:, None]
    y = np.linspace(0.0, 1.0, 500)[None, :]
    for _ in range(8):
        z = (x - y) / (x + 1.0)
        total += int(np.argmax(np.max(np.where(z > 0.5, z, -np.inf), axis=1)))
    px = np.linspace(0.0, 800.0, 80_000)
    py = 0.5 * px + 3.0
    for i in range(25):
        total += int(np.any(np.hypot(px - 10.0 * i, py - 5.0 * i) <= 3.0))
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(reference_seconds()))
