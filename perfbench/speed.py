"""Machine-speed probes, so that timings compare across runs on a shared host.

On a host whose cores are shared with other tenants the CPU's speed can
change by half or more within seconds, and it moves every timing.  Two
fixed tasks that use no h4hecke code are timed after every operation,
outside its timed interval: one in pure Python (exact rationals, tuple
keys, dict updates) and one in numpy (integer matrix products and
reductions, as in the lemma sweeps).  Interpreted code and numpy kernels
slow down by different amounts, so an op marked ``vectorized`` is paired
with the numpy probe and every other op with the Python probe.  Each
timing is restated at the reference speed: multiplied by the reference
probe time over the median probe time around it.  Run records keep the
raw wall-clock figures beside the restated ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

PYTHON_ROUNDS = 600
NUMPY_ROUNDS = 2
REFERENCE_S = {"python": 0.002, "numpy": 0.003}  # probe times that define the reference speed
WINDOW = 4  # probes on each side of an op that set its speed

_ARRAY = (np.arange(15624 * 3, dtype=np.int64) * 7919 % 25 - 12).reshape(-1, 3)
_MATRIX = np.array([[1, 2, 0], [-2, 1, 1], [0, 1, 3]], dtype=np.int64)


def _python_task() -> None:
    table, acc = {}, Fraction(0)
    for i in range(PYTHON_ROUNDS):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i, 7 + i % 5)


def _numpy_task() -> None:
    for _ in range(NUMPY_ROUNDS):
        image = _ARRAY @ _MATRIX.T
        np.all(image % 9 == 0, axis=1)
        (image % 7 != 0).sum()


def probe() -> dict[str, float]:
    """Seconds each task takes now; the collector is paused so heap size does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = {}
        for name, task in (("python", _python_task), ("numpy", _numpy_task)):
            t0 = perf_counter()
            task()
            out[name] = perf_counter() - t0
        return out
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: list[float], probes: list[dict[str, float]], vectorized: list[bool]) -> list[float]:
    """Each time restated at the reference speed, from the median matching probe around it."""
    out = []
    for i, (t, vec) in enumerate(zip(seconds, vectorized)):
        name = "numpy" if vec else "python"
        near = [p[name] for p in probes[max(0, i - WINDOW):i + WINDOW + 1]]
        out.append(t * REFERENCE_S[name] / statistics.median(near))
    return out
