"""Machine-speed probe: a fixed numpy/scipy/Python job that shares no code
with gpl.

The speed of a shared box drifts by tens of percent over seconds, as other
tenants come and go on its cores. A program call and a probe run right
next to it slow down together, so the ratio of the two stays steady where
raw seconds do not; a change to gpl leaves the probe's time alone.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

N, NNZ, SEED = 4000, 40000, 12345  # probe matrix size, nonzeros and seed
REPEATS = 5  # probe rounds per measurement; the fastest counts


class SpeedProbe:
    """Sparse mat-vec steps, a small dense product and a Python set build,
    the kinds of work that dominate gpl's hot loops."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        rows, cols = rng.integers(0, N, NNZ), rng.integers(0, N, NNZ)
        self.A = sp.csr_matrix((rng.random(NNZ), (rows, cols)), shape=(N, N))
        self.E = rng.random((N, 2))
        self.F = rng.random((N, 8))
        self.W = rng.random((8, 16))
        self.pairs = list(zip(rows[: NNZ // 2].tolist(), cols[: NNZ // 2].tolist()))

    def once(self) -> float:
        t0 = time.perf_counter()
        E = self.E
        for _ in range(20):
            E = 0.5 * E + 0.5 * (self.A @ E)
        np.maximum(self.F @ self.W, 0.0)
        {(a, b) if a < b else (b, a) for a, b in self.pairs}
        return time.perf_counter() - t0

    def __call__(self, threads=1) -> float:
        """Fastest of a few probe rounds, in seconds. With threads > 1 each
        round runs that many probes at once, as a threaded call would."""
        if threads == 1:
            return min(self.once() for _ in range(REPEATS))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rounds = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                list(pool.map(lambda _: self.once(), range(threads)))
                rounds.append(time.perf_counter() - t0)
        return min(rounds)
