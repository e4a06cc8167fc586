"""Machine-speed reference: a fixed numpy kernel timed in a fresh interpreter.

    python3 perfbench/calibrate.py

Prints one JSON line {"calibration_s": seconds}.  The kernel is the
benchmark's own code and imports nothing from kdv5half, so no change to the
program can move it; only the machine's speed does.  It mixes the kinds of
work the solver does (complex exponentials over large arrays, a complex
matrix product in BLAS, 2-D FFTs) so that a slow spell of the shared host
slows it about as much as it slows a repetition.
"""

import json
import time

import numpy as np

ROUNDS = 4


def kernel() -> None:
    rng = np.random.default_rng(0)
    phase = rng.standard_normal((2048, 1024))
    for _ in range(ROUNDS):
        table = np.exp(1j * phase)
        product = table[:1024] @ table[1024:].T
        spectrum = np.fft.fft2(table)
        del table, product, spectrum


def main() -> int:
    t0 = time.perf_counter()
    kernel()
    print(json.dumps({"calibration_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
