"""Probe boundary stability through the determinant lower bound.

The boundary determinant Delta(z) measures how well the boundary rows
control the decaying solutions of the resolvent recursion.  Dirichlet
rows keep |Delta| = 1 on every approach circle; the neighbor-copy
closure of Lax-Wendroff loses control linearly as z walks toward 1.
"""

import numpy as np

from dibvp.core import lax_wendroff, upwind
from dibvp.resolvent import classify_boundary_blocks, uklc_scan


def main():
    scan = uklc_scan(upwind(0.5, 1.0))
    print("upwind + Dirichlet rows (per-radius min |Delta|):")
    for delta, m in zip(scan.radii, scan.per_radius_min):
        print(f"  delta = {delta:7.1e}   min |Delta| = {m:.12f}")
    print(f"  verdict: plausible = {scan.plausible}\n")

    marginal = lax_wendroff(1.0, 0.5, boundary="extrapolation")
    scan = uklc_scan(marginal, radii=(1e-1, 1e-3, 1e-5, 1e-7))
    print("Lax-Wendroff + neighbor-copy closure:")
    for delta, m in zip(scan.radii, scan.per_radius_min):
        print(f"  delta = {delta:7.1e}   min |Delta| = {m:.3e}")
    print(f"  verdict: plausible = {scan.plausible} "
          f"(first-order decay toward the circle)\n")

    cls = classify_boundary_blocks(upwind(0.5, 1.0), np.exp(0.3j))
    print("upwind transfer-matrix blocks at z = e^{0.3i}:")
    for blk in cls.blocks:
        print(f"  mu = {blk.mu:+.4f}  multiplicity {blk.multiplicity}  "
              f"kind = {blk.kind}")


if __name__ == "__main__":
    main()
