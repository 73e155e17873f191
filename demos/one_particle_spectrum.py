"""Radial Coulomb-Dirac spectra across the coupling window.

Builds the kappa=-1 momentum-space channel, scans the coupling, and compares
the discrete ground level against the closed-form relativistic energy.  Also
reports the two residuals that certify the exact decoupling transform:
unitarity and the intertwining relation with the free projector.
"""

from diracdiag.grids import build_channel_grid
from diracdiag.oneparticle import (
    assemble_system,
    c_gamma,
    d_gamma,
    decoupling_residuals,
    positive_levels,
    sommerfeld_energy,
)


def main():
    grid = build_channel_grid(160)
    print(f"channel kappa=-1, {grid.n} momentum nodes\n")
    print(f"{'gamma':>8} {'ground':>20} {'closed form':>20} {'rel err':>10} "
          f"{'unitarity':>10} {'intertwine':>10}")
    for gamma in (0.0, 0.1, 0.2, 0.3, 0.3775, 0.45):
        s = assemble_system(grid, gamma)
        ground = positive_levels(s, 1)[0]
        ref = sommerfeld_energy(gamma, 1, -1)
        uni, intw = decoupling_residuals(s)
        print(f"{gamma:>8.4f} {ground:>20.12f} {ref:>20.12f} "
              f"{abs(ground - ref) / ref:>10.2e} {uni:>10.2e} {intw:>10.2e}")

    print("\nlowest bound levels at gamma=0.3 vs closed form (principal n=1..6):")
    s = assemble_system(grid, 0.3)
    levels = positive_levels(s, 6)
    for n, e in enumerate(levels, start=1):
        ref = sommerfeld_energy(0.3, n, -1)
        print(f"  n={n}: {e:.12f}  ref {ref:.12f}  rel err {abs(e - ref) / ref:.2e}")

    print("\ncoupling constants controlling the convergence window:")
    for gamma in (0.0, 0.1, 0.2, 0.3, 0.3775):
        print(f"  gamma={gamma:<7} c={c_gamma(gamma):.10f}  d={d_gamma(gamma):.10f}"
              f"  1/d={1.0 / d_gamma(gamma):.6f}")


if __name__ == "__main__":
    main()
