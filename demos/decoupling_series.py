"""Coupling-power series of the spectral projector and decoupling unitary.

The positive spectral projector of the dressed operator is a Riesz contour
integral; expanding the resolvent in the coupling gives matrix-valued Taylor
coefficients.  This script builds the series once from the grid,
evaluates the partial sums at several couplings, and checks them against
the exactly assembled projector and unitary.  A 2x2 toy model with known
closed-form coefficients is verified alongside.
"""

import numpy as np

from diracdiag.decoupling import fw_frame, projector_series, riesz_projection_series, u_gamma_series
from diracdiag.grids import build_channel_grid
from diracdiag.oneparticle import assemble_system, foldy_wouthuysen, fw_rows
from diracdiag.series import coefficient_norms, series_eval


def main():
    grid = build_channel_grid(120)
    # the two series that the decoupling bundle forms in its build and does
    # not keep, from the free eigenvalues and the potential in the FW frame;
    # P comes as three blocks and is assembled for evaluation
    p_blocks = riesz_projection_series(*fw_frame(grid), 10)
    p_series, u_series = projector_series(p_blocks), u_gamma_series(p_blocks)
    print(f"series order {p_series.order}\n")

    print("coefficient spectral norms (projector series):")
    for k, nrm in enumerate(coefficient_norms(p_series)):
        print(f"  k={k:>2}: {nrm:.6e}")

    # the series are in the Foldy-Wouthuysen frame R; the exact projector is
    # formed there as y y^T from the positive eigenvectors y = R X_+, and the
    # exact unitary, held as R U_gamma, is taken to R U_gamma R^T, which
    # leaves the spectral norm unchanged
    print("\npartial sums vs exact assembly:")
    print(f"{'gamma':>8} {'projector err':>14} {'unitary err':>14}")
    blocks = foldy_wouthuysen(grid)
    for gamma in (0.05, 0.1, 0.2, 0.3, 0.37):
        s = assemble_system(grid, gamma)
        y = fw_rows(blocks, s.positive_frame)
        p_err = np.linalg.norm(series_eval(p_series, gamma) - y @ y.T, 2)
        u_err = np.linalg.norm(
            series_eval(u_series, gamma) - fw_rows(blocks, s.ru_gamma.T).T, 2)
        print(f"{gamma:>8.2f} {p_err:>14.3e} {u_err:>14.3e}")

    # two-level toy: P(g) has closed-form coefficients, alternating between
    # the diagonal and off-diagonal generators.  It stands for one node at
    # p = 0, where D0 = diag(1, -1) and the FW block is the identity, so its
    # free eigenvalues and V enter the series as they are; V swaps the two
    # levels.
    d0 = np.diag([1.0, -1.0])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    p_toy = projector_series(riesz_projection_series(np.diag(d0), v, 4))
    print("\n2x2 toy: first coefficients vs closed form")
    print(f"  ||P1 - V/2||   = {np.linalg.norm(p_toy.coeffs[1] - v / 2, 2):.3e}")
    print(f"  ||P2 + D0/4||  = {np.linalg.norm(p_toy.coeffs[2] + d0 / 4, 2):.3e}")


if __name__ == "__main__":
    main()
