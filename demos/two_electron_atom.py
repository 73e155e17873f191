"""Helium-like two-electron atom in the dressed-vacuum picture.

Assembles the two-particle operator with the monopole electron repulsion
projected onto dressed positive-energy states, verifies that the exact
block-diagonalization preserves the spectrum, and checks the operator
inequalities that anchor the construction: the repulsion form bound and
the kinetic weight bound.
"""

import numpy as np

from diracdiag import manybody as mb
from diracdiag.config import NbodyConfig
from diracdiag.grids import build_channel_grid
from diracdiag.oneparticle import assemble_system, d_gamma, positive_levels


def main():
    gamma, z_charge = 0.3, 2.0
    grid = build_channel_grid(120)
    s = assemble_system(grid, gamma)
    pair = mb.build_pair_interaction(grid)
    cfg = NbodyConfig(n_particles=2, z_charge=z_charge, n_plus=8)
    fs = mb.assemble_furry_exact(s, cfg, pair)

    print(f"two electrons, coupling {gamma}, nuclear charge {z_charge}, "
          f"{cfg.n_plus} retained states -> dimension {fs.dim}\n")

    ef = fs.levels(fs.h_furry_exact)
    ed = fs.levels(fs.h_diag_exact)
    print(f"spectrum agreement after block-diagonalization: "
          f"{np.max(np.abs(ef - ed)):.3e}")

    free_sum = 2.0 * positive_levels(s, 1)[0]
    print(f"two-electron ground level     : {ef[0]:.10f}")
    print(f"twice the one-electron ground : {free_sum:.10f}")
    print(f"repulsion shift               : {ef[0] - free_sum:+.3e}\n")

    form_v, form_lim = mb.check_form_bound(fs), mb.form_bound_limit(fs)
    kin_v, kin_lim = mb.check_kinetic_weight_bound(fs), mb.kinetic_weight_limit(fs)
    print(f"repulsion form bound : {form_v:.4f} <= {form_lim:.4f} "
          f"(= gamma pi N(N-1) / (4 Z d))")
    print(f"kinetic weight bound : {kin_v:.4f} <= {kin_lim:.4f} "
          f"(= 1/d, d({gamma}) = {d_gamma(gamma):.6f})\n")

    cfg_anti = NbodyConfig(n_particles=2, z_charge=z_charge, n_plus=8,
                           antisymmetrize=True)
    fs_anti = mb.assemble_furry_exact(s, cfg_anti, pair)
    ea = fs_anti.levels(fs_anti.h_furry_exact)
    print(f"antisymmetric (fermionic) sector: dimension {fs_anti.dim}, "
          f"ground {ea[0]:.10f}")


if __name__ == "__main__":
    main()
