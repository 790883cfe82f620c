"""
Discrete reaction-diffusion: one cell under Dirichlet closure
=============================================================

On an N x N grid the five-point Laplacian couples neighboring cells through
the first m (diffusing) state variables. For a single cell with Dirichlet
boundaries the coupling collapses to -4 D_i on each diffusing variable, which
is exactly a dissipation map acting through the port projection, so the
linear-activity machinery applies verbatim.
"""

import numpy as np

from locact import (
    analyze_equilibrium_pipeline,
    discrete_laplacian,
    fhn_system,
    rd_single_cell,
)

for boundary in ("dirichlet", "neumann", "toroidal"):
    L = discrete_laplacian(3, boundary)
    print(f"{boundary:9s} Laplacian: symmetric={np.allclose(L, L.T)}, "
          f"row sums in [{L.sum(axis=1).min():+.0f}, {L.sum(axis=1).max():+.0f}]")

print("\nsingle cell, Dirichlet:", discrete_laplacian(1, "dirichlet"))

# FitzHugh-Nagumo kinetics in a single cell: choosing D1 = mu / 4 makes the
# diffusion -4 D1 x identical to the dissipation -mu x of the plain model.
mu = 0.05
full = fhn_system(mu)
cell = rd_single_cell(f=full.f, D_coeffs=[mu / 4.0], m=1, n=2)
z = np.array([-0.9, -0.6])
print("\ncell rhs equals plain-model rhs:",
      np.allclose(cell.f(z) - cell.P @ cell.D(z),
                  full.f(z) - full.P @ full.D(z)))

report = analyze_equilibrium_pipeline(cell, [-1.0, -0.6])
print("cell equilibrium:", report["equilibrium"]["x_star"])
print("activity:", report["activity"]["status"])
