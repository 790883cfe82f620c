"""
FitzHugh-Nagumo with dissipation: the full pipeline
===================================================

x' = -y - (x^3/3 - x) - mu x,  y' = xi (x - beta y + gamma).

The dissipation -mu x acts on the port variable x. The pipeline finds the
equilibrium, linearizes the kinetic part (the dissipation channel becomes the
input), classifies activity, and evaluates the rational complexity function
Y(s) whose four conditions decide local activity and the edge of chaos.
"""

import numpy as np

from locact import (
    analyze_equilibrium_pipeline,
    edge_of_chaos_classify,
    fhn_complexity_function,
    fhn_system,
    hopf_locate,
)

sys = fhn_system(mu=0.05)  # beta = 1.28, gamma = 0.12, xi = 0.1
report = analyze_equilibrium_pipeline(sys, x_guess=[-1.0, -0.6])

eq = report["equilibrium"]
print("equilibrium:", eq["x_star"], "| stability:", eq["stability"])
print("kinetic Jacobian:", report["jacobians"]["kinetic"])
print("activity:", report["activity"]["status"])

Y = fhn_complexity_function(0.05, 1.28, 0.12, 0.1)
print("\nY(s) numerator  :", Y.num)
print("Y(s) denominator:", Y.den)
ec = edge_of_chaos_classify(Y)
print("conditions (i, ii, iii, iv):",
      ec.cond_i, ec.cond_ii, ec.cond_iii, ec.cond_iv)
print("edge of chaos:", ec.edge_of_chaos)
print("infimum of Re Y(i w) (omega = inf: the limit):", ec.evidence["iv"])

# The equilibrium loses stability through a Hopf bifurcation near mu = 0.05.
res = hopf_locate(lambda m: fhn_system(m), 0.0, 0.1, tol=1e-7,
                  x_guess=[-1.0, -0.6])
print(f"\nHopf bifurcation at mu* = {res.mu_star:.6f} "
      f"(crossing pair {res.crossing_eigenvalue:.6f})")
print("equilibrium at the Hopf point:", res.equilibrium)
