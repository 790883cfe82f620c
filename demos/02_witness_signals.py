"""
Constructing witness signals from unstable eigenpairs
=====================================================

A positive real eigenvalue with eigenvector inside the port image gives the
bump-modulated exponential u(t) = rho'(2t/T - 1) e^(lam t) v, whose energy is
negative in closed form. An unstable complex pair alpha + i beta drives a
rotating version through a mollifier window placed where the rotating-frame
energy grows.
"""

import numpy as np

from locact import (
    complex_eigen_signal,
    energy_integral,
    make_system,
    real_eigen_signal,
    solve_forced,
    spectrum,
)

# -- real eigenpair ------------------------------------------------------
sys = make_system(np.diag([2.0, -1.0]), np.diag([1.0, 0.0]))
sig = real_eigen_signal(sys, lam=2.0, v=[1.0, 0.0], T=1.0)
W, _ = energy_integral(sys, sig, 1.0)
print("real-eigenpair witness: W =", W)

traj = solve_forced(sys, sig, 1.0, 2000)
print("|x| returns to zero at T:", abs(traj.states[-1, 0]) < 1e-10)

# -- complex pair --------------------------------------------------------
A = np.array([[0.1, -1.0],
              [1.0, 0.1]])        # eigenvalues 0.1 +/- i
sysc = make_system(A, np.eye(2))
spec = spectrum(A)
lam = spec.eigenvalues[0]
sig = complex_eigen_signal(sysc, lam.real, lam.imag,
                           spec.G[:, 0].real, spec.G[:, 0].imag)
W, err = energy_integral(sysc, sig, sig.T)
print(f"\ncomplex-pair witness: window center t0 = {sig.t0:.4f}, "
      f"half-width eps = {sig.eps:.4f}, horizon T = {sig.T:.4f}")
print("energy W =", W)
print("W against its quadrature error:", W, "+/-", err, "->",
      "negative" if W < -err else "?")
