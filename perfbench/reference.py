"""Reference values for the radial oracle, computed apart from conerig.

- sigma_min of the discretized radial operator, rebuilt here from its
  definition (one-sided differences of d/dr + b/sn(r) on n cells of (0, 1),
  potential at cell midpoints, zero padding at both ends) and computed as the
  square root of the smallest eigenvalue of the tridiagonal M^T M by LAPACK
  bisection (`scipy.linalg.eigh_tridiagonal`), not by a dense SVD;
- the first positive zero of the Bessel function J_{b+1/2}, the continuum
  limit of sigma_min at curvature 0.

The benchmark runs this file as a child process, so that scipy stays out of
the memory of the measured workload process:

    echo '{"sigma": [[256, 0, 1.0]], "bessel": [1.0]}' | python3 perfbench/reference.py
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv


def _sn(kappa: int, r: np.ndarray) -> np.ndarray:
    if kappa == 1:
        return np.sin(r)
    if kappa == -1:
        return np.sinh(r)
    return r


def sigma_min(n: int, kappa: int, b: float) -> float:
    """Smallest singular value of the n x (n-1) lower-bidiagonal operator."""
    h = 1.0 / n
    pot = b / _sn(kappa, (np.arange(n) + 0.5) * h)
    diag = 1.0 / h + pot[:-1] / 2.0  # entry (j, j), j = 0..n-2
    sub = -1.0 / h + pot[1:] / 2.0  # entry (j+1, j)
    gram_diag = diag**2 + sub**2
    gram_off = sub[:-1] * diag[1:]
    lam = eigh_tridiagonal(
        gram_diag, gram_off, eigvals_only=True, select="i", select_range=(0, 0)
    )[0]
    return math.sqrt(lam)


def first_bessel_zero(nu: float) -> float:
    """First positive zero of J_nu, nu >= 1/2, bracketed by a scan above nu."""
    x = nu + 1e-6
    fx = jv(nu, x)
    while True:
        y = x + 0.05
        fy = jv(nu, y)
        if fx * fy < 0.0:
            return brentq(lambda t: jv(nu, t), x, y, xtol=1e-14, rtol=1e-15)
        x, fx = y, fy


def compute(request: dict) -> dict:
    return {
        "sigma": [[n, k, b, sigma_min(n, k, b)] for n, k, b in request.get("sigma", [])],
        "bessel": [[b, first_bessel_zero(b + 0.5)] for b in request.get("bessel", [])],
    }


if __name__ == "__main__":
    json.dump(compute(json.load(sys.stdin)), sys.stdout)
