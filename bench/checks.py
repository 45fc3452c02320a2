"""Output checks against references the benchmark computes itself.

Nothing here imports chflow: every reference is a closed form evaluated in
float64 from the benchmark's own inputs, so a fault in the program cannot
also corrupt the value it is compared with.  A pair is anything with
``sites``, ``weights`` and ``atoms`` arrays.  Each check returns a list of
failure messages; an empty list means the output passed.

Tolerances follow the acceptance criteria of the test suite: 1e-8 for
reconstructed coordinates (criterion 3), 1e-9 for conserved sums and the
conservation report (criteria 4 and 8), 1e-7 for the group law and 1e-8 for
peakon speed (criterion 8), 1e-6 and 1e-4 for weak-form residuals of a
peakon and of a collision (criterion 9).
"""

from __future__ import annotations

import math

import numpy as np

PAIR_TOL = 1e-8
SUM_TOL = 1e-9
DRIFT_TOL = 1e-9
SPECTRUM_TOL = 1e-8
GROUP_TOL = 1e-7
SPEED_TOL = 1e-8
CSV_TOL = 1e-9
PEAKON_RESIDUAL_BOUND = 1e-6
COLLISION_RESIDUAL_BOUND = 1e-4


def _arrays(pair):
    return (np.asarray(pair.sites, dtype=float),
            np.asarray(pair.weights, dtype=float),
            np.asarray(pair.atoms, dtype=float))


def u_values(pair, x) -> np.ndarray:
    """u(x) = sum_j p_j exp(-|x - x_j|) on a grid."""
    sites, weights, _ = _arrays(pair)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if sites.size == 0:
        return np.zeros_like(x)
    return np.exp(-np.abs(x[:, None] - sites[None, :])) @ weights


def momentum(pair) -> float:
    """Integral of u: 2 sum_j p_j."""
    return 2.0 * float(np.sum(_arrays(pair)[1]))


def energy(pair) -> float:
    """Total energy measure: 2 sum_ij p_i p_j exp(-|x_i - x_j|) + sum_j h_j."""
    sites, weights, atoms = _arrays(pair)
    kernel = np.exp(-np.abs(sites[:, None] - sites[None, :]))
    return 2.0 * float(weights @ kernel @ weights) + float(np.sum(atoms))


def _energy_scale(pair) -> float:
    sites, weights, atoms = _arrays(pair)
    kernel = np.exp(-np.abs(sites[:, None] - sites[None, :]))
    return 2.0 * float(np.abs(weights) @ kernel @ np.abs(weights)) \
        + float(np.sum(atoms))


def char_poly(pair) -> np.ndarray:
    """Characteristic polynomial prod(1 - z/lam), constant term first.

    Lower-right entry of the minus-side string transfer product in float64:
    events at xi_j = exp(x_j), coefficient -2 A_j on the interval ending at
    xi_j (A_j = sum_{k >= j} p_k exp(-x_k)), point mass exp(-x_j) h_j.
    """
    sites, weights, atoms = _arrays(pair)
    P = np.polynomial.polynomial
    one, zero, z = np.array([1.0]), np.array([0.0]), np.array([0.0, 1.0])
    q = [[one, zero], [zero, one]]
    tail = np.cumsum((weights * np.exp(-sites))[::-1])[::-1]
    prev = 0.0
    for x, a_half, h in zip(sites, tail, atoms):
        xi = math.exp(x)
        l, a = xi - prev, -2.0 * a_half
        prev = xi
        m = [[np.array([1.0, -a * l]), np.array([0.0, -l])],
             [np.array([0.0, a * a * l]), np.array([1.0, a * l])]]
        if h > 0:
            b = math.exp(-x) * h
            m = [m[0], [P.polyadd(P.polymul(b * z, m[0][0]), m[1][0]),
                        P.polyadd(P.polymul(b * z, m[0][1]), m[1][1])]]
        q = [[P.polyadd(P.polymul(m[i][0], q[0][j]),
                        P.polymul(m[i][1], q[1][j])) for j in range(2)]
             for i in range(2)]
    w = np.trim_zeros(q[1][1], "b")
    return w if w.size else np.array([1.0])


def max_pair_error(got, want) -> float:
    """Worst coordinate error, scaled by max(1, |reference|) as in criterion 3."""
    g, w = _arrays(got), _arrays(want)
    if g[0].size != w[0].size:
        return math.inf
    if w[0].size == 0:
        return 0.0
    return max(float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))
               for a, b in zip(g, w))


def check_pair(label, got, want, tol=PAIR_TOL) -> list:
    err = max_pair_error(got, want)
    return [] if err <= tol else [f"{label}: pair differs by {err:.3e} > {tol:g}"]


def check_trace_sums(label, eigenvalues, pair, tol=SUM_TOL) -> list:
    """sum 1/lam = 2 sum p_j and 1/2 sum 1/lam^2 = total energy."""
    lam = np.asarray(eigenvalues, dtype=float)
    inv = 1.0 / lam
    out = []
    r1 = abs(float(np.sum(inv)) - momentum(pair))
    s1 = max(1.0, float(np.sum(np.abs(inv))))
    if not r1 <= tol * s1:
        out.append(f"{label}: sum 1/lam misses 2 sum p by {r1:.3e}")
    r2 = abs(0.5 * float(np.sum(inv ** 2)) - energy(pair))
    s2 = max(1.0, 0.5 * float(np.sum(inv ** 2)))
    if not r2 <= tol * s2:
        out.append(f"{label}: sum 1/lam^2 / 2 misses the energy by {r2:.3e}")
    return out


def check_conserved(label, snap, base, tol=SUM_TOL) -> list:
    """Momentum and energy of a snapshot equal those of its base pair."""
    out = []
    r1 = abs(momentum(snap) - momentum(base))
    s1 = max(1.0, 2.0 * float(np.sum(np.abs(_arrays(snap)[1]))))
    if not r1 <= tol * s1:
        out.append(f"{label}: momentum drifts by {r1:.3e}")
    r2 = abs(energy(snap) - energy(base))
    s2 = max(1.0, _energy_scale(snap))
    if not r2 <= tol * s2:
        out.append(f"{label}: energy drifts by {r2:.3e}")
    return out


def check_isospectral(label, snap, base_poly, tol=SPECTRUM_TOL) -> list:
    """The snapshot's characteristic polynomial equals the base pair's."""
    w = char_poly(snap)
    n = max(w.size, base_poly.size)
    a = np.pad(w, (0, n - w.size))
    b = np.pad(base_poly, (0, n - base_poly.size))
    err = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))
    return [] if err <= tol else [
        f"{label}: characteristic polynomial differs by {err:.3e}"]


def check_drifts(label, report, tol=DRIFT_TOL) -> list:
    """The program's own conservation report stays within criterion 8."""
    worst = max(report.u_integral_drift, report.energy_drift,
                report.wronskian_drift)
    return [] if worst <= tol else [
        f"{label}: conservation report drift {worst:.3e}"]


def check_peakon_track(label, times, snaps, x0, p, tol=SPEED_TOL) -> list:
    """A single peakon sits at x0 + p t with unchanged weight."""
    worst = 0.0
    for t, snap in zip(times, snaps):
        sites, weights, _ = _arrays(snap)
        if sites.size != 1:
            return [f"{label}: single peakon split into {sites.size} sites"]
        worst = max(worst, abs(sites[0] - (x0 + p * t)), abs(weights[0] - p))
    return [] if worst <= tol else [f"{label}: peakon off track by {worst:.3e}"]


def check_residuals(label, residuals, bound) -> list:
    worst = max(residuals)
    return [] if worst <= bound else [
        f"{label}: weak residual {worst:.3e} > {bound:g}"]


def check_csv_t0(label, text, pair, grid, times, tol=CSV_TOL) -> list:
    """Rows `t,x,u` cover times x grid; the t = 0 rows equal u of the input."""
    lines = text.strip().split("\n")
    if lines[0] != "t,x,u":
        return [f"{label}: bad CSV header {lines[0]!r}"]
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    if rows.shape != (len(times) * grid.size, 3):
        return [f"{label}: CSV has {rows.shape[0]} rows, "
                f"want {len(times) * grid.size}"]
    first = rows[rows[:, 0] == 0.0]
    if first.shape[0] != grid.size or np.any(first[:, 1] != grid):
        return [f"{label}: t = 0 rows do not cover the grid"]
    want = u_values(pair, grid)
    scale = max(1.0, float(np.sum(np.abs(_arrays(pair)[1]))))
    err = float(np.max(np.abs(first[:, 2] - want)))
    return [] if err <= tol * scale else [
        f"{label}: t = 0 profile differs by {err:.3e}"]
