"""Linear spectral evolution of pairs, with conservation and weak-form checks.

The evolution is trivial in spectral coordinates: each logarithmic coupling
moves as kappa + t/(2 lam) while the spectrum stays fixed.  Everything else
here is verification machinery: conserved-quantity reports, residuals of the
two weak-form space-time identities (x-integrals in closed form, composite
Gauss-Legendre in t), and the metric whose topology makes the evolution map
continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .direct import SpectralData, spectral_data, spectral_from_coords
from .errors import RoundTripFailure, SupportNotCovered
from .inverse import IsospectralCoordinates, Reconstruction, reconstruct
from .pairs import PeakonPair, eval_u, exp_coefficients, mu_interval, reflect
from .poly import DEFAULT_PREC

ISOSPECTRAL_TOL = 1e-9


# ----------------------------------------------------------------------------
# spectral evolution

def _evolved_coords(data: SpectralData, t: float) -> IsospectralCoordinates:
    """Coordinates of the data after time t: each kappa moves by t/(2 lam)."""
    return IsospectralCoordinates(data.eigenvalues,
                                  data.kappa + t / (2.0 * data.eigenvalues))


def evolve_spectral(data: SpectralData, t: float) -> SpectralData:
    """Evolve spectral data by time t: kappa moves linearly, nothing else.

    The spectrum and the characteristic polynomial are invariant; coupling
    and norming constants are recomputed from the shifted couplings.
    """
    if data.n == 0 or t == 0.0:
        return data
    co = _evolved_coords(data, t)
    out = spectral_from_coords(co.sigma, co.kappa)
    return SpectralData(out.eigenvalues, out.kappa, out.coupling,
                        out.norming_right, out.norming_left, data.wronskian)


def truncate_spectral(data: SpectralData, k: float) -> SpectralData:
    """Keep eigenvalues with |lam| <= k and their left norming constants.

    Couplings, norming constants and the characteristic polynomial of the
    reduced spectrum are recomputed from these kept values.
    """
    if not k > 0:
        raise ValueError("truncation radius must be positive")
    keep = np.abs(data.eigenvalues) <= k
    if not np.any(keep):
        return SpectralData.empty()
    co = IsospectralCoordinates.from_norming(data.eigenvalues[keep],
                                             data.norming_left[keep])
    return spectral_from_coords(co.sigma, co.kappa)


def snapshot(data: SpectralData, t: float,
             prec: int = DEFAULT_PREC) -> Reconstruction:
    """Certified reconstruction of the evolved spectral data at time t."""
    return reconstruct(_evolved_coords(data, t), prec)


def flow_map(pair: PeakonPair, t: float, prec: int = DEFAULT_PREC) -> PeakonPair:
    """Evolution map on pairs: direct transform, linear shift, inverse transform."""
    return snapshot(spectral_data(pair, prec), t, prec).pair


# ----------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class Trajectory:
    """Sampled integral curve: snapshots of the evolved pair at given times,
    each with the spectral data that certified its reconstruction."""

    times: np.ndarray
    snapshots: tuple
    base_spectral: SpectralData
    spectra: tuple

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not times.size == len(self.snapshots) == len(self.spectra):
            raise ValueError("times, snapshots and spectra must be co-indexed")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        object.__setattr__(self, "spectra", tuple(self.spectra))


def make_trajectory(pair: PeakonPair, times,
                    prec: int = DEFAULT_PREC) -> Trajectory:
    """Sample the integral curve through the pair at the given times.

    Each snapshot keeps the direct transform that certified it, and its
    spectrum is checked against the base spectrum to ``ISOSPECTRAL_TOL``
    (the evolution is isospectral by construction; the check guards the
    reconstruction).  No snapshot is transformed again.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    data = spectral_data(pair, prec)
    recs = [snapshot(data, t, prec) for t in times]
    for t, rec in zip(times, recs):
        # the certificate already matched the eigenvalue count
        if np.any(np.abs(rec.data.eigenvalues - data.eigenvalues)
                  > ISOSPECTRAL_TOL * np.abs(data.eigenvalues)):
            raise RoundTripFailure(
                f"snapshot at t={t} is not isospectral to the base data")
    return Trajectory(times, [r.pair for r in recs], data,
                      [r.data for r in recs])


@dataclass(frozen=True)
class ConservedReport:
    """Per-time conserved functionals and their worst-case drifts."""

    times: np.ndarray
    u_integrals: np.ndarray
    energies: np.ndarray
    u_integral_drift: float
    energy_drift: float
    wronskian_drift: float


def conserved_report(traj: Trajectory) -> ConservedReport:
    """Evaluate the conserved functionals along the trajectory.

    The reference values come from the base spectral data (eigenvalue sums),
    which equal the t=0 functionals by the trace formulas; the report states
    the maximal deviation of each snapshot from that reference.
    """
    sig = traj.base_spectral.eigenvalues
    iu_ref = float(np.sum(1.0 / sig)) if sig.size else 0.0
    en_ref = 0.5 * float(np.sum(1.0 / sig ** 2)) if sig.size else 0.0
    w_ref = traj.base_spectral.wronskian
    iu = np.array([2.0 * float(s.weights.sum()) for s in traj.snapshots])
    en = np.array([mu_interval(s, -np.inf, np.inf) for s in traj.snapshots])
    w_drift = 0.0
    for d in traj.spectra:
        wc = d.wronskian
        m = max(len(wc), len(w_ref))
        for k in range(m):
            a = wc[k] if k < len(wc) else 0.0
            b = w_ref[k] if k < len(w_ref) else 0.0
            w_drift = max(w_drift, abs(a - b) / max(1.0, abs(b)))
    iu_drift = float(np.max(np.abs(iu - iu_ref))) if iu.size else 0.0
    en_drift = float(np.max(np.abs(en - en_ref))) if en.size else 0.0
    return ConservedReport(traj.times, iu, en, iu_drift, en_drift,
                           float(w_drift))


# ----------------------------------------------------------------------------
# exponential-piece algebra for the weak-form x-integrals

def _dict_add(d, alpha, c):
    if c != 0.0:
        d[alpha] = d.get(alpha, 0.0) + c


def _dict_scale(d, s):
    return {a: c * s for a, c in d.items()}


def _dict_sub(d1, d2):
    out = dict(d1)
    for a, c in d2.items():
        _dict_add(out, a, -c)
    return {a: c for a, c in out.items() if c != 0.0}


def _dict_conv(d1, d2):
    out = {}
    for a1, c1 in d1.items():
        for a2, c2 in d2.items():
            _dict_add(out, a1 + a2, c1 * c2)
    return out


def _pressure_pieces(pair: PeakonPair):
    """Per-interval exponential form of 4 P(x), P the convolution pressure.

    P(x) = 1/4 int e^{-|x-s|} u(s)^2 ds + 1/4 int e^{-|x-s|} dmu(s), so the
    kernel sees the density 2u^2 + u'^2 plus the singular atoms.  On each
    interval between peak sites the result is a combination of e^{ax} with
    a in {-2,...,2}; the e^{+-x} coefficients carry the mass accumulated on
    the far sides.
    """
    n = pair.n
    A, B = exp_coefficients(pair)
    cuts = np.concatenate(([-np.inf], pair.sites, [np.inf]))

    def il_full(j):
        # int over interval j of e^s (3A^2 e^{2s} + 2AB + 3B^2 e^{-2s}) ds
        a, b = cuts[j], cuts[j + 1]
        val = 0.0
        if A[j]:
            val += A[j] ** 2 * (math.exp(3 * b) - (math.exp(3 * a) if a > -np.inf else 0.0))
        if A[j] and B[j]:
            val += 2 * A[j] * B[j] * (math.exp(b) - (math.exp(a) if a > -np.inf else 0.0))
        if B[j]:
            val -= 3 * B[j] ** 2 * (math.exp(-b) - math.exp(-a))
        return val

    def ir_full(j):
        # int over interval j of e^{-s} (3A^2 e^{2s} + 2AB + 3B^2 e^{-2s}) ds
        a, b = cuts[j], cuts[j + 1]
        val = 0.0
        if A[j]:
            val += 3 * A[j] ** 2 * (math.exp(b) - math.exp(a))
        if A[j] and B[j]:
            val -= 2 * A[j] * B[j] * ((math.exp(-b) if b < np.inf else 0.0) - math.exp(-a))
        if B[j]:
            val -= B[j] ** 2 * ((math.exp(-3 * b) if b < np.inf else 0.0) - math.exp(-3 * a))
        return val

    lc = np.zeros(n + 1)
    for j in range(1, n + 1):
        lc[j] = lc[j - 1] + il_full(j - 1) + pair.atoms[j - 1] * math.exp(pair.sites[j - 1])
    rc = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        rc[j] = rc[j + 1] + ir_full(j + 1) + pair.atoms[j] * math.exp(-pair.sites[j])

    pieces = []
    for j in range(n + 1):
        a, b = cuts[j], cuts[j + 1]
        d = {}
        _dict_add(d, 2, -2 * A[j] ** 2)
        _dict_add(d, -2, -2 * B[j] ** 2)
        _dict_add(d, 0, 4 * A[j] * B[j])
        up = rc[j]
        if A[j] and b < np.inf:
            up += 3 * A[j] ** 2 * math.exp(b)
        if A[j] and B[j]:
            up -= 2 * A[j] * B[j] * (math.exp(-b) if b < np.inf else 0.0)
        if B[j]:
            up -= B[j] ** 2 * (math.exp(-3 * b) if b < np.inf else 0.0)
        _dict_add(d, 1, up)
        dn = lc[j]
        if A[j]:
            dn -= A[j] ** 2 * (math.exp(3 * a) if a > -np.inf else 0.0)
        if A[j] and B[j]:
            dn -= 2 * A[j] * B[j] * (math.exp(a) if a > -np.inf else 0.0)
        if B[j] and a > -np.inf:
            dn += 3 * B[j] ** 2 * math.exp(-a)
        _dict_add(d, -1, dn)
        pieces.append(d)
    return pieces


def eval_pressure(pair: PeakonPair, x) -> float:
    """Pointwise pressure P(x); continuous, decays like e^{-|x|}."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    pieces = _pressure_pieces(pair)
    out = np.zeros_like(xs)
    idx = np.searchsorted(pair.sites, xs)
    for i, (xi, j) in enumerate(zip(xs, idx)):
        out[i] = 0.25 * sum(c * math.exp(a * xi)
                            for a, c in pieces[j].items())
    return out if np.ndim(x) else float(out[0])


# ----------------------------------------------------------------------------
# polynomial bump test functions

@dataclass(frozen=True)
class BumpTestFunction:
    """Tensor-product bump (1 - s^2)^power in x and t over a support box.

    The profile is a single polynomial piece with integer coefficients, so
    every x-integral against exponentials closes in elementary functions; the
    contact at the support boundary is C^{power-1}.
    """

    center_x: float
    radius_x: float
    center_t: float
    radius_t: float
    power: int = 6

    def __post_init__(self):
        if self.radius_x <= 0 or self.radius_t <= 0:
            raise ValueError("bump radii must be positive")
        if self.power < 2:
            raise ValueError("bump power must be at least 2")

    def profile(self) -> np.ndarray:
        """Coefficients of (1 - s^2)^power in the scaled variable s."""
        q = self.power
        c = np.zeros(2 * q + 1)
        for k in range(q + 1):
            c[2 * k] = comb(q, k) * (-1.0) ** k
        return c

    def x_value(self, x: float) -> float:
        s = (x - self.center_x) / self.radius_x
        if abs(s) >= 1.0:
            return 0.0
        return float(np.polynomial.polynomial.polyval(s, self.profile()))

    def x_derivative(self, x: float) -> float:
        s = (x - self.center_x) / self.radius_x
        if abs(s) >= 1.0:
            return 0.0
        dc = np.polynomial.polynomial.polyder(self.profile())
        return float(np.polynomial.polynomial.polyval(s, dc)) / self.radius_x

    def t_value(self, t: float) -> float:
        s = (t - self.center_t) / self.radius_t
        if abs(s) >= 1.0:
            return 0.0
        return float(np.polynomial.polynomial.polyval(s, self.profile()))

    def t_derivative(self, t: float) -> float:
        s = (t - self.center_t) / self.radius_t
        if abs(s) >= 1.0:
            return 0.0
        dc = np.polynomial.polynomial.polyder(self.profile())
        return float(np.polynomial.polynomial.polyval(s, dc)) / self.radius_t


def _int_poly_exp(coeffs, beta: float, lo: float, hi: float) -> float:
    """Exact integral of (sum_k c_k s^k) e^{beta s} over [lo, hi]."""
    coeffs = np.asarray(coeffs, dtype=float)
    if beta == 0.0:
        anti = np.polynomial.polynomial.polyint(coeffs)
        pv = np.polynomial.polynomial.polyval
        return float(pv(hi, anti) - pv(lo, anti))
    # antiderivative e^{beta s} sum q_k s^k with beta q_k + (k+1) q_{k+1} = c_k
    q = np.zeros_like(coeffs)
    d = coeffs.size - 1
    q[d] = coeffs[d] / beta
    for k in range(d - 1, -1, -1):
        q[k] = (coeffs[k] - (k + 1) * q[k + 1]) / beta
    pv = np.polynomial.polynomial.polyval
    return float(math.exp(beta * hi) * pv(hi, q) - math.exp(beta * lo) * pv(lo, q))


def _dict_integral(d, pcoef, cx: float, rx: float, lo: float, hi: float) -> float:
    """Integral of (sum_a c_a e^{ax}) p((x-cx)/rx) over [lo, hi], in closed form.

    Working in the scaled bump variable keeps the polynomial coefficients
    small, so the exponential antiderivatives do not lose accuracy to
    cancellation.
    """
    s_lo = (lo - cx) / rx
    s_hi = (hi - cx) / rx
    total = 0.0
    for alpha, c in d.items():
        if c == 0.0:
            continue
        total += c * rx * math.exp(alpha * cx) * _int_poly_exp(pcoef, alpha * rx, s_lo, s_hi)
    return total


def _space_integrals(pair: PeakonPair, bump: BumpTestFunction):
    """Closed-form x-integrals of the weak-form integrands at one time.

    Returns (a1, b1, m0, m1, kk) with
      a1 = int u X dx                      b1 = int (u^2/2 + P) X' dx
      m0 = int X dmu                       m1 = int u X' dmu
      kk = int u (u^2/2 - P) X' dx
    where X is the bump's x-profile and P the convolution pressure.
    """
    if pair.n == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    cx, rx = bump.center_x, bump.radius_x
    lo_s, hi_s = cx - rx, cx + rx
    inner = pair.sites[(pair.sites > lo_s) & (pair.sites < hi_s)]
    brk = np.concatenate(([lo_s], inner, [hi_s]))
    prof = bump.profile()
    dprof = np.polynomial.polynomial.polyder(prof) / rx
    A, B = exp_coefficients(pair)
    four_p = _pressure_pieces(pair)
    a1 = b1 = m0 = m1 = kk = 0.0
    for lo, hi in zip(brk[:-1], brk[1:]):
        if hi <= lo:
            continue
        j = int(np.searchsorted(pair.sites, 0.5 * (lo + hi)))
        u_d = {}
        _dict_add(u_d, 1, A[j])
        _dict_add(u_d, -1, B[j])
        usq = _dict_conv(u_d, u_d)
        density = {}
        _dict_add(density, 2, 2 * A[j] ** 2)
        _dict_add(density, -2, 2 * B[j] ** 2)
        press = _dict_scale(four_p[j], 0.25)
        half_usq = _dict_scale(usq, 0.5)
        a1 += _dict_integral(u_d, prof, cx, rx, lo, hi)
        b1 += _dict_integral(half_usq, dprof, cx, rx, lo, hi)
        b1 += _dict_integral(press, dprof, cx, rx, lo, hi)
        m0 += _dict_integral(density, prof, cx, rx, lo, hi)
        m1 += _dict_integral(_dict_conv(u_d, density), dprof, cx, rx, lo, hi)
        kk += _dict_integral(_dict_conv(u_d, _dict_sub(half_usq, press)),
                             dprof, cx, rx, lo, hi)
    for x_j, h_j in zip(pair.sites, pair.atoms):
        if h_j > 0.0:
            m0 += h_j * bump.x_value(float(x_j))
            m1 += h_j * eval_u(pair, float(x_j)) * bump.x_derivative(float(x_j))
    return a1, b1, m0, m1, kk


# ----------------------------------------------------------------------------
# weak-form residuals

@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre time quadrature: per-subinterval node count
    plus one adaptive pass splitting where the second difference is largest."""

    subintervals: int = 8
    nodes: int = 8
    adaptive_splits: int = 1


def weak_residual(traj: Trajectory, testfn: BumpTestFunction | None = None,
                  quad: QuadratureSpec | None = None,
                  prec: int = DEFAULT_PREC) -> tuple:
    """Residuals of the two weak-form space-time identities.

    r1 tests the velocity equation (u against phi_t plus u^2/2 + P against
    phi_x); r2 tests the energy-measure transport identity.  The x-integrals
    are exact; all error is time quadrature, so both residuals vanish under
    refinement for trajectories of the evolution map.
    """
    if quad is None:
        quad = QuadratureSpec()
    if testfn is None:
        t_lo, t_hi = float(traj.times[0]), float(traj.times[-1])
        snaps_sites = [s.sites for s in traj.snapshots if s.n]
        center = float(np.mean(np.concatenate(snaps_sites))) if snaps_sites else 0.0
        testfn = BumpTestFunction(center, 3.0, 0.5 * (t_lo + t_hi),
                                  0.45 * (t_hi - t_lo))
    lo = testfn.center_t - testfn.radius_t
    hi = testfn.center_t + testfn.radius_t
    if lo < traj.times[0] - 1e-12 or hi > traj.times[-1] + 1e-12:
        raise SupportNotCovered(
            "test function time support exceeds the trajectory window")
    data = traj.base_spectral
    cache = {}

    def integrand(t):
        pair = cache.get(t)
        if pair is None:
            pair = snapshot(data, t, prec).pair
            cache[t] = pair
        a1, b1, m0, m1, kk = _space_integrals(pair, testfn)
        tv, td = testfn.t_value(t), testfn.t_derivative(t)
        i1 = td * a1 + tv * b1
        i2 = td * m0 + tv * m1 - 2.0 * tv * kk
        return i1, i2

    nodes, weights = np.polynomial.legendre.leggauss(quad.nodes)
    edges = list(np.linspace(lo, hi, quad.subintervals + 1))
    for _ in range(max(0, quad.adaptive_splits)):
        mids = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
        vals = [sum(abs(v) for v in integrand(m)) for m in mids]
        if len(vals) < 3:
            worst = int(np.argmax(vals))
        else:
            second = np.abs(np.diff(vals, 2))
            worst = int(np.argmax(second)) + 1
        edges.insert(worst + 1, mids[worst])
    r1 = r2 = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        for xi, w in zip(nodes, weights):
            i1, i2 = integrand(mid + half * xi)
            r1 += w * half * i1
            r2 += w * half * i2
    return abs(r1), abs(r2)


# ----------------------------------------------------------------------------
# continuity metric

def _weighted_double_integral(pair: PeakonPair, xs: np.ndarray) -> np.ndarray:
    """Left-anchored double integral with weights e^{+s}, e^{-r}.

    F(x) = int_{-inf}^x e^{s} [ int_{-inf}^s e^{-r} (u'+u)^2 dr
                                + int_{-inf}^s e^{-r} d upsilon ] ds,
    evaluated in closed form: (u'+u)^2 = 4 A_j^2 e^{2r} per interval.
    """
    n = pair.n
    if n == 0:
        return np.zeros_like(xs)
    A, _ = exp_coefficients(pair)
    sites = pair.sites
    # inner integral on interval j: G(s) = C_j + 4 A_j^2 e^{s}
    C = np.zeros(n + 1)
    for j in range(n):
        C[j + 1] = (C[j] + 4 * (A[j] ** 2 - A[j + 1] ** 2) * math.exp(sites[j])
                    + pair.atoms[j] * math.exp(-sites[j]))
    # outer integral accumulated at each site
    F_at = np.zeros(n + 1)
    prev = -np.inf
    for j in range(n):
        lo, hi = prev, sites[j]
        e_lo = math.exp(lo) if lo > -np.inf else 0.0
        F_at[j + 1] = (F_at[j] + C[j] * (math.exp(hi) - e_lo)
                       + 2 * A[j] ** 2 * (math.exp(2 * hi) - e_lo ** 2))
        prev = hi
    out = np.empty_like(xs)
    for i, x in enumerate(xs):
        j = int(np.searchsorted(sites, x))
        lo = sites[j - 1] if j else -np.inf
        e_lo = math.exp(lo) if lo > -np.inf else 0.0
        out[i] = (F_at[j] + C[j] * (math.exp(x) - e_lo)
                  + 2 * A[j] ** 2 * (math.exp(2 * x) - e_lo ** 2))
    return out


def continuity_metric(pair_a: PeakonPair, pair_b: PeakonPair,
                      grid=None) -> float:
    """Distance controlling the topology in which the evolution is continuous.

    Sup over the grid of |u_a - u_b| plus the discrepancies of the two
    exponentially weighted double integrals (one per decay direction; the
    right-anchored one is evaluated by reflection).
    """
    if grid is None:
        anchors = np.concatenate((pair_a.sites, pair_b.sites, [0.0]))
        lo = float(anchors.min()) - 4.0
        hi = float(anchors.max()) + 4.0
        grid = np.linspace(lo, hi, 161)
    grid = np.asarray(grid, dtype=float)
    du = np.max(np.abs(eval_u(pair_a, grid) - eval_u(pair_b, grid)))
    dm = np.max(np.abs(_weighted_double_integral(pair_a, grid)
                       - _weighted_double_integral(pair_b, grid)))
    ra, rb = reflect(pair_a), reflect(pair_b)
    dp = np.max(np.abs(_weighted_double_integral(ra, -grid[::-1])
                       - _weighted_double_integral(rb, -grid[::-1])))
    return float(du + dm + dp)


# ----------------------------------------------------------------------------
# export

def snapshots_csv(traj: Trajectory, grid) -> str:
    """CSV rows `t,x,u` over the grid for every snapshot time."""
    grid = np.asarray(grid, dtype=float)
    lines = ["t,x,u"]
    for t, snap in zip(traj.times, traj.snapshots):
        u = np.atleast_1d(eval_u(snap, grid))
        for x, v in zip(grid, u):
            lines.append(f"{t:.17g},{x:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def atoms_sidecar(traj: Trajectory) -> list:
    """Per-snapshot singular atoms: [{"t":..., "atoms":[{"x":..., "h":...}]}]."""
    out = []
    for t, snap in zip(traj.times, traj.snapshots):
        atoms = [{"x": float(x), "h": float(h)}
                 for x, h in zip(snap.sites, snap.atoms) if h > 0.0]
        out.append({"t": float(t), "atoms": atoms})
    return out
