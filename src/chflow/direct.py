"""Direct spectral transform: spectrum, coupling/norming constants, Weyl functions.

The Wronskian polynomial is the lower-right entry of the minus-side
cumulative transfer product; its roots are the (real, simple, nonzero)
eigenvalues.  Logarithmic coupling constants come from the Weyl-function
weights and are cross-validated against direct eigenfunction matching, so a
sign-convention bug in either path cannot pass silently.

``spectral_data`` is the one transform: the Weyl functions are read off its
result, and the identities (trace formulas, weighted energy, definiteness)
take a pair together with its ``SpectralData`` instead of transforming the
pair again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

from .errors import (DuplicateEigenvalue, NotAnEigenvalue, PoleHit,
                     RootCountMismatch, WeightNonpositive)
from .pairs import (PeakonPair, _minus_events, mu_interval, reflect,
                    to_string)
from .poly import DEFAULT_PREC, PREC_LADDER, Poly
from .stringsys import cumulative_transfer

CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class SpectralData:
    """Spectrum with per-eigenvalue coupling and norming data.

    Arrays are co-indexed and sorted by ascending eigenvalue; ``wronskian``
    holds the polynomial coefficients, constant term first (always 1).
    """

    eigenvalues: np.ndarray
    kappa: np.ndarray
    coupling: np.ndarray
    norming_right: np.ndarray
    norming_left: np.ndarray
    wronskian: tuple

    def __post_init__(self):
        for name in ("eigenvalues", "kappa", "coupling", "norming_right",
                     "norming_left"):
            object.__setattr__(self, name,
                               np.atleast_1d(np.asarray(getattr(self, name),
                                                        dtype=float)))
        object.__setattr__(self, "wronskian",
                           tuple(float(c) for c in self.wronskian))

    @property
    def n(self):
        return self.eigenvalues.size

    @classmethod
    def empty(cls):
        return cls(np.empty(0), np.empty(0), np.empty(0), np.empty(0),
                   np.empty(0), (1.0,))

    def to_json(self) -> dict:
        return {
            "eigenvalues": list(map(float, self.eigenvalues)),
            "kappa": list(map(float, self.kappa)),
            "coupling": list(map(float, self.coupling)),
            "norming_right": list(map(float, self.norming_right)),
            "norming_left": list(map(float, self.norming_left)),
            "wronskian": list(self.wronskian),
        }


@dataclass(frozen=True)
class RationalHerglotz:
    """Rational Herglotz-Nevanlinna function in pole-residue form.

    m(z) = sum_k weights[k] * z / (poles[k] (poles[k] - z)); vanishes at 0 and
    has strictly positive weights, hence positive imaginary part in the upper
    half plane.
    """

    poles: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        poles = np.atleast_1d(np.asarray(self.poles, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if poles.size == 0:
            poles = np.empty(0)
            weights = np.empty(0)
        if poles.size != weights.size:
            raise ValueError("poles and weights must be co-indexed")
        if np.any(poles == 0):
            raise ValueError("poles must be nonzero")
        if np.any(weights <= 0):
            raise WeightNonpositive("Herglotz weights must be strictly positive")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self):
        return self.poles.size

    @classmethod
    def zero(cls):
        return cls(np.empty(0), np.empty(0))

    def __call__(self, z):
        if self.n == 0:
            return 0.0 * z
        z = np.asarray(z)
        terms = self.weights * z[..., None] / (self.poles * (self.poles - z[..., None]))
        return terms.sum(axis=-1)

    def as_poly_pair(self, prec: int = DEFAULT_PREC):
        """Cancelled numerator/denominator pair with denominator prod(1 - z/pole)."""
        with mp.workprec(prec):
            return _cancelled_pair([mpf(float(p)) for p in self.poles],
                                   [mpf(float(w)) for w in self.weights], prec)


def _cancelled_pair(poles, weights, prec):
    """Numerator/denominator of sum w z/(lam (lam - z)) over denominator
    prod(1 - z/lam); poles and weights are working-precision numbers."""
    den = Poly.from_roots(poles, prec)
    num = Poly.constant(0, prec)
    with mp.workprec(prec):
        for k, (lam, w) in enumerate(zip(poles, weights)):
            others = poles[:k] + poles[k + 1:]
            num = num + Poly.from_roots(others, prec).shift_mul_z().scale(
                w / lam ** 2)
    return num, den


# ----------------------------------------------------------------------------
# Wronskian and spectrum

def wronskian_poly(pair: PeakonPair, prec: int = DEFAULT_PREC) -> Poly:
    """Characteristic polynomial of the pair; constant term 1, real simple roots."""
    q = cumulative_transfer(to_string(pair, "minus"), prec)
    return q.a22


def _poly_real_roots(w: Poly):
    """All roots of a real-rooted polynomial: companion estimates, Newton polish."""
    deg = w.degree
    if deg <= 0:
        return []
    estimates = np.polynomial.polynomial.polyroots(np.array(w.to_floats()))
    if np.any(np.abs(estimates.imag) > 1e-3 * (1 + np.abs(estimates.real))):
        raise RootCountMismatch("companion roots strayed from the real axis")
    dw = w.deriv()
    roots = []
    with mp.workprec(w.prec):
        stop = mpf(2) ** (-w.prec + 8)
        for est in np.sort(estimates.real):
            x = mpf(float(est))
            for _ in range(80):
                dfx = dw(x)
                if dfx == 0:
                    raise RootCountMismatch("flat derivative during polish")
                step = w(x) / dfx
                x -= step
                if abs(step) <= abs(x) * stop:
                    break
            roots.append(x)
    roots.sort()
    for a, b in zip(roots, roots[1:]):
        if abs(b - a) <= 1e-12 * max(abs(a), abs(b)):
            raise RootCountMismatch("polished roots collided")
    if len(roots) != deg or any(r == 0 for r in roots):
        raise RootCountMismatch("root count does not match the degree")
    return roots


def _climb(attempt, prec: int):
    """``attempt(p)`` at the first rung p of ``PREC_LADDER`` that raises no
    ``RootCountMismatch`` or ``WeightNonpositive``; past the last rung, its
    error class is raised again, naming each rung's bits and cause."""
    failures = []
    for k in PREC_LADDER:
        try:
            return attempt(k * prec)
        except (RootCountMismatch, WeightNonpositive) as exc:
            failures.append(f"{k * prec} bits: {exc}")
            last = exc
    raise type(last)("every rung failed (" + "; ".join(failures) + ")") from last


def spectrum(pair: PeakonPair, prec: int = DEFAULT_PREC) -> np.ndarray:
    """Sorted eigenvalues: those of ``spectral_data``, the one direct transform."""
    return spectral_data(pair, prec).eigenvalues


# ----------------------------------------------------------------------------
# spectral data

def _left_decaying_vectors(lengths, values, masses, z):
    """Scaled boundary vectors (g1, g2) of the left-decaying solution, the
    initial one and one after each minus-side event, at the caller's working
    precision.  Coefficient products are rounded exactly as in the transfer
    polynomials, so the propagated vector matches their evaluation."""
    g1, g2 = mpf(0), mpf(-1)
    out = [(g1, g2)]
    for l, a, b in zip(lengths, values, masses):
        al, aal, lm = mpf(a * l), mpf(a * a * l), mpf(l)
        g1, g2 = ((1 - z * al) * g1 - z * lm * g2,
                  z * aal * g1 + (1 + z * al) * g2)
        if b > 0:
            g2 = z * mpf(b) * g1 + g2
        out.append((g1, g2))
    return out


def _matched_coupling(pair: PeakonPair, lam, prec: int) -> float:
    """Coupling constant by eigenfunction matching: continue the solution
    decaying on the left across the whole support and read the coefficient
    of exp(-x/2) on the right.

    Propagates in working precision; double precision loses the small
    couplings produced by widely separated peaks to cancellation.
    """
    s = to_string(pair, "minus")
    with mp.workprec(prec):
        z = mpf(lam)
        g1, g2 = _left_decaying_vectors(s.lengths, s.values, s.masses, z)[-1]
        xi_n = mpf(float(s.endpoints[-1])) if s.n else mpf(1)
        return float((g1 + z * xi_n * g2) / z)


def _coupling_norming(lams, dw_vals, kappas) -> np.ndarray:
    """Float64 rows of couplings, right and left norming constants, from
    eigenvalues, Wronskian derivatives and log couplings at working precision."""
    out = np.empty((3, len(lams)))
    for k, (lam, dw_val, kap) in enumerate(zip(lams, dw_vals, kappas)):
        c = -mp.sign(lam * dw_val) * mp.e ** kap
        out[:, k] = float(c), float(-dw_val / c), float(-dw_val * c)
    return out


def _spectral_data_attempt(pair: PeakonPair, prec: int) -> SpectralData:
    q = cumulative_transfer(to_string(pair, "minus"), prec)
    w = q.a22
    roots = _poly_real_roots(w)
    dw = w.deriv()
    dw_vals, kappa = [], []
    with mp.workprec(prec):
        for lam in roots:
            # minus-side Weyl weight
            dw_val = dw(lam)
            weight = -q.a21(lam) / dw_val
            if weight <= 0:
                raise WeightNonpositive(
                    f"Weyl weight non-positive at eigenvalue {float(lam)}")
            dw_vals.append(dw_val)
            kappa.append(-mp.log(weight * abs(lam * dw_val)))
        coupling, gplus, gminus = _coupling_norming(roots, dw_vals, kappa)
    # independent path: eigenfunction matching through the transfer factors
    for lam, c in zip(roots, coupling):
        c_match = _matched_coupling(pair, lam, prec)
        if abs(c_match - c) > CROSS_CHECK_TOL * max(abs(c), abs(c_match)):
            raise RootCountMismatch(
                f"coupling cross-check failed at {lam}: {c} vs {c_match}")
    return SpectralData(roots, kappa, coupling, gplus, gminus, w.to_floats())


def spectral_data(pair: PeakonPair, prec: int = DEFAULT_PREC) -> SpectralData:
    """Full direct transform of a pair; empty data for the zero pair.

    Walks the rungs of ``PREC_LADDER`` from ``prec`` while a root count, a
    Weyl weight or the coupling cross-check slips; when every rung slips,
    the last rung's error names each rung's bits and cause.
    """
    if pair.n == 0 or not (np.any(pair.weights) or np.any(pair.atoms)):
        return SpectralData.empty()
    return _climb(lambda p: _spectral_data_attempt(pair, p), prec)


def weyl_function(pair: PeakonPair, side: str = "minus",
                  prec: int = DEFAULT_PREC) -> RationalHerglotz:
    """Boundary Herglotz function; poles at the spectrum, weights 1/(lam * norming).

    Read off ``spectral_data``, so it raises wherever that transform does.
    """
    data = spectral_data(pair, prec)
    norming = data.norming_right if side == "plus" else data.norming_left
    return RationalHerglotz(data.eigenvalues, 1.0 / (data.eigenvalues * norming))


def _check_simple_spectrum(sigma: np.ndarray):
    """Raise ``DuplicateEigenvalue`` unless the sorted eigenvalues are finite,
    nonzero and distinct (adjacent gaps above 1e-12 relative)."""
    if np.any(sigma == 0) or not np.all(np.isfinite(sigma)):
        raise DuplicateEigenvalue("eigenvalues must be finite and nonzero")
    if np.any(np.diff(sigma) <= 1e-12 * np.maximum(np.abs(sigma[1:]),
                                                   np.abs(sigma[:-1]))):
        raise DuplicateEigenvalue("eigenvalues must be distinct")


def spectral_from_coords(sigma, kappa, prec: int = DEFAULT_PREC) -> SpectralData:
    """Spectral data determined by eigenvalues and logarithmic couplings alone."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    if sigma.size == 0:
        return SpectralData.empty()
    if sigma.size != kappa.size:
        raise ValueError("sigma and kappa must be co-indexed")
    order = np.argsort(sigma)
    sigma, kappa = sigma[order], kappa[order]
    _check_simple_spectrum(sigma)
    w = Poly.from_roots(sigma, prec)
    dw = w.deriv()
    with mp.workprec(prec):
        lams = [mpf(float(lam)) for lam in sigma]
        coupling, gplus, gminus = _coupling_norming(
            lams, [dw(lam) for lam in lams], [mpf(float(k)) for k in kappa])
    return SpectralData(sigma, kappa, coupling, gplus, gminus,
                        tuple(w.to_floats()))


# ----------------------------------------------------------------------------
# identities and validators

def norming_by_quadrature(pair: PeakonPair, lam: float, side: str = "minus",
                          tol: float = 1e-6) -> float:
    """Norming constant by pairing the matched eigenfunction with the data.

    Evaluates ``sum_j 2 p_j phi(x_j)^2 + 2 lam sum_j h_j phi(x_j)^2`` with phi
    the solution decaying on the given side, normalized asymptotically.
    """
    if side == "plus":
        return norming_by_quadrature(reflect(pair), lam, "minus", tol)
    roots = _climb(lambda p: _poly_real_roots(wronskian_poly(pair, p)),
                   DEFAULT_PREC)
    dists = [abs(float(r) - lam) for r in roots]
    if not roots or min(dists) > tol * max(1.0, abs(lam)):
        raise NotAnEigenvalue(f"{lam} is not in the spectrum")
    # the rounded eigenvalue admits a growing admixture amplified by the
    # Wronskian derivative; the polished root keeps the solution decaying
    lam_exact = roots[int(np.argmin(dists))]
    idx, vals = _decaying_site_values(pair, lam_exact, DEFAULT_PREC)
    with mp.workprec(DEFAULT_PREC):
        gamma = sum(2 * mpf(float(pair.weights[j])) * v ** 2
                    for j, v in zip(idx, vals))
        gamma += 2 * lam_exact * sum(mpf(float(pair.atoms[j])) * v ** 2
                                     for j, v in zip(idx, vals))
    return float(gamma)


def _decaying_site_values(pair: PeakonPair, lam, prec: int):
    """Values of the left-decaying solution at the data-carrying peak sites.

    Returns (site indices, values), co-indexed.  Propagated in working
    precision by ``_left_decaying_vectors``, so a polished characteristic
    root keeps the solution free of the growing admixture; double precision
    loses the small values near the far end to cancellation.  The value at
    a site is continuous across the mass there.
    """
    idx, lengths, values, masses = _minus_events(pair)
    with mp.workprec(prec):
        z = mpf(lam)
        vecs = _left_decaying_vectors(lengths, values, masses, z)[1:]
        vals = [g1 * mp.e ** (-mpf(float(pair.sites[j])) / 2) / z
                for j, (g1, _) in zip(idx, vecs)]
    return idx, vals


def trace_formulas(pair: PeakonPair, data: SpectralData) -> tuple:
    """Residuals of the first two trace formulas (eigenvalue sums vs integrals)."""
    sig = data.eigenvalues
    s1 = float(np.sum(1.0 / sig)) if sig.size else 0.0
    s2 = float(np.sum(1.0 / sig ** 2)) if sig.size else 0.0
    r1 = abs(s1 - 2.0 * float(pair.weights.sum()) if pair.n else abs(s1))
    r2 = abs(0.5 * s2 - mu_interval(pair, -np.inf, np.inf))
    return float(r1), float(r2)


def parseval_check(pair: PeakonPair, data: SpectralData,
                   side: str = "minus") -> float:
    """Residual of the weighted-energy identity against the spectral sum."""
    s = to_string(pair, side)
    left = float(np.sum(s.values ** 2 * s.lengths) + np.sum(s.masses))
    norming = data.norming_left if side == "minus" else data.norming_right
    right = float(np.sum(1.0 / (data.eigenvalues ** 3 * norming)))
    return abs(left - right)


@dataclass(frozen=True)
class DefinitenessReport:
    label: str
    residual: float
    spectrum_sign_consistent: bool
    spectrum: np.ndarray = field(default_factory=lambda: np.empty(0))


def classify_definiteness(pair: PeakonPair,
                          data: SpectralData) -> DefinitenessReport:
    """Sign classification of the momentum distribution and its spectral check.

    Definite (all atoms zero, weights one-signed) pairs must have one-signed
    spectrum and satisfy the sign-definite trace identity; any singular atom
    makes the pair indefinite.
    """
    sig = data.eigenvalues
    if np.any(pair.atoms > 0):
        return DefinitenessReport("indefinite", float("nan"), True, sig)
    if pair.n == 0 or np.all(pair.weights >= 0):
        label = "positive"
        sign_ok = bool(np.all(sig > 0))
    elif np.all(pair.weights <= 0):
        label = "negative"
        sign_ok = bool(np.all(sig < 0))
    else:
        return DefinitenessReport("indefinite", float("nan"), True, sig)
    s1 = float(np.sum(1.0 / sig)) if sig.size else 0.0
    residual = abs(s1 - 2.0 * float(pair.weights.sum()))
    return DefinitenessReport(label, residual, sign_ok, sig)


def herglotz_probe(m: RationalHerglotz, samples) -> float:
    """Minimum sampled imaginary part over upper-half-plane probe points."""
    if m.n == 0:
        return 0.0
    best = np.inf
    for z in samples:
        z = complex(z)
        if z.imag <= 0:
            raise ValueError("probe samples must lie in the open upper half plane")
        if np.min(np.abs(m.poles - z)) <= 1e-12 * (1 + np.max(np.abs(m.poles))):
            raise PoleHit(f"sample {z} coincides with a pole")
        best = min(best, complex(m(z)).imag)
    return float(best)
