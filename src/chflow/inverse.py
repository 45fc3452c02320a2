"""Inverse spectral transform by continued-fraction layer stripping.

Given eigenvalues and logarithmic couplings, assemble the boundary Herglotz
function, peel off string segments (intervals and point masses) one at a
time from its behaviour at infinity, and convert the resulting string back
to a peakon/measure pair.  Every reconstruction is finished with a
mandatory round trip through the direct transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .direct import RationalHerglotz, _poly_real_roots, spectral_data
from .errors import (DegreeStall, DuplicateEigenvalue, NegativeLength,
                     NegativeMass, NonpositiveProduct, RootCountMismatch,
                     RoundTripFailure)
from .pairs import PeakonPair, StringData, from_string, reflect
from .poly import DEFAULT_PREC, Poly

ROUND_TRIP_TOL = 1e-8
MASS_ZERO_TOL = 1e-14
FAR_POLE_FACTOR = 1e6
SPIKE_REL_TOL = 1e-7


@dataclass(frozen=True)
class IsospectralCoordinates:
    """Eigenvalues with their logarithmic couplings; determines a unique pair."""

    sigma: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        kappa = np.atleast_1d(np.asarray(self.kappa, dtype=float))
        if sigma.size == 0:
            sigma = np.empty(0)
            kappa = np.empty(0)
        if sigma.size != kappa.size:
            raise ValueError("sigma and kappa must be co-indexed")
        order = np.argsort(sigma)
        sigma, kappa = sigma[order], kappa[order]
        if np.any(sigma == 0) or not np.all(np.isfinite(sigma)):
            raise DuplicateEigenvalue("eigenvalues must be finite and nonzero")
        if sigma.size > 1 and np.any(
                np.diff(sigma) <= 1e-12 * np.maximum(np.abs(sigma[1:]),
                                                     np.abs(sigma[:-1]))):
            raise DuplicateEigenvalue("eigenvalues must be distinct")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self):
        return self.sigma.size

    @classmethod
    def empty(cls):
        return cls(np.empty(0), np.empty(0))


def wdot_from_sigma(sigma) -> np.ndarray:
    """Derivative of prod(1 - z/mu) at each eigenvalue: -(1/lam) prod_{mu != lam}(1 - lam/mu)."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if np.any(sigma == 0):
        raise DuplicateEigenvalue("eigenvalues must be nonzero")
    out = np.empty(sigma.size)
    for k, lam in enumerate(sigma):
        others = np.delete(sigma, k)
        if others.size and np.min(np.abs(others - lam)) <= 1e-12 * abs(lam):
            raise DuplicateEigenvalue("eigenvalues must be distinct")
        out[k] = -(1.0 / lam) * np.prod(1.0 - lam / others)
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    weight_sum: float
    partial_sums: tuple
    counting_ratios: tuple


def admissibility_check(coords: IsospectralCoordinates) -> AdmissibilityReport:
    """Summability diagnostics; finite spectra are always admissible.

    Reports the weighted coupling sum, its partial sums by increasing modulus
    and the eigenvalue counting ratio over dyadic radii.
    """
    if coords.n == 0:
        return AdmissibilityReport(True, 0.0, (), ())
    wd = wdot_from_sigma(coords.sigma)
    terms = np.exp(np.abs(coords.kappa)) / (coords.sigma ** 2
                                            * np.abs(coords.sigma * wd))
    order = np.argsort(np.abs(coords.sigma))
    partial = np.cumsum(terms[order])
    rmax = float(np.max(np.abs(coords.sigma)))
    radii, ratios = 1.0, []
    while radii <= 2 * rmax:
        ratios.append(float(np.sum(np.abs(coords.sigma) <= radii) / radii))
        radii *= 2
    return AdmissibilityReport(bool(np.isfinite(partial[-1])),
                               float(partial[-1]), tuple(map(float, partial)),
                               tuple(ratios))


def herglotz_from_coords(coords: IsospectralCoordinates,
                         side: str = "minus") -> RationalHerglotz:
    """Boundary Herglotz function of the coordinates on the requested side."""
    if coords.n == 0:
        return RationalHerglotz.zero()
    wd = wdot_from_sigma(coords.sigma)
    sign = -1.0 if side == "minus" else 1.0
    weights = np.exp(sign * coords.kappa) / np.abs(coords.sigma * wd)
    return RationalHerglotz(coords.sigma, weights)


# ----------------------------------------------------------------------------
# layer stripping

def _assemble(poles, weights, prec):
    """Cancelled numerator/denominator pair of sum w z/(lam (lam - z))."""
    den = Poly.from_roots(poles, prec)
    num = Poly.constant(0, prec)
    with mp.workprec(prec):
        for k, (lam, w) in enumerate(zip(poles, weights)):
            others = poles[:k] + poles[k + 1:]
            num = num + Poly.from_roots(others, prec).shift_mul_z().scale(
                w / lam ** 2)
    return num, den


def _respectralize(num, den, prec, scale=0.0):
    """Pole-residue data of num/den: (poles, residues, linear-growth slope).

    Re-canonicalizing at every stripping step is the common-factor
    cancellation: only the polished real poles of the denominator survive,
    so noise from the Moebius updates cannot accumulate into spurious
    structure.  The slope is the mass candidate b with m(z) - b z bounded.
    """
    try:
        poles = _poly_real_roots(den)
    except RootCountMismatch as exc:
        raise DegreeStall(f"pole recovery failed: {exc}") from exc
    dden = den.deriv()
    with mp.workprec(prec):
        weights = [-num(lam) / dden(lam) for lam in poles]
        zstar = mp.mpc(0, 1)
        tail = sum((w * zstar / (lam * (lam - zstar))
                    for lam, w in zip(poles, weights)), mp.mpc(0))
        b = ((num(zstar) / den(zstar) - tail) / zstar).real
        # after an interval that ends in a point mass, the float64 rounding
        # of the input leaves a small top denominator coefficient whose root
        # lies far beyond the data scale, at every precision; such a pole
        # acts like the linear term, w z/(lam(lam-z)) ~ (w/lam^2) z, so it
        # is folded into the slope
        cut = FAR_POLE_FACTOR * max(1.0, scale)
        near_poles, near_weights = [], []
        for lam, w in zip(poles, weights):
            if abs(lam) > cut:
                b += w / lam ** 2
            else:
                near_poles.append(lam)
                near_weights.append(w)
    return near_poles, near_weights, b


def _strip_once(m: RationalHerglotz, prec: int,
                lenient: bool = False) -> StringData:
    num, den = m.as_poly_pair(prec)
    lengths, values, masses = [], [], []
    max_steps = 2 * m.n + 2
    pole_scale = float(np.max(np.abs(m.poles))) if m.n else 1.0
    with mp.workprec(prec):
        for _ in range(max_steps):
            if num.is_zero:
                break
            poles, weights, b = _respectralize(num, den, prec, pole_scale)
            if b < -MASS_ZERO_TOL:
                raise NegativeMass(f"stripped mass {float(b)} is negative")
            if b > MASS_ZERO_TOL:
                # linear growth at infinity: point mass at the last event
                if not lengths:
                    raise NegativeMass("point mass at the string origin")
                masses[-1] = float(b)
            if not poles:
                break
            if any(w <= 0 for w in weights):
                raise DegreeStall("stripped function lost Herglotz positivity")
            num, den = _assemble(poles, weights, prec)
            # first-segment identities of the remaining Weyl function
            wsum = sum(weights)
            a = -sum(w / lam for lam, w in zip(poles, weights))
            length = 1 / wsum
            if not length > 0:
                raise NegativeLength(
                    f"stripped interval length {float(length)} is not positive")
            if (not lenient and lengths
                    and float(length) <= SPIKE_REL_TOL * sum(lengths)):
                # an interval far below the resolved scale is cancellation
                # noise masquerading as structure
                raise DegreeStall("interval below the resolved length scale")
            lengths.append(float(length))
            values.append(float(a))
            masses.append(0.0)
            num, den = _strip_interval(num, den, a, length, prec)
        else:
            raise DegreeStall("stripping did not terminate")
    if lenient:
        lengths, values, masses = _collapse_spikes(lengths, values, masses)
    return StringData("minus", np.array(lengths), np.array(values),
                      np.array(masses))


def _strip_interval(num, den, a, length, prec):
    """Moebius update of num/den by one interval of value a and given length.

    The z^d coefficients (d the degree of den) cancel exactly by the choice
    of length and are dropped; below them only exact zeros are trimmed.  A
    precision-relative trim would remove the small top coefficient that a
    point mass leaves in the denominator and skew the next residues.
    """
    d = den.degree
    with mp.workprec(prec):
        resid = [0] + [num[k] - a * den[k] for k in range(d - 1)]
        new_num = [num[k] + a * length * resid[k] for k in range(d)]
        new_den = [den[k] + length * resid[k] for k in range(d)]
    for cs in (new_num, new_den):
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
    return Poly(new_num, prec, trim=False), Poly(new_den, prec, trim=False)


def _collapse_spikes(lengths, values, masses):
    """Fold vanishing intervals into point masses at the preceding event.

    In the zero-length limit an interval of value a contributes exactly the
    jump of a mass a^2 l, so this is the faithful reading of structure below
    the resolved length scale.
    """
    total = sum(lengths)
    out_l, out_v, out_m = [], [], []
    for l, v, b in zip(lengths, values, masses):
        if out_l and l <= SPIKE_REL_TOL * total:
            out_m[-1] += v * v * l + b
        else:
            out_l.append(l)
            out_v.append(v)
            out_m.append(b)
    return out_l, out_v, out_m


def layer_strip(m: RationalHerglotz, prec: int = DEFAULT_PREC) -> StringData:
    """Recover minus-side string data whose boundary Herglotz function is m.

    Each step re-canonicalizes the remainder into pole-residue form, reads a
    point mass off its linear growth at infinity, then strips one
    constant-coefficient interval using the leading-segment identities
    (value = -sum w/lam, length = 1/sum w); the pole count drops by one per
    interval, so termination is structural.  A point mass shows up as a
    pole far beyond the data scale and is read as linear growth.  If noise
    stalls a step, retries at twice the precision, then runs a lenient pass
    at four times the precision that folds sub-resolution intervals into
    point masses.
    """
    if m.n == 0:
        return StringData.empty("minus")
    try:
        return _strip_once(m, prec)
    except DegreeStall:
        try:
            return _strip_once(m, 2 * prec)
        except DegreeStall:
            return _strip_once(m, 4 * prec, lenient=True)


# ----------------------------------------------------------------------------
# full inverse transform

def _round_trip_residual(pair: PeakonPair,
                         coords: IsospectralCoordinates) -> float:
    data = spectral_data(pair)
    if data.n != coords.n:
        return np.inf
    r = np.max(np.abs(data.eigenvalues - coords.sigma)
               / np.abs(coords.sigma)) if coords.n else 0.0
    if coords.n:
        r = max(r, float(np.max(np.abs(data.kappa - coords.kappa)
                                / np.maximum(1.0, np.abs(coords.kappa)))))
    return float(r)


def inverse_transform(coords: IsospectralCoordinates,
                      prec: int = DEFAULT_PREC,
                      tol: float = ROUND_TRIP_TOL) -> PeakonPair:
    """Unique pair with the given spectrum and logarithmic couplings.

    The reconstruction is certified: the direct transform of the result must
    reproduce the input coordinates to the stated tolerance, escalating the
    working precision once before giving up.
    """
    if coords.n == 0:
        return PeakonPair.zero()
    pair = from_string(layer_strip(herglotz_from_coords(coords, "minus"), prec))
    residual = _round_trip_residual(pair, coords)
    if residual > tol:
        pair = from_string(
            layer_strip(herglotz_from_coords(coords, "minus"), 2 * prec))
        residual = _round_trip_residual(pair, coords)
        if residual > tol:
            raise RoundTripFailure(
                f"self-check residual {residual} exceeds {tol}")
    return pair


def inverse_from_norming(sigma, norming, side: str = "left",
                         prec: int = DEFAULT_PREC) -> PeakonPair:
    """Reconstruct a pair from eigenvalues and one-sided norming constants.

    ``side`` names the given norming family: "left"/"minus" or
    "right"/"plus".  Right-side input is converted through the identity
    (left norming) * (right norming) = (wronskian derivative)^2.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    norming = np.atleast_1d(np.asarray(norming, dtype=float))
    if sigma.size == 0:
        return PeakonPair.zero()
    if sigma.size != norming.size:
        raise ValueError("sigma and norming must be co-indexed")
    if np.any(sigma * norming <= 0):
        raise NonpositiveProduct(
            "each eigenvalue/norming product must be positive")
    wd = wdot_from_sigma(sigma)
    if side in ("right", "plus"):
        gminus = wd ** 2 / norming
    elif side in ("left", "minus"):
        gminus = norming
    else:
        raise ValueError(f"unknown norming side {side!r}")
    weights = 1.0 / (sigma * gminus)
    kappa = -np.log(weights * np.abs(sigma * wd))
    return inverse_transform(IsospectralCoordinates(sigma, kappa), prec)


def reconstruct_plus_side(coords: IsospectralCoordinates,
                          prec: int = DEFAULT_PREC) -> PeakonPair:
    """Consistency variant: strip the plus-side function and reflect back."""
    if coords.n == 0:
        return PeakonPair.zero()
    s = layer_strip(herglotz_from_coords(coords, "plus"), prec)
    return reflect(from_string(s))
