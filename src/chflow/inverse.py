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

from .direct import (RationalHerglotz, SpectralData, _cancelled_pair,
                     _check_simple_spectrum, _poly_real_roots, spectral_data)
from .errors import (DegreeStall, NegativeLength, NegativeMass,
                     NonpositiveProduct, RootCountMismatch, RoundTripFailure,
                     WeightNonpositive)
from .pairs import PeakonPair, StringData, from_string, reflect
from .poly import DEFAULT_PREC, PREC_LADDER, Poly

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
        _check_simple_spectrum(sigma)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "kappa", kappa)

    @property
    def n(self):
        return self.sigma.size

    @classmethod
    def empty(cls):
        return cls(np.empty(0), np.empty(0))

    @classmethod
    def from_norming(cls, sigma, norming, side: str = "left"):
        """Coordinates of eigenvalues with one-sided norming constants.

        ``side`` names the given norming family: "left"/"minus" or
        "right"/"plus".  Right-side input is converted through the identity
        (left norming) * (right norming) = (wronskian derivative)^2.
        """
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        norming = np.atleast_1d(np.asarray(norming, dtype=float))
        if sigma.size == 0:
            return cls.empty()
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
        return cls(sigma, -np.log(weights * np.abs(sigma * wd)))


def wdot_from_sigma(sigma) -> np.ndarray:
    """Derivative of prod(1 - z/mu) at each eigenvalue: -(1/lam) prod_{mu != lam}(1 - lam/mu)."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    _check_simple_spectrum(np.sort(sigma))
    out = np.empty(sigma.size)
    for k, lam in enumerate(sigma):
        others = np.delete(sigma, k)
        out[k] = -(1.0 / lam) * np.prod(1.0 - lam / others)
    return out


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


def layer_strip(m: RationalHerglotz, prec: int = DEFAULT_PREC,
                lenient: bool = False) -> StringData:
    """Recover minus-side string data whose boundary Herglotz function is m.

    Each step re-canonicalizes the remainder into pole-residue form, reads a
    point mass off its linear growth at infinity, then strips one
    constant-coefficient interval using the leading-segment identities
    (value = -sum w/lam, length = 1/sum w); the pole count drops by one per
    interval, so termination is structural.  A point mass shows up as a
    pole far beyond the data scale and is read as linear growth.  A step
    that noise stalls raises ``DegreeStall``; a lenient pass instead folds
    sub-resolution intervals into point masses.
    """
    if m.n == 0:
        return StringData.empty("minus")
    num, den = m.as_poly_pair(prec)
    lengths, values, masses = [], [], []
    max_steps = 2 * m.n + 2
    pole_scale = float(np.max(np.abs(m.poles)))
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
            num, den = _cancelled_pair(poles, weights, prec)
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


# ----------------------------------------------------------------------------
# full inverse transform

def _round_trip_residual(pair: PeakonPair, coords: IsospectralCoordinates,
                         prec: int):
    """Residual of the pair against nonempty coordinates, and the pair's
    direct transform, whose precision ladder starts at ``prec``."""
    data = spectral_data(pair, prec)
    if data.n != coords.n:
        return np.inf, data
    r = max(np.max(np.abs(data.eigenvalues - coords.sigma)
                   / np.abs(coords.sigma)),
            float(np.max(np.abs(data.kappa - coords.kappa)
                         / np.maximum(1.0, np.abs(coords.kappa)))))
    return float(r), data


@dataclass(frozen=True)
class Reconstruction:
    """Certified inverse transform: the pair, the direct transform of the pair
    that certified it, and the round-trip residual against the input."""

    pair: PeakonPair
    data: SpectralData
    residual: float


def reconstruct(coords: IsospectralCoordinates,
                prec: int = DEFAULT_PREC) -> Reconstruction:
    """Unique pair with the given spectrum and logarithmic couplings.

    The reconstruction is certified: the direct transform of the result must
    reproduce the input coordinates to ``ROUND_TRIP_TOL``.  Each rung p of
    ``PREC_LADDER`` strips at p, leniently on the last rung, and certifies
    with the direct transform from p.  A stalled strip, a certificate that
    raises or one that misses the tolerance moves to the next rung, the
    first certified rung wins, and ``RoundTripFailure`` names each rung's
    failure.  The certifying transform is returned with the pair, so
    callers read the pair's spectral data from it.
    """
    if coords.n == 0:
        return Reconstruction(PeakonPair.zero(), SpectralData.empty(), 0.0)
    m = herglotz_from_coords(coords, "minus")
    failures, cause = [], None
    for k in PREC_LADDER:
        p, lenient = k * prec, k == PREC_LADDER[-1]
        rung = f"{p} bits{' lenient' if lenient else ''}"
        try:
            pair = from_string(layer_strip(m, p, lenient))
            residual, data = _round_trip_residual(pair, coords, p)
        except (DegreeStall, RootCountMismatch, WeightNonpositive) as exc:
            failures.append(f"{rung}: {exc}")
            cause = exc
            continue
        if not residual > ROUND_TRIP_TOL:
            return Reconstruction(pair, data, residual)
        failures.append(f"{rung}: residual {residual:.3e}")
    raise RoundTripFailure(
        f"no rung certified the reconstruction to {ROUND_TRIP_TOL} ("
        + "; ".join(failures) + ")") from cause


def inverse_transform(coords: IsospectralCoordinates,
                      prec: int = DEFAULT_PREC) -> PeakonPair:
    """The certified pair of ``reconstruct``."""
    return reconstruct(coords, prec).pair


def reconstruct_plus_side(coords: IsospectralCoordinates,
                          prec: int = DEFAULT_PREC) -> PeakonPair:
    """Consistency variant: strip the plus-side function and reflect back."""
    if coords.n == 0:
        return PeakonPair.zero()
    s = layer_strip(herglotz_from_coords(coords, "plus"), prec)
    return reflect(from_string(s))
