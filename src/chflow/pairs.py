"""Peakon/measure pairs, their energy measure, and the string coordinate change.

A pair is encoded by peak sites ``x_1 < ... < x_n``, peak weights ``p_j``
(so ``u(x) = sum_j p_j exp(-|x - x_j|)``) and non-negative atom weights
``h_j`` carrying the singular part of the energy measure.  The canonical
string side is the minus one (``xi = exp(x)``); plus-side quantities are
obtained by reflecting the pair and reusing the minus-side construction.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import PairFormatError, SingularInterpolation

MERGE_REL_TOL = 1e-12
MERGE_MASS_TOL = 1e-14


class NonEventWarning(UserWarning):
    """String events merged because they fell below the event tolerance."""


@dataclass(frozen=True)
class PeakonPair:
    """Immutable multipeakon pair with singular atoms.

    sites
        Strictly increasing peak positions (may be empty: the zero pair).
    weights
        Peak amplitudes, co-indexed with sites.
    atoms
        Non-negative point masses of the singular measure at the sites.
    """

    sites: np.ndarray
    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        sites = np.atleast_1d(np.asarray(self.sites, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        if sites.size == 0:
            sites = np.empty(0)
            weights = np.empty(0)
            atoms = np.empty(0)
        if not (sites.size == weights.size == atoms.size):
            raise PairFormatError("sites, weights and atoms must have equal length")
        if sites.size and not np.all(np.isfinite(sites)):
            raise PairFormatError("sites must be finite")
        if sites.size > 1 and not np.all(np.diff(sites) > 0):
            raise PairFormatError("sites must be strictly increasing")
        if np.any(atoms < 0):
            raise PairFormatError("atom weights must be non-negative")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self):
        return self.sites.size

    @classmethod
    def zero(cls):
        return cls(np.empty(0), np.empty(0), np.empty(0))

    def __eq__(self, other):
        return (
            isinstance(other, PeakonPair)
            and np.array_equal(self.sites, other.sites)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.atoms, other.atoms)
        )


@dataclass(frozen=True)
class StringData:
    """String-coordinate data on one side: interval values, lengths and masses.

    Interval j has length ``lengths[j] > 0`` and constant coefficient value
    ``values[j]``; ``masses[j] >= 0`` sits at the interval's right endpoint
    ``xi_j = lengths[0] + ... + lengths[j]``.  The coefficient is fixed to 0
    past the last event.
    """

    side: str
    lengths: np.ndarray
    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if self.side not in ("minus", "plus"):
            raise PairFormatError("side must be 'minus' or 'plus'")
        lengths = np.atleast_1d(np.asarray(self.lengths, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if lengths.size == 0:
            lengths = np.empty(0)
            values = np.empty(0)
            masses = np.empty(0)
        if not (lengths.size == values.size == masses.size):
            raise PairFormatError("lengths, values and masses must have equal length")
        if np.any(lengths <= 0):
            raise PairFormatError("interval lengths must be positive")
        if np.any(masses < 0):
            raise PairFormatError("string masses must be non-negative")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)

    @property
    def n(self):
        return self.lengths.size

    @property
    def endpoints(self):
        """Cumulative event positions xi_1 < ... < xi_n."""
        return np.cumsum(self.lengths)

    @classmethod
    def empty(cls, side="minus"):
        return cls(side, np.empty(0), np.empty(0), np.empty(0))


@dataclass(frozen=True)
class MeasureSpec:
    """Sampled singular measure: non-negative density grid plus explicit atoms."""

    density_x: np.ndarray = field(default_factory=lambda: np.empty(0))
    density_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    atoms: tuple = ()

    def __post_init__(self):
        x = np.asarray(self.density_x, dtype=float)
        v = np.asarray(self.density_values, dtype=float)
        if x.size != v.size:
            raise PairFormatError("density grid and values must have equal length")
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise PairFormatError("density grid must be strictly increasing")
        if np.any(v < 0):
            raise PairFormatError("density values must be non-negative")
        for _, w in self.atoms:
            if w < 0:
                raise PairFormatError("atom weights must be non-negative")
        object.__setattr__(self, "density_x", x)
        object.__setattr__(self, "density_values", v)


# ----------------------------------------------------------------------------
# basic evaluation

def eval_u(pair: PeakonPair, x) -> float:
    """Evaluate u(x) = sum_j p_j exp(-|x - x_j|)."""
    x = np.asarray(x, dtype=float)
    if pair.n == 0:
        return np.zeros_like(x) if x.ndim else 0.0
    vals = np.exp(-np.abs(x[..., None] - pair.sites)) @ pair.weights
    return vals if x.ndim else float(vals)


def exp_coefficients(pair: PeakonPair):
    """Per-interval growth/decay coefficients of u.

    On the interval between consecutive sites ``u(x) = A e^x + B e^{-x}``.
    Returns arrays A, B of length n+1 (interval j spans (x_{j-1}, x_j) with
    the conventions x_0 = -inf, x_{n+1} = +inf).
    """
    n = pair.n
    A = np.zeros(n + 1)
    B = np.zeros(n + 1)
    if n == 0:
        return A, B
    decay = pair.weights * np.exp(-pair.sites)
    grow = pair.weights * np.exp(pair.sites)
    # A_j sums peaks at or right of the interval, B_j peaks strictly left
    A[:-1] = np.cumsum(decay[::-1])[::-1]
    B[1:] = np.cumsum(grow)
    return A, B


def _energy_piece(A, B, lo, hi):
    """Exact integral of u^2 + u'^2 = 2A^2 e^{2x} + 2B^2 e^{-2x} over [lo, hi]."""
    val = 0.0
    if A != 0.0:
        val += A * A * (math.exp(2 * hi) - math.exp(2 * lo)) if hi != math.inf else math.inf
    if B != 0.0:
        val += B * B * (math.exp(-2 * lo) - math.exp(-2 * hi)) if lo != -math.inf else math.inf
    return val


def mu_interval(pair: PeakonPair, a: float, b: float) -> float:
    """Energy measure of [a, b): absolutely continuous part plus atoms.

    The absolutely continuous integral is evaluated piecewise-exactly from
    the exponential closed forms; pass ``-inf``/``inf`` for the total mass.
    """
    if a > b:
        raise ValueError("interval endpoints must satisfy a <= b")
    if pair.n == 0 or a == b:
        return 0.0
    A, B = exp_coefficients(pair)
    cuts = np.concatenate(([-math.inf], pair.sites, [math.inf]))
    total = 0.0
    for j in range(pair.n + 1):
        lo = max(a, cuts[j])
        hi = min(b, cuts[j + 1])
        if lo < hi:
            # A vanishes on the rightmost piece and B on the leftmost, so the
            # improper ends stay finite
            total += _energy_piece(A[j], B[j], lo, hi)
    total += float(pair.atoms[(pair.sites >= a) & (pair.sites < b)].sum())
    return total


def reflect(pair: PeakonPair) -> PeakonPair:
    """Mirror the pair about the origin: eval_u(reflect(p), x) == eval_u(p, -x)."""
    return PeakonPair(-pair.sites[::-1], pair.weights[::-1], pair.atoms[::-1])


# ----------------------------------------------------------------------------
# string coordinates

def to_string(pair: PeakonPair, side: str = "minus") -> StringData:
    """Map a pair to its string-coordinate data on the given side.

    Minus side: events at ``xi_j = exp(x_j)``, coefficient value on
    ``(xi_{j-1}, xi_j)`` equal to ``-(u' + u)(x) / exp(x)`` (constant there),
    masses ``exp(-x_j) h_j``.  The plus side reflects the pair first.
    """
    if side == "plus":
        s = to_string(reflect(pair), "minus")
        return StringData("plus", s.lengths, s.values, s.masses)
    if pair.n == 0:
        return StringData.empty("minus")
    _, lengths, a, b = _minus_events(pair)
    if lengths.size == 0:
        return StringData.empty("minus")
    return StringData("minus", lengths, a, b)


def _minus_events(pair: PeakonPair):
    """Minus-side string events: (site indices, lengths, values, masses).

    Degenerate sites (no coefficient step and no mass) are dropped; the
    returned indices map each kept event back to its peak site.
    """
    A, _ = exp_coefficients(pair)
    xi = np.exp(pair.sites)
    b = np.exp(-pair.sites) * pair.atoms
    a = -2.0 * A[:-1]  # u' + u = 2 A_j e^x on interval j
    a_next = np.concatenate((a[1:], [0.0]))
    idx = np.flatnonzero((np.abs(a_next - a) > 0) | (b > 0))
    xi, a, b = xi[idx], a[idx], b[idx]
    lengths = np.diff(np.concatenate(([0.0], xi)))
    return idx, lengths, a, b


def from_string(s: StringData) -> PeakonPair:
    """Invert the string coordinate change (minus side canonical).

    Sites are ``ln xi_j``, weights ``(a_{j+1} - a_j) xi_j / 2`` with the
    trailing value fixed to zero, atoms ``xi_j b_j``.  Non-events (no
    coefficient step and no mass, within tolerance) are merged with a
    ``NonEventWarning``.
    """
    if s.side == "plus":
        minus = StringData("minus", s.lengths, s.values, s.masses)
        return reflect(from_string(minus))
    if s.n == 0:
        return PeakonPair.zero()
    xi = s.endpoints
    a = s.values
    b = s.masses
    a_next = np.concatenate((a[1:], [0.0]))
    step = a_next - a
    scale = np.maximum(1.0, np.abs(a))
    degenerate = (np.abs(step) <= MERGE_REL_TOL * scale) & (b <= MERGE_MASS_TOL)
    if np.any(degenerate):
        # a non-event carries no peak and no atom; drop it (numerical noise
        # from inversion) rather than fail hard
        warnings.warn("merging string non-events below tolerance", NonEventWarning,
                      stacklevel=2)
        keep = ~degenerate
        xi, step, b = xi[keep], step[keep], b[keep]
        if xi.size == 0:
            return PeakonPair.zero()
    sites = np.log(xi)
    weights = step * xi / 2.0
    atoms = xi * b
    return PeakonPair(sites, weights, atoms)


# ----------------------------------------------------------------------------
# ingestion

def project_to_peakons(x_samples, u_samples, upsilon: MeasureSpec | None, n: int,
                       nodes=None) -> PeakonPair:
    """Project sampled decaying data onto an n-site peakon pair.

    Peakon interpolation at the chosen nodes is a symmetric positive definite
    linear system with kernel matrix ``exp(-|x_i - x_j|)``; the singular
    measure is lumped into nearest-node atoms, clipped at zero.
    """
    x_samples = np.asarray(x_samples, dtype=float)
    u_samples = np.asarray(u_samples, dtype=float)
    if n < 1:
        raise ValueError("need at least one node")
    if not np.any(u_samples) and (upsilon is None or not upsilon.atoms
                                  and not np.any(upsilon.density_values)):
        return PeakonPair.zero()
    if nodes is None:
        idx = np.linspace(0, x_samples.size - 1, n).round().astype(int)
        nodes = x_samples[idx]
        targets = u_samples[idx]
    else:
        nodes = np.asarray(nodes, dtype=float)
        targets = np.interp(nodes, x_samples, u_samples)
    if np.unique(nodes).size != nodes.size:
        raise SingularInterpolation("interpolation nodes coincide")
    order = np.argsort(nodes)
    nodes, targets = nodes[order], targets[order]
    kernel = np.exp(-np.abs(nodes[:, None] - nodes[None, :]))
    weights = np.linalg.solve(kernel, targets)
    atoms = np.zeros(n)
    if upsilon is not None:
        lumped = list(upsilon.atoms)
        if upsilon.density_x.size > 1:
            mids = np.concatenate((
                [upsilon.density_x[0]],
                0.5 * (upsilon.density_x[1:] + upsilon.density_x[:-1]),
                [upsilon.density_x[-1]],
            ))
            cell = np.diff(mids)
            lumped += list(zip(upsilon.density_x, upsilon.density_values * cell))
        for pos, w in lumped:
            atoms[np.argmin(np.abs(nodes - pos))] += w
    atoms = np.clip(atoms, 0.0, None)
    return PeakonPair(nodes, weights, atoms)


# ----------------------------------------------------------------------------
# JSON pair format

def pair_to_json(pair: PeakonPair) -> dict:
    """Serializable form: {"peaks": [{"x":..., "p":..., "h":...}, ...]}."""
    return {
        "peaks": [
            {"x": float(x), "p": float(p), "h": float(h)}
            for x, p, h in zip(pair.sites, pair.weights, pair.atoms)
        ]
    }


def pair_from_json(data) -> PeakonPair:
    """Parse the JSON pair format; rejects unsorted sites and negative atoms."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PairFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "peaks" not in data:
        raise PairFormatError("pair JSON must be an object with a 'peaks' array")
    peaks = data["peaks"]
    if not isinstance(peaks, list):
        raise PairFormatError("'peaks' must be an array")
    try:
        sites = np.array([float(p["x"]) for p in peaks])
        weights = np.array([float(p["p"]) for p in peaks])
        atoms = np.array([float(p["h"]) for p in peaks])
    except (KeyError, TypeError, ValueError) as exc:
        raise PairFormatError(f"malformed peak entry: {exc}") from exc
    return PeakonPair(sites, weights, atoms)
