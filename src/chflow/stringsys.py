"""Transfer-matrix realization of the spectral problem in string coordinates.

The minus-side string is a sequence of constant-coefficient intervals with
point masses at the interval endpoints.  Crossing an interval of value ``a``
and length ``l`` multiplies solutions by ``[[1 - z a l, -z l], [z a^2 l,
1 + z a l]]``; crossing a point mass ``b`` multiplies by ``[[1, 0], [z b,
1]]``.  All products are unimodular and polynomial in the spectral
parameter z.  Left-continuity is fixed by excluding the mass factor at the
evaluation point itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LocationMismatch, NegativeMass, NonpositiveLength
from .pairs import PeakonPair, StringData, eval_u, to_string
from .poly import DEFAULT_PREC, Poly, PolyMatrix


def interval_transfer(a: float, l: float, prec: int = DEFAULT_PREC) -> PolyMatrix:
    """Propagator across a constant-coefficient interval of length l."""
    if not l > 0:
        raise NonpositiveLength(f"interval length must be positive, got {l}")
    return PolyMatrix(
        Poly([1, -a * l], prec),
        Poly([0, -l], prec),
        Poly([0, a * a * l], prec),
        Poly([1, a * l], prec),
    )


def mass_transfer(b: float, prec: int = DEFAULT_PREC) -> PolyMatrix:
    """Jump factor produced by a point mass b of the string measure."""
    if b < 0:
        raise NegativeMass(f"string mass must be non-negative, got {b}")
    return PolyMatrix(
        Poly([1], prec),
        Poly([0], prec),
        Poly([0, b], prec),
        Poly([1], prec),
    )


def cumulative_transfer(s: StringData, prec: int = DEFAULT_PREC) -> PolyMatrix:
    """Ordered product over all events, masses applied after their interval."""
    q = PolyMatrix.identity(prec)
    for l, a, b in zip(s.lengths, s.values, s.masses):
        q = interval_transfer(a, l, prec) @ q
        if b > 0:
            q = mass_transfer(b, prec) @ q
    return q


# ----------------------------------------------------------------------------
# numeric evaluation

def _num_interval(z, a, l):
    return np.array([[1 - z * a * l, -z * l], [z * a * a * l, 1 + z * a * l]],
                    dtype=complex)


def _num_mass(z, b):
    return np.array([[1, 0], [z * b, 1]], dtype=complex)


def _snap_to_events(v: float, ends) -> float:
    """Snap v onto an event endpoint within relative 1e-12, for exact
    inclusion/exclusion decisions despite cumulative-sum rounding."""
    if ends.size:
        j = int(np.searchsorted(ends, v))
        for k in (j - 1, j):
            if 0 <= k < ends.size and abs(ends[k] - v) <= 1e-12 * max(1.0, abs(v)):
                return float(ends[k])
    return v


def _partial_product(s: StringData, z, lo: float, hi: float):
    """Numeric product of all factors over [lo, hi); requires 0 <= lo <= hi."""
    m = np.eye(2, dtype=complex)
    ends = s.endpoints
    lo = _snap_to_events(lo, ends)
    hi = _snap_to_events(hi, ends)
    pos = lo
    for j in range(s.n):
        start = ends[j - 1] if j else 0.0
        end = ends[j]
        if end <= pos:
            # interval fully below; its endpoint mass applies when it sits in [lo, hi)
            if end >= lo and end < hi and end == pos and s.masses[j] > 0:
                m = _num_mass(z, s.masses[j]) @ m
            continue
        if start >= hi:
            break
        seg = min(end, hi) - pos
        if seg > 0:
            m = _num_interval(z, s.values[j], seg) @ m
            pos += seg
        if end < hi and s.masses[j] > 0:
            m = _num_mass(z, s.masses[j]) @ m
    if hi > pos:
        # free trailing interval (coefficient 0 past the last event)
        m = np.array([[1, -z * (hi - pos)], [0, 1]], dtype=complex) @ m
    return m


def eval_transfer(s: StringData, z, xi: float):
    """Fundamental solution at xi, normalized to the identity at 0.

    Left-continuous at event points: the mass at xi itself is excluded.
    """
    if xi < 0:
        raise ValueError("string position must be non-negative")
    return _partial_product(s, complex(z), 0.0, xi)


# ----------------------------------------------------------------------------
# solutions in the original coordinate

@dataclass(frozen=True)
class SolutionVector:
    """Value and left-continuous quasi-derivative of a solution at one point."""

    value: complex
    quasi_derivative: complex
    location: float


def wronskian_pair(f: SolutionVector, g: SolutionVector) -> complex:
    """f g^[1] - f^[1] g; location-independent for solutions at the same z."""
    if f.location != g.location:
        raise LocationMismatch(
            f"solution vectors at different locations: {f.location} vs {g.location}")
    return f.value * g.quasi_derivative - f.quasi_derivative * g.value


def solve_ivp(pair: PeakonPair, z, x0: float, d1, d2):
    """Initial-value solution evaluator for the spectral problem at parameter z.

    The returned callable maps x to the SolutionVector of the unique solution
    with value ``d1`` and quasi-derivative ``d2`` at ``x0``.  Propagation uses
    the string transfer factors after the diagonal ``exp(-/+ x/2)`` scaling
    that converts string products to the original coordinate.
    """
    z = complex(z)
    d1 = complex(d1)
    d2 = complex(d2)

    if z == 0:
        # free equation -f'' + f/4 = 0; quasi-derivative reduces to f'
        alpha = d1 / 2 + d2
        beta = d1 / 2 - d2

        def evaluate_free(x: float) -> SolutionVector:
            up = alpha * math.exp((x - x0) / 2)
            dn = beta * math.exp(-(x - x0) / 2)
            return SolutionVector(up + dn, (up - dn) / 2, x)

        return evaluate_free

    s = to_string(pair, "minus")
    xi0 = math.exp(x0)
    fminus0 = d2 + (0.5 - z * eval_u(pair, x0)) * d1
    g0 = np.array([z * d1 * math.exp(x0 / 2), -fminus0 * math.exp(-x0 / 2)],
                  dtype=complex)

    def evaluate(x: float) -> SolutionVector:
        xi = math.exp(x)
        if xi >= xi0:
            m = _partial_product(s, z, xi0, xi)
        else:
            fwd = _partial_product(s, z, xi, xi0)
            # unimodular, so the inverse is the adjugate
            m = np.array([[fwd[1, 1], -fwd[0, 1]], [-fwd[1, 0], fwd[0, 0]]])
        g = m @ g0
        f = g[0] * math.exp(-x / 2) / z
        fminus = -g[1] * math.exp(x / 2)
        f1 = fminus - (0.5 - z * eval_u(pair, x)) * f
        return SolutionVector(f, f1, x)

    return evaluate


def decaying_solution_left(pair: PeakonPair, z):
    """Evaluator for the solution with asymptotics exp(x/2) towards -inf.

    Exact below the first site (the value there is exp(x/2) identically); used
    for eigenfunction matching and quadrature norming.
    """
    if pair.n == 0:
        return solve_ivp(pair, z, 0.0, 1.0, 0.5)
    z = complex(z)
    x0 = float(pair.sites[0])
    s = to_string(pair, "minus")
    a1 = s.values[0] if s.n else 0.0
    d1 = math.exp(x0 / 2)
    # on the first interval f = e^{x/2} and f^[-] = e^{x/2}(1 + z a_1 e^x)
    fminus = math.exp(x0 / 2) * (1 + z * a1 * math.exp(x0))
    d2 = fminus - (0.5 - z * eval_u(pair, x0)) * d1
    return solve_ivp(pair, z, x0, d1, d2)


def asymptotic_coefficients_right(pair: PeakonPair, z, solution) -> tuple:
    """Coefficients (A, B) with solution = A exp(x/2) + B exp(-x/2) past the sites."""
    if pair.n == 0:
        v = solution(0.0)
        A = v.value / 2 + v.quasi_derivative
        B = v.value / 2 - v.quasi_derivative
        return complex(A), complex(B)
    z = complex(z)
    xn = float(pair.sites[-1])
    v = solution(xn)
    # past the support the string coefficient vanishes: f = A e^{x/2} + B e^{-x/2}
    # with f^[-] = f' + f/2 - z(u'+u) f and u'+u = 0 there
    fminus = v.quasi_derivative + (0.5 - z * eval_u(pair, xn)) * v.value
    # fminus = f' + f/2 at x = xn (left values; f, f' continuous from the right
    # of the last mass need the mass jump included)
    # propagate across the trailing mass explicitly via the string product
    s = to_string(pair, "minus")
    xi_n = math.exp(xn)
    g = np.array([z * v.value * math.exp(xn / 2), -fminus * math.exp(-xn / 2)],
                 dtype=complex)
    if s.n and s.masses[-1] > 0 and math.isclose(s.endpoints[-1], xi_n):
        g = _num_mass(z, s.masses[-1]) @ g
    # free evolution of g: g1(xi) = g1 - z (xi - xi_n) g2, g2 constant
    A = -g[1]
    B = (g[0] + z * xi_n * g[1]) / z
    return complex(A), complex(B)
