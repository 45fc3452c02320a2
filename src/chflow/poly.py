"""Real polynomials and unimodular 2x2 polynomial matrices in configurable precision.

Coefficients are stored as mpmath floats at a per-object working precision
(``prec`` bits of significand, default 128).  High precision matters here:
cumulative transfer products and continued-fraction stripping are
ill-conditioned in double precision once the number of factors grows.
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc

DEFAULT_PREC = 128
PREC_LADDER = (1, 2, 4)  # multiples of the precision every escalation tries


def _to_mpf(x, prec):
    with mp.workprec(prec):
        return mpf(x) if not isinstance(x, mpf) else +x


class Poly:
    """Polynomial c0 + c1 z + ... + cd z^d with mpmath coefficients.

    Trailing coefficients below ``2**(-prec/2) * max|c|`` are trimmed, so the
    reported degree is precision-portable rather than tied to a fixed epsilon.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=DEFAULT_PREC, trim=True):
        self.prec = prec
        cs = [_to_mpf(c, prec) for c in coeffs] or [mpf(0)]
        self.coeffs = cs
        if trim:
            self._trim()

    def _trim(self):
        cs = self.coeffs
        scale = max(abs(c) for c in cs)
        if scale == 0:
            self.coeffs = [mpf(0)]
            return
        thresh = scale * mpf(2) ** (-self.prec // 2)
        d = len(cs) - 1
        while d > 0 and abs(cs[d]) <= thresh:
            d -= 1
        self.coeffs = cs[: d + 1]

    @property
    def degree(self):
        """Degree after trimming; the zero polynomial reports -1."""
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return self.degree < 0

    def __getitem__(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else mpf(0)

    def __call__(self, z):
        """Horner evaluation; accepts real or complex arguments."""
        with mp.workprec(self.prec):
            if isinstance(z, complex):
                z = mpc(z)
            acc = mpf(0)
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc

    def __add__(self, other):
        prec = max(self.prec, other.prec)
        n = max(len(self.coeffs), len(other.coeffs))
        with mp.workprec(prec):
            cs = [self[k] + other[k] for k in range(n)]
        return Poly(cs, prec)

    def __sub__(self, other):
        prec = max(self.prec, other.prec)
        n = max(len(self.coeffs), len(other.coeffs))
        with mp.workprec(prec):
            cs = [self[k] - other[k] for k in range(n)]
        return Poly(cs, prec)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        prec = max(self.prec, other.prec)
        with mp.workprec(prec):
            cs = [mpf(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return Poly(cs, prec)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.prec, trim=False)

    def scale(self, s):
        with mp.workprec(self.prec):
            s = _to_mpf(s, self.prec)
            return Poly([c * s for c in self.coeffs], self.prec)

    def shift_mul_z(self):
        """Multiply by z."""
        return Poly([mpf(0)] + list(self.coeffs), self.prec, trim=False)

    def deriv(self):
        with mp.workprec(self.prec):
            cs = [k * c for k, c in enumerate(self.coeffs)][1:] or [mpf(0)]
        return Poly(cs, self.prec)

    def to_floats(self):
        return [float(c) for c in self.coeffs]

    def debug_text(self):
        """Text serialization, lowest order first."""
        return "[" + ", ".join(mp.nstr(c, 20) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Poly({self.debug_text()}, prec={self.prec})"

    @classmethod
    def constant(cls, c, prec=DEFAULT_PREC):
        return cls([c], prec)

    @classmethod
    def from_roots(cls, roots, prec=DEFAULT_PREC):
        """Monic-at-zero product prod (1 - z/r) over the given nonzero roots."""
        p = cls.constant(1, prec)
        with mp.workprec(prec):
            for r in roots:
                p = p * cls([1, -1 / _to_mpf(r, prec)], prec)
        return p


class PolyMatrix:
    """2x2 matrix of Poly entries; transfer products keep determinant == 1."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11, a12, a21, a22):
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    @classmethod
    def identity(cls, prec=DEFAULT_PREC):
        one = Poly.constant(1, prec)
        zero = Poly.constant(0, prec)
        return cls(one, zero, zero, one)

    def __matmul__(self, other):
        return PolyMatrix(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def det(self):
        return self.a11 * self.a22 - self.a12 * self.a21

    def __call__(self, z):
        """Numeric 2x2 evaluation at a point."""
        return ((self.a11(z), self.a12(z)), (self.a21(z), self.a22(z)))

    def debug_text(self):
        return "\n".join(
            f"{name}: {getattr(self, name).debug_text()}"
            for name in ("a11", "a12", "a21", "a22")
        )
