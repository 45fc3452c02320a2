"""High-precision polynomial and matrix arithmetic."""

import pytest
from mpmath import mpf

from chflow.poly import Poly, PolyMatrix


def test_arithmetic_and_degree():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert (p + q).to_floats() == [1.0, 3.0, 3.0]
    assert (p - q).to_floats() == [1.0, 1.0, 3.0]
    assert (p * q).to_floats() == [0.0, 1.0, 2.0, 3.0]
    assert p.degree == 2
    assert Poly([0]).degree == -1
    assert Poly([0]).is_zero


def test_evaluation_real_and_complex():
    p = Poly([1, -2])
    assert float(p(0.25)) == pytest.approx(0.5)
    v = p(1j)
    assert complex(v.real, v.imag) == pytest.approx(1 - 2j)


def test_scale_shift_deriv():
    p = Poly([1, 2, 3])
    assert p.scale(2).to_floats() == [2.0, 4.0, 6.0]
    assert p.shift_mul_z().to_floats() == [0.0, 1.0, 2.0, 3.0]
    assert p.deriv().to_floats() == [2.0, 6.0]
    assert Poly([5]).deriv().to_floats() == [0.0]


def test_trim_is_relative_to_scale():
    # trailing coefficients below 2^{-prec/2} of the largest are noise
    p = Poly([1.0, 1e-15], prec=128)
    assert p.degree == 1
    assert Poly([1.0, 1e-30], prec=128).degree == 0
    q = Poly([1.0, 1e-25], prec=53)
    assert q.degree == 0


def test_from_roots_normalized_at_zero():
    p = Poly.from_roots([2.0, -1.0])
    assert float(p(0.0)) == pytest.approx(1.0)
    assert abs(float(p(2.0))) < 1e-30
    assert abs(float(p(-1.0))) < 1e-30


def test_matrix_product_keeps_determinant():
    m = PolyMatrix(Poly([1, -2]), Poly([0, -1]), Poly([0, 4]), Poly([1, 2]))
    d = (m @ m).det()
    assert d.to_floats()[0] == pytest.approx(1.0)
    assert all(abs(c) < 1e-30 for c in d.to_floats()[1:])


def test_matrix_numeric_evaluation():
    m = PolyMatrix.identity()
    (a, b), (c, d) = m(0.7)
    assert (float(a), float(b), float(c), float(d)) == (1.0, 0.0, 0.0, 1.0)


def test_high_precision_coefficients_survive():
    tiny = mpf(2) ** -100
    p = Poly([1, tiny], prec=256)
    assert p.degree == 1
    assert float(p.coeffs[1] / tiny) == pytest.approx(1.0)
