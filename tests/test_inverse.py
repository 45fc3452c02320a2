"""Inverse transform: coordinates, layer stripping, certification."""

import math

import numpy as np
import pytest

import chflow.direct
from chflow.direct import spectral_data
from chflow.errors import DuplicateEigenvalue, NonpositiveProduct
from chflow.inverse import (IsospectralCoordinates, herglotz_from_coords,
                            inverse_transform, layer_strip, reconstruct,
                            reconstruct_plus_side, wdot_from_sigma)
from chflow.pairs import PeakonPair, from_string


def test_coordinates_validation():
    with pytest.raises(DuplicateEigenvalue):
        IsospectralCoordinates([0.5, 0.5], [0.0, 0.0])
    with pytest.raises(DuplicateEigenvalue):
        IsospectralCoordinates([0.0], [0.0])
    co = IsospectralCoordinates([2.0, -1.0], [0.1, 0.2])
    assert co.sigma.tolist() == [-1.0, 2.0]          # sorted with kappa
    assert co.kappa.tolist() == [0.2, 0.1]


def test_wdot_matches_polynomial_derivative():
    sigma = np.array([-2.0, 0.5, 3.0])
    from chflow.poly import Poly
    dw = Poly.from_roots(sigma).deriv()
    assert wdot_from_sigma(sigma) == pytest.approx(
        [float(dw(s)) for s in sigma], rel=1e-12)


def test_single_eigenvalue_gives_peakon():
    p, y = 1.2, 0.4
    pair = inverse_transform(
        IsospectralCoordinates([1.0 / (2 * p)], [y]))
    assert pair.n == 1
    assert pair.sites[0] == pytest.approx(y, abs=1e-12)
    assert pair.weights[0] == pytest.approx(p, rel=1e-12)
    assert pair.atoms[0] == pytest.approx(0.0, abs=1e-13)


def test_symmetric_pair_gives_pure_atom():
    pair = inverse_transform(IsospectralCoordinates([-1.0, 1.0], [0.0, 0.0]))
    assert pair.n == 1
    assert pair.sites[0] == pytest.approx(0.0, abs=1e-12)
    assert pair.weights[0] == pytest.approx(0.0, abs=1e-12)
    assert pair.atoms[0] == pytest.approx(1.0, rel=1e-12)


def test_empty_coordinates_give_zero_pair():
    assert inverse_transform(IsospectralCoordinates.empty()) == PeakonPair.zero()


def test_layer_strip_reproduces_string():
    rng = np.random.default_rng(31)
    pair = PeakonPair(np.sort(rng.uniform(-2, 2, 3)) + [0.0, 0.3, 0.6],
                      rng.uniform(-1, 1, 3), rng.uniform(0, 0.5, 3))
    data = spectral_data(pair)
    m = herglotz_from_coords(
        IsospectralCoordinates(data.eigenvalues, data.kappa), "minus")
    back = from_string(layer_strip(m))
    assert np.allclose(back.sites, pair.sites, atol=1e-10)
    assert np.allclose(back.weights, pair.weights, atol=1e-10)
    assert np.allclose(back.atoms, pair.atoms, atol=1e-10)


def _strip_128_error(pair):
    """Largest coordinate error of one 128-bit stripping pass over the pair's data."""
    data = spectral_data(pair)
    m = herglotz_from_coords(
        IsospectralCoordinates(data.eigenvalues, data.kappa), "minus")
    back = from_string(layer_strip(m, 128))
    assert back.n == pair.n
    return max(np.max(np.abs(back.sites - pair.sites)),
               np.max(np.abs(back.weights - pair.weights)),
               np.max(np.abs(back.atoms - pair.atoms)))


def test_atom_carrying_pair_strips_in_one_pass():
    # the mass leaves a far pole from float64 rounding of the input at every
    # precision; the first pass reads it as linear growth
    pair = PeakonPair([-0.5, 0.5], [1.0, -0.5], [0.0, 0.3])
    assert _strip_128_error(pair) <= 1e-12


def test_one_pass_keeps_small_mass_coefficients():
    # nine peaks, four atoms: trimming the small top denominator coefficient
    # a mass leaves behind costs about 1e-7 here
    pair = PeakonPair(
        [-0.65642715898312076, 0.3226749837869729, 1.1780911553258866,
         2.0185023519936984, 2.3203695244750415, 2.7341775724447093,
         3.0193962266482228, 3.8472846779320746, 4.3179671953869789],
        [0.95335765063346378, 0.232632118742752, -1.2459960071829297,
         0.96796576274082624, -0.50221067742603798, 1.4206904677832148,
         -0.51365615167091039, 1.1165772845123225, -0.73032908436868493],
        [0.0, 1.0239138638674836, 0.0, 0.0, 0.29613392322885845,
         0.63652436444339755, 0.0, 1.3045436470656979, 0.0])
    assert _strip_128_error(pair) <= 1e-10


def test_round_trip_small_suite():
    rng = np.random.default_rng(32)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        sites = np.cumsum(rng.uniform(0.3, 1.0, n))
        sites += rng.uniform(-3, 0) - sites[0]
        pair = PeakonPair(sites, rng.uniform(-1.5, 1.5, n),
                          np.where(rng.random(n) < 0.5,
                                   rng.uniform(0, 1.5, n), 0.0))
        data = spectral_data(pair)
        back = inverse_transform(
            IsospectralCoordinates(data.eigenvalues, data.kappa))
        assert np.allclose(back.sites, pair.sites, atol=1e-9)
        assert np.allclose(back.weights, pair.weights, atol=1e-9)
        assert np.allclose(back.atoms, pair.atoms, atol=1e-9)


def test_inverse_from_norming_both_sides():
    rng = np.random.default_rng(33)
    sites = np.sort(rng.uniform(-2, 2, 3)) + [0.0, 0.3, 0.6]
    pair = PeakonPair(sites, rng.uniform(0.3, 1.5, 3), np.zeros(3))
    data = spectral_data(pair)

    def from_norming(sigma, norming, side):
        return inverse_transform(
            IsospectralCoordinates.from_norming(sigma, norming, side))

    left = from_norming(data.eigenvalues, data.norming_left, "left")
    right = from_norming(data.eigenvalues, data.norming_right, "right")
    for back in (left, right):
        assert np.allclose(back.sites, pair.sites, atol=1e-8)
        assert np.allclose(back.weights, pair.weights, atol=1e-8)
    with pytest.raises(NonpositiveProduct):
        from_norming([0.5], [-1.0], "left")
    with pytest.raises(ValueError):
        from_norming([0.5], [2.0], "sideways")


def test_plus_side_reconstruction_agrees():
    rng = np.random.default_rng(34)
    pair = PeakonPair(np.sort(rng.uniform(-2, 2, 3)) + [0.0, 0.25, 0.5],
                      rng.uniform(-1, 1, 3), rng.uniform(0, 0.5, 3))
    data = spectral_data(pair)
    co = IsospectralCoordinates(data.eigenvalues, data.kappa)
    a = inverse_transform(co)
    b = reconstruct_plus_side(co)
    assert np.allclose(a.sites, b.sites, atol=1e-8)
    assert np.allclose(a.weights, b.weights, atol=1e-8)
    assert np.allclose(a.atoms, b.atoms, atol=1e-8)


def test_herglotz_from_coords_weight_formula():
    co = IsospectralCoordinates([0.5], [math.log(2.0)])
    m = herglotz_from_coords(co, "minus")
    # weight = e^{-kappa} / |lam * Wdot| with Wdot = -2 here
    assert m.weights[0] == pytest.approx(0.5 / 1.0)
    p = herglotz_from_coords(co, "plus")
    assert p.weights[0] == pytest.approx(2.0 / 1.0)


def test_certificate_starts_at_the_rung_precision(monkeypatch):
    pair = PeakonPair([-0.5, 0.5], [1.0, -0.5], [0.0, 0.3])
    data = spectral_data(pair)
    attempt = chflow.direct._spectral_data_attempt
    precs = []

    def recorded(pair, prec):
        precs.append(prec)
        return attempt(pair, prec)

    monkeypatch.setattr(chflow.direct, "_spectral_data_attempt", recorded)
    rec = reconstruct(IsospectralCoordinates(data.eigenvalues, data.kappa), 256)
    assert precs[0] == 256
    assert rec.residual <= 1e-8
