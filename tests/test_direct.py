"""Direct transform: spectrum, coupling data, Weyl functions, identities."""

import math

import numpy as np
import pytest

import chflow.direct
from chflow.direct import (RationalHerglotz, classify_definiteness,
                           herglotz_probe, norming_by_quadrature,
                           parseval_check, spectral_data,
                           spectral_from_coords, spectrum, trace_formulas,
                           weyl_function, wronskian_poly)
from chflow.errors import (NotAnEigenvalue, PoleHit, RootCountMismatch,
                           WeightNonpositive)
from chflow.pairs import PeakonPair


def _random_pair(rng, n=None):
    n = int(rng.integers(1, 6)) if n is None else n
    sites = np.cumsum(rng.uniform(0.25, 1.0, n))
    sites += rng.uniform(-3, 0) - sites[0]
    weights = rng.uniform(-1.5, 1.5, n)
    atoms = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 1.0, n), 0.0)
    return PeakonPair(sites, weights, atoms)


def test_single_peakon_spectrum_and_wronskian():
    p, y = 1.7, -0.8
    pair = PeakonPair([y], [p], [0.0])
    sig = spectrum(pair)
    assert sig == pytest.approx([1.0 / (2 * p)], rel=1e-12)
    w = wronskian_poly(pair).to_floats()
    assert w == pytest.approx([1.0, -2 * p], rel=1e-12)
    data = spectral_data(pair)
    assert data.kappa[0] == pytest.approx(y, abs=1e-12)
    assert data.norming_left[0] == pytest.approx(2 * p * math.exp(y), rel=1e-12)
    assert data.norming_right[0] == pytest.approx(2 * p * math.exp(-y), rel=1e-12)


def test_pure_atom_spectrum_symmetric():
    h, y = 1.3, 0.7
    data = spectral_data(PeakonPair([y], [0.0], [h]))
    root = 1.0 / math.sqrt(h)
    assert data.eigenvalues == pytest.approx([-root, root], rel=1e-12)
    assert data.wronskian == pytest.approx((1.0, 0.0, -h), abs=1e-12)
    assert data.kappa == pytest.approx([y, y], abs=1e-12)


def test_zero_pair_has_empty_data():
    data = spectral_data(PeakonPair.zero())
    assert data.n == 0
    assert data.wronskian == (1.0,)


def test_weyl_function_unit_peakon():
    m = weyl_function(PeakonPair([0.0], [1.0], [0.0]))
    assert m.poles == pytest.approx([0.5])
    assert m.weights == pytest.approx([1.0])
    val = complex(m(np.array(1j)))
    assert val.imag == pytest.approx(0.8)
    assert val.real == pytest.approx(-1.6)


def test_weyl_weights_sum_to_inverse_first_length():
    # the total Herglotz weight equals 1/l_1, the reciprocal first gap
    rng = np.random.default_rng(12)
    pair = _random_pair(rng, 4)
    m = weyl_function(pair, "minus")
    l1 = math.exp(pair.sites[0])
    assert m.weights.sum() == pytest.approx(1.0 / l1, rel=1e-9)


def test_herglotz_probe_positive_and_guards():
    m = weyl_function(PeakonPair([0.0], [1.0], [0.0]))
    zs = [complex(x, 0.5) for x in np.linspace(-3, 3, 11)]
    assert herglotz_probe(m, zs) > 0
    with pytest.raises(ValueError):
        herglotz_probe(m, [complex(0.0, -1.0)])
    with pytest.raises(PoleHit):
        herglotz_probe(m, [complex(0.5, 0.0) + 1e-15j])
    with pytest.raises(WeightNonpositive):
        RationalHerglotz([1.0], [-1.0])


def test_trace_formulas_exact_on_random_pair():
    rng = np.random.default_rng(21)
    pair = _random_pair(rng)
    r1, r2 = trace_formulas(pair, spectral_data(pair))
    assert r1 < 1e-11
    assert r2 < 1e-11


def test_parseval_both_sides():
    rng = np.random.default_rng(22)
    pair = _random_pair(rng)
    data = spectral_data(pair)
    assert parseval_check(pair, data, "minus") < 1e-9
    assert parseval_check(pair, data, "plus") < 1e-9


def test_norming_by_quadrature_matches_spectral_data():
    rng = np.random.default_rng(23)
    pair = _random_pair(rng, 4)
    data = spectral_data(pair)
    for lam, gm, gp in zip(data.eigenvalues, data.norming_left,
                           data.norming_right):
        assert norming_by_quadrature(pair, lam, "minus") == pytest.approx(
            gm, rel=1e-7)
        assert norming_by_quadrature(pair, lam, "plus") == pytest.approx(
            gp, rel=1e-7)
    with pytest.raises(NotAnEigenvalue):
        norming_by_quadrature(pair, 1e7)


def test_spectral_from_coords_round_trip():
    rng = np.random.default_rng(24)
    data = spectral_data(_random_pair(rng, 3))
    rebuilt = spectral_from_coords(data.eigenvalues, data.kappa)
    assert rebuilt.coupling == pytest.approx(data.coupling, rel=1e-9)
    assert rebuilt.norming_left == pytest.approx(data.norming_left, rel=1e-9)
    assert rebuilt.norming_right == pytest.approx(data.norming_right, rel=1e-9)


def test_coupling_norming_relation():
    # -Wdot(lam) = gamma_minus / c = c * gamma_plus, so the product of the
    # two norming constants is Wdot^2
    rng = np.random.default_rng(25)
    pair = _random_pair(rng, 5)
    data = spectral_data(pair)
    w = wronskian_poly(pair)
    dw = w.deriv()
    for lam, c, gm, gp in zip(data.eigenvalues, data.coupling,
                              data.norming_left, data.norming_right):
        wd = float(dw(float(lam)))
        assert -wd == pytest.approx(gm / c, rel=1e-7)
        assert -wd == pytest.approx(gp * c, rel=1e-7)
        assert gm * gp == pytest.approx(wd * wd, rel=1e-7)


def test_definiteness_classification():
    def classify(pair):
        return classify_definiteness(pair, spectral_data(pair))

    pos = classify(PeakonPair([0.0], [1.0], [0.0]))
    assert pos.label == "positive"
    assert pos.residual < 1e-12
    assert pos.spectrum_sign_consistent
    neg = classify(PeakonPair([-1.0, 1.0], [-0.5, -0.2], [0.0, 0.0]))
    assert neg.label == "negative"
    assert neg.spectrum_sign_consistent
    ind = classify(PeakonPair([0.0], [1.0], [0.5]))
    assert ind.label == "indefinite"


def test_spectrum_real_simple_for_mixed_data():
    rng = np.random.default_rng(26)
    for _ in range(5):
        sig = spectrum(_random_pair(rng))
        assert np.all(np.isfinite(sig))
        assert np.all(np.diff(sig) > 0)
        assert not np.any(sig == 0)


def test_spectral_data_escalates_past_twice_the_precision():
    # drawn like the acceptance suite with 16 peaks; the Weyl weight at the
    # eigenvalue near -114 comes out non-positive at 128 and at 256 bits
    rng = np.random.default_rng(116)
    sites = np.cumsum(rng.uniform(0.2, 1.0, 16))
    sites += rng.uniform(-4.0, 0.0) - sites[0]
    weights = rng.uniform(-2.0, 2.0, 16)
    atoms = np.where(rng.random(16) < 0.5, rng.uniform(0.0, 2.0, 16), 0.0)
    pair = PeakonPair(sites, weights, atoms)
    data = spectral_data(pair)
    assert data.n == 24
    assert np.all(data.norming_left * data.eigenvalues > 0)
    r1, _ = trace_formulas(pair, data)
    assert r1 <= 1e-9


def test_spectral_data_names_every_rung_when_all_fail(monkeypatch):
    def slipping(pair, prec):
        raise RootCountMismatch(f"slipped at {prec}")

    monkeypatch.setattr(chflow.direct, "_spectral_data_attempt", slipping)
    with pytest.raises(RootCountMismatch) as err:
        spectral_data(PeakonPair([0.0], [1.0], [0.0]))
    for bits in (128, 256, 512):
        assert f"{bits} bits: slipped at {bits}" in str(err.value)
