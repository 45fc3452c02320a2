"""Spectral evolution, conservation, weak-form residuals, continuity metric."""

import math

import numpy as np
import pytest

import chflow.direct
from chflow.direct import (SpectralData, classify_definiteness, spectral_data,
                           spectral_from_coords, weyl_function)
from chflow.errors import RoundTripFailure, SupportNotCovered
from chflow.flow import (BumpTestFunction, QuadratureSpec, Trajectory,
                         atoms_sidecar, conserved_report, continuity_metric,
                         eval_pressure, evolve_spectral, flow_map,
                         make_trajectory, snapshot, snapshots_csv,
                         truncate_spectral, weak_residual)
from chflow.inverse import IsospectralCoordinates, inverse_transform
from chflow.pairs import PeakonPair, eval_u


def test_evolve_shifts_couplings():
    d = spectral_from_coords([0.5], [0.0])
    assert evolve_spectral(d, 1.0).kappa == pytest.approx([1.0])
    d2 = spectral_from_coords([-1.0, 1.0], [0.0, 0.0])
    assert evolve_spectral(d2, 2.0).kappa == pytest.approx([-1.0, 1.0])
    assert evolve_spectral(d2, 0.0) is d2


def test_evolve_keeps_wronskian_and_spectrum():
    d = spectral_from_coords([0.5, -2.0], [0.3, -0.1])
    e = evolve_spectral(d, 3.7)
    assert e.wronskian == d.wronskian
    assert e.eigenvalues == pytest.approx(d.eigenvalues)


def test_evolve_group_law():
    d = spectral_from_coords([0.5, -2.0, 3.0], [0.3, -0.1, 1.0])
    a = evolve_spectral(evolve_spectral(d, 1.25), 0.5)
    b = evolve_spectral(d, 1.75)
    assert a.kappa == pytest.approx(b.kappa, abs=1e-14)


def test_truncate_examples():
    d = spectral_from_coords([-1.0, 1.0], [0.0, 0.0])
    assert truncate_spectral(d, 0.5).n == 0
    assert truncate_spectral(d, 2.0).eigenvalues == pytest.approx([-1.0, 1.0])
    with pytest.raises(ValueError):
        truncate_spectral(d, 0.0)


def test_truncate_keeps_left_norming_and_recomputes_kappa():
    d = spectral_from_coords([0.5, 3.0], [0.2, -0.4])
    tr = truncate_spectral(d, 1.0)
    assert tr.eigenvalues == pytest.approx([0.5])
    assert tr.norming_left[0] == pytest.approx(d.norming_left[0])
    # singleton characteristic polynomial 1 - 2z has derivative -2
    w = 1.0 / (0.5 * tr.norming_left[0])
    assert tr.kappa[0] == pytest.approx(-math.log(w * abs(0.5 * -2.0)))
    assert tr.wronskian == pytest.approx((1.0, -2.0))


def test_peakon_travels_at_its_height():
    for p, y in ((1.0, 0.0), (0.7, -1.2), (-0.6, 0.5)):
        pair = PeakonPair([y], [p], [0.0])
        for t in (-2.0, 1.5):
            out = flow_map(pair, t)
            assert out.sites[0] == pytest.approx(y + p * t, abs=1e-12)
            assert out.weights[0] == pytest.approx(p, rel=1e-12)


def test_flow_of_zero_pair():
    assert flow_map(PeakonPair.zero(), 3.0) == PeakonPair.zero()


def test_flow_group_law_on_pairs():
    rng = np.random.default_rng(41)
    pair = PeakonPair(np.sort(rng.uniform(-2, 2, 3)) + [0.0, 0.3, 0.6],
                      rng.uniform(-1, 1, 3), rng.uniform(0, 0.3, 3))
    a = flow_map(flow_map(pair, 0.9), -1.4)
    b = flow_map(pair, -0.5)
    assert np.allclose(a.sites, b.sites, atol=1e-8)
    assert np.allclose(a.weights, b.weights, atol=1e-8)
    assert np.allclose(a.atoms, b.atoms, atol=1e-8)


def test_minus_weyl_weights_evolve_exponentially():
    rng = np.random.default_rng(42)
    pair = PeakonPair(np.sort(rng.uniform(-2, 2, 3)) + [0.0, 0.3, 0.6],
                      rng.uniform(0.3, 1.0, 3), np.zeros(3))
    t = 1.7
    m0 = weyl_function(pair, "minus")
    m1 = weyl_function(flow_map(pair, t), "minus")
    order = np.argsort(m0.poles)
    expected = m0.weights[order] * np.exp(-t / (2.0 * m0.poles[order]))
    assert m1.weights[np.argsort(m1.poles)] == pytest.approx(expected,
                                                             rel=1e-8)


def test_definiteness_preserved_along_flow():
    pair = PeakonPair([-1.0, 0.5], [0.8, 0.4], [0.0, 0.0])
    for t in (-3.0, 2.0):
        later = flow_map(pair, t)
        report = classify_definiteness(later, spectral_data(later))
        assert report.label == "positive"


def test_trajectory_validation():
    d = spectral_data(PeakonPair([0.0], [1.0], [0.0]))
    zero, empty = PeakonPair.zero(), SpectralData.empty()
    with pytest.raises(ValueError):
        Trajectory([1.0, 0.0], (zero, zero), d, (empty, empty))
    with pytest.raises(ValueError):
        Trajectory([0.0], (), d, ())
    with pytest.raises(ValueError):
        Trajectory([0.0], (zero,), d, ())


def test_trajectory_transforms_each_snapshot_once(monkeypatch):
    # one transfer product for the base pair and one per certified snapshot;
    # the isospectral check and the conserved report read the certificates
    pair = PeakonPair([-1.0, 0.2, 1.1], [0.8, -0.5, 0.6], [0.0, 0.3, 0.0])
    exact = chflow.direct.cumulative_transfer
    count = []

    def counted(*args, **kwargs):
        count.append(1)
        return exact(*args, **kwargs)

    monkeypatch.setattr(chflow.direct, "cumulative_transfer", counted)
    traj = make_trajectory(pair, np.linspace(0.0, 2.0, 5))
    rep = conserved_report(traj)
    assert len(count) == 6
    assert rep.wronskian_drift < 1e-12


def test_conserved_report_single_peakon():
    traj = make_trajectory(PeakonPair([0.0], [1.0], [0.0]),
                           np.linspace(-2, 2, 5))
    rep = conserved_report(traj)
    assert rep.u_integrals == pytest.approx(np.full(5, 2.0), rel=1e-12)
    assert rep.energies == pytest.approx(np.full(5, 2.0), rel=1e-12)
    assert rep.u_integral_drift < 1e-12
    assert rep.energy_drift < 1e-12
    assert rep.wronskian_drift < 1e-12


def test_conserved_report_zero_pair():
    traj = make_trajectory(PeakonPair.zero(), [0.0, 1.0])
    rep = conserved_report(traj)
    assert rep.u_integral_drift == 0.0
    assert rep.energy_drift == 0.0
    assert rep.wronskian_drift == 0.0


def test_pressure_closed_form_single_peakon():
    p = 1.4
    pair = PeakonPair([0.0], [p], [0.0])
    for x in (-1.5, 0.0, 0.8):
        u = p * math.exp(-abs(x))
        assert eval_pressure(pair, x) == pytest.approx(p * u - u * u / 2.0)


def test_pressure_continuous_at_sites():
    pair = PeakonPair([-0.7, 0.9], [1.0, -0.5], [0.4, 0.1])
    for s in pair.sites:
        assert eval_pressure(pair, s - 1e-10) == pytest.approx(
            eval_pressure(pair, s + 1e-10), rel=1e-8)


def test_weak_residual_zero_pair():
    traj = make_trajectory(PeakonPair.zero(), [-1.0, 1.0])
    bump = BumpTestFunction(0.0, 1.0, 0.0, 0.9)
    assert weak_residual(traj, bump) == (0.0, 0.0)


def test_weak_residual_support_must_be_covered():
    traj = make_trajectory(PeakonPair([0.0], [1.0], [0.0]), [-1.0, 1.0])
    with pytest.raises(SupportNotCovered):
        weak_residual(traj, BumpTestFunction(0.0, 1.0, 0.0, 2.0))


def test_weak_residual_traveling_peakon_small():
    traj = make_trajectory(PeakonPair([0.0], [1.0], [0.0]),
                           np.linspace(-1.5, 1.5, 7))
    r1, r2 = weak_residual(traj, BumpTestFunction(0.0, 2.0, 0.0, 1.2))
    assert r1 < 1e-8
    assert r2 < 1e-8


def test_bump_validation_and_values():
    with pytest.raises(ValueError):
        BumpTestFunction(0.0, 0.0, 0.0, 1.0)
    b = BumpTestFunction(1.0, 2.0, 0.0, 1.0, power=4)
    assert b.x_value(1.0) == pytest.approx(1.0)
    assert b.x_value(3.0) == 0.0
    assert b.x_derivative(3.5) == 0.0
    eps = 1e-6
    numeric = (b.x_value(1.5 + eps) - b.x_value(1.5 - eps)) / (2 * eps)
    assert b.x_derivative(1.5) == pytest.approx(numeric, rel=1e-8)


def test_continuity_metric_basics():
    pair = PeakonPair([0.2], [0.9], [0.1])
    assert continuity_metric(pair, pair) == 0.0
    for eps in (1e-3, 1e-5):
        m = continuity_metric(PeakonPair.zero(),
                              PeakonPair([0.0], [eps], [0.0]))
        assert 0 < m < 300 * eps


def test_snapshot_export_formats():
    traj = make_trajectory(PeakonPair([0.0], [1.0], [0.5]), [0.0])
    csv = snapshots_csv(traj, np.array([-1.0, 0.0, 1.0]))
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 4
    side = atoms_sidecar(traj)
    assert side[0]["t"] == 0.0
    assert len(side[0]["atoms"]) == 1
    assert side[0]["atoms"][0]["h"] == pytest.approx(0.5, rel=1e-9)


def test_snapshot_matches_flow_map():
    pair = PeakonPair([-0.3], [0.8], [0.2])
    data = spectral_data(pair)
    rec = snapshot(data, 1.1)
    a = rec.pair
    b = flow_map(pair, 1.1)
    assert rec.residual <= 1e-8
    assert rec.data.to_json() == spectral_data(a).to_json()
    assert np.allclose(a.sites, b.sites, atol=1e-10)
    assert np.allclose(a.weights, b.weights, atol=1e-10)
    assert np.allclose(a.atoms, b.atoms, atol=1e-10)


def test_refusal_near_a_collision_strips_once_per_rung(monkeypatch):
    # within 1e-3 of the peak-antipeak collision every strict pass stalls
    # and the lenient one fails its certificate; one pass per rung is made
    pair = PeakonPair([-1.0, 1.0], [1.0, -1.0], [0.0, 0.0])
    data = spectral_data(pair)
    herglotz = chflow.direct.RationalHerglotz
    exact = herglotz.as_poly_pair
    precs = []

    def recorded(self, prec):
        precs.append(prec)
        return exact(self, prec)

    monkeypatch.setattr(herglotz, "as_poly_pair", recorded)
    with pytest.raises(RoundTripFailure) as err:
        snapshot(data, 1.78242 - 1e-4)
    assert precs == [128, 256, 512]
    for rung in ("128 bits", "256 bits", "512 bits lenient"):
        assert rung in str(err.value)
