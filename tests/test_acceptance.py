"""Acceptance gate: the eleven end-to-end correctness criteria.

Each test prints a single machine-readable pass/fail line with the measured
worst-case quantity.  The shared random suite (200 pairs, 200 coordinate
datasets) is built once per module and reused across the identity criteria.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from chflow.direct import (classify_definiteness, norming_by_quadrature,
                           parseval_check, spectral_data, spectrum,
                           trace_formulas, weyl_function, wronskian_poly)
from chflow.flow import (BumpTestFunction, QuadratureSpec, conserved_report,
                         continuity_metric, flow_map, make_trajectory,
                         truncate_spectral, weak_residual)
from chflow.errors import RoundTripFailure
from chflow.inverse import IsospectralCoordinates, inverse_transform, reconstruct
from chflow.pairs import PeakonPair, reflect
from chflow.stringsys import decaying_solution_left

QUAD_FLOOR = 1e-8          # reconstruction noise floor for refinement checks


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_suite_pair(rng, n=None):
    if n is None:
        n = int(rng.integers(1, 9))
    sites = np.cumsum(rng.uniform(0.2, 1.0, n))
    sites += rng.uniform(-4.0, 0.0) - sites[0]
    weights = rng.uniform(-2.0, 2.0, n)
    atoms = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
    return PeakonPair(sites, weights, atoms)


@pytest.fixture(scope="module")
def suite():
    """200 random pairs with their spectral data, plus timing of the transforms."""
    rng = np.random.default_rng(2024)
    pairs = [_random_suite_pair(rng) for _ in range(200)]
    t0 = time.perf_counter()
    datas = [spectral_data(p) for p in pairs]
    recons = [inverse_transform(IsospectralCoordinates(d.eigenvalues, d.kappa))
              for d in datas]
    elapsed_pairs = time.perf_counter() - t0
    return pairs, datas, recons, elapsed_pairs


@pytest.fixture(scope="module")
def coordinate_suite():
    """200 admissible finite coordinate datasets and their reconstructions."""
    rng = np.random.default_rng(777)
    sets = []
    for _ in range(200):
        n = int(rng.integers(1, 9))
        mags = np.exp(rng.uniform(math.log(0.2), math.log(10.0), n))
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        sigma = mags * signs
        while np.unique(np.round(sigma, 8)).size < n:
            sigma = sigma + rng.uniform(0.0, 1e-4, n)
        sets.append(IsospectralCoordinates(sigma, rng.uniform(-3.0, 3.0, n)))
    t0 = time.perf_counter()
    out = [(co, spectral_data(inverse_transform(co))) for co in sets]
    return out, time.perf_counter() - t0


def test_criterion_1_single_peakon_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    slowest = 0.0
    spectral_data(PeakonPair([0.1], [0.5], [0.0]))     # warm-up
    for _ in range(10):
        p = rng.uniform(-2.0, 2.0)
        while abs(p) < 0.05:
            p = rng.uniform(-2.0, 2.0)
        y = rng.uniform(-3.0, 3.0)
        pair = PeakonPair([y], [p], [0.0])
        t0 = time.perf_counter()
        data = spectral_data(pair)
        slowest = max(slowest, time.perf_counter() - t0)
        lam = 1.0 / (2.0 * p)
        worst = max(
            worst,
            abs(data.eigenvalues[0] - lam) / abs(lam),
            abs(data.kappa[0] - y) / max(1.0, abs(y)),
            abs(data.wronskian[1] + 2.0 * p) / abs(2.0 * p),
            abs(data.norming_left[0] - 2.0 * p * math.exp(y))
            / abs(2.0 * p * math.exp(y)),
        )
        assert lam * data.norming_left[0] > 0
    ok = worst < 1e-10 and slowest < 0.010
    _report(1, ok, f"single-peakon oracle worst rel err {worst:.3e}, "
                   f"slowest transform {slowest * 1e3:.2f} ms")


def test_criterion_2_pure_atom_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        h = rng.uniform(0.1, 3.0)
        y = rng.uniform(-2.0, 2.0)
        data = spectral_data(PeakonPair([y], [0.0], [h]))
        root = 1.0 / math.sqrt(h)
        worst = max(
            worst,
            abs(data.eigenvalues[0] + root) / root,
            abs(data.eigenvalues[1] - root) / root,
            abs(data.wronskian[2] + h) / h,
            abs(data.wronskian[1]),
            float(np.max(np.abs(data.kappa - y))) / max(1.0, abs(y)),
        )
    _report(2, worst < 1e-10, f"pure-atom oracle worst rel err {worst:.3e}")


def test_criterion_3_round_trips(suite, coordinate_suite):
    pairs, _, recons, elapsed_pairs = suite
    coords, elapsed_coords = coordinate_suite
    worst_pair = 0.0
    for pair, rec in zip(pairs, recons):
        assert rec.n == pair.n
        scale_x = np.maximum(1.0, np.abs(pair.sites))
        scale_p = np.maximum(1.0, np.abs(pair.weights))
        scale_h = np.maximum(1.0, pair.atoms)
        worst_pair = max(
            worst_pair,
            float(np.max(np.abs(rec.sites - pair.sites) / scale_x)),
            float(np.max(np.abs(rec.weights - pair.weights) / scale_p)),
            float(np.max(np.abs(rec.atoms - pair.atoms) / scale_h)),
        )
    worst_co = 0.0
    for co, data in coords:
        assert data.n == co.n
        worst_co = max(
            worst_co,
            float(np.max(np.abs(data.eigenvalues - co.sigma)
                         / np.abs(co.sigma))),
            float(np.max(np.abs(data.kappa - co.kappa)
                         / np.maximum(1.0, np.abs(co.kappa)))),
        )
    total = elapsed_pairs + elapsed_coords
    ok = worst_pair < 1e-8 and worst_co < 1e-8 and total < 30.0
    _report(3, ok, f"round trips worst pair {worst_pair:.3e}, "
                   f"worst coordinates {worst_co:.3e}, total {total:.1f} s")


def test_criterion_4_trace_formulas(suite):
    pairs, datas = suite[0], suite[1]
    worst = max(max(trace_formulas(p, d)) for p, d in zip(pairs, datas))
    _report(4, worst < 1e-10, f"trace-formula worst residual {worst:.3e}")


def test_criterion_5_parseval(suite):
    pairs, datas = suite[0], suite[1]
    worst = max(max(parseval_check(p, d, "minus"), parseval_check(p, d, "plus"))
                for p, d in zip(pairs, datas))
    _report(5, worst < 1e-8, f"weighted-energy identity worst residual {worst:.3e}")


def test_criterion_6_coupling_norming_relation(suite):
    pairs, datas = suite[0], suite[1]
    worst = 0.0
    for pair, data in zip(pairs, datas):
        w = wronskian_poly(pair)
        dw = w.deriv()
        for lam, c in zip(data.eigenvalues, data.coupling):
            wd = float(dw(float(lam)))
            gm = norming_by_quadrature(pair, float(lam), "minus")
            gp = norming_by_quadrature(pair, float(lam), "plus")
            worst = max(worst,
                        abs(-wd - gm / c) / abs(wd),
                        abs(-wd - gp * c) / abs(wd))
    _report(6, worst < 1e-9,
            f"coupling/norming relation worst scaled residual {worst:.3e}")


def test_criterion_7_herglotz_positivity(suite):
    pairs = suite[0]
    rng = np.random.default_rng(7)
    worst = np.inf
    for pair in pairs:
        samples = [complex(rng.uniform(-10, 10),
                           math.exp(rng.uniform(math.log(0.05), math.log(10))))
                   for _ in range(50)]
        for side in ("minus", "plus"):
            m = weyl_function(pair, side)
            if m.n:
                worst = min(worst, float(np.min([complex(m(np.array(z))).imag
                                                 for z in samples])))
        # diagonal Green-type function z f_-(x) f_+(x) / W(z)
        w = wronskian_poly(pair)
        xs = rng.uniform(-3.0, 3.0, 3)
        rpair = reflect(pair)
        for z in samples:
            sol_m = decaying_solution_left(pair, z)
            sol_p = decaying_solution_left(rpair, z)
            for x in xs:
                g = z * sol_m(float(x)).value * sol_p(float(-x)).value \
                    / complex(w(z))
                worst = min(worst, g.imag)
    _report(7, worst > 0.0,
            f"minimum sampled imaginary part {worst:.3e} (must be positive)")


def test_criterion_8_flow_correctness():
    worst_pos = 0.0
    for p, y in ((1.0, 0.0), (-0.8, 1.1), (0.45, -2.0)):
        pair = PeakonPair([y], [p], [0.0])
        for t in (-5.0, -1.0, 1.0, 5.0):
            out = flow_map(pair, t)
            worst_pos = max(worst_pos, abs(out.sites[0] - (y + p * t)))
    rng = np.random.default_rng(8)
    worst_group = 0.0
    worst_iso = 0.0
    for _ in range(3):
        n = int(rng.integers(2, 7))
        sites = np.cumsum(rng.uniform(0.3, 1.0, n))
        sites += rng.uniform(-3.0, 0.0) - sites[0]
        pair = PeakonPair(sites, rng.uniform(-1.5, 1.5, n),
                          np.where(rng.random(n) < 0.4,
                                   rng.uniform(0.0, 1.0, n), 0.0))
        s, t = rng.uniform(-2.5, 2.5, 2)
        a = flow_map(flow_map(pair, s), t)
        b = flow_map(pair, s + t)
        worst_group = max(worst_group,
                          float(np.max(np.abs(a.sites - b.sites))),
                          float(np.max(np.abs(a.weights - b.weights))),
                          float(np.max(np.abs(a.atoms - b.atoms))))
        base = spectrum(pair)
        for tt in rng.uniform(-5.0, 5.0, 2):
            sig = spectrum(flow_map(pair, tt))
            worst_iso = max(worst_iso,
                            float(np.max(np.abs(sig - base) / np.abs(base))))
    worst_drift = 0.0
    cases = (PeakonPair([-0.4, 0.6], [0.9, 0.5], [0.2, 0.0]),
             PeakonPair([-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]))  # collision
    for pair in cases:
        rep = conserved_report(make_trajectory(pair, np.linspace(-5, 5, 21)))
        worst_drift = max(worst_drift, rep.u_integral_drift, rep.energy_drift,
                          rep.wronskian_drift)
    ok = (worst_pos < 1e-8 and worst_group < 1e-7 and worst_iso < 1e-9
          and worst_drift < 1e-9)
    _report(8, ok, f"speed err {worst_pos:.3e}, group law {worst_group:.3e}, "
                   f"isospectrality {worst_iso:.3e}, conserved drift "
                   f"{worst_drift:.3e} (collision included)")


def test_isospectral_check_is_tighter_than_the_certificate():
    # this 11-peak pair certifies (tolerance 1e-8) with an eigenvalue
    # residual between 1e-9 and 1e-8, so a trajectory, which holds its
    # snapshots to the base spectrum within 1e-9, must refuse it
    pair = _random_suite_pair(np.random.default_rng(108), 11)
    data = spectral_data(pair)
    rec = reconstruct(IsospectralCoordinates(data.eigenvalues, data.kappa))
    eig = float(np.max(np.abs(rec.data.eigenvalues - data.eigenvalues)
                       / np.abs(data.eigenvalues)))
    assert 1e-9 < eig <= rec.residual <= 1e-8
    with pytest.raises(RoundTripFailure, match="not isospectral"):
        make_trajectory(pair, [0.0])


def test_lenient_rung_certifies_after_wrong_strict_passes():
    # a Herglotz weight of 2.8e-71: the strict 128- and 256-bit passes
    # return wrong pairs without stalling, the lenient 512-bit pass is right
    pair = _random_suite_pair(np.random.default_rng(137), 9)
    data = spectral_data(pair)
    back = inverse_transform(IsospectralCoordinates(data.eigenvalues,
                                                    data.kappa))
    assert back.n == pair.n
    err = max(np.max(np.abs(back.sites - pair.sites)),
              np.max(np.abs(back.weights - pair.weights)),
              np.max(np.abs(back.atoms - pair.atoms)))
    assert err <= 1e-10


def test_certificate_that_raises_fails_its_rung_only():
    # the 128-bit strip returns a wrong 14-peak pair whose own direct
    # transform fails at 128, 256 and 512 bits; that refusal must end only
    # its rung, so all three rungs are named
    pair = _random_suite_pair(np.random.default_rng(140), 11)
    data = spectral_data(pair)
    with pytest.raises(RoundTripFailure) as err:
        reconstruct(IsospectralCoordinates(data.eigenvalues, data.kappa))
    for rung in ("128 bits", "256 bits", "512 bits lenient"):
        assert rung in str(err.value)


def test_criterion_9_weak_solution_residuals():
    peakon = make_trajectory(PeakonPair([0.0], [1.0], [0.0]),
                             np.linspace(-2.0, 2.0, 9))
    bump_p = BumpTestFunction(0.0, 2.5, 0.0, 1.6)
    rp = weak_residual(peakon, bump_p)                # 64 time nodes
    collision = make_trajectory(PeakonPair([-1.0, 1.0], [1.0, -1.0],
                                           [0.0, 0.0]),
                                np.linspace(0.5, 3.0, 6))
    bump_c = BumpTestFunction(0.0, 2.5, 1.78, 1.0)    # spans the collision
    rc = weak_residual(collision, bump_c,
                       QuadratureSpec(subintervals=16, adaptive_splits=2))
    # refinement: halving the subintervals must cut the residual by >= 4
    # wherever quadrature error is above the reconstruction noise floor
    levels = [weak_residual(collision, bump_c,
                            QuadratureSpec(subintervals=k, nodes=3,
                                           adaptive_splits=0))
              for k in (4, 8, 16)]
    refine_ok = all(
        nxt[i] <= QUAD_FLOOR or nxt[i] * 4.0 <= prev[i]
        for prev, nxt in zip(levels, levels[1:]) for i in (0, 1))
    ok = max(rp) <= 1e-6 and max(rc) <= 1e-4 and refine_ok
    _report(9, ok, f"peakon residuals {rp[0]:.3e}/{rp[1]:.3e}, collision "
                   f"{rc[0]:.3e}/{rc[1]:.3e}, refinement ladder "
                   f"{[tuple(f'{v:.1e}' for v in lv) for lv in levels]}")


def test_criterion_10_definiteness():
    rng = np.random.default_rng(10)
    worst = 0.0
    sign_ok = True
    flip_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 7))
        sites = np.cumsum(rng.uniform(0.3, 1.0, n))
        sites += rng.uniform(-3.0, 0.0) - sites[0]
        weights = rng.uniform(0.1, 2.0, n)
        pair = PeakonPair(sites, weights, np.zeros(n))
        rep = classify_definiteness(pair, spectral_data(pair))
        sign_ok = sign_ok and rep.label == "positive" \
            and rep.spectrum_sign_consistent and np.all(rep.spectrum > 0)
        worst = max(worst, rep.residual)
        # inject a singular atom: indefiniteness must be detected
        atoms = np.zeros(n)
        atoms[rng.integers(0, n)] = rng.uniform(0.1, 1.0)
        injected_pair = PeakonPair(sites, weights, atoms)
        injected = classify_definiteness(injected_pair,
                                         spectral_data(injected_pair))
        flip_ok = flip_ok and (injected.label == "indefinite"
                               or np.any(injected.spectrum < 0))
        flip_ok = flip_ok and np.any(injected.spectrum < 0)
    ok = sign_ok and flip_ok and worst < 1e-10
    _report(10, ok, f"definite-pair residual worst {worst:.3e}, "
                    f"sign consistency {sign_ok}, atom injection flips {flip_ok}")


def test_criterion_11_truncation_convergence():
    rng = np.random.default_rng(11)
    pair = PeakonPair(np.sort(rng.uniform(-3.0, 3.0, 8)),
                      rng.uniform(0.2, 1.2, 8), np.zeros(8))
    data = spectral_data(pair)
    ks = np.sort(np.abs(data.eigenvalues))
    metrics = []
    for k in ks:
        tr = truncate_spectral(data, float(k) * (1 + 1e-9))
        rec = inverse_transform(IsospectralCoordinates(tr.eigenvalues,
                                                       tr.kappa))
        metrics.append(continuity_metric(pair, rec))
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(metrics, metrics[1:]))
    ok = monotone and metrics[-1] < 1e-8
    _report(11, ok, f"truncation metrics decrease {monotone}, "
                    f"final {metrics[-1]:.3e}")
