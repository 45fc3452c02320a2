"""Each output check of the benchmark accepts real output and rejects a
deliberately perturbed copy of it.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chflow import (IsospectralCoordinates, PeakonPair, cli, flow,  # noqa: E402
                    inverse_transform, spectral_data)

import checks  # noqa: E402
import workloads  # noqa: E402

PAIR = PeakonPair([-1.3, -0.6, 0.2, 0.9], [0.8, -1.1, 0.5, 1.4],
                  [0.0, 0.7, 0.0, 0.3])


def _moved(pair, field, index, delta):
    arrays = {k: np.array(getattr(pair, k)) for k in ("sites", "weights", "atoms")}
    arrays[field][index] += delta
    return PeakonPair(arrays["sites"], arrays["weights"], arrays["atoms"])


@pytest.fixture(scope="module")
def roundtrip():
    data = spectral_data(PAIR)
    back = inverse_transform(IsospectralCoordinates(data.eigenvalues, data.kappa))
    return data, back


def test_reconstruction_check_rejects_moved_weight(roundtrip):
    _, back = roundtrip
    assert checks.check_pair("rt", back, PAIR) == []
    assert checks.check_pair("rt", _moved(back, "weights", 1, 1e-6), PAIR)


def test_trace_sums_reject_shifted_eigenvalue(roundtrip):
    data, _ = roundtrip
    assert checks.check_trace_sums("rt", data.eigenvalues, PAIR) == []
    lam = data.eigenvalues.copy()
    k = int(np.argmin(np.abs(lam)))
    lam[k] *= 1 + 1e-6
    assert checks.check_trace_sums("rt", lam, PAIR)


def test_trace_sums_reject_missing_atom(roundtrip):
    data, _ = roundtrip
    assert checks.check_trace_sums("rt", data.eigenvalues,
                                   _moved(PAIR, "atoms", 3, 1e-6))


@pytest.fixture(scope="module")
def window():
    times = workloads.clear_of(np.linspace(-1.0, 1.0, 5), (0.0,))
    traj = flow.make_trajectory(workloads.ATOM, times)
    return traj, flow.conserved_report(traj)


def test_snapshot_checks_reject_moved_weight(window):
    traj, _ = window
    base = checks.char_poly(workloads.ATOM)
    for snap in traj.snapshots:
        assert checks.check_conserved("w", snap, workloads.ATOM) == []
        assert checks.check_isospectral("w", snap, base) == []
    bad = _moved(traj.snapshots[2], "weights", 0, 1e-6)
    assert checks.check_conserved("w", bad, workloads.ATOM)
    assert checks.check_isospectral("w", bad, base)


def test_isospectral_check_rejects_moved_site(window):
    traj, _ = window
    base = checks.char_poly(workloads.ATOM)
    assert checks.check_isospectral(
        "w", _moved(traj.snapshots[1], "sites", 1, 1e-6), base)


def test_char_poly_matches_spectrum(roundtrip):
    data, _ = roundtrip
    # np.poly lists prod(z - 1/lam) from the top power down: the same
    # numbers as prod(1 - z/lam) from the constant term up
    want = np.poly(1.0 / data.eigenvalues)
    assert np.allclose(checks.char_poly(PAIR), want, rtol=1e-10, atol=1e-12)


def test_drift_check_rejects_large_drift(window):
    _, report = window
    assert checks.check_drifts("w", report) == []
    worse = flow.ConservedReport(report.times, report.u_integrals,
                                 report.energies, report.u_integral_drift,
                                 1e-6, report.wronskian_drift)
    assert checks.check_drifts("w", worse)


def test_peakon_and_group_law_checks():
    times = np.linspace(-1.0, 1.0, 3)
    traj = flow.make_trajectory(PeakonPair([0.3], [0.7], [0.0]), times)
    assert checks.check_peakon_track("p", times, traj.snapshots, 0.3, 0.7) == []
    assert checks.check_peakon_track("p", times, traj.snapshots, 0.3, 0.7 + 1e-6)
    a = flow.flow_map(flow.flow_map(workloads.ATOM, 0.4), 0.7)
    b = flow.flow_map(workloads.ATOM, 1.1)
    assert checks.check_pair("g", a, b, checks.GROUP_TOL) == []
    assert checks.check_pair("g", _moved(a, "sites", 0, 1e-6), b,
                             checks.GROUP_TOL)
    assert checks.check_residuals("r", (1e-7, 2e-6), 1e-6)


def _audit_round(tmp_path):
    audit = workloads.Audit(3, tmp_path)
    ops = audit.round(0)[:4]            # direct, inverse, check, evolve of n=2
    for op in ops:
        assert op.run() == 0
    return audit, ops


def test_audit_checks_reject_perturbed_files(tmp_path):
    audit, ops = _audit_round(tmp_path)
    for op in ops:
        assert audit.check(op, 0) == [], op.label
    direct_op, inverse_op, check_op, evolve_op = ops
    files = inverse_op.ref[2]

    spec = json.loads(Path(files["spec.json"]).read_text())
    spec["eigenvalues"][0] *= 1 + 1e-6
    Path(files["spec.json"]).write_text(json.dumps(spec))
    assert audit.check(direct_op, 0)

    back = json.loads(Path(files["back.json"]).read_text())
    back["peaks"][0]["p"] += 1e-6
    Path(files["back.json"]).write_text(json.dumps(back))
    assert audit.check(inverse_op, 0)

    report = json.loads(Path(files["check.json"]).read_text())
    report["passed"] = False
    Path(files["check.json"]).write_text(json.dumps(report))
    assert audit.check(check_op, 0)

    lines = Path(files["snap.csv"]).read_text().split("\n")
    t, x, u = lines[1001].split(",")
    assert float(t) == 0.0
    lines[1001] = f"{t},{x},{float(u) + 1e-6:.17g}"
    Path(files["snap.csv"]).write_text("\n".join(lines))
    assert audit.check(evolve_op, 0)


def test_failing_command_raises(tmp_path):
    with pytest.raises(workloads.CommandFailed):
        workloads._command(["check", str(tmp_path / "missing.json")])
    assert cli.main(["check", str(tmp_path / "missing.json")]) == 2
