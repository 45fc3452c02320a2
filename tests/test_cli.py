"""Command-line surface: formats, exit codes, determinism."""

import json

import pytest

import chflow.cli
import chflow.direct
import chflow.inverse
from chflow.cli import main
from chflow.pairs import PeakonPair

PEAKON = {"peaks": [{"x": 0.0, "p": 1.0, "h": 0.0}]}
# signed weights and an atom: an indefinite pair
SIGNED_ATOM = {"peaks": [{"x": -1.0, "p": 0.8, "h": 0.0},
                         {"x": 0.2, "p": -0.5, "h": 0.3},
                         {"x": 1.1, "p": 0.6, "h": 0.0}]}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


def test_direct_unit_peakon(tmp_path, capsys):
    pair_file = _write(tmp_path, "pair.json", PEAKON)
    out = tmp_path / "spec.json"
    assert main(["direct", pair_file, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["eigenvalues"] == [0.5]
    assert data["kappa"] == [0]
    assert data["wronskian"] == [1, -2]
    report = capsys.readouterr().err
    assert "trace" in report and "parseval" in report


def test_direct_empty_pair(tmp_path):
    pair_file = _write(tmp_path, "pair.json", {"peaks": []})
    out = tmp_path / "spec.json"
    assert main(["direct", pair_file, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["eigenvalues"] == []
    assert data["wronskian"] == [1]


def test_direct_malformed_json_exits_2(tmp_path):
    bad = _write(tmp_path, "bad.json", "{nope")
    assert main(["direct", bad]) == 2


def test_inverse_kappa_and_norming(tmp_path):
    spec = _write(tmp_path, "s.json", {"eigenvalues": [0.5], "kappa": [0.0]})
    out = tmp_path / "pair.json"
    assert main(["inverse", spec, "-o", str(out)]) == 0
    peak = json.loads(out.read_text())["peaks"][0]
    assert peak["p"] == pytest.approx(1.0)
    assert peak["x"] == pytest.approx(0.0)

    norm = _write(tmp_path, "n.json", {"eigenvalues": [0.5], "norming": [2.0],
                                       "side": "right"})
    assert main(["inverse", norm, "-o", str(out)]) == 0
    peak = json.loads(out.read_text())["peaks"][0]
    assert peak["p"] == pytest.approx(1.0)


def test_inverse_norming_residual_compares_with_the_input(tmp_path, capsys,
                                                        monkeypatch):
    pair_file = _write(tmp_path, "pair.json", SIGNED_ATOM)
    spec_file = tmp_path / "spec.json"
    assert main(["direct", pair_file, "-o", str(spec_file)]) == 0
    spec = json.loads(spec_file.read_text())
    norm = _write(tmp_path, "n.json", {"eigenvalues": spec["eigenvalues"],
                                       "norming": spec["norming_left"],
                                       "side": "left"})
    exact = chflow.inverse.from_string

    def off_by_1e11(*args, **kwargs):
        pair = exact(*args, **kwargs)
        return PeakonPair(pair.sites, pair.weights + 1e-11, pair.atoms)

    # a reconstruction that still certifies must print its nonzero residual
    monkeypatch.setattr(chflow.inverse, "from_string", off_by_1e11)
    capsys.readouterr()
    assert main(["inverse", norm, "-o", str(tmp_path / "out.json")]) == 0
    err = capsys.readouterr().err
    residual = float(err.split("round-trip residual:")[1].split()[0])
    assert residual > 1e-12


def test_inverse_pure_atom(tmp_path):
    spec = _write(tmp_path, "s.json",
                  {"eigenvalues": [-1.0, 1.0], "kappa": [0.0, 0.0]})
    out = tmp_path / "pair.json"
    assert main(["inverse", spec, "-o", str(out)]) == 0
    peak = json.loads(out.read_text())["peaks"][0]
    assert peak["h"] == pytest.approx(1.0)
    assert peak["p"] == pytest.approx(0.0, abs=1e-12)


def test_inverse_duplicate_exits_2(tmp_path):
    spec = _write(tmp_path, "s.json",
                  {"eigenvalues": [0.5, 0.5], "kappa": [0.0, 0.0]})
    assert main(["inverse", spec]) == 2


def test_inverse_bad_norming_exits_3(tmp_path):
    spec = _write(tmp_path, "s.json",
                  {"eigenvalues": [0.5], "norming": [-2.0], "side": "left"})
    assert main(["inverse", spec]) == 3


def test_evolve_peak_tracks_time(tmp_path, capsys):
    pair_file = _write(tmp_path, "pair.json", PEAKON)
    out = tmp_path / "snap.csv"
    atoms = tmp_path / "atoms.json"
    assert main(["evolve", pair_file, "--times", "0,2,3", "--grid=-5,5,101",
                 "-o", str(out), "--atoms-output", str(atoms)]) == 0
    rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
    for t in (0.0, 1.0, 2.0):
        sub = [(float(x), float(u)) for tt, x, u in rows if float(tt) == t]
        peak_x = max(sub, key=lambda s: s[1])[0]
        assert abs(peak_x - t) < 0.06       # grid resolution
    side = json.loads(atoms.read_text())
    assert [s["t"] for s in side] == [0.0, 1.0, 2.0]
    assert "conserved drifts" in capsys.readouterr().err


def test_evolve_zero_pair(tmp_path):
    pair_file = _write(tmp_path, "pair.json", {"peaks": []})
    out = tmp_path / "snap.csv"
    assert main(["evolve", pair_file, "--at", "0.5", "--grid=-1,1,5",
                 "-o", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[2]) == 0.0 for r in rows)


def test_evolve_requires_times(tmp_path):
    pair_file = _write(tmp_path, "pair.json", PEAKON)
    assert main(["evolve", pair_file]) == 2


def test_check_passes_unit_peakon(tmp_path, capsys):
    pair_file = _write(tmp_path, "pair.json", PEAKON)
    assert main(["check", pair_file, "--tol", "1e-9"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["definiteness"]["label"] == "positive"
    assert max(report["trace_residuals"]) < 1e-10


def test_check_indefinite_pair(tmp_path, capsys):
    pair_file = _write(tmp_path, "pair.json", SIGNED_ATOM)
    assert main(["check", pair_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["definiteness"]["label"] == "indefinite"
    assert max(report["trace_residuals"]) <= 1e-9
    assert max(report["parseval_residuals"].values()) <= 1e-9


@pytest.mark.parametrize("command, builds", [
    ("direct", 1), ("check", 2), ("inverse", 1), ("inverse-norming", 1),
    ("evolve", 4)])
def test_command_transforms_its_pair_once(tmp_path, monkeypatch, command,
                                          builds):
    # check builds a second transfer product to certify its round trip;
    # inverse builds only its certificate's; evolve builds one for the input
    # pair and one per certified snapshot (three times)
    pair_file = _write(tmp_path, "pair.json", SIGNED_ATOM)
    spec_file = tmp_path / "spec.json"
    assert main(["direct", pair_file, "-o", str(spec_file)]) == 0
    spec = json.loads(spec_file.read_text())
    kappa = _write(tmp_path, "k.json", {"eigenvalues": spec["eigenvalues"],
                                        "kappa": spec["kappa"]})
    norming = _write(tmp_path, "n.json", {"eigenvalues": spec["eigenvalues"],
                                          "norming": spec["norming_left"],
                                          "side": "left"})
    argv = {"direct": [pair_file], "check": [pair_file], "inverse": [kappa],
            "inverse-norming": [norming],
            "evolve": [pair_file, "--times", "0,1,3"]}[command]
    exact = chflow.direct.cumulative_transfer
    count = []

    def counted(*args, **kwargs):
        count.append(1)
        return exact(*args, **kwargs)

    monkeypatch.setattr(chflow.direct, "cumulative_transfer", counted)
    out = str(tmp_path / "out.txt")
    assert main([command.split("-")[0], *argv, "-o", out]) == 0
    assert len(count) == builds


def test_check_zero_pair(tmp_path, capsys):
    pair_file = _write(tmp_path, "pair.json", {"peaks": []})
    assert main(["check", pair_file]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_check_invalid_pair_exits_2(tmp_path):
    pair_file = _write(tmp_path, "pair.json",
                       {"peaks": [{"x": 0.0, "p": 1.0, "h": -1.0}]})
    assert main(["check", pair_file]) == 2


def test_unknown_flag_exits_2(tmp_path):
    pair_file = _write(tmp_path, "pair.json", PEAKON)
    assert main(["direct", pair_file, "--frobnicate"]) == 2


def test_outputs_are_deterministic(tmp_path):
    pair_file = _write(tmp_path, "pair.json",
                       {"peaks": [{"x": -0.5, "p": 0.8, "h": 0.25},
                                  {"x": 0.75, "p": -0.4, "h": 0.0}]})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["direct", pair_file, "-o", str(out1)]) == 0
    assert main(["direct", pair_file, "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
