"""The benchmark's workloads: inputs drawn from a seed, operations, checks.

A workload hands out rounds.  Every round holds the same kinds of operations
in the same order, drawn afresh from ``(seed, round)``, so the mix of sizes
is identical in every run and the same seed always gives the same inputs.
Each operation calls the package through its module attributes, so wrappers
installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import partial
from pathlib import Path

import numpy as np

from chflow import cli, direct, flow, inverse
from chflow.errors import ChflowError
from chflow.pairs import PeakonPair

import checks


class CommandFailed(Exception):
    """A CLI command returned a nonzero exit code."""


# an operation that raises one of these counts as failed, not as a crash
FAILURES = (ChflowError, CommandFailed)


class Op:
    """One timed operation: ``run`` does the work, ``ref`` is what to check."""

    __slots__ = ("label", "run", "ref")

    def __init__(self, label, run, ref):
        self.label, self.run, self.ref = label, run, ref


def _rng(seed, *keys):
    # numpy ignores trailing zero keys, so [seed, 0] would repeat [seed];
    # the final 1 keeps every key list distinct
    return np.random.default_rng([seed, *keys, 1])


def mixed_pair(rng, n) -> PeakonPair:
    """Random pair drawn like the acceptance suite: sites 0.2-1.0 apart,
    signed weights, atoms on half of the sites (n // 2 of them, at random).

    Weights and atoms stay at least 0.2 in size: a near-zero weight or atom
    puts an eigenvalue near 1e4, where the direct transform runs out of
    precision on a few pairs in a thousand.  The atom count is fixed because
    a pair with any atom costs three times as much to reconstruct as one
    without, which would otherwise dominate the run-to-run spread."""
    sites = np.cumsum(rng.uniform(0.2, 1.0, n))
    sites += rng.uniform(-4.0, 0.0) - sites[0]
    weights = rng.uniform(0.2, 2.0, n) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    atoms = np.zeros(n)
    atoms[rng.choice(n, n // 2, replace=False)] = rng.uniform(0.2, 2.0, n // 2)
    return PeakonPair(sites, weights, atoms)


def one_signed_pair(rng, n) -> PeakonPair:
    """Peakons only or antipeakons only, no atoms: such a pair never meets a
    peak-antipeak collision, so every time sample can be reconstructed."""
    sites = np.cumsum(rng.uniform(0.2, 1.0, n))
    sites += rng.uniform(-4.0, 0.0) - sites[0]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return PeakonPair(sites, sign * rng.uniform(0.2, 2.0, n), np.zeros(n))


def warm_up():
    """One direct and inverse transform, so first-call costs land in set-up."""
    pair = PeakonPair([-0.5, 0.5], [1.0, -0.5], [0.0, 0.3])
    data = direct.spectral_data(pair)
    inverse.inverse_transform(
        inverse.IsospectralCoordinates(data.eigenvalues, data.kappa))


# ----------------------------------------------------------------------------
# roundtrip: distinct pairs of 1-8 peaks through direct and inverse transform

# Pairs of 11 or more peaks fail on some seeds (precision ceilings of the
# direct and inverse transforms).  Sizes 9 and 10 run, but a 30 s run holds
# too few of them for a steady p90.  Sizes 5 and 8 come twice, so that the
# median and the p90 fall inside the times of one size rather than on the
# edge between two, where they would follow the slowest pair of one size or
# the fastest of the next.
ROUNDTRIP_SIZES = (1, 2, 3, 4, 5, 5, 6, 7, 8, 8)


def _roundtrip(pair):
    data = direct.spectral_data(pair)
    back = inverse.inverse_transform(
        inverse.IsospectralCoordinates(data.eigenvalues, data.kappa))
    return data, back


class Roundtrip:
    name = "roundtrip"

    def __init__(self, seed, workdir):
        self.seed = seed

    def round(self, r):
        rng = _rng(self.seed, r)
        return [Op(f"roundtrip n={n}", partial(_roundtrip, pair), pair)
                for n in ROUNDTRIP_SIZES for pair in [mixed_pair(rng, n)]]

    def check(self, op, out):
        data, back = out
        return (checks.check_pair(op.label, back, op.ref)
                + checks.check_trace_sums(op.label, data.eigenvalues, op.ref))

    def final_checks(self):
        return []


# ----------------------------------------------------------------------------
# trajectory: a few small pairs sampled over many time windows

# The pairs are fixed, so every seed flows the same spectra; the seed draws
# the time windows.  The peak-antipeak pair collides at t = 1.78242; the
# atom pair carries the atom of a collision at t = 0.  Reconstructions within
# about 1e-3 of a collision are refused by the round-trip certificate, so
# time samples keep COLLISION_MARGIN away from these instants.  The
# one-signed pairs never collide.  With five pairs, the median and the p90
# fall in the middle of the times of the third and of the costliest pair.
COLLISION = PeakonPair([-1.0, 1.0], [1.0, -1.0], [0.0, 0.0])
ATOM = PeakonPair([-0.4, 0.6], [0.9, 0.5], [0.2, 0.0])
TRAJECTORY_PAIRS = (
    ("collision", COLLISION, (1.78242,)),
    ("atom", ATOM, (0.0,)),
    ("peakons3", PeakonPair([-1.6, -0.7, 0.4], [1.3, 0.7, 0.9], [0.0] * 3), ()),
    ("antipeakons4", PeakonPair([-2.0, -1.1, -0.2, 0.8],
                                [-0.6, -1.4, -0.9, -0.5], [0.0] * 4), ()),
    ("peakons5", PeakonPair([-2.4, -1.5, -0.6, 0.3, 1.2],
                            [1.5, 0.5, 1.1, 0.7, 0.4], [0.0] * 5), ()),
)
COLLISION_MARGIN = 0.05
WINDOW_SPAN, WINDOW_SAMPLES = 2.0, 5
WINDOW_STARTS = (-4.0, 2.0)


def clear_of(times, instants):
    """Move samples closer than COLLISION_MARGIN to an instant out to the margin."""
    times = np.array(times, dtype=float)
    for tc in instants:
        near = np.abs(times - tc) < COLLISION_MARGIN
        times[near] = tc + np.where(times[near] >= tc, COLLISION_MARGIN,
                                    -COLLISION_MARGIN)
    return times


def _window(pair, times):
    traj = flow.make_trajectory(pair, times)
    return traj, flow.conserved_report(traj)


class Trajectory:
    name = "trajectory"

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = _rng(seed)
        self.pairs = TRAJECTORY_PAIRS
        self.char_polys = {label: checks.char_poly(pair)
                           for label, pair, _ in self.pairs}
        self.peakon = (float(rng.uniform(-2.0, 2.0)),
                       float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)))
        self.group = [rng.uniform(-2.5, 2.5, 2) for _ in self.pairs]

    def round(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for label, pair, instants in self.pairs:
            start = rng.uniform(*WINDOW_STARTS)
            times = clear_of(start + np.linspace(0.0, WINDOW_SPAN, WINDOW_SAMPLES),
                             instants)
            ops.append(Op(f"trajectory {label} from t={start:.3f}",
                          partial(_window, pair, times), (label, pair, times)))
        return ops

    def check(self, op, out):
        label, pair, times = op.ref
        traj, report = out
        if not np.array_equal(traj.times, times):
            return [f"{op.label}: snapshot times changed"]
        problems = checks.check_drifts(op.label, report)
        for t, snap in zip(times, traj.snapshots):
            where = f"{op.label} at t={t:.4f}"
            problems += checks.check_conserved(where, snap, pair)
            problems += checks.check_isospectral(where, snap,
                                                 self.char_polys[label])
        return problems

    def final_checks(self):
        x0, p = self.peakon
        times = np.linspace(-3.0, 3.0, 7)
        traj = flow.make_trajectory(PeakonPair([x0], [p], [0.0]), times)
        problems = checks.check_peakon_track("single peakon", times,
                                             traj.snapshots, x0, p)
        for (label, pair, instants), (s, t) in zip(self.pairs, self.group):
            s = float(clear_of([s], instants)[0])
            t = float(clear_of([s + t], instants)[0]) - s
            composed = flow.flow_map(flow.flow_map(pair, s), t)
            problems += checks.check_pair(
                f"{label} group law s={s:.3f} t={t:.3f}", composed,
                flow.flow_map(pair, s + t), checks.GROUP_TOL)
        # weak-form residuals as in acceptance criterion 9
        peakon = flow.make_trajectory(PeakonPair([0.0], [1.0], [0.0]),
                                      np.linspace(-2.0, 2.0, 9))
        problems += checks.check_residuals(
            "peakon", flow.weak_residual(
                peakon, flow.BumpTestFunction(0.0, 2.5, 0.0, 1.6)),
            checks.PEAKON_RESIDUAL_BOUND)
        collision = flow.make_trajectory(COLLISION, np.linspace(0.5, 3.0, 6))
        problems += checks.check_residuals(
            "collision", flow.weak_residual(
                collision, flow.BumpTestFunction(0.0, 2.5, 1.78, 1.0),
                flow.QuadratureSpec(subintervals=16, adaptive_splits=2)),
            checks.COLLISION_RESIDUAL_BOUND)
        return problems


# ----------------------------------------------------------------------------
# audit: the command line, in process, on pair files of 2-8 peaks

AUDIT_SIZES = tuple(range(2, 9))
EVOLVE_TIMES = (0.0, 1.0, 3)
EVOLVE_GRID = (-10.0, 10.0, 2001)


def _command(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"chflow {' '.join(argv)} exited {code}")
    return code


def _read_pair(path):
    peaks = json.loads(Path(path).read_text())["peaks"]
    return PeakonPair([q["x"] for q in peaks], [q["p"] for q in peaks],
                      [q["h"] for q in peaks])


class Audit:
    name = "audit"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.grid = np.linspace(EVOLVE_GRID[0], EVOLVE_GRID[1],
                                int(EVOLVE_GRID[2]))

    def round(self, r):
        rng = _rng(self.seed, r)
        times = ",".join(f"{v:g}" for v in EVOLVE_TIMES)
        grid = ",".join(f"{v:g}" for v in EVOLVE_GRID)
        ops = []
        for n in AUDIT_SIZES:
            pair = one_signed_pair(rng, n)
            f = {k: str(self.dir / f"n{n}.{k}")
                 for k in ("pair.json", "spec.json", "back.json",
                           "check.json", "snap.csv")}
            Path(f["pair.json"]).write_text(json.dumps({"peaks": [
                {"x": float(x), "p": float(p), "h": float(h)}
                for x, p, h in zip(pair.sites, pair.weights, pair.atoms)]}))
            for cmd, argv in (
                    ("direct", [f["pair.json"], "-o", f["spec.json"]]),
                    ("inverse", [f["spec.json"], "-o", f["back.json"]]),
                    ("check", [f["pair.json"], "-o", f["check.json"]]),
                    ("evolve", [f["pair.json"], "--times", times,
                                f"--grid={grid}", "-o", f["snap.csv"]])):
                ops.append(Op(f"audit {cmd} n={n}",
                              partial(_command, [cmd, *argv]),
                              (cmd, pair, f)))
        return ops

    def check(self, op, out):
        cmd, pair, f = op.ref
        if cmd == "direct":
            spec = json.loads(Path(f["spec.json"]).read_text())
            return checks.check_trace_sums(op.label, spec["eigenvalues"], pair)
        if cmd == "inverse":
            return checks.check_pair(op.label, _read_pair(f["back.json"]), pair)
        if cmd == "check":
            report = json.loads(Path(f["check.json"]).read_text())
            return [] if report.get("passed") is True else [
                f"{op.label}: check did not pass: {report}"]
        times = np.linspace(EVOLVE_TIMES[0], EVOLVE_TIMES[1], EVOLVE_TIMES[2])
        return checks.check_csv_t0(op.label, Path(f["snap.csv"]).read_text(),
                                   pair, self.grid, times)

    def final_checks(self):
        return []


WORKLOADS = {w.name: w for w in (Roundtrip, Trajectory, Audit)}
