"""Command-line surface: direct / inverse / evolve / check with stable formats.

All floating-point output is serialized with 17 significant digits so runs
are reproducible across platforms; reports go to standard error, data to
standard output or the requested files.  Exit codes: 0 success, 1 check
failure, 2 parse or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .direct import (classify_definiteness, herglotz_probe, parseval_check,
                     spectral_data, trace_formulas)
from .errors import ChflowError, DuplicateEigenvalue, PairFormatError
from .flow import atoms_sidecar, conserved_report, make_trajectory, snapshots_csv
from .inverse import (IsospectralCoordinates, herglotz_from_coords,
                      inverse_transform, reconstruct)
from .pairs import PeakonPair, pair_from_json, pair_to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by the subcommands."""

    precision_bits: int = 128
    tol: float = 1e-9
    grid: tuple = (-10.0, 10.0, 201)
    times: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.precision_bits < 53:
            raise ValueError("precision must be at least 53 bits")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        a, b, n = self.grid
        if not (b > a and int(n) >= 2):
            raise ValueError("grid must satisfy a < b with at least 2 points")


# ----------------------------------------------------------------------------
# deterministic serialization

def _format_value(obj) -> str:
    """JSON text with every float at 17 significant digits."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            return json.dumps(str(v))
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_format_value(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_format_value(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# subcommands

def cmd_direct(args) -> int:
    cfg = _config(args)
    pair = pair_from_json(_load_json(args.pair_file))
    data = spectral_data(pair, cfg.precision_bits)
    t1, t2 = trace_formulas(pair, data)
    pm = parseval_check(pair, data, "minus")
    pp = parseval_check(pair, data, "plus")
    print(f"trace residuals: {t1:.3e} {t2:.3e}", file=sys.stderr)
    print(f"parseval residuals: minus {pm:.3e} plus {pp:.3e}", file=sys.stderr)
    _emit(_format_value(data.to_json()), args.output)
    return EXIT_OK


def cmd_inverse(args) -> int:
    cfg = _config(args)
    spec = _load_json(args.spectral_file)
    if not isinstance(spec, dict) or "eigenvalues" not in spec:
        raise PairFormatError("spectral JSON must carry an 'eigenvalues' array")
    sigma = np.asarray(spec["eigenvalues"], dtype=float)
    if "kappa" in spec:
        coords = IsospectralCoordinates(sigma, np.asarray(spec["kappa"],
                                                          dtype=float))
    elif "norming" in spec:
        coords = IsospectralCoordinates.from_norming(
            sigma, np.asarray(spec["norming"], dtype=float),
            spec.get("side", "left"))
    else:
        raise PairFormatError("spectral JSON needs 'kappa' or 'norming'")
    rec = reconstruct(coords, cfg.precision_bits)
    print(f"round-trip residual: {rec.residual:.3e}", file=sys.stderr)
    _emit(_format_value(pair_to_json(rec.pair)), args.output)
    return EXIT_OK


def cmd_evolve(args) -> int:
    cfg = _config(args)
    pair = pair_from_json(_load_json(args.pair_file))
    if not cfg.times:
        raise PairFormatError("evolve requires --times or --at")
    traj = make_trajectory(pair, np.asarray(cfg.times), cfg.precision_bits)
    a, b, n = cfg.grid
    grid = np.linspace(a, b, int(n))
    rep = conserved_report(traj)
    print(f"conserved drifts: integral {rep.u_integral_drift:.3e} "
          f"energy {rep.energy_drift:.3e} wronskian {rep.wronskian_drift:.3e}",
          file=sys.stderr)
    _emit(snapshots_csv(traj, grid), args.output)
    if args.atoms_output:
        _emit(_format_value(atoms_sidecar(traj)), args.atoms_output)
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _config(args)
    pair = pair_from_json(_load_json(args.pair_file))
    data = spectral_data(pair, cfg.precision_bits)
    coords = IsospectralCoordinates(data.eigenvalues, data.kappa)
    t1, t2 = trace_formulas(pair, data)
    report = {
        "trace_residuals": [t1, t2],
        "parseval_residuals": {"minus": parseval_check(pair, data, "minus"),
                               "plus": parseval_check(pair, data, "plus")},
    }
    samples = [complex(x, y) for x in np.linspace(-20.0, 20.0, 10)
               for y in (0.1, 1.0, 10.0)]
    neg = 0.0
    for side in ("minus", "plus"):
        m = herglotz_from_coords(coords, side)
        neg = max(neg, max(0.0, -herglotz_probe(m, samples)))
    report["herglotz_negativity"] = neg
    rt = 0.0
    if data.n:
        back = inverse_transform(coords, cfg.precision_bits)
        rt = float("inf")
        if back.n == pair.n:
            rt = float(max(np.max(np.abs(back.sites - pair.sites)),
                           np.max(np.abs(back.weights - pair.weights)),
                           np.max(np.abs(back.atoms - pair.atoms))))
    report["round_trip_residual"] = rt
    definite = classify_definiteness(pair, data)
    report["definiteness"] = {
        "label": definite.label,
        "spectrum_sign_consistent": definite.spectrum_sign_consistent,
    }
    residuals = [t1, t2, report["parseval_residuals"]["minus"],
                 report["parseval_residuals"]["plus"], neg, rt]
    if definite.label != "indefinite":
        report["definiteness"]["residual"] = definite.residual
        residuals.append(definite.residual)
        if not definite.spectrum_sign_consistent:
            residuals.append(float("inf"))
    ok = all(r <= cfg.tol for r in residuals)
    report["tolerance"] = cfg.tol
    report["passed"] = ok
    _emit(_format_value(report), args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------------
# argument plumbing

def _parse_triple(text: str, name: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{name} must be 'a,b,n'")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad {name}: {exc}")
    return a, b, n


def _config(args) -> RunConfig:
    times: tuple = ()
    if getattr(args, "times", None):
        t0, t1, nt = args.times
        if nt < 1:
            raise PairFormatError("need at least one time")
        times = tuple(np.linspace(t0, t1, nt))
    if getattr(args, "at", None):
        times = tuple(sorted(set(times) | {float(t) for t in args.at}))
    grid = getattr(args, "grid", None) or (-10.0, 10.0, 201)
    return RunConfig(args.precision, args.tol, grid, times)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chflow",
        description="Spectral transforms and evolution for decaying peakon data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--precision", type=int, default=128,
                       help="working precision in bits (default 128)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="relative tolerance for checks (default 1e-9)")
        p.add_argument("-o", "--output", default=None,
                       help="output file (default: standard output)")

    p = sub.add_parser("direct", help="pair JSON -> spectral JSON")
    p.add_argument("pair_file")
    common(p)
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("inverse", help="spectral JSON -> pair JSON")
    p.add_argument("spectral_file")
    common(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("evolve", help="pair JSON -> snapshot CSV")
    p.add_argument("pair_file")
    common(p)
    p.add_argument("--times", type=lambda s: _parse_triple(s, "times"),
                   default=None, help="time window t0,t1,nt")
    p.add_argument("--at", action="append", default=None, metavar="T",
                   help="additional snapshot time (repeatable)")
    p.add_argument("--grid", type=lambda s: _parse_triple(s, "grid"),
                   default=None, help="sampling grid a,b,n (default -10,10,201)")
    p.add_argument("--atoms-output", default=None,
                   help="write the atoms JSON sidecar here")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("check", help="validate a pair file against the identities")
    p.add_argument("pair_file")
    common(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (PairFormatError, DuplicateEigenvalue, ValueError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ChflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
