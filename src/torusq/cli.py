"""Command-line front end: quantize, verify, and dump subcommands.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or input
error, including a request too large for memory or an unwritable --out, and
141 (128 + SIGPIPE) when the reader of stdout closes it early, as in
`torusq dump ... | head -1`; nothing is written to stderr then.
Reports are emitted as human-readable tables or, with --json, as the
versioned JSON schema; for identical inputs the output is byte-stable apart
from the timestamp field.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .report import CheckResult, VerificationReport
from .suites import DEFAULT_TOL, SUITES, run_suites
from .torus import (
    area_mismatch,
    grid_coordinates,
    holonomy,
    make_geometry,
    make_torus_P_basis,
    make_torus_Q_basis,
    sample,
)

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds").replace("+00:00", "Z")


def _report(geometry, checks) -> VerificationReport:
    return VerificationReport(
        tool_version=__version__,
        geometry=geometry.to_dict(),
        checks=checks,
        timestamp=_timestamp(),
    )


def _print_human(report: VerificationReport, out) -> None:
    g = report.geometry
    out.write(f"geometry: a={g['a']!r} b={g['b']!r} h={g['h']!r} N={g['N']}\n")
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        out.write(f"{mark}  {c.name:42s} max_residual={c.max_residual:.3e} tol={c.tolerance:.1e}\n")
    overall = "PASS" if report.overall_pass else "FAIL"
    out.write(f"overall: {overall} ({len(report.checks)} checks)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusq",
        description="Verification tools for plane and torus phase-space quantization.",
    )
    parser.add_argument("--version", action="version", version=f"torusq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="test the area-quantization condition a*b/h = N")
    q.add_argument("--a", type=_positive_float, required=True, help="period in p")
    q.add_argument("--b", type=_positive_float, required=True, help="period in q")
    q.add_argument("--h", type=_positive_float, required=True, help="Planck constant")
    q.add_argument("--json", action="store_true", help="emit a JSON report")

    v = sub.add_parser("verify", help="run verification suites on a quantized geometry")
    v.add_argument("--N", type=_positive_int, required=True, help="physical dimension")
    v.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"],
                   help="which suite to run (default: all)")
    v.add_argument("--a", type=_positive_float, help="override period in p")
    v.add_argument("--b", type=_positive_float, help="override period in q")
    v.add_argument("--h", type=_positive_float, default=1.0, help="Planck constant (default 1)")
    v.add_argument("--tolerance", type=_positive_float, default=DEFAULT_TOL,
                   help="residual tolerance where a check allows it (default 1e-12)")
    v.add_argument("--json", action="store_true", help="emit a JSON report")

    d = sub.add_parser("dump", help="sample a basis state to CSV")
    d.add_argument("kind", choices=["qbasis", "pbasis"])
    d.add_argument("--N", type=_positive_int, required=True, help="physical dimension")
    d.add_argument("--n", type=int, required=True, help="first label")
    d.add_argument("--m", type=int, required=True, help="second label")
    d.add_argument("--M", type=_positive_int, required=True, help="samples per axis")
    d.add_argument("--a", type=_positive_float, help="override period in p")
    d.add_argument("--b", type=_positive_float, help="override period in q")
    d.add_argument("--h", type=_positive_float, default=1.0, help="Planck constant (default 1)")
    d.add_argument("--primed", action="store_true",
                   help="include the label-dependent constant phase e^(2 pi i n m / N)")
    d.add_argument("--reduce", action="store_true",
                   help="reduce labels to canonical representatives before validation: "
                        "(n mod N, 0) for qbasis, (0, m mod N) for pbasis")
    d.add_argument("--out", help="CSV destination (default: stdout)")
    return parser


def _resolve_geometry(args):
    side = math.sqrt(args.N * args.h)
    a = args.a if args.a is not None else side
    b = args.b if args.b is not None else side
    geometry = make_geometry(a, b, args.h)
    if geometry.N != args.N:
        raise ValueError(
            f"geometry a={a} b={b} h={args.h} has a*b/h = {a * b / args.h!r}, "
            f"which does not match --N {args.N}"
        )
    return geometry


def cmd_quantize(args) -> int:
    geometry = make_geometry(args.a, args.b, args.h)
    hol = holonomy(geometry)
    ratio = geometry.a * geometry.b / geometry.h
    # The same test make_geometry applies, so the verdict equals geometry.quantized.
    _, distance, tolerance = area_mismatch(geometry.a, geometry.b, geometry.h)
    check = CheckResult(
        name="area_quantization",
        params={"area_over_h": ratio, "holonomy": [hol.real, hol.imag]},
        max_residual=distance,
        tolerance=tolerance,
    )
    report = _report(geometry, [check])
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(f"area/h = {ratio!r}\n")
        if geometry.quantized:
            sys.stdout.write(f"N = {geometry.N}\n")
        else:
            sys.stdout.write(f"holonomy = {hol.real!r}{hol.imag:+}j\n")
            sys.stdout.write("not quantized: the phase-space area must be an integer multiple of h\n")
    return 0 if geometry.quantized else 1


def cmd_verify(args) -> int:
    geometry = _resolve_geometry(args)
    checks = run_suites(args.suite, geometry, args.tolerance)
    report = _report(geometry, checks)
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
    else:
        _print_human(report, sys.stdout)
    return 0 if report.overall_pass else 1


def _write_csv(values, geometry, out) -> None:
    """Write rows `i,j,q,p,re,im` (header included) of sampled values."""
    qs, ps = grid_coordinates(geometry, len(values))
    out.write("i,j,q,p,re,im\n")
    for i, row in enumerate(values):
        for j, v in enumerate(row):
            out.write(f"{i},{j},{float(qs[j])!r},{float(ps[i])!r},"
                      f"{float(v.real)!r},{float(v.imag)!r}\n")


def cmd_dump(args) -> int:
    geometry = _resolve_geometry(args)
    n, m = args.n, args.m
    if args.reduce:  # the physical label mod N, the shadow label 0 (finite.PHYSICAL_LABEL)
        n, m = (n % args.N, 0) if args.kind == "qbasis" else (0, m % args.N)
    if not (0 <= n < args.N and 0 <= m < args.N):
        raise ValueError(
            f"labels out of range: need 0 <= n,m < {args.N}, got n={n} m={m} "
            "(pass --reduce to fold them first)"
        )
    factory = make_torus_Q_basis if args.kind == "qbasis" else make_torus_P_basis
    values = sample(factory(geometry, n, m, primed=args.primed), geometry, args.M)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            _write_csv(values, geometry, out)
    else:
        _write_csv(values, geometry, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = {"quantize": cmd_quantize, "verify": cmd_verify, "dump": cmd_dump}[args.command]
    try:
        status = command(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader left: send the exit-time flush to devnull and exit as a
        # process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, MemoryError, OSError) as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
