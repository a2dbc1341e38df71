"""Command-line front end: eval, thresholds, trajectory, phase, verify.

Output is a table of rows in CSV (default, RFC-4180 line endings), JSON
(flat array of objects), or aligned text.  Formatting is deterministic —
floats are emitted with shortest round-trip repr — so repeated runs are
bit-identical.  Exit status: 0 on success, 1 when a verification suite
reports a failure, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .functionals import (
    FunctionalKind,
    NoRootError,
    TrajectoryPoint,
    _band_edges,
    _thresholds,
    _w_value,
    minimizer,
)
from .kernels import (
    DEFAULT_TRUNCATION,
    DomainError,
    HalfPlanePoint,
    SeriesTruncation,
    TruncationError,
    _lattice_sum,
    theta2d,
    theta2d_shifted,
)
from .phase_diagram import Displacement, energy, j_eval, phase_row, solve_alpha0
from .polydata import STATED_VALUES, SUITES

__all__ = ["build_parser", "main"]

_EXTENDED_DPS = 30


class UsageError(ValueError):
    """Bad flag combination; mapped to exit status 2."""


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_halfplane(text: str) -> HalfPlanePoint:
    """Parse "x+yi" (e.g. "0.5+0.8660254i") into an upper-half-plane point."""
    try:
        value = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as x+yi") from exc
    return HalfPlanePoint(value.real, value.imag)


def parse_sweep(text: str, default_n: int = 256) -> List[float]:
    """Parse "lo:hi:n" or "lo:hi:n:log" into a grid from lo to hi itself."""
    parts = text.split(":")
    if len(parts) not in (2, 3, 4):
        raise UsageError(f"sweep must be lo:hi[:n[:log]], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2]) if len(parts) >= 3 and parts[2] else default_n
    except ValueError as exc:
        raise UsageError(f"cannot parse sweep {text!r}") from exc
    log = len(parts) == 4 and parts[3] == "log"
    if len(parts) == 4 and not log:
        raise UsageError(f"sweep modifier must be 'log', got {parts[3]!r}")
    if n < 2:
        raise UsageError(f"sweep needs at least 2 points, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"sweep bounds must be finite, got {lo} and {hi}")
    if not lo < hi:
        raise UsageError(f"sweep needs lo < hi, got {lo} and {hi}")
    if log:
        if not lo > 0:
            raise UsageError("log sweep needs lo > 0")
        ratio = (hi / lo) ** (1 / (n - 1))
        return [min(lo * ratio**k, hi) for k in range(n - 1)] + [hi]
    step = (hi - lo) / (n - 1)
    return [lo + step * k for k in range(n - 1)] + [hi]


def _truncation(args: argparse.Namespace) -> SeriesTruncation:
    trunc = DEFAULT_TRUNCATION
    if args.tol is not None:
        if not 0 < args.tol < 1:
            raise UsageError(f"--tol must be in (0, 1), got {args.tol}")
        trunc = replace(trunc, tail_tol=args.tol)
    if args.precision == "extended":
        trunc = replace(trunc, tail_tol=min(trunc.tail_tol, 1e-25))
    return trunc


def _context(args: argparse.Namespace):
    # main() runs an extended command inside mpmath.workdps(_EXTENDED_DPS)
    if args.precision != "extended":
        return math
    import mpmath

    return mpmath.mp


def _narrow(value: Any, ctx: Any) -> Any:
    """Extended-precision values travel as 25-digit decimal strings."""
    if ctx is math:
        return value
    import mpmath

    return mpmath.nstr(value, 25)


# ---------------------------------------------------------------------------
# commands


def cmd_eval(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], int]:
    trunc = _truncation(args)
    ctx = _context(args)
    z = parse_halfplane(args.z)
    row: Dict[str, Any] = {"expr": args.expr}

    if args.expr in ("theta", "theta_shifted"):
        fn = theta2d if args.expr == "theta" else theta2d_shifted
        row.update(s=args.s, x=z.x, y=z.y)
        row["value"] = _narrow(fn(args.s, z, trunc, ctx), ctx)
    elif args.expr in ("W1", "W2"):
        kind = FunctionalKind.W1 if args.expr == "W1" else FunctionalKind.W2
        row.update(rho=args.rho, x=z.x, y=z.y)
        row["value"] = _narrow(_w_value(kind, args.rho, z, trunc, ctx), ctx)
    elif args.expr == "J":
        if args.precision == "extended":
            raise UsageError("extended precision is not available for J")
        d = Displacement(args.a, args.b)
        row.update(x=z.x, y=z.y, a=args.a, b=args.b)
        row["value"] = j_eval(z, d, trunc=trunc)
        if args.grad:
            row["dJ_da"], row["dJ_db"] = _lattice_sum(1, z, ((d.a, d.b),), 1, trunc, math)[0]
    elif args.expr == "E_MH":
        if args.precision == "extended":
            raise UsageError("extended precision is not available for E_MH")
        if args.alpha is None:
            raise UsageError("E_MH needs --alpha")
        d = Displacement(args.a, args.b)
        row.update(alpha=args.alpha, x=z.x, y=z.y, a=args.a, b=args.b)
        row["value"] = energy(args.alpha, z, d, trunc)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown expression {args.expr!r}")

    row["tail_bound"] = trunc.tail_tol
    return [row], 0


def cmd_thresholds(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], int]:
    th = _thresholds(trunc := _truncation(args), ctx := _context(args))
    # the two-component balance solver runs in double precision, there at the command's truncation
    alpha0 = solve_alpha0(trunc if ctx is math else DEFAULT_TRUNCATION).alpha0
    alpha1, alpha2 = _band_edges(th)
    computed = dict(asdict(th), alpha0=alpha0, alpha1=alpha1, alpha2=alpha2)
    ref = STATED_VALUES
    stated = dict(ref, sigma1a=ref["rho1"], sigma1b=1 / ref["rho2"], sigma2a=ref["rho2"])
    rows = [
        {"name": name, "computed": value, "reference": stated[name], "delta": value - stated[name]}
        for name, value in computed.items()
    ]
    consistency = computed["sigma2b"] * computed["rho1"]
    rows.append(
        {
            "name": "sigma2b_times_rho1",
            "computed": consistency,
            "reference": 1.0,
            "delta": consistency - 1.0,
        }
    )
    code = 0 if abs(consistency - 1.0) <= 1e-12 else 1
    return rows, code


_BRANCHES = ("segment", "corner", "arc")  # the order the trajectory runs through


def _continuity_flags(points: List[TrajectoryPoint]) -> List[bool]:
    """Flag the rows that step back along the trajectory, rows sorted by weight:
    to an earlier branch, up the segment (y rises) or back along the arc (x falls)."""
    flags = [True] if points else []
    for p, q in zip(points, points[1:]):
        step = _BRANCHES.index(q.branch) - _BRANCHES.index(p.branch)
        along = q.z.y <= p.z.y if q.branch == "segment" else q.z.x >= p.z.x
        flags.append(step > 0 or step == 0 and along)
    return flags


def cmd_trajectory(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], int]:
    trunc = _truncation(args)
    if args.precision == "extended":
        raise UsageError("extended precision is not available for trajectory")
    kind = FunctionalKind.W1 if args.kind == "W1" else FunctionalKind.W2
    default = "0:2" if kind is FunctionalKind.W1 else "0:30"
    rhos = sorted(parse_sweep(args.sweep or default))
    points = [minimizer(kind, rho, trunc) for rho in rhos]
    flags = _continuity_flags(points)
    rows = [
        {
            "rho": rho,
            "x": p.z.x,
            "y": p.z.y,
            "branch": p.branch,
            "value": p.value,
            "continuous": flag,
        }
        for rho, p, flag in zip(rhos, points, flags)
    ]
    return rows, 0


def cmd_phase(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], int]:
    trunc = _truncation(args)
    if args.precision == "extended":
        raise UsageError("extended precision is not available for phase")
    alphas = parse_sweep(args.sweep or "-1:1")
    alpha0 = solve_alpha0(trunc).alpha0
    rows = []
    for alpha in alphas:
        pr = phase_row(alpha, trunc)
        rows.append(
            {
                "alpha": alpha,
                "shape": pr.shape,
                "x": pr.z.x,
                "y": pr.z.y,
                "angle_or_ratio": pr.angle_or_ratio,
                "energy": pr.energy,
                "below_alpha0": alpha < alpha0,
            }
        )
    return rows, 0


def cmd_verify(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], int]:
    trunc = _truncation(args)
    if args.precision == "extended":
        raise UsageError("verification suites run in double precision")
    from .verifier import run_suite  # deferred: the verifier loads numpy

    checks = run_suite(args.suite, trunc, grid_n=args.grid)
    rows = [
        {
            "name": c.name,
            "expected": c.expected,
            "computed": c.computed,
            "tol": c.tol,
            "status": "PASS" if c.passed else "FAIL",
        }
        for c in checks
    ]
    return rows, 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------------------
# output


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_rows(rows: List[Dict[str, Any]], fmt: str) -> str:
    if not rows:
        return ""
    header = list(rows[0])
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in header])
        return buf.getvalue()
    if fmt == "text":
        cells = [header] + [[_cell(row[k]) for k in header] for row in rows]
        widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
        return "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
            for line in cells
        )
    raise UsageError(f"unknown format {fmt!r}")


def emit(rows: List[Dict[str, Any]], args: argparse.Namespace) -> None:
    text = format_rows(rows, args.format)
    if args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticetheta",
        description="Lattice theta functions, minimizer trajectories, and the "
        "two-component phase diagram.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    common.add_argument("--out", default="-", help="output file, '-' for stdout")
    common.add_argument(
        "--precision", choices=("double", "extended"), default="double"
    )
    common.add_argument(
        "--tol", type=float, default=None, help="series tail tolerance override"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one expression")
    p_eval.add_argument(
        "expr", choices=("theta", "theta_shifted", "W1", "W2", "J", "E_MH")
    )
    p_eval.add_argument("--s", type=float, default=1.0, help="theta parameter s > 0")
    p_eval.add_argument("--z", default="0+1i", help="half-plane point as x+yi")
    p_eval.add_argument("--rho", type=float, default=1.0, help="weight for W1/W2")
    p_eval.add_argument("--alpha", type=float, default=None, help="coupling for E_MH")
    p_eval.add_argument("--a", type=float, default=0.0, help="displacement component")
    p_eval.add_argument("--b", type=float, default=0.0, help="displacement component")
    p_eval.add_argument(
        "--grad", action="store_true", help="include the displacement gradient of J"
    )
    p_eval.set_defaults(fn=cmd_eval)

    p_thr = sub.add_parser(
        "thresholds", parents=[common], help="trajectory and band-edge constants"
    )
    p_thr.set_defaults(fn=cmd_thresholds)

    p_traj = sub.add_parser(
        "trajectory", parents=[common], help="minimizer trajectory over a weight sweep"
    )
    p_traj.add_argument("kind", choices=("W1", "W2"))
    p_traj.add_argument(
        "--sweep",
        default=None,
        help="lo:hi[:n[:log]] weight grid (default 0:2:256 for W1, 0:30:256 for W2)",
    )
    p_traj.set_defaults(fn=cmd_trajectory)

    p_phase = sub.add_parser(
        "phase", parents=[common], help="optimal lattice across the coupling range"
    )
    p_phase.add_argument(
        "--sweep",
        default=None,
        help="lo:hi[:n[:log]] coupling grid, default -1:1:256",
    )
    p_phase.set_defaults(fn=cmd_phase)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument(
        "--grid", type=int, default=400, help="grid size for the brute-force oracle"
    )
    p_verify.set_defaults(fn=cmd_verify)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in a process shares; built on first use."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    numeric = ("--z", "--sweep", "--s", "--rho", "--alpha", "--a", "--b", "--tol", "--grid")
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-0.3+0.7i" or "-1e-3" for an option
        if argv[i - 1] in numeric and argv[i].startswith("-"):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = _parser().parse_args(argv)
    ctx = _context(args)
    try:
        with contextlib.nullcontext() if ctx is math else ctx.workdps(_EXTENDED_DPS):
            rows, code = args.fn(args)
    except (UsageError, DomainError, TruncationError, NoRootError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(rows, args)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
