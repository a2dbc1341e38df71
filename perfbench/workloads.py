"""The four benchmark workloads: their inputs, one item each, and its check.

Each workload has

* ``imports``: the modules its caller imports during set-up;
* ``cycle``: the number of items after which the input pattern repeats
  (one traced pass runs exactly one cycle);
* ``params``: input sizes recorded with every result;
* ``inputs(seed)``: an endless, seeded stream of item inputs;
* ``run(lt, inp)``: one item, timed, driving only the public API;
* ``check(inp, out)``: ``None`` when the output is right, else the reason.
  Checks compare against :mod:`reference` and never run inside the timed
  region;
* optionally ``audit(inp, out)``: like ``check``, for a known defect of the
  package that is counted and reported but does not fail the item.

Inputs are stratified within each cycle, so the mix of cheap and expensive
items in a run does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import sys

import reference as ref

# A value agrees with its plain-sum reference when it is within
# TOL * (1 + |ref|); the package certifies series tails of 1e-13.
TOL = 1e-12
# Extended items: the package forms m*x and (x+1)/2 in binary64, so its
# 30-digit sums agree with the exact sum at the given point only to about
# 4e-17; 1e-14 still fails a sum truncated at the binary64 tolerance.
TOL_EXTENDED = 1e-14
EXTENDED_DPS = 30
EXTENDED_TAIL_TOL = 1e-25

CENSUS_GRID = 32
ORACLE_GRID = 100
POINTS_BATCH = 96
HEXAGONAL = (0.5, math.sqrt(3.0) / 2.0)
SQUARE = (0.0, 1.0)


@contextlib.contextmanager
def saved_dps():
    """Restore mpmath.mp.dps after an extended item: the CLI's extended
    precision sets it and never puts it back."""
    mp = sys.modules["mpmath"].mp
    dps = mp.dps
    try:
        yield mp
    finally:
        mp.dps = dps


def _close(value, expected, tol=TOL):
    return ref.close(value, expected, tol, tol)


def _near(value, edges, tol=1e-9):
    return any(abs(value - e) <= tol * max(1.0, abs(e)) for e in edges)


# ---------------------------------------------------------------------------
# sweep: whole CLI tables


class Sweep:
    """One item is a set of five CLI tables: trajectory W1, trajectory W2,
    phase, thresholds and extended-precision thresholds.

    A single table costs from about 10 ms to about 120 ms by kind, so the
    median table sat at the edge of one kind's latencies and moved with
    every change in machine speed; the set of five is one steady unit.
    """

    name = "sweep"
    imports = ("latticetheta", "latticetheta.cli", "mpmath")
    cycle = 1
    params = {"tables_per_item": 5, "rows": [20, 28]}

    @staticmethod
    def inputs(seed):
        rng = random.Random(seed)
        while True:
            # W1: segment below rho1 = 0.0402, arc above 1/rho2 = 0.8397
            w1 = rng.uniform(0.0, 0.03), rng.uniform(1.0, 2.0), rng.randint(20, 28)
            # W2: segment below rho2 = 1.19, arc above 1/rho1 = 24.9
            w2 = rng.uniform(0.0, 1.0), rng.uniform(26.0, 32.0), rng.randint(20, 28)
            # hexagonal below 0, rhombic, square, rectangular above alpha2 = 0.9256
            ph = rng.uniform(-1.0, -0.2), rng.uniform(0.95, 1.0), rng.randint(20, 28)
            yield [
                ("W1", w1[2], ["trajectory", "W1", "--sweep", "{!r}:{!r}:{}".format(*w1)]),
                ("W2", w2[2], ["trajectory", "W2", "--sweep", "{!r}:{!r}:{}".format(*w2)]),
                ("phase", ph[2], ["phase", "--sweep={!r}:{!r}:{}".format(*ph)]),
                ("thresholds", None, ["thresholds"]),
                ("extended", None, ["thresholds", "--precision", "extended"]),
            ]

    @staticmethod
    def run(lt, tables):
        main = sys.modules["latticetheta.cli"].main
        out = []
        for _, _, argv in tables:
            buf = io.StringIO()
            with saved_dps(), contextlib.redirect_stdout(buf):
                code = main(argv)
            out.append((code, buf.getvalue()))
        return out

    @staticmethod
    def check(tables, outs):
        for (kind, n, argv), (code, text) in zip(tables, outs):
            if code != 0:
                return f"{argv}: exit code {code}"
            rows = list(csv.DictReader(io.StringIO(text)))
            if kind in ("W1", "W2"):
                reason = _check_trajectory(kind, n, rows)
            elif kind == "phase":
                reason = _check_phase(n, rows)
            else:
                reason = _check_thresholds(rows)
            if reason is not None:
                return f"{argv}: {reason}"
        return None


def _w(kind, rho, x, y):
    w1, w2 = ref.w_values(rho, x, y)
    return w1 if kind == "W1" else w2


def _check_trajectory(kind, n, rows):
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    seg_end, arc_start = (ref.RHO1, 1 / ref.RHO2) if kind == "W1" else (ref.RHO2, 1 / ref.RHO1)
    h = 1e-4
    for row in rows:
        rho, x, y = float(row["rho"]), float(row["x"]), float(row["y"])
        branch = row["branch"]
        if not _near(rho, (seg_end, arc_start)):
            want = "segment" if rho < seg_end else "corner" if rho <= arc_start else "arc"
            if branch != want:
                return f"rho={rho}: branch {branch}, expected {want}"
        w = _w(kind, rho, x, y)
        if not _close(float(row["value"]), w):
            return f"rho={rho}: value {row['value']} vs plain sum {w!r}"
        if branch == "corner":
            if (x, y) != SQUARE:
                return f"rho={rho}: corner at ({x}, {y})"
            continue
        if branch == "segment":
            if x != 0.0 or not 1.0 < y <= ref.SQRT3 + 1e-9:
                return f"rho={rho}: segment point ({x}, {y})"
            around = [(0.0, y - h), (0.0, y + h)]
        else:
            phi = math.atan2(y, x)
            if abs(math.hypot(x, y) - 1.0) > 1e-9 or not 0.0 <= x < 0.5:
                return f"rho={rho}: arc point ({x}, {y})"
            around = [(math.cos(phi + d), math.sin(phi + d)) for d in (-h, h)]
        # the minimizer is stationary along its branch
        if any(_w(kind, rho, px, py) < w - TOL for px, py in around):
            return f"rho={rho}: a neighbour on the {branch} is lower"
    missing = {"segment", "corner", "arc"} - {r["branch"] for r in rows}
    return f"branches {sorted(missing)} missing" if missing else None


def _check_phase(n, rows):
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    below = []
    for row in rows:
        alpha, x, y = float(row["alpha"]), float(row["x"]), float(row["y"])
        shape, param = row["shape"], float(row["angle_or_ratio"])
        if alpha <= 0.0:
            want = "hexagonal"
        else:
            want = "rhombic" if alpha < ref.ALPHA1 else "square" if alpha <= ref.ALPHA2 else "rectangular"
        if shape != want and not _near(alpha, (ref.ALPHA1, ref.ALPHA2)):
            return f"alpha={alpha}: shape {shape}, expected {want}"
        geometry = {
            "hexagonal": abs(complex(x, y) - complex(*HEXAGONAL)) <= 1e-12 and param == math.pi / 3,
            "rhombic": abs(math.hypot(x, y) - 1) <= 1e-9 and param == math.atan2(y, x),
            "square": (x, y) == SQUARE and param == 1.0,
            "rectangular": x == 0.0 and y > 1.0 and param == y,
        }.get(shape, False)
        if not geometry:
            return f"alpha={alpha}: {shape} at ({x}, {y}) with parameter {param}"
        t1, _ = ref.thetas(x, y)
        if shape == "hexagonal":
            energy = (1 + alpha) * t1
        else:
            _, half2 = ref.thetas((x + 1) / 2, y / 2)
            energy = (1 - alpha) * t1 + 2 * alpha * half2
        if not _close(float(row["energy"]), energy):
            return f"alpha={alpha}: energy {row['energy']} vs plain sum {energy!r}"
        below.append((alpha, row["below_alpha0"] == "true"))
    # alpha0 lies in the solver's bracket (0.10, 0.24): the flag flips once there
    flags = [flag for _, flag in below]
    if flags != sorted(flags, reverse=True):
        return "below_alpha0 is not monotone"
    if any(flag != (alpha <= 0.10) for alpha, flag in below if alpha <= 0.10 or alpha >= 0.24):
        return "below_alpha0 flips outside (0.10, 0.24)"
    missing = {"hexagonal", "rhombic", "square", "rectangular"} - {r["shape"] for r in rows}
    return f"shapes {sorted(missing)} missing" if missing else None


_THRESHOLDS = {
    "rho1": ref.RHO1,
    "rho2": ref.RHO2,
    "sigma1a": ref.RHO1,
    "sigma1b": 1 / ref.RHO2,
    "sigma2a": ref.RHO2,
    "sigma2b": 1 / ref.RHO1,
    "alpha1": ref.ALPHA1,
    "alpha2": ref.ALPHA2,
    "sigma2b_times_rho1": 1.0,
}


def _check_thresholds(rows):
    computed = {row["name"]: float(row["computed"]) for row in rows}
    for name, expected in _THRESHOLDS.items():
        if name not in computed or not ref.close(computed[name], expected, 1e-11, 0.0):
            return f"{name} = {computed.get(name)}, expected {expected!r}"
    if not 0.10 < computed.get("alpha0", 0.0) < 0.24:
        return f"alpha0 = {computed.get('alpha0')} outside the bracket (0.10, 0.24)"
    return None


# ---------------------------------------------------------------------------
# census: critical points of J(z; ., .)


class Census:
    name = "census"
    imports = ("latticetheta",)
    cycle = 8
    params = {"grid_n": CENSUS_GRID, "y_max": 2.0}

    @staticmethod
    def inputs(seed):
        rng = random.Random(seed)
        while True:
            for slot in range(Census.cycle):
                if slot == 0:
                    yield "hexagonal", HEXAGONAL
                elif slot == 4:
                    yield "square", SQUARE
                else:
                    # six strata of height between the unit circle and y_max
                    x = rng.uniform(0.0, 0.5)
                    floor = math.sqrt(1.0 - x * x)
                    u = (slot - 1 - (slot > 4) + rng.random()) / 6
                    yield "seeded", (x, floor + u * (Census.params["y_max"] - floor))

    @staticmethod
    def run(lt, inp):
        return lt.critical_census(lt.HalfPlanePoint(*inp[1]), grid_n=CENSUS_GRID)

    @staticmethod
    def check(inp, out):
        anchor, (x, y) = inp
        want = {"hexagonal": 6, "square": 4}.get(anchor)
        if want is not None and out.count != want:
            return f"{anchor}: {out.count} critical points, expected {want}"
        if any(p.kind == "degenerate" for p in out.points):
            return f"({x}, {y}): degenerate critical point"
        for a, b in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            if not any(_torus_distance(p.d.a, p.d.b, a, b) <= 1e-6 for p in out.points):
                return f"({x}, {y}): universal point ({a}, {b}) missing"
        for p in out.points:
            s = ref.sums(x, y, p.d.a, p.d.b)
            if math.hypot(s.j_a, s.j_b) > 1e-9:
                return f"({x}, {y}): plain-sum gradient {math.hypot(s.j_a, s.j_b):.2e} at {p.d}"
        return None

    @staticmethod
    def audit(inp, out):
        """A completeness test the census fails today, reported, not failed.

        A Morse function on the torus has min + max = saddle.  At grid 32 the
        census misses the two minima that split off (1/2, 1/2) while they lie
        within about one mesh width of it, e.g. at z = 0.4431 + 1.0442i it
        reports one max and three saddles; grid 64 finds the minima.
        """
        kinds = [p.kind for p in out.points]
        if kinds.count("min") + kinds.count("max") != kinds.count("saddle"):
            return f"{inp[1]}: kinds {kinds} violate min + max = saddle"
        return None


def _torus_distance(a, b, a0, b0):
    da, db = abs(a - a0) % 1.0, abs(b - b0) % 1.0
    return math.hypot(min(da, 1 - da), min(db, 1 - db))


# ---------------------------------------------------------------------------
# oracle: the brute-force verification suite


class Oracle:
    name = "oracle"
    imports = ("latticetheta",)
    cycle = 1
    params = {"grid_n": ORACLE_GRID}

    @staticmethod
    def inputs(seed):
        while True:
            yield ORACLE_GRID

    @staticmethod
    def run(lt, grid_n):
        return lt.run_suite("oracle", grid_n=grid_n)

    @staticmethod
    def check(grid_n, rows):
        mesh = max(1.0 / grid_n, 3.25 / grid_n)  # the mesh spans y in [0.25, 3.5]
        if len(rows) != 12:
            return f"{len(rows)} oracle rows, expected 12"
        for row in rows:
            if not row.passed or not 0.0 <= row.computed <= 2 * mesh or row.tol != 2 * mesh:
                return f"{row.name}: deviation {row.computed} against tolerance {row.tol}"
        return None


# ---------------------------------------------------------------------------
# points: scalar evaluations across the half-plane


class Points:
    """One item is a batch of POINTS_BATCH bundles, each at its own seeded z.

    A single bundle takes about half a millisecond, so its slowest
    percentiles would only measure scheduler pauses; a batch is long enough
    that they do not dominate.
    """

    name = "points"
    imports = ("latticetheta", "mpmath")
    cycle = 1
    params = {"bundles_per_item": POINTS_BATCH, "extended_share": "1/8", "x": [-2.0, 2.0], "y_log": [0.1, 10.0]}

    @staticmethod
    def inputs(seed):
        rng = random.Random(seed)
        lo, hi = math.log(0.1), math.log(10.0)
        while True:
            batch = []
            for k in range(POINTS_BATCH):
                slot = k % 8
                extended = slot == 7
                # the binary64 slots take one of seven strata of log y each
                u = rng.random() if extended else (slot + rng.random()) / 7
                x, y = rng.uniform(-2.0, 2.0), math.exp(lo + u * (hi - lo))
                batch.append((extended, x, y, rng.random(), rng.random(), rng.uniform(0.0, 3.0)))
            yield batch

    @staticmethod
    def run(lt, batch):
        return [Points._bundle(lt, *inp) for inp in batch]

    @staticmethod
    def _bundle(lt, extended, x, y, a, b, rho):
        z = lt.HalfPlanePoint(x, y)
        if extended:
            trunc = lt.SeriesTruncation(tail_tol=EXTENDED_TAIL_TOL)
            with saved_dps() as mp:
                mp.dps = EXTENDED_DPS
                return lt.theta2d(1, z, trunc, mp), lt.theta2d_shifted(2, z, trunc, mp)
        d = lt.Displacement(a, b)
        return (
            lt.theta2d(1, z),
            lt.w_eval(lt.FunctionalKind.W1, rho, z),
            lt.w_eval(lt.FunctionalKind.W2, rho, z),
            lt.j_eval(z, d),
            lt.j_eval(z, d, 1, 0),
            lt.j_eval(z, d, 0, 1),
        )

    @staticmethod
    def check(batch, outs):
        for (extended, x, y, a, b, rho), out in zip(batch, outs):
            if extended:
                want = (ref.thetas(x, y)[0], ref.thetas((x + 1) / 2, y / 2)[1])
                names, tol = ("theta2d", "theta2d_shifted"), TOL_EXTENDED
            else:
                s = ref.sums(x, y, a, b)
                want = (s.theta1, *ref.w_values(rho, x, y), s.j, s.j_a, s.j_b)
                names, tol = ("theta2d", "W1", "W2", "J", "J_a", "J_b"), TOL
            for name, got, expected in zip(names, out, want):
                if not _close(float(got), expected, tol):
                    return f"{name}({x!r}, {y!r}) = {got} vs plain sum {expected!r}"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Census, Oracle, Points)}
