"""Batch verification front end.

Runs per-geometry check suites and emits machine-readable reports.  A suite
returns the values it derives from its flags, and its rows as data, {id,
paper_anchor, computed, expected, tol}.  ``run_verify`` alone writes a
report's ``params``, ``_judge`` alone gives a row its ``pass`` (and its
``--tol`` override) and ``render`` alone rounds values.  Reports are
deterministic byte-for-byte for a fixed configuration and seed.
Geometry modules load on first use: each suite imports its own, and
``cli.plane`` (or any other geometry attribute) imports that module.

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error,
3 infeasible reconstruction request, 4 reconstruction did not converge.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import inspect
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, operators


def __getattr__(name: str):
    """``cli.<geometry>`` imports that geometry module on first access."""
    if name in ("circle", "finite", "halfplane", "plane", "sphere"):
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _round(x, digits: int = 12):
    """Stable rounding so reports do not wobble in the last bits."""
    if isinstance(x, dict):
        return {key: _round(val, digits) for key, val in x.items()}
    if isinstance(x, complex):
        return [round(x.real, digits), round(x.imag, digits)]
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_round(v, digits) for v in np.asarray(x).tolist()]
    if isinstance(x, (float, np.floating)):
        return round(float(x), digits)
    return x


def check(cid: str, anchor: str, computed, expected, tol: float | None):
    """One report row as data: no ``pass`` (``_judge`` adds it) and unrounded
    values (``render`` rounds them).  ``tol=None`` marks an informational row."""
    return {"id": cid, "paper_anchor": anchor, "computed": computed,
            "expected": expected, "tol": tol}


def _judge(rows: list[dict], tol: float | None = None) -> list[dict]:
    """Rows with their ``pass``: max |computed - expected| <= tol.  A given
    ``tol`` replaces every row tolerance except None, which always passes."""
    judged = []
    for row in rows:
        t = row["tol"] if tol is None or row["tol"] is None else tol
        ok = t is None or operators.max_defect(row["computed"], row["expected"]) <= t
        judged.append({**row, "tol": t, "pass": ok})
    return judged


# ---------------------------------------------------------------------------
# Suites take the verify flags they read as keywords and return (derived, rows).


def suite_circle(r, grid, seed) -> tuple[dict, list[dict]]:
    from . import circle
    phi, n = 0.0, max(grid, 8)
    fam = circle.circle_family(r, phi, n=n)
    checks = [check("circle-resolution", "margomegamain",
                    core.check_resolution(fam).defect, 0.0, 1e-13)]
    eig = np.sort(np.linalg.eigvalsh(circle.angle_operator(r, phi)))
    checks.append(check("angle-eigenvalues", "qtfrhor", list(eig),
                        [math.pi - r / 2.0, math.pi + r / 2.0], 1e-10))
    # 20 random pairs, drawn r1, phi1, r2, phi2 per pair, checked as arrays
    rng = np.random.default_rng(seed)
    r1, phi1, r2, phi2 = rng.uniform(0.0, (1.0, math.pi, 1.0, math.pi), (20, 4)).T
    p1, p2 = circle.CircleDensityParams(r1, phi1), circle.CircleDensityParams(r2, phi2)
    m1, m2 = circle.rho_circle(p1.r, p1.phi), circle.rho_circle(p2.r, p2.phi)
    prod, comm, _anti = circle.product_and_algebra(p1, p2)
    checks.append(check("product-formula", "multrho",
                        operators.max_defect(m1 @ m2, prod), 0.0, 1e-13))
    checks.append(check("commutator-closed-form", "algrho",
                        operators.max_defect(m1 @ m2 - m2 @ m1, comm), 0.0, 1e-13))
    theta0, theta = 0.3, 1.1
    checks.append(check("probability-kernel", "probdistcirc",
                        core.prob_kernel(fam, theta0, theta),
                        circle.circle_prob(r, theta0, theta), 1e-14))
    rho0, rho1 = circle.rho_circle(r, phi, np.array([theta0, theta]))
    checks.append(check("hs-distance", "distHSS1", operators.hs_distance(rho0, rho1),
                        circle.circle_hs_distance(r, theta0, theta), 1e-13))
    if r > 0:
        checks.append(check("pseudo-distance", "psdistS1",
                            operators.pseudo_distance(rho0, rho1),
                            circle.circle_pseudo_distance(r, theta0, theta), 1e-12))
    return {"grid": n}, checks


def suite_sphere(r, grid) -> tuple[dict, list[dict]]:
    from . import sphere
    n = max(grid, 8)
    fam = sphere.sphere_family(r, n_theta=n, n_phi=n)
    checks = [check("sphere-resolution", "S2resun", core.check_resolution(fam).defect,
                    0.0, 1e-12)]
    aq = sphere.quantize_azimuth(r)
    checks.append(check("quantized-q", "qtfrhorS2",
                        operators.max_defect(aq, sphere.aq_matrix(r)), 0.0, 1e-10))
    ap = core.quantize_values(fam, fam.rule.nodes[:, 0])
    checks.append(check("quantized-p", "ptfrhorS2",
                        operators.max_defect(ap, sphere.ap_matrix(r)), 0.0, 1e-10))
    comm = (sphere.aq_matrix(r) @ sphere.ap_matrix(r)
            - sphere.ap_matrix(r) @ sphere.aq_matrix(r))
    expect = 1.0j * math.pi * r * r / 6.0 * sphere.SIGMA[0]
    checks.append(check("commutator-qp", "crqpS2",
                        operators.max_defect(comm, expect), 0.0, 1e-10))
    theta, phi = 1.1, 0.7
    low = core.lower_symbol(fam, sphere.aq_matrix(r), (math.cos(theta), phi)).real
    checks.append(check("lower-symbol-q", "lowsqS2", low,
                        math.pi - math.pi * r * r / 4.0
                        * math.sin(theta) * math.sin(phi), 1e-10))
    thetas, phis = np.array([0.4, 1.3]), np.array([0.2, 2.5])
    d0, d1 = sphere.direction(thetas, phis)
    rho0, rho1 = sphere.rho_sphere(r, thetas, phis)
    checks.append(check("probability-kernel", "probdisph",
                        float(np.trace(rho0 @ rho1).real),
                        sphere.sphere_prob(r, d0, d1), 1e-13))
    checks.append(check("hs-distance", "distHSS2", operators.hs_distance(rho0, rho1),
                        sphere.sphere_hs_distance(r, d0, d1), 1e-13))
    if r > 0:
        checks.append(check("pseudo-distance", "psdistS2",
                            operators.pseudo_distance(rho0, rho1),
                            sphere.sphere_pseudo_distance(r, d0, d1), 1e-12))
    return {"grid": n}, checks


def suite_plane(t, dim) -> tuple[dict, list[dict]]:
    from . import plane
    params = plane.ThermalParams(t, dim)
    pur = operators.purity(plane.displaced_thermal(0.8 + 0.3j, params))
    checks = [check("purity", "pz0z0", pur, plane.purity_closed(t), 1e-9)]
    x = 1.3
    checks.append(check("bessel-identity", "1termsum",
                        plane.laguerre_square_sum(t, x),
                        plane.laguerre_square_closed(t, x), 1e-10))
    fam = plane.plane_family(params)
    # z = (q + ip)/sqrt(2), so q = sqrt(2J) cos gamma, p = sqrt(2J) sin gamma
    j, gamma = fam.rule.nodes.T
    aq = core.quantize_values(fam, np.sqrt(2.0 * j) * np.cos(gamma))
    ap = core.quantize_values(fam, np.sqrt(2.0 * j) * np.sin(gamma))
    blk = dim // 2
    comm = (aq @ ap - ap @ aq)[:blk, :blk]
    checks.append(check("ccr-block", "comqp",
                        operators.max_defect(comm, 1.0j * np.eye(blk)), 0.0, 1e-8))
    # q^2 = 2 J cos^2(gamma) in action-angle coordinates
    aq2 = core.quantize_values(fam, 2.0 * j * np.cos(gamma) ** 2)
    q2 = np.linalg.matrix_power(plane.q_matrix(dim), 2)
    shift = plane.quadratic_shift(params)
    checks.append(check("quadratic-q2", "quadraq", operators.max_defect(
        (aq2 - q2 - shift * np.eye(dim))[:blk, :blk]), 0.0, 1e-5))
    checks.append(check("energy-gap", "quantosc2", plane.energy_gap(), 0.5, 0.0))
    rep = core.check_resolution(fam, block=blk)
    checks.append(check("resolution-block", "residrhoTz", rep.defect, 0.0, 1e-6))
    pp = plane.ThermalParams(t, min(dim, 32))
    ph = plane.phase_operator(pp)
    half = pp.dim // 2
    checks.append(check("phase-diagonal", "scsphaseop",
                        operators.max_defect(np.diag(ph)[:half].real, math.pi),
                        0.0, 1e-6))
    checks.append(check("phase-hermitian", "scsphaseop",
                        operators.max_defect(ph, ph.conj().T), 0.0, 1e-10))
    checks.append(check("phase-covariance", "covquantaa",
                        plane.phase_covariance_defect(ph, 0.9), 0.0, 1e-6))
    pa = plane.phase_operator_printed(pp)
    guard = ~np.eye(len(pa), dtype=bool)  # off the diagonal, row 0 and column 0
    guard[0] = guard[:, 0] = False
    diff = operators.max_defect((pa - ph)[guard & np.isfinite(pa)])
    checks.append(check("phase-route-comparison", "Fmm'",
                        {"max_abs_route_difference_guarded": diff,
                         "note": "printed-matrix route deviates; the "
                                 "quadrature route is normative"}, None, None))
    cov = plane.covariance_defects(params, fam=fam)
    for name, anchor in [("translation", "covtrans"), ("rotation", "rotcovAf"),
                         ("parity", "parcov"), ("conjugation", "conjcov")]:
        checks.append(check(f"covariance-{name}", anchor, cov[name], 0.0, 1e-5))
    return {}, checks


def suite_halfplane(alpha, t, grid) -> tuple[dict, list[dict]]:
    from . import halfplane
    # fixed truncation: large enough that the thermal tail t^dim sits below
    # every tolerance here, small enough to keep the group quadrature cheap
    dim = 16
    params = halfplane.AffineParams(alpha, t, dim)
    checks = [check("basis-gram", "LagOB", halfplane.gram_defect(alpha, dim), 0.0, 1e-10),
              check("inverse-moment", "croexpl",
                    halfplane.inverse_moment(0, alpha), 1.0 / alpha, 1e-12)]
    grid = max(grid, 64)
    c_quad, block = halfplane.affine_resolution_check(
        params, block=3, rule=halfplane.affine_group_rule(grid))
    checks.append(check(
        "admissibility-constant", "croexpl",
        {"quadrature": c_quad,
         "derived_2pi_over_alpha": halfplane.c_rho_derived(alpha),
         "printed_2pi_1mt_over_alpha": halfplane.c_rho_printed(alpha, t)},
        {"quadrature": halfplane.c_rho_derived(alpha)}, None))
    checks.append(check("admissibility-derived", "croexpl", c_quad,
                        halfplane.c_rho_derived(alpha), 1e-8))
    if t > 0:
        checks.append(check("kernel-trace", "intkerLag",
                            halfplane.kernel_trace(params), 1.0, 1e-9))
        ratios = [halfplane.kernel_eigen_ratio(n_, params, 2.1) for n_ in range(3)]
        checks.append(check("kernel-eigenvalues", "intkerLag", ratios,
                            [(1.0 - t) * t ** n_ for n_ in range(3)], 1e-8))
    checks.append(check("resolution-block", "residrhoTqpF",
                        operators.max_defect(block, np.eye(3)), 0.0, 1e-3))
    return {"dim": dim, "grid": grid}, checks


def suite_core(seed) -> tuple[dict, list[dict]]:
    from . import circle
    rng = np.random.default_rng(seed)
    r = 0.6
    fam = circle.circle_family(r, 0.0, n=16)
    one = core.quantize_values(fam, np.ones(fam.rule.size))
    checks = [check("quantize-identity", "povmquantf",
                    operators.max_defect(one, np.eye(2)), 0.0, 1e-13)]
    f = lambda th: np.cos(2 * th)
    fv, gv = f(fam.rule.nodes), np.sin(2 * fam.rule.nodes) + 0.5
    af, ag = core.quantize_values(fam, fv), core.quantize_values(fam, gv)
    worst = 0.0
    for _ in range(10):
        a1, b1 = rng.standard_normal(2)
        lhs = core.quantize_values(fam, a1 * fv + b1 * gv)
        worst = max(worst, operators.max_defect(lhs, a1 * af + b1 * ag))
    checks.append(check("quantize-linearity", "povmquantf", worst, 0.0, 1e-12))
    mats = fam.evaluate(fam.rule.nodes)
    kernel = np.einsum("aij,bji->ab", mats, mats).real  # tr(rho(x_a) rho(x_b))
    row_defect = operators.max_defect(kernel @ fam.rule.weights, 1.0)
    checks.append(check("kernel-row-normalization", "probdist", row_defect, 0.0, 1e-12))
    lows = core.lower_symbol(fam, af, np.linspace(0, 2 * math.pi, 50))
    sup = operators.max_defect(lows.real)
    checks.append(check("lower-symbol-contraction", "lowsymbmap",
                        max(sup - 1.0, 0.0), 0.0, 1e-12))
    rho_m = operators.mix(operators.MixtureSpec(
        np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]])))
    lhs = core.measurement_expectation(rho_m, fam, f)
    probs = np.einsum("ij,kji->k", rho_m, mats).real
    rhs = float(fam.rule.integrate(fv * probs))
    checks.append(check("measurement-two-route", "measexpect",
                        abs(lhs.real - rhs), 0.0, 1e-12))
    half = core.povm_region(fam, lambda th: th < math.pi)
    other = core.povm_region(fam, lambda th: th >= math.pi)
    checks.append(check("povm-complementarity", "povmap",
                        operators.max_defect(half + other, one), 0.0, 1e-13))
    return {}, checks


def suite_finite(seed) -> tuple[dict, list[dict]]:
    from . import finite
    checks = [check("feasibility-full-rank", "allowr",
                    finite.feasibility_bounds(2).n_max, 6, 0.0)]
    fb1 = finite.feasibility_bounds(2, rank_one=True)
    checks.append(check("feasibility-rank-one-roots", "condNncs",
                        [0.5 * (7 - math.sqrt(25)), fb1.n_max], [1.0, 6.0], 1e-12))
    third = 2.0 * math.pi / 3.0
    mb = np.array([[1.0, 0.0],
                   [math.cos(third), math.sin(third)],
                   [math.cos(2 * third), math.sin(2 * third)]])
    checks.append(check("parseval-mercedes", "finresNn1",
                        finite.parseval_check(mb, [2 / 3] * 3), 0.0, 1e-14))
    rng = np.random.default_rng(seed)
    rhos, measure = _random_resolving_family(rng, n=2, size=4)
    table = finite.gram_probabilities(rhos, measure)
    result = finite.reconstruct(table, seed=seed)
    checks.append(check("round-trip-residual", "relprho", result.residual, 0.0, 1e-6))
    rec_table = finite.gram_probabilities(result.rhos, measure, tol=1e-6)
    checks.append(check("round-trip-table", "relprho",
                        operators.max_defect(rec_table.p, table.p), 0.0, 1e-6))
    return {}, checks


def _random_resolving_family(rng, n: int, size: int):
    """Random density family with sum nu_i rho_i = I, nu_i = n/size."""
    from . import finite
    nu = np.full(size, n / size)
    while True:
        raw = []
        for _ in range(size - 1):
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = b @ b.conj().T
            raw.append(m / np.trace(m).real)
        last = (np.eye(n) - sum(nu[:-1, None, None] * np.array(raw))) / nu[-1]
        vals = np.linalg.eigvalsh(last)
        if vals[0] > 1e-3 and abs(np.trace(last).real - 1.0) < 1e-9:
            return raw + [last], finite.FiniteMeasure(nu)


SUITES = {
    "circle": suite_circle,
    "sphere": suite_sphere,
    "plane": suite_plane,
    "halfplane": suite_halfplane,
    "core": suite_core,
    "finite": suite_finite,
}


# verify's flags in --help order, as add_argument keywords.  Each parses to
# None, so that a given flag can be told from one left at its default.  The run
# flags belong to the run and every suite accepts them.
FLAGS = {
    "r": dict(type=float, default=0.8, help="disk/ball radius parameter (circle, sphere)"),
    "t": dict(type=float, default=0.2, help="Boltzmann factor (plane, halfplane)"),
    "alpha": dict(type=float, default=2.0, help="Laguerre basis parameter (halfplane)"),
    "dim": dict(type=int, default=48, help="Fock/basis truncation"),
    "grid": dict(type=int, default=48, help="quadrature nodes"),
    "tol": dict(type=float, default=None, help="override tolerance for all checks"),
    "seed": dict(type=int, default=0),
    "out": dict(default=None, help="report path (default stdout)"),
    "format": dict(choices=["json", "csv"], default="json"),
}
RUN_FLAGS = ("tol", "seed", "out", "format")


# ---------------------------------------------------------------------------
# Report output and entry point.


def render(report: dict, fmt: str) -> str:
    """The report as JSON or CSV text; the one place its values are rounded."""
    report = {**report, "checks": [
        {**chk, "computed": _round(chk["computed"]),
         "expected": _round(chk["expected"])} for chk in report["checks"]]}
    if "solution" in report:
        report["solution"] = _round(report["solution"], 10)
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "id", "paper_anchor", "computed", "expected",
                     "tol", "pass"])
    for chk in report["checks"]:
        writer.writerow([
            report["suite"], chk["id"], chk["paper_anchor"],
            json.dumps(chk["computed"]), json.dumps(chk["expected"]),
            chk["tol"], chk["pass"],
        ])
    return buf.getvalue()


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with only ``command``'s sub-parser if given (its usage still names both)."""
    parser = argparse.ArgumentParser(
        prog="povmint",
        description="verification suites for POVM integral quantization")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{verify,reconstruct}")

    if command in (None, "verify"):
        ver = sub.add_parser("verify", help="run a geometry's check suite")
        ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
        for flag, spec in FLAGS.items():
            ver.add_argument(f"--{flag}", **{**spec, "default": None})

    if command in (None, "reconstruct"):
        rec = sub.add_parser("reconstruct",
                             help="reconstruct densities from a probability table")
        rec.add_argument("table", help="ProbTable JSON file")
        rec.add_argument("--rank-one", action="store_true")
        rec.add_argument("--seed", type=int, default=0)
        rec.add_argument("--restarts", type=int, default=8)
        rec.add_argument("--tol", type=float, default=1e-8)
        rec.add_argument("--out", default=None)
        rec.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _emit(text: str, out: str | Path | None) -> bool:
    """Write a report to ``out``, or stdout; False after one error line if that fails."""
    try:
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        sys.stderr.write(f"configuration error: cannot write the report: {exc}\n")
        return False
    return True


def run_verify(args) -> int:
    """Run the chosen suites, each called with the flags its signature names."""
    opts = {flag: spec["default"] if getattr(args, flag) is None else getattr(args, flag)
            for flag, spec in FLAGS.items()}
    if opts["tol"] is not None and not 0.0 <= opts["tol"] < math.inf:
        sys.stderr.write(f"configuration error: --tol must lie in [0, inf), "
                         f"got {opts['tol']}\n")
        return 2
    if opts["seed"] < 0:
        sys.stderr.write(f"configuration error: --seed must be >= 0, got {opts['seed']}\n")
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reads = {name: inspect.signature(SUITES[name]).parameters for name in names}
    unread = [f"--{flag}" for flag in FLAGS if getattr(args, flag) is not None
              and not any(flag in read for read in [RUN_FLAGS, *reads.values()])]
    if unread:
        sys.stderr.write(f"configuration error: verify {args.suite} does not read "
                         f"{', '.join(unread)}\n")
        return 2
    code, reports = 0, []
    for name in names:
        given = {flag: opts[flag] for flag in reads[name]}
        try:
            derived, checks = SUITES[name](**given)
        except (ValueError, OverflowError) as exc:
            sys.stderr.write(f"configuration error in suite {name}: {exc}\n")
            return 2
        used = {**given, **derived}
        params = {key: used[key] for key in [*FLAGS, *used] if key in used}  # FLAGS order first
        report = {"suite": name, "params": params, "checks": _judge(checks, opts["tol"])}
        path = opts["out"]
        if path and len(names) > 1:
            p = Path(path)
            path = p.parent / f"{p.stem}-{name}{p.suffix}"
        reports.append((render(report, opts["format"]), path))
        if not all(chk["pass"] for chk in report["checks"]):
            code = 1
    # written only once every suite has run, so an exit 2 leaves no report
    if not all(_emit(text, path) for text, path in reports):
        return 2
    return code


def run_reconstruct(args) -> int:
    from . import finite
    if args.restarts < 1 or args.seed < 0 or not 0.0 < args.tol < math.inf:
        sys.stderr.write(f"configuration error: --restarts must be >= 1, --seed >= 0 and "
                         f"--tol in (0, inf), got {args.restarts}, {args.seed} and {args.tol}\n")
        return 2
    try:
        with open(args.table) as fh:
            table = finite.ProbTable.from_json(fh.read())
        table.validate()
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"invalid table: {exc}\n")
        return 2
    try:
        result = finite.reconstruct(table, rank_one=args.rank_one,
                                    seed=args.seed, restarts=args.restarts,
                                    tol=args.tol)
    except ValueError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 3
    fb = finite.feasibility_bounds(table.n, args.rank_one)
    report = {
        "suite": "reconstruct",
        "params": {"n": table.n, "N": table.measure.count,
                   "rank_one": args.rank_one, "seed": args.seed,
                   "restarts": args.restarts},
        "checks": _judge([
            check("feasibility", "allowr", table.measure.count,
                  {"min": fb.n_min, "max": fb.n_max}, None),
            check("residual", "relprho", result.residual, 0.0, args.tol),
            check("resolution-defect", "finresNn", result.resolution,
                  0.0, 100 * args.tol),
        ]),
        "solution": [np.asarray(r).ravel() for r in result.rhos],
    }
    if not _emit(render(report, args.format), args.out):
        return 2
    return 0 if result.converged else 4


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in ("verify", "reconstruct") else None
    args = build_parser(command).parse_args(argv)
    if args.command == "verify":
        return run_verify(args)
    return run_reconstruct(args)


if __name__ == "__main__":
    sys.exit(main())
