"""Batch verification front end.

Runs per-geometry check suites and emits machine-readable reports.  Each
check row is {id, paper_anchor, computed, expected, tol, pass}; reports are
deterministic byte-for-byte for a fixed configuration and seed.

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error,
3 infeasible reconstruction request, 4 reconstruction did not converge.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import circle, core, finite, halfplane, operators, plane, sphere


def _round(x, digits: int = 12):
    """Stable rounding so reports do not wobble in the last bits."""
    if isinstance(x, complex):
        return [round(x.real, digits), round(x.imag, digits)]
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_round(v, digits) for v in np.asarray(x).tolist()]
    if isinstance(x, (float, np.floating)):
        return round(float(x), digits)
    return x


def _passes(computed, expected, tol: float | None) -> bool:
    if tol is None:
        return True
    return bool(np.max(np.abs(np.asarray(computed, dtype=complex)
                              - np.asarray(expected, dtype=complex))) <= tol)


def check(cid: str, anchor: str, computed, expected, tol: float | None):
    """One report row; its values are rounded when the report is rendered."""
    return {"id": cid, "paper_anchor": anchor, "computed": computed,
            "expected": expected, "tol": tol,
            "pass": _passes(computed, expected, tol)}


# ---------------------------------------------------------------------------
# Suites.


def suite_circle(args) -> tuple[dict, list[dict]]:
    r, phi, n = args.r, 0.0, max(args.grid, 8)
    checks = []
    fam = circle.circle_family(r, phi, n=n)
    rep = core.check_resolution(fam)
    checks.append(check("circle-resolution", "margomegamain", rep.defect,
                        0.0, 1e-13))
    eig = np.sort(np.linalg.eigvalsh(circle.angle_operator(r, phi)))
    checks.append(check("angle-eigenvalues", "qtfrhor", list(eig),
                        [math.pi - r / 2.0, math.pi + r / 2.0], 1e-10))
    rng = np.random.default_rng(args.seed)
    worst_prod = worst_comm = 0.0
    for _ in range(20):
        p1 = circle.CircleDensityParams(rng.uniform(0, 1), rng.uniform(0, math.pi))
        p2 = circle.CircleDensityParams(rng.uniform(0, 1), rng.uniform(0, math.pi))
        m1 = circle.rho_circle(p1.r, p1.phi)
        m2 = circle.rho_circle(p2.r, p2.phi)
        prod, comm, _anti = circle.product_and_algebra(p1, p2)
        worst_prod = max(worst_prod, float(np.max(np.abs(m1 @ m2 - prod))))
        worst_comm = max(worst_comm, float(np.max(np.abs(
            m1 @ m2 - m2 @ m1 - comm))))
    checks.append(check("product-formula", "multrho", worst_prod, 0.0, 1e-13))
    checks.append(check("commutator-closed-form", "algrho", worst_comm,
                        0.0, 1e-13))
    theta0, theta = 0.3, 1.1
    checks.append(check("probability-kernel", "probdistcirc",
                        core.prob_kernel(fam, theta0, theta),
                        circle.circle_prob(r, theta0, theta), 1e-14))
    checks.append(check(
        "hs-distance", "distHSS1",
        operators.hs_distance(circle.rho_circle(r, phi, theta0),
                              circle.rho_circle(r, phi, theta)),
        circle.circle_hs_distance(r, theta0, theta), 1e-13))
    if r > 0:
        checks.append(check(
            "pseudo-distance", "psdistS1",
            operators.pseudo_distance(circle.rho_circle(r, phi, theta0),
                                      circle.rho_circle(r, phi, theta)),
            circle.circle_pseudo_distance(r, theta0, theta), 1e-12))
    return {"r": r, "grid": n, "seed": args.seed}, checks


def suite_sphere(args) -> tuple[dict, list[dict]]:
    r, n = args.r, max(args.grid, 8)
    checks = []
    fam = sphere.sphere_family(r, n_theta=n, n_phi=n)
    rep = core.check_resolution(fam)
    checks.append(check("sphere-resolution", "S2resun", rep.defect, 0.0, 1e-12))
    aq = sphere.quantize_azimuth(r)
    checks.append(check("quantized-q", "qtfrhorS2",
                        float(np.max(np.abs(aq - sphere.aq_matrix(r)))),
                        0.0, 1e-10))
    ap = core.quantize(fam, lambda nd: nd[0])
    checks.append(check("quantized-p", "ptfrhorS2",
                        float(np.max(np.abs(ap - sphere.ap_matrix(r)))),
                        0.0, 1e-10))
    comm = (sphere.aq_matrix(r) @ sphere.ap_matrix(r)
            - sphere.ap_matrix(r) @ sphere.aq_matrix(r))
    expect = 1.0j * math.pi * r * r / 6.0 * sphere.SIGMA[0]
    checks.append(check("commutator-qp", "crqpS2",
                        float(np.max(np.abs(comm - expect))), 0.0, 1e-10))
    theta, phi = 1.1, 0.7
    low = core.lower_symbol(
        fam, sphere.aq_matrix(r), (math.cos(theta), phi)).real
    checks.append(check("lower-symbol-q", "lowsqS2", low,
                        math.pi - math.pi * r * r / 4.0
                        * math.sin(theta) * math.sin(phi), 1e-10))
    d0 = sphere.direction(0.4, 0.2)
    d1 = sphere.direction(1.3, 2.5)
    checks.append(check("probability-kernel", "probdisph",
                        float(np.trace(sphere.rho_sphere(r, 0.4, 0.2)
                                       @ sphere.rho_sphere(r, 1.3, 2.5)).real),
                        sphere.sphere_prob(r, d0, d1), 1e-13))
    checks.append(check("hs-distance", "distHSS2",
                        operators.hs_distance(sphere.rho_sphere(r, 0.4, 0.2),
                                              sphere.rho_sphere(r, 1.3, 2.5)),
                        sphere.sphere_hs_distance(r, d0, d1), 1e-13))
    if r > 0:
        checks.append(check("pseudo-distance", "psdistS2",
                            operators.pseudo_distance(
                                sphere.rho_sphere(r, 0.4, 0.2),
                                sphere.rho_sphere(r, 1.3, 2.5)),
                            sphere.sphere_pseudo_distance(r, d0, d1), 1e-12))
    return {"r": r, "grid": n}, checks


def suite_plane(args) -> tuple[dict, list[dict]]:
    t, dim = args.t, args.dim
    params = plane.ThermalParams(t, dim)
    checks = []
    pur = float(np.trace(np.linalg.matrix_power(
        plane.displaced_thermal(0.8 + 0.3j, params), 2)).real)
    checks.append(check("purity", "pz0z0", pur, plane.purity_closed(t), 1e-9))
    x = 1.3
    checks.append(check("bessel-identity", "1termsum",
                        plane.laguerre_square_sum(t, x),
                        plane.laguerre_square_closed(t, x), 1e-10))
    fam = plane.plane_family(params)
    # z = (q + ip)/sqrt(2), so q = sqrt(2J) cos gamma, p = sqrt(2J) sin gamma
    aq = core.quantize(fam, lambda nd: math.sqrt(2.0 * nd[0]) * math.cos(nd[1]))
    ap = core.quantize(fam, lambda nd: math.sqrt(2.0 * nd[0]) * math.sin(nd[1]))
    blk = dim // 2
    comm = (aq @ ap - ap @ aq)[:blk, :blk]
    checks.append(check("ccr-block", "comqp",
                        float(np.max(np.abs(comm - 1.0j * np.eye(blk)))),
                        0.0, 1e-8))
    # q^2 = 2 J cos^2(gamma) in action-angle coordinates
    aq2 = core.quantize(fam, lambda nd: 2.0 * nd[0] * math.cos(nd[1]) ** 2)
    q2 = np.linalg.matrix_power(plane.q_matrix(dim), 2)
    shift = plane.quadratic_shift(params)
    checks.append(check(
        "quadratic-q2", "quadraq",
        float(np.max(np.abs((aq2 - q2 - shift * np.eye(dim))[:blk, :blk]))),
        0.0, 1e-5))
    checks.append(check("energy-gap", "quantosc2", plane.energy_gap(), 0.5, 0.0))
    rep = core.check_resolution(fam, block=blk)
    checks.append(check("resolution-block", "residrhoTz", rep.defect, 0.0, 1e-6))
    pp = plane.ThermalParams(t, min(dim, 32))
    ph = plane.phase_operator(pp)
    half = pp.dim // 2
    checks.append(check("phase-diagonal", "scsphaseop",
                        float(np.max(np.abs(np.diag(ph)[:half].real - math.pi))),
                        0.0, 1e-6))
    checks.append(check("phase-hermitian", "scsphaseop",
                        float(np.max(np.abs(ph - ph.conj().T))), 0.0, 1e-10))
    checks.append(check("phase-covariance", "covquantaa",
                        plane.phase_covariance_defect(pp, 0.9), 0.0, 1e-6))
    pa = plane.phase_operator_printed(pp)
    guard = np.zeros_like(pa, dtype=bool)
    guard[1:, 1:] = True
    np.fill_diagonal(guard, False)
    finite_mask = guard & np.isfinite(pa)
    diff = float(np.max(np.abs((pa - ph)[finite_mask])))
    checks.append(check("phase-route-comparison", "Fmm'",
                        {"max_abs_route_difference_guarded": _round(diff),
                         "note": "printed-matrix route deviates; the "
                                 "quadrature route is normative"},
                        None, None))
    cov = plane.covariance_defects(params)
    for name, anchor in [("translation", "covtrans"), ("rotation", "rotcovAf"),
                         ("parity", "parcov"), ("conjugation", "conjcov")]:
        checks.append(check(f"covariance-{name}", anchor, cov[name], 0.0, 1e-5))
    return {"t": t, "dim": dim}, checks


def suite_halfplane(args) -> tuple[dict, list[dict]]:
    alpha, t = args.alpha, args.t
    # fixed truncation: large enough that the thermal tail t^dim sits below
    # every tolerance here, small enough to keep the group quadrature cheap
    dim = 16
    checks = []
    checks.append(check("basis-gram", "LagOB",
                        halfplane.gram_defect(alpha, dim), 0.0, 1e-10))
    checks.append(check("inverse-moment", "croexpl",
                        halfplane.inverse_moment(0, alpha), 1.0 / alpha, 1e-12))
    params = halfplane.AffineParams(alpha, t, dim)
    grid = max(args.grid, 64)
    rule = halfplane.affine_group_rule(n_u=grid, n_v=grid)
    c_quad = halfplane.c_rho_quadrature(params, rule)
    checks.append(check(
        "admissibility-constant", "croexpl",
        {"quadrature": _round(c_quad),
         "derived_2pi_over_alpha": _round(halfplane.c_rho_derived(alpha)),
         "printed_2pi_1mt_over_alpha": _round(
             halfplane.c_rho_printed(alpha, t))},
        {"quadrature": _round(halfplane.c_rho_derived(alpha))}, None))
    checks.append(check("admissibility-derived", "croexpl", c_quad,
                        halfplane.c_rho_derived(alpha), 1e-8))
    if t > 0:
        checks.append(check("kernel-trace", "intkerLag",
                            halfplane.kernel_trace(params), 1.0, 1e-9))
        ratios = [halfplane.kernel_eigen_ratio(n_, params, 2.1)
                  for n_ in range(3)]
        checks.append(check("kernel-eigenvalues", "intkerLag", ratios,
                            [(1.0 - t) * t ** n_ for n_ in range(3)], 1e-8))
    block = halfplane.affine_resolution_check(params, block=3, rule=rule,
                                              c_rho=c_quad)
    checks.append(check("resolution-block", "residrhoTqpF",
                        float(np.max(np.abs(block - np.eye(3)))), 0.0, 1e-3))
    return {"t": t, "alpha": alpha, "dim": dim, "grid": grid}, checks


def suite_core(args) -> tuple[dict, list[dict]]:
    rng = np.random.default_rng(args.seed)
    r = 0.6
    fam = circle.circle_family(r, 0.0, n=16)
    checks = []
    one = core.quantize(fam, lambda th: 1.0)
    checks.append(check("quantize-identity", "povmquantf",
                        float(np.max(np.abs(one - np.eye(2)))), 0.0, 1e-13))
    worst = 0.0
    for _ in range(10):
        a1, b1 = rng.standard_normal(2)
        f = lambda th: math.cos(2 * th)
        g = lambda th: math.sin(2 * th) + 0.5
        lhs = core.quantize(fam, lambda th: a1 * f(th) + b1 * g(th))
        rhs = a1 * core.quantize(fam, f) + b1 * core.quantize(fam, g)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(check("quantize-linearity", "povmquantf", worst, 0.0, 1e-12))
    worst = 0.0
    for th0 in fam.rule.nodes:
        vals = np.array([core.prob_kernel(fam, th0, th) for th in fam.rule.nodes])
        worst = max(worst, abs(float(fam.rule.integrate(vals)) - 1.0))
    checks.append(check("kernel-row-normalization", "probdist", worst,
                        0.0, 1e-12))
    f = lambda th: math.cos(2 * th)
    af = core.quantize(fam, f)
    sup = max(abs(core.lower_symbol(fam, af, th).real)
              for th in np.linspace(0, 2 * math.pi, 50))
    checks.append(check("lower-symbol-contraction", "lowsymbmap",
                        max(sup - 1.0, 0.0), 0.0, 1e-12))
    rho_m = operators.mix(operators.MixtureSpec(
        np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]])))
    lhs = core.measurement_expectation(rho_m, fam, f)
    vals = np.array([f(th) * float(np.trace(rho_m @ fam.evaluate(th)).real)
                     for th in fam.rule.nodes])
    rhs = float(fam.rule.integrate(vals))
    checks.append(check("measurement-two-route", "measexpect",
                        abs(lhs.real - rhs), 0.0, 1e-12))
    half = core.povm_region(fam, lambda th: th < math.pi)
    other = core.povm_region(fam, lambda th: th >= math.pi)
    checks.append(check("povm-complementarity", "povmap",
                        float(np.max(np.abs(half + other - one))), 0.0, 1e-13))
    return {"seed": args.seed}, checks


def suite_finite(args) -> tuple[dict, list[dict]]:
    checks = []
    fb = finite.feasibility_bounds(2)
    checks.append(check("feasibility-full-rank", "allowr",
                        fb.n_max, 6, 0.0))
    fb1 = finite.feasibility_bounds(2, rank_one=True)
    checks.append(check("feasibility-rank-one-roots", "condNncs",
                        [0.5 * (7 - math.sqrt(25)), fb1.n_max],
                        [1.0, 6.0], 1e-12))
    third = 2.0 * math.pi / 3.0
    mb = np.array([[1.0, 0.0],
                   [math.cos(third), math.sin(third)],
                   [math.cos(2 * third), math.sin(2 * third)]])
    checks.append(check("parseval-mercedes", "finresNn1",
                        finite.parseval_check(mb, [2 / 3] * 3), 0.0, 1e-14))
    rng = np.random.default_rng(args.seed)
    rhos, measure = _random_resolving_family(rng, n=2, size=4)
    table = finite.gram_probabilities(rhos, measure)
    result = finite.reconstruct(table, seed=args.seed)
    checks.append(check("round-trip-residual", "relprho", result.residual,
                        0.0, 1e-6))
    rec_table = finite.gram_probabilities(result.rhos, measure, tol=1e-6)
    checks.append(check("round-trip-table", "relprho",
                        float(np.max(np.abs(rec_table.p - table.p))),
                        0.0, 1e-6))
    return {"seed": args.seed}, checks


def _random_resolving_family(rng, n: int, size: int):
    """Random density family with sum nu_i rho_i = I, nu_i = n/size."""
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


# ---------------------------------------------------------------------------
# Report output and entry point.


def render(report: dict, fmt: str) -> str:
    report = {**report, "checks": [
        {**chk, "computed": _round(chk["computed"]),
         "expected": _round(chk["expected"])} for chk in report["checks"]]}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmint",
        description="verification suites for POVM integral quantization")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a geometry's check suite")
    ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    ver.add_argument("--r", type=float, default=0.8,
                     help="disk/ball radius parameter (circle, sphere)")
    ver.add_argument("--t", type=float, default=0.2,
                     help="Boltzmann factor (plane, halfplane)")
    ver.add_argument("--alpha", type=float, default=2.0,
                     help="Laguerre basis parameter (halfplane)")
    ver.add_argument("--dim", type=int, default=48,
                     help="Fock/basis truncation")
    ver.add_argument("--grid", type=int, default=48, help="quadrature nodes")
    ver.add_argument("--tol", type=float, default=None,
                     help="override tolerance for all checks")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None, help="report path (default stdout)")
    ver.add_argument("--format", choices=["json", "csv"], default="json")

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


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    code = 0
    for name in names:
        try:
            params, checks = SUITES[name](args)
        except (ValueError, OverflowError) as exc:
            sys.stderr.write(f"configuration error in suite {name}: {exc}\n")
            return 2
        if args.tol is not None:
            checks = [chk if chk["tol"] is None else
                      {**chk, "tol": args.tol,
                       "pass": _passes(chk["computed"], chk["expected"], args.tol)}
                      for chk in checks]
        report = {"suite": name, "params": params, "checks": checks}
        path = args.out
        if path and len(names) > 1:
            stem, dot, ext = path.rpartition(".")
            path = f"{stem}-{name}{dot}{ext}" if dot else f"{path}-{name}"
        _emit(render(report, args.format), path)
        if not all(chk["pass"] for chk in checks):
            code = 1
    return code


def run_reconstruct(args) -> int:
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
        "checks": [
            check("feasibility", "allowr", table.measure.count,
                  {"min": fb.n_min, "max": _round(fb.n_max)}, None),
            check("residual", "relprho", result.residual, 0.0, args.tol),
            check("resolution-defect", "finresNn", result.resolution,
                  0.0, 100 * args.tol),
        ],
        "solution": [[_round(v, 10) for v in np.asarray(r).ravel().tolist()]
                     for r in result.rhos],
    }
    _emit(render(report, args.format), args.out)
    return 0 if result.converged else 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return run_verify(args)
    return run_reconstruct(args)


if __name__ == "__main__":
    sys.exit(main())
