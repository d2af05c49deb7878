"""Command-line front end.

Subcommands orchestrate jet construction, both coefficient routes, the
identity suites, and the projective-line model checks.  JSON is the machine
format (`--table` renders aligned text); output is deterministic byte for
byte for fixed inputs: keys are sorted and rationals printed canonically.

Exit codes: 0 success, 2 usage error, 3 validation or self-test failure,
4 cross-check mismatch (the routes differ or one is not self-adjoint).
"""

from __future__ import annotations

import argparse
import json
import sys

from .closed_form import b1_formula
from .errors import BergmanError, InvalidJetError, InvalidPotentialError, UsageError
from .exterior import ExteriorAlgebra
from .geometry import (
    GeometryJet,
    fs_product_potential,
    flat_potential,
    jet_from_potential,
    parse_potential,
    random_potential,
)
from .jet_checks import identity_suite, validate_jet
from .models import (
    MAX_SECTIONS_POWER,
    cp1_product_trace,
    cp1_sections_kernel,
    fit_expansion,
    rrh_coefficients,
)
from .oscillator import OscillatorContext, _mode_moment
from .perturbation import b1_engine, b1_from_terms, build_O1, compute_F2_terms, engine_context
from .scalars import ExactScalar, rat
from .series import Series

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_MISMATCH = 4


def _emit(payload: dict, table: bool = False) -> None:
    if table:
        for line in _tabulate(payload):
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))


def _tabulate(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_tabulate(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value, sort_keys=True, default=str)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _read_json(path: str, what: str, error: type[BergmanError]) -> object:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path} is not a JSON {what}: {exc}") from None


def _load_jet(path: str) -> GeometryJet:
    return GeometryJet.from_json(_read_json(path, "jet", InvalidJetError))


def _load_potential(path: str, n: int) -> Series:
    return parse_potential(_read_json(path, "potential", InvalidPotentialError), n)


def _valid(jet: GeometryJet) -> bool:
    """Validate a jet; on failure print the report."""
    report = validate_jet(jet)
    if not report.ok:
        _emit(report.to_json())
    return report.ok


def _load_valid_jet(path: str) -> GeometryJet | None:
    """Load a jet file and validate it; None if it fails."""
    jet = _load_jet(path)
    return jet if _valid(jet) else None


def _write_jet(jet: GeometryJet, path: str) -> int:
    """Validate a jet and write it; on failure write nothing."""
    if not _valid(jet):
        return EXIT_VALIDATION
    pieces = jet.to_pieces(file=True)  # built first, so a failure leaves no partial file
    with open(path, "w") as fh:
        fh.writelines(pieces)
    print(f"wrote jet {jet.jet_id} to {path}")
    return EXIT_OK


def _check_dimensions(args) -> None:
    """Reject out-of-range or conflicting arguments before any work."""
    n, q = getattr(args, "n", None), getattr(args, "q", None)
    if n is not None and n < 1:
        raise UsageError(f"--n must be at least 1, not {n}")
    if q is not None and not 0 <= q <= n:
        raise UsageError(f"--q must lie between 0 and --n = {n}, not {q}")
    if getattr(args, "rk_e", 1) < 1:
        raise UsageError(f"--rk-e must be at least 1, not {args.rk_e}")
    p = getattr(args, "p", None)
    if p is not None and not 0 <= p <= MAX_SECTIONS_POWER:
        raise UsageError(f"--p must lie between 0 and {MAX_SECTIONS_POWER}, not {p}")
    if hasattr(args, "pmin") and not 2 <= args.pmin <= args.pmax:
        raise UsageError("need 2 <= --pmin <= --pmax")
    if getattr(args, "fit", False) and args.pmax - args.pmin < n:
        raise UsageError(f"--fit needs --n + 1 = {n + 1} samples, so --pmax - --pmin >= {n}")
    points = getattr(args, "points", None)
    if points is not None and points < 1:
        raise UsageError(f"--points must be at least 1, not {points}")
    if getattr(args, "flat", False) and args.fs:
        raise UsageError("--flat and --fs exclude each other")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_jet_build(args) -> int:
    phi_l = _load_potential(args.potential, args.n)
    phi_e = _load_potential(args.potential_e, args.n) if args.potential_e else None
    return _write_jet(jet_from_potential(phi_l, phi_e, n=args.n, q=args.q, rk_e=args.rk_e),
                      args.out)


def cmd_jet_random(args) -> int:
    if args.flat:
        phi = flat_potential(args.n, args.q)
    elif args.fs:
        phi = fs_product_potential(args.n, args.q)
    else:
        phi = random_potential(args.n, args.q, args.seed)
    return _write_jet(jet_from_potential(phi, n=args.n, q=args.q, rk_e=args.rk_e), args.out)


def cmd_b1_route(args) -> int:
    """One route's coefficient, labelled with the id of the jet it evaluated."""
    jet = _load_valid_jet(args.jet)
    if jet is None:
        return EXIT_VALIDATION
    if args.route == "engine":
        terms = compute_F2_terms(jet)
        res = b1_from_terms(terms, jet.q)
    else:
        res = b1_formula(jet, check=False)
    payload = {**res.to_json(), "jet_id": jet.jet_id, "trace_pretty": str(res.trace)}
    if args.terms:
        payload["terms"] = {name: endo.to_json() for name, endo in terms.items()}
    _emit(payload, table=args.table)
    return EXIT_OK


def cmd_b1_crosscheck(args) -> int:
    jet = _load_valid_jet(args.jet)
    if jet is None:
        return EXIT_VALIDATION
    closed = b1_formula(jet, check=False)
    engine = b1_engine(jet, check=False)
    payload: dict = {"jet_id": jet.jet_id, "match": closed.endo == engine.endo}
    if payload["match"]:
        payload["trace"] = str(closed.trace)
    else:
        diff = closed.endo - engine.endo
        payload.update({
            "closed_form_trace": str(closed.trace),
            "engine_trace": str(engine.trace),
            "difference": {f"{r},{c}": str(v)
                           for (r, c), v in sorted(diff.entries.items())},
        })
    # b_1 is self-adjoint; a route whose output is not has a wrong block
    skewed = [res.route for res in (closed, engine) if res.endo != res.endo.adjoint()]
    if skewed:
        payload["not_self_adjoint"] = skewed
    _emit(payload)
    return EXIT_OK if payload["match"] and not skewed else EXIT_MISMATCH


def cmd_identities(args) -> int:
    jet = _load_jet(args.jet)
    validation = validate_jet(jet)
    identities = identity_suite(jet)
    _emit({"validation": validation.to_json(), "identities": identities.to_json()})
    return EXIT_OK if (validation.ok and identities.ok) else EXIT_VALIDATION


def cmd_model_cp1(args) -> int:
    rows = [{"p": p, "trace": cp1_product_trace(p, args.n, args.q)}
            for p in range(args.pmin, args.pmax + 1)]
    coeffs = None
    if args.fit:
        coeffs = fit_expansion([(r["p"], r["trace"]) for r in rows], degree=args.n)
    if args.csv:
        print("p,trace")
        for r in rows:
            print(f"{r['p']},{r['trace']}")
        if coeffs is not None:
            print("fit," + ";".join(str(c) for c in coeffs))
        return EXIT_OK
    payload: dict = {"n": args.n, "q": args.q, "samples": rows}
    if coeffs is not None:
        payload["fit"] = [str(c) for c in coeffs]
    _emit(payload, table=args.table)
    return EXIT_OK


def cmd_model_cp1_sections(args) -> int:
    rep = cp1_sections_kernel(args.p, count=args.points)
    rep["samples"] = len(rep["samples"])  # keep the report small
    _emit(rep)
    return EXIT_OK


def cmd_rrh(args) -> int:
    res = rrh_coefficients(args.n, args.q, args.rk_e)
    _emit({"n": args.n, "q": args.q, "rk_e": args.rk_e,
           "pn": str(res["pn"]), "pn1": str(res["pn1"])})
    return EXIT_OK


def pinned_oracles() -> list[tuple[str, bool]]:
    """Pinned exact constants of the Clifford and resolvent calculus, as (name, ok)."""
    checks: list[tuple[str, bool]] = []

    # curvature Clifford action equals the degree operator shift
    n, q = 2, 1
    alg = ExteriorAlgebra(n)

    def model_curv(t):
        a, b = t
        if a < n and b == a + n:
            return ExactScalar.pi(1, -2 if a < q else 2)
        if b < n and a == b + n:
            return ExactScalar.pi(1, 2 if b < q else -2)
        return ExactScalar.zero()

    checks.append(("clifford-curvature-action", alg.clifford_of_form(2, model_curv)
                   == alg.omega_d(q).scale(rat(-2))
                   - alg.scalar_endo(ExactScalar.pi(1, 2 * n))))

    ctx = OscillatorContext(2, 1)
    vac = ctx.vacuum()
    ident = ctx.alg.identity()
    z = (0, 0)
    checks.append(("creation-annihilates-vacuum",
                   vac.apply_bdag(0).is_zero() and vac.apply_bdag(1).is_zero()))
    checks.append(("annihilator-on-vacuum", vac.apply_b(0).to_poly().terms == {
        (z, (1, 0), z, z): ident.scale(ExactScalar.pi(1, 2)),
        (z, z, z, (1, 0)): ident.scale(ExactScalar.pi(1, -2))}))

    s = vac.apply_b(0).mul_xi(0).project_N0perp().resolvent_L0().evaluate_origin()
    checks.append(("resolved-gradient-constant",
                   s == ident.scale(ExactScalar.pi(-1, "-1/2"))))
    s = vac.mul_xibar(0).mul_xi(0).project_N0perp().resolvent_L0().evaluate_origin()
    checks.append(("resolved-hessian-constant",
                   s == ident.scale(ExactScalar.pi(-2, "-1/4"))))

    E = ctx.alg.wedge(2) @ ctx.alg.contract(1) @ ctx.alg.project_det(1)
    start = ctx.kernel_projector().apply_endo(E)
    v = start.apply_b(0).mul_xi(0).resolvent_L20().evaluate_origin()
    checks.append(("sector-resolved-gradient", v == E.scale(ExactScalar.pi(-1, "1/12"))))
    v = start.mul_xibar(0).mul_xi(0).resolvent_L20().evaluate_origin()
    checks.append(("sector-resolved-hessian", v == E.scale(ExactScalar.pi(-2, "1/24"))))

    big = OscillatorContext(4, 2)
    E2 = (big.alg.wedge(3) @ big.alg.wedge(4) @ big.alg.contract(1)
          @ big.alg.contract(2) @ big.alg.project_det(2))
    v = big.kernel_projector().apply_endo(E2).mul_xibar(0).mul_xi(0) \
        .resolvent_L20().evaluate_origin()
    checks.append(("double-defect-resolved-hessian",
                   v == E2.scale(ExactScalar.pi(-2, "1/80"))))

    checks.append(("gaussian-moment-primitive",
                   _mode_moment(1, 1) == [(1, 1, rat(1)), (0, 0, ExactScalar.pi(-1))]))
    return checks


def cmd_selftest(_args) -> int:
    checks = pinned_oracles()

    # the kernel-to-kernel block of the first-order operator vanishes
    jet = jet_from_potential(random_potential(2, 1, 7), n=2, q=1)
    ctx = engine_context(jet)
    o1 = build_O1(jet, ctx)
    pn = ctx.kernel_projector()
    checks.append(("first-order-kernel-block-vanishes",
                   all(o1(s).project_N().is_zero() for s in (pn, pn.mul_xi(0), pn.mul_xi(1)))))

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"selftest: {sum(ok for _, ok in checks)}/{len(checks)} passed")
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bergman",
        description="Exact evaluation of the subleading Bergman kernel coefficient")
    sub = ap.add_subparsers(dest="command", required=True)

    jet = sub.add_parser("jet", help="construct geometry jets")
    jet_sub = jet.add_subparsers(dest="jet_command", required=True)
    b = jet_sub.add_parser("build", help="build a jet from a potential file")
    b.add_argument("--potential", required=True)
    b.add_argument("--potential-e", default=None)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--rk-e", type=int, default=1, dest="rk_e")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_jet_build)
    r = jet_sub.add_parser(
        "random",
        help="build a seeded random jet (standard-library Mersenne Twister)")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--q", type=int, required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--rk-e", type=int, default=1, dest="rk_e")
    r.add_argument("--flat", action="store_true", help="emit the flat model jet")
    r.add_argument("--fs", action="store_true",
                   help="emit the projective-line product jet")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_jet_random)

    b1 = sub.add_parser("b1", help="evaluate the subleading coefficient")
    b1_sub = b1.add_subparsers(dest="b1_command", required=True)
    for route in ("closed-form", "engine"):
        r = b1_sub.add_parser(route)
        r.add_argument("--jet", required=True)
        if route == "engine":
            r.add_argument("--terms", action="store_true",
                           help="emit the per-term expansion breakdown")
        r.add_argument("--table", action="store_true")
        r.set_defaults(func=cmd_b1_route, route=route, terms=False)
    x = b1_sub.add_parser("crosscheck")
    x.add_argument("--jet", required=True)
    x.set_defaults(func=cmd_b1_crosscheck)

    idn = sub.add_parser("identities", help="run the exact identity suite on a jet")
    idn.add_argument("--jet", required=True)
    idn.set_defaults(func=cmd_identities)

    model = sub.add_parser("model", help="projective-line product checks")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    mp = model_sub.add_parser("cp1-product")
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--q", type=int, required=True)
    mp.add_argument("--pmin", type=int, required=True)
    mp.add_argument("--pmax", type=int, required=True)
    mp.add_argument("--fit", action="store_true")
    mp.add_argument("--table", action="store_true")
    mp.add_argument("--csv", action="store_true")
    mp.set_defaults(func=cmd_model_cp1)
    ms = model_sub.add_parser("cp1-sections")
    ms.add_argument("--p", type=int, required=True)
    ms.add_argument("--points", type=int, default=20)
    ms.set_defaults(func=cmd_model_cp1_sections)

    rrh = sub.add_parser("rrh", help="index-theorem consistency of the top coefficients")
    rrh.add_argument("--n", type=int, required=True)
    rrh.add_argument("--q", type=int, required=True)
    rrh.add_argument("--rk-e", type=int, default=1, dest="rk_e")
    rrh.set_defaults(func=cmd_rrh)

    st = sub.add_parser("selftest", help="run the pinned exact oracles")
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_dimensions(args)
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BergmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
