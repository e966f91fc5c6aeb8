"""Command-line surface: every diagnostic as a subcommand over a manifest.

Exit codes: 0 success with passing verdicts, 1 computed-but-failing verdict,
2 input or usage error, 3 numerical ill-conditioning.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .cohomology import (
    VERDICT_RIGID,
    dimension_audit,
    h1_reports,
    rigidity_test,
)
from .errors import DomainError, IllConditioned
from .manifest import load_manifest, report_text, write_report
from .radial import (
    CONVERGENT,
    DIVERGENT,
    FormProfile,
    RadialGrid,
    halving_deltas,
    l2_tube_verdict,
    min_decay_slacks,
    pb_min_singular,
)
from .spectral import (
    ConePoint,
    circle_B_spectrum,
    circle_dirac_spectrum,
    cone_admissibility_verdict,
    link_B_spectrum,
)
from .words import TOL_REP, relator_distances, worst_relator

EXIT_OK = 0
EXIT_FAILING = 1
EXIT_INPUT = 2
EXIT_ILL_CONDITIONED = 3

# Most random inputs the oracle's decay suite draws: 40x the default.
MAX_DECAY_SAMPLES = 1000


def finite_float(text: str) -> float:
    """argparse type of every float option: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type of the count options: a count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit(report, out_path) -> None:
    if out_path:
        write_report(report, out_path)
    else:
        sys.stdout.write(report_text(report))


def _cmd_validate(args) -> tuple[int, dict]:
    m = load_manifest(args.manifest)
    residual, failure = worst_relator(relator_distances(m.representation, m.presentation))
    if failure:  # still reported, and exit 2
        sys.stderr.write(f"error: {failure}\n")
    report = {
        "manifest": str(args.manifest),
        "group": m.group,
        "curvature": m.curvature,
        "generators": list(m.presentation.generators),
        "relator_residual": residual,
        "tolerance": TOL_REP,
        "valid": failure is None,
        "warnings": list(m.warnings),
    }
    return (EXIT_INPUT if failure else EXIT_OK), report


def _cmd_cohomology(args) -> tuple[int, dict]:
    m = load_manifest(args.manifest)
    interior = h1_reports(m.representation, m.presentation)
    dims = [r.dims_dict() for r in interior]
    cohomology = {"factors": dims} if len(dims) > 1 else dims[0]
    report = {"manifest": str(args.manifest), "cohomology": cohomology}
    if args.audit:
        audit = dimension_audit(m.representation, m.presentation, m.boundary, interior)
        report["audit"] = audit
        if not audit.skipped and not audit.all_hold:
            return EXIT_FAILING, report
    return EXIT_OK, report


def _cmd_rigidity(args) -> tuple[int, dict]:
    m = load_manifest(args.manifest)
    rep = rigidity_test(m.representation, m.presentation)
    report = {"manifest": str(args.manifest), "rigidity": rep}
    return (EXIT_OK if rep.verdict == VERDICT_RIGID else EXIT_FAILING), report


def _cmd_admissibility(args) -> tuple[int, dict]:
    m = load_manifest(args.manifest)
    verdict = cone_admissibility_verdict(m.singular_graph, m.curvature, window=args.window)
    report = {"manifest": str(args.manifest), "admissibility": verdict}
    return (EXIT_OK if verdict.admissible else EXIT_FAILING), report


def _cmd_spectrum(args) -> tuple[int, dict]:
    if args.mode == "circle":
        if args.operator == "dirac":
            rep = circle_dirac_spectrum(args.alpha, args.hol_angle, args.window)
        else:
            cp = ConePoint(
                alpha=args.alpha,
                holonomy_angles=(args.hol_angle % (2.0 * math.pi),),
                trivial_rank=args.trivial_rank,
            )
            rep = circle_B_spectrum(cp, args.window)
    else:
        lams = [(v, 1) for v in (args.lam or [1.0])]
        rep = link_B_spectrum(lams, args.h0_dim, args.window)
    return (EXIT_OK if rep.gap_ok else EXIT_FAILING), {"spectrum": rep}


_EXPECTED_TUBE = {"ang": DIVERGENT, "shr": DIVERGENT, "tws": CONVERGENT, "len": CONVERGENT}


def _cmd_forms(args) -> tuple[int, dict]:
    fp = FormProfile(args.profile, args.kappa, args.alpha, args.length)
    deltas = halving_deltas(args.eps, args.halvings)
    verdict = l2_tube_verdict(fp, args.eps, deltas)
    expected = _EXPECTED_TUBE[args.profile]
    report = {
        "profile": args.profile,
        "kappa": args.kappa,
        "alpha": args.alpha,
        "length": args.length,
        "eps": args.eps,
        "expected": expected,
        "tube": verdict,
    }
    if verdict.verdict == expected:
        return EXIT_OK, report
    if verdict.verdict in (DIVERGENT, CONVERGENT):
        return EXIT_FAILING, report
    return EXIT_ILL_CONDITIONED, report


def _trig_polynomial(coef):
    """The suite's input as poly(c, s) = P(c) + s Q(c) of c = cos 2 pi x and
    s = sin 2 pi x, for

    g(x) = c0 + c2 cos 2 pi x + c4 cos 4 pi x
           + c1 sin 2 pi x + c3 sin 4 pi x + c5 sin 6 pi x

    and coef = (c0, ..., c5).  With cos 4 pi x = 2c^2 - 1, sin 4 pi x = 2sc
    and sin 6 pi x = s (4c^2 - 1), P(c) = (c0 - c4) + c2 c + 2 c4 c^2 and
    Q(c) = (c1 - c5) + 2 c3 c + 4 c5 c^2, both by Horner's rule.
    """
    c0, c1, c2, c3, c4, c5 = coef
    p0, p1, p2 = c0 - c4, c2, 2.0 * c4
    q0, q1, q2 = c1 - c5, 2.0 * c3, 4.0 * c5

    def poly(c, s):
        return (p2 * c + p1) * c + p0 + s * ((q2 * c + q1) * c + q0)

    return poly


def _decay_suite(samples: int, n: int, seed: int = 7) -> dict:
    """Worst slack of the t_b0 and t_b1 decay bounds on random inputs.

    Each input is a degree-3 trigonometric polynomial (`_trig_polynomial`)
    whose six coefficients c_j are standard normal over j + 1.  Per input the
    rng draws the six c_j, then b0 in [-0.45, 4), b1 in [-4, 4) and r in
    [0.05, 0.95), in that order, so a seed fixes the report.  The slacks come
    from `min_decay_slacks`: the public decay functions' value functions, on
    grids sampled once each, 2 * samples + 1 cos and as many sin sweeps.
    """
    rng = np.random.default_rng(seed)
    budget = 1e-6
    inputs = []
    for _ in range(samples):
        poly = _trig_polynomial((rng.standard_normal(6) / np.arange(1.0, 7.0)).tolist())
        b0 = float(rng.uniform(-0.45, 4.0))
        b1 = float(rng.uniform(-4.0, 4.0))
        r = float(rng.uniform(0.05, 0.95))
        inputs.append((poly, b0, b1, r))
    min_slack0, min_slack1 = min_decay_slacks(inputs, n)
    return {
        "samples": samples,
        "quadrature_budget": budget,
        "min_slack_t_b0": min_slack0,
        "min_slack_t_b1": min_slack1,
        "pass": min_slack0 >= -budget and min_slack1 >= -budget,
    }


def _cmd_oracle(args) -> tuple[int, dict]:
    if args.samples > MAX_DECAY_SAMPLES:
        raise DomainError(f"--samples takes at most {MAX_DECAY_SAMPLES}, got {args.samples}")
    grid = RadialGrid(args.grid)
    bs = args.b or [1.0, 2.0, 4.0, 8.0]
    # one sigma per distinct b; monotonicity is judged over them in ascending order
    sigma_of = {b: pb_min_singular(b, args.kappa, grid) for b in sorted(set(bs))}
    sigmas = list(sigma_of.values())
    monotone = all(x < y for x, y in zip(sigmas, sigmas[1:]))
    decay = _decay_suite(args.samples, args.quad_samples)
    report = {
        "grid": args.grid,
        "kappa": args.kappa,
        "radial_lower_bound": [
            {"b": b, "sigma_min": sigma_of[b]} for b in bs
        ],
        "monotone_in_b": monotone,
        "decay_bounds": decay,
    }
    ok = monotone and decay["pass"]
    return (EXIT_OK if ok else EXIT_FAILING), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conerig",
        description="Rigidity and cone-admissibility diagnostics for cone-3-manifold manifests.",
    )
    parser.add_argument("--version", action="version", version=f"conerig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema, group membership and relator residual")
    p.add_argument("manifest")
    p.add_argument("--out", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cohomology", help="twisted cohomology dimensions")
    p.add_argument("manifest")
    p.add_argument("--audit", action="store_true", help="also run the boundary dimension audit")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("rigidity", help="meridian trace-rank rigidity test")
    p.add_argument("manifest")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("admissibility", help="cone-admissibility of the singular graph")
    p.add_argument("manifest")
    p.add_argument("--window", type=finite_float, default=3.0, help="spectral window half-width")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_admissibility)

    p = sub.add_parser("spectrum", help="cross-section spectra")
    p.add_argument("mode", choices=["circle", "link"])
    p.add_argument("--alpha", type=finite_float, default=2.0 * math.pi, help="circle length / cone angle")
    p.add_argument("--hol-angle", dest="hol_angle", type=finite_float, default=0.0)
    p.add_argument("--window", type=finite_float, default=3.0)
    p.add_argument(
        "--operator",
        choices=["dirac", "b"],
        default="dirac",
        help="circle mode: plain twisted operator or the shifted cross-section operator",
    )
    p.add_argument("--trivial-rank", dest="trivial_rank", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=finite_float, action="append",
                   help="link mode: positive Laplace eigenvalue (repeatable)")
    p.add_argument("--h0-dim", dest="h0_dim", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("forms", help="L2 integrability of deformation forms on the tube")
    p.add_argument("--profile", choices=["ang", "shr", "tws", "len"], required=True)
    p.add_argument("--kappa", type=int, choices=[-1, 0, 1], required=True)
    p.add_argument("--alpha", type=finite_float, default=math.pi / 2.0)
    p.add_argument("--length", type=finite_float, default=1.0)
    p.add_argument("--eps", type=finite_float, default=0.5)
    p.add_argument("--halvings", type=positive_int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forms)

    p = sub.add_parser("oracle", help="decay bounds and the radial lower-bound proxy")
    p.add_argument("--b", type=finite_float, action="append", help="radial parameter (repeatable)")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--kappa", type=int, choices=[-1, 0, 1], default=0)
    p.add_argument("--samples", type=positive_int, default=25)
    p.add_argument("--quad-samples", dest="quad_samples", type=positive_int, default=4096)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    return parser


_PARSER = build_parser()


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        code, report = args.func(args)
        _emit(report, getattr(args, "out", None))
    except IllConditioned as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ILL_CONDITIONED
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
