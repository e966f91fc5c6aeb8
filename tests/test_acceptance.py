"""Acceptance suite: one test per contract criterion, printing a pass/fail
line each.  Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""
import math
import time
from fractions import Fraction

import numpy as np

from conerig.cohomology import (
    FLAG_ABELIAN,
    VERDICT_RIGID,
    dimension_audit,
    h1_basis,
    rigidity_test,
    standard_torus_cocycles,
    trace_differential,
)
from conerig.liecore import (
    SL2C,
    SU2,
    SU2XSU2,
    adjoint_stack,
    algebra_matrix,
    coefficient_field,
    complex_length_sl2c,
    exp_raw,
    sigma_fields,
)
from conerig.manifest import fixture_path, load_manifest
from conerig.radial import (
    CONVERGENT,
    DIVERGENT,
    FormProfile,
    RadialGrid,
    halving_deltas,
    l2_tube_verdict,
    pb_min_singular,
    t_b0,
    t_b0_bound,
    t_b1,
    t_b1_bound,
)
from conerig.spectral import ConePoint, circle_B_spectrum, link_B_spectrum
from conerig.words import deform, evaluate, relator_residual

TWO_PI = 2.0 * math.pi


def _report(num: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num}: {label}"


def load(name):
    man = load_manifest(fixture_path(name))
    return man.representation, man.presentation, man


def test_01_torus_dimensions_and_trace_rank():
    start = time.perf_counter()
    rho, pres, _ = load("torus.json")
    rep = h1_basis(rho, pres)
    rig = rigidity_test(rho, pres)
    elapsed = time.perf_counter() - start
    ok = (
        (rep.dim_Z0_complex, rep.dim_Z1_complex, rep.dim_B1_complex, rep.dim_H1_complex)
        == (1, 4, 2, 2)
        and rig.rank == 1
        and elapsed < 1.0
    )
    _report(1, ok, f"torus dims (1,4,2,2) over C, trace rank 1, {elapsed:.3f}s")


def test_02_torus_trace_differentials_analytic_and_fd():
    rho, pres, _ = load("torus.json")
    alpha = pres.meridians[0].cone_angle
    mu = pres.meridians[0].word
    xi = rho.raw[1][0, 0]
    ell = complex_length_sl2c(rho.raw[0])
    cocs = standard_torus_cocycles("SL2C", alpha, ell.imag, ell.real)

    dt_ang = trace_differential(rho, cocs["ang"], mu)
    dt_shr = trace_differential(rho, cocs["shr"], mu)
    dt_tws = trace_differential(rho, cocs["tws"], mu)
    dt_len = trace_differential(rho, cocs["len"], mu)
    ok = (
        abs(dt_ang - (1j * alpha / 2) * (xi - 1 / xi)) < 1e-9
        and abs(dt_shr - (alpha / 2) * (xi - 1 / xi)) < 1e-9
        and abs(dt_tws) < 1e-10
        and abs(dt_len) < 1e-10
    )

    # central-difference oracle along rho_t = exp(t z) rho
    h = 1e-5
    for name, dt in (("ang", dt_ang), ("shr", dt_shr), ("tws", dt_tws), ("len", dt_len)):
        plus = np.trace(evaluate(deform(rho, cocs[name], h), mu))
        minus = np.trace(evaluate(deform(rho, cocs[name], -h), mu))
        fd = (plus - minus) / (2 * h)
        ok = ok and abs(fd - dt) < 1e-6
    _report(2, ok, "torus trace differentials match closed forms and FD oracle")


def test_03_spherical_torus_pair_differentials():
    rho, pres, _ = load("spherical-torus.json")
    alpha = pres.meridians[0].cone_angle
    mu = pres.meridians[0].word
    xi = complex(*rho.raw[1, 0, :2])  # the (0, 0) entry a of the left quaternion a + bj
    cocs = standard_torus_cocycles("SU2xSU2", alpha, 0.0, 1.0)
    left, right = rho.factors
    dT_ang = [trace_differential(f, z, mu) for f, z in zip((left, right), cocs["ang"])]
    dT_shr = [trace_differential(f, z, mu) for f, z in zip((left, right), cocs["shr"])]
    dims = (h1_basis(left, pres).dim_H1, h1_basis(right, pres).dim_H1)
    ok = (
        abs(dT_ang[0] + alpha * xi.imag) < 1e-9
        and abs(dT_ang[1] + alpha * xi.imag) < 1e-9
        and abs(dT_shr[0] + alpha * xi.imag) < 1e-9
        and abs(dT_shr[1] - alpha * xi.imag) < 1e-9
        and dims == (2, 2)
    )
    _report(3, ok, "spherical torus pair differentials and per-factor dim H1 = 2")


def test_04_pants_rigidity_and_conjugation():
    rho, pres, _ = load("pants.json")
    rep = h1_basis(rho, pres)
    rig = rigidity_test(rho, pres)
    rho_c, pres_c, _ = load("pants-conjugated.json")
    rep_c = h1_basis(rho_c, pres_c)
    rig_c = rigidity_test(rho_c, pres_c)
    ok = (
        rep.dim_Z1_complex == 6
        and rig.verdict == VERDICT_RIGID
        and rig.rank == 3
        and rep.dims_dict() == rep_c.dims_dict()
        and (rig.rank, rig.dim_h1, rig.verdict) == (rig_c.rank, rig_c.dim_h1, rig_c.verdict)
    )
    _report(4, ok, "pair of pants: Z1 = 6 over C, LocallyRigid rank 3, conjugation stable")


def test_05_genus2_su2_dimensions():
    rho, pres, _ = load("genus2-su2.json")
    residual = relator_residual(rho, pres)
    rep = h1_basis(rho, pres)
    ok = residual < 1e-10 and (rep.dim_Z1, rep.dim_H1, rep.dim_B1) == (9, 6, 3)
    _report(5, ok, f"genus-2 SU(2): dims (Z1,H1,B1) = (9,6,3), residual {residual:.1e}")


def test_06_cusped_example():
    rho, pres, man = load("cusped.json")
    rep = h1_basis(rho, pres)
    rig = rigidity_test(rho, pres)
    audit = dimension_audit(rho, pres, man.boundary)
    tau = sum(1 for c in man.boundary if c.genus == 1)
    chi = sum(2 - 2 * c.genus for c in man.boundary)
    ok = (
        rep.dim_H1_complex == 1
        and rep.dim_H1_complex == tau - 1.5 * chi
        and rig.verdict == VERDICT_RIGID
        and rig.meridian_count == 1
        and audit.all_hold
    )
    _report(6, ok, "one-cusped example: dim H1 = 1 over C, LocallyRigid, audit holds")


def test_07_circle_gap_criterion_grid():
    disagreements = 0
    for i in range(1, 201):
        p = Fraction(i, 200)
        alpha = TWO_PI * (i / 200.0)
        for j in range(0, 200):
            q = Fraction(j, 200)
            a = TWO_PI * (j / 200.0)
            got = circle_B_spectrum(ConePoint(alpha, (a,), 0), 1.0).gap_ok
            expected = (q == 0 and p <= 1) or (p <= q <= 1 - p)
            if got != expected:
                disagreements += 1
    _report(7, disagreements == 0, f"circle gap criterion on 200x200 grid ({disagreements} disagreements)")


def test_08_link_spectra():
    guaranteed = link_B_spectrum([(1.0, 1)], 0, 3.0)
    failing = link_B_spectrum([(0.5, 1)], 0, 3.0)
    ok = (
        0.6180 < guaranteed.min_abs < 0.6181
        and guaranteed.gap_ok
        and not failing.gap_ok
    )
    _report(8, ok, "link spectra: lambda=1 gap with min 0.618..., lambda=0.5 fails")


def test_09_killing_values_and_ad_invariance():
    # The Killing form of sl2(C) as a real Lie algebra is 2 Re(4 tr XY); that
    # of su(2) + su(2) is 4 tr XY summed over both factors.
    (theta, z), (theta_pair, z_pair) = sigma_fields(SL2C), sigma_fields(SU2XSU2)

    def killing(group, x):
        m = algebra_matrix(group, x)
        return 4.0 * np.trace(m @ m)

    values = (
        2.0 * killing(SL2C, theta).real,
        2.0 * killing(SL2C, z).real,
        sum(killing(SU2, x).real for x in theta_pair),
        sum(killing(SU2, x).real for x in z_pair),
    )
    ok = all(abs(v - e) < 1e-12 for v, e in zip(values, (-4.0, 4.0, -4.0, -4.0)))
    # tr(XY) is Ad-invariant: compare it before and after Ad of random elements,
    # relative to |X| |Y|, which bounds it.
    rng = np.random.default_rng(0)
    worst = 0.0
    for group in (SL2C, SU2):
        field, dim = coefficient_field(group)

        def normal():
            xs = rng.standard_normal(dim)
            return xs + 1j * rng.standard_normal(dim) if field is complex else xs

        for _ in range(1000):
            ad = adjoint_stack(group, exp_raw(group, normal())[None])[0]
            x, y = normal(), normal()
            mx, my = algebra_matrix(group, x), algebra_matrix(group, y)
            moved = np.trace(algebra_matrix(group, ad @ x) @ algebra_matrix(group, ad @ y))
            defect = abs(moved - np.trace(mx @ my)) / (np.linalg.norm(mx) * np.linalg.norm(my))
            worst = max(worst, defect)
    ok = ok and worst < 1e-10
    _report(9, ok, f"Killing form values on the sigma sections and Ad-invariance of tr XY (worst {worst:.2e})")


def test_10_decay_estimate_suite():
    rng = np.random.default_rng(2024)
    budget = 1e-6
    worst0 = worst1 = math.inf
    for _ in range(200):
        coef = rng.standard_normal(6) / np.arange(1.0, 7.0)

        def g(x, c=coef):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for k in range(3):
                out = out + c[2 * k] * np.cos(2.0 * math.pi * k * x)
                out = out + c[2 * k + 1] * np.sin(2.0 * math.pi * (k + 1) * x)
            return out

        b0 = float(rng.uniform(-0.45, 4.0))
        b1 = float(rng.uniform(-4.0, 4.0))
        r = float(rng.uniform(0.05, 0.95))
        worst0 = min(worst0, t_b0_bound(g, b0, r) - abs(t_b0(g, b0, r)))
        worst1 = min(worst1, t_b1_bound(g, b1, r) - abs(t_b1(g, b1, r)))

    one = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
    equality_gap = abs(t_b0_bound(one, 0.0, 0.37) - t_b0(one, 0.0, 0.37))
    ok = worst0 >= -budget and worst1 >= -budget and equality_gap < 1e-10
    _report(
        10,
        ok,
        f"decay bounds on 200 inputs (slack >= {min(worst0, worst1):.2e}), equality case {equality_gap:.1e}",
    )


def test_11_radial_lower_bound_monotone():
    ok = True
    for n in (256, 512):
        grid = RadialGrid(n)
        sigmas = [pb_min_singular(b, 0, grid) for b in (1.0, 2.0, 4.0, 8.0)]
        ok = ok and all(x < y for x, y in zip(sigmas, sigmas[1:]))
    _report(11, ok, "radial lower-bound proxy strictly increasing in b at n=256,512")


def test_12_tube_integrability():
    expected = {"ang": DIVERGENT, "shr": DIVERGENT, "tws": CONVERGENT, "len": CONVERGENT}
    ok = True
    for kappa in (-1, 0, 1):
        for name, want in expected.items():
            fp = FormProfile(name, kappa, alpha=math.pi / 2, length=1.0)
            verdict = l2_tube_verdict(fp, 0.5, halving_deltas(0.5, 10))
            ok = ok and verdict.verdict == want
    fp = FormProfile("ang", -1, alpha=math.pi / 2, length=1.0)
    verdict = l2_tube_verdict(fp, 0.5, halving_deltas(0.5, 12))
    target = fp.alpha * fp.length * math.log(2.0)
    ok = ok and abs(verdict.last_increment - target) < 0.1 * target
    _report(12, ok, "tube integrability verdicts, ang increment near alpha*L*ln 2")


def test_13_abelian_degeneracy_detection():
    rho, pres, _ = load("abelian-torus.json")
    rig = rigidity_test(rho, pres)
    ok = FLAG_ABELIAN in rig.degenerate_flags and rig.verdict != VERDICT_RIGID
    _report(13, ok, "abelian pair representation flagged and not locally rigid")
