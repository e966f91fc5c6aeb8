"""Independent checks of conerig CLI outputs.

Every check takes the exit code, stdout and stderr of one `conerig.cli.run`
call and raises `CheckFailed` unless the output agrees with a computation
made here, apart from the program (plain numpy products of the holonomy
matrices, closed-form dimension counts, closed-form spectra), or with a
property the method must have.  A check returns a small summary that later
checks of the same pass may compare against (conjugation invariance).

Only numpy is imported, so the checks add nothing to the workload's memory
beyond what the program itself loads.  The radial references that need
scipy are computed in a child process by `reference.py`.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

TWO_PI = 2.0 * math.pi
# Slack the program applies at the spectral gap boundaries +/- 1/2.
GAP_SLACK = 1e-12
# A relator residual computed here and the reported one differ by rounding
# only: both are Frobenius distances of a product of unit-determinant 2x2
# matrices from the identity.
RESIDUAL_ABS_TOL = 1e-13
# Relative agreement of sigma_min with the independent tridiagonal
# eigenvalue computation, and with the closed form at b = 0.
SIGMA_REL_TOL = 1e-9
SIGMA_B0_REL_TOL = 1e-12
DECAY_BUDGET = 1e-6
TUBE_EXPECTED = {"ang": "Divergent", "shr": "Divergent", "tws": "Convergent", "len": "Convergent"}
ANG_INCREMENT_REL_TOL = 0.10


class CheckFailed(Exception):
    """The output of one operation disagrees with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_report(code: int, out: str, expected_code: int) -> dict:
    require(code == expected_code, f"exit code {code}, expected {expected_code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON report: {exc}") from None


# ---------------------------------------------------------------------------
# holonomy, recomputed from the manifest JSON with numpy alone


def _quat_matrix(q) -> np.ndarray:
    a = complex(q[0], q[1])
    b = complex(q[2], q[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def _su2_matrix(value) -> np.ndarray:
    if len(value) == 4 and all(isinstance(x, (int, float)) for x in value):
        return _quat_matrix(value)
    return _complex_matrix(value)


def _complex_matrix(value) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in value])


def holonomy_factors(doc: dict) -> list[dict[str, np.ndarray]]:
    """Generator matrices of each factor: one factor, two for SU2xSU2."""
    group, hol = doc["group"], doc["holonomy"]
    if group == "SL2C":
        return [{g: _complex_matrix(hol[g]) for g in doc["generators"]}]
    if group == "SU2":
        return [{g: _su2_matrix(hol[g]) for g in doc["generators"]}]
    return [
        {g: _su2_matrix(hol[g][side]) for g in doc["generators"]} for side in ("left", "right")
    ]


def word_matrix(word: str, mats: dict[str, np.ndarray]) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for ch in word:
        m = mats[ch.lower()]
        out = out @ (m if ch.islower() else np.linalg.inv(m))
    return out


def relator_residual(doc: dict) -> float:
    """Largest Frobenius distance of a relator image from the identity."""
    res = 0.0
    for rel in doc["relators"]:
        dists = [
            float(np.linalg.norm(word_matrix(rel, mats) - np.eye(2)))
            for mats in holonomy_factors(doc)
        ]
        res = max(res, math.hypot(*dists))
    return res


def image_is_abelian(mats: dict[str, np.ndarray], tol: float = 1e-10) -> bool:
    ms = list(mats.values())
    return all(
        np.linalg.norm(x @ y - y @ x) <= tol for i, x in enumerate(ms) for y in ms[i + 1 :]
    )


# ---------------------------------------------------------------------------
# manifest subcommands


def check_validate(doc: dict, code: int, out: str, err: str) -> dict:
    rep = parse_report(code, out, 0)
    require(rep["valid"] is True, "manifest reported invalid")
    require(rep["group"] == doc["group"], f"group {rep['group']} != {doc['group']}")
    require(rep["generators"] == doc["generators"], "generator list differs from the manifest")
    mine = relator_residual(doc)
    got = rep["relator_residual"]
    require(
        abs(got - mine) <= RESIDUAL_ABS_TOL,
        f"relator residual {got!r} disagrees with the numpy product {mine!r}",
    )
    return {"residual": got}


def check_rejected(code: int, out: str, err: str) -> dict:
    """A manifest with a non-finite entry must be refused with a JSON pointer."""
    require(code == 2, f"exit code {code}, expected 2 (input error)")
    require(re.search(r"/holonomy/\w", err) is not None, "error message names no JSON pointer")
    return {}


def expected_dims(group: str, dims: tuple[int, int, int, int]) -> dict:
    """Cohomology report fields for (Z0, Z1, B1, H1).

    SL(2,C) dimensions are given over C and reported over R as well; SU(2)
    dimensions are real.
    """
    keys = ("dim_Z0", "dim_Z1", "dim_B1", "dim_H1")
    if group == "SL2C":
        out = {k: 2 * v for k, v in zip(keys, dims)}
        out.update({f"{k}_complex": v for k, v in zip(keys, dims)})
    else:
        out = dict(zip(keys, dims))
    out["group"] = group
    return out


def check_cohomology(
    doc: dict, dims: tuple[int, int, int, int], audited: bool, code: int, out: str, err: str
) -> dict:
    """Dimensions against known values; the boundary audit recomputed.

    `dims` is (Z0, Z1, B1, H1): complex for SL(2,C), real per factor for
    SU(2) and SU(2)xSU(2).  With `--audit` the identities are rebuilt from
    those dimensions and the manifest's boundary list, so the verdicts and
    the exit code are predicted here, not read back.
    """
    factor_group = "SU2" if doc["group"] == "SU2xSU2" else doc["group"]
    want = expected_dims(factor_group, dims)
    identities = audit_identities(doc, dims) if audited else []
    holds = all(i[3] for i in identities)
    rep = parse_report(code, out, 0 if holds else 1)
    require(("audit" in rep) == audited, "audit block present without --audit or missing")
    payload = rep["cohomology"]
    if doc["group"] == "SU2xSU2":
        require(len(payload["factors"]) == 2, "SU2xSU2 report needs two factors")
        for got in payload["factors"]:
            require(got == want, f"factor dimensions {got} != {want}")
    else:
        require(payload == want, f"dimensions {payload} != {want}")
    if audited:
        _check_audit(doc, rep["audit"], identities)
    return {"cohomology": payload}


def boundary_h1(doc: dict) -> int:
    """dim H1 of the boundary tori: twice the centralizer, i.e. 2 per torus.

    Every declared boundary component of the bundled fixtures is a torus with
    non-central abelian holonomy, whose centralizer has dimension one (over C
    for SL(2,C), over R per SU(2) factor).
    """
    comps = doc.get("boundary", [])
    require(all(c["genus"] == 1 for c in comps), "only torus boundaries are modelled here")
    return 2 * len(comps)


def audit_identities(doc: dict, dims) -> list[tuple[str, float, float, bool]]:
    comps = doc.get("boundary", [])
    if not comps:
        return []
    h1, z1 = dims[3], dims[1]
    tau = sum(1 for c in comps if c["genus"] == 1)
    chi = sum(2 - 2 * c["genus"] for c in comps)
    half = 0.5 * boundary_h1(doc)
    count = tau + 3.0 - 1.5 * chi
    return [
        ("half_dimension", float(h1), half, math.isclose(h1, half)),
        ("cocycle_count", float(z1), count, math.isclose(z1, count)),
    ]


def _check_audit(doc: dict, audit: dict, identities) -> None:
    if not identities:
        require(audit["skipped"] is True, "audit without boundary must be skipped")
        return
    require(audit["skipped"] is False, "audit with boundary was skipped")
    factors = 2 if doc["group"] == "SU2xSU2" else 1
    got = audit["identities"]
    require(len(got) == factors * len(identities), f"{len(got)} audit identities reported")
    for k, item in enumerate(got):
        name, lhs, rhs, holds = identities[k % len(identities)]
        require(name in item["name"], f"identity {item['name']!r} out of order")
        require(
            (item["lhs"], item["rhs"], item["holds"]) == (lhs, rhs, holds),
            f"identity {item['name']!r}: got {item['lhs']}, {item['rhs']}, {item['holds']};"
            f" expected {lhs}, {rhs}, {holds}",
        )


def _jacobian_array(jac) -> np.ndarray:
    arr = np.array(jac, dtype=float)
    if arr.ndim == 3:  # complex entries serialize as [re, im]
        arr = arr[..., 0] + 1j * arr[..., 1]
    return arr


def _check_rigidity_factor(rep: dict, mats: dict, meridians: int, dim_h1: int) -> None:
    require(rep["meridian_count"] == meridians, f"meridian count {rep['meridian_count']}")
    require(rep["dim_h1"] == dim_h1, f"dim H1 {rep['dim_h1']} != {dim_h1}")
    jac = _jacobian_array(rep["trace_jacobian"])
    rank = int(np.linalg.matrix_rank(jac, tol=1e-8)) if jac.size else 0
    if jac.size:
        require(jac.shape == (meridians, dim_h1), f"trace Jacobian shape {jac.shape}")
    require(rep["rank"] == rank, f"rank {rep['rank']} != numpy rank {rank}")
    abelian = image_is_abelian(mats)
    require(("AbelianImage" in rep["degenerate_flags"]) == abelian, "AbelianImage flag wrong")
    rigid = rank == dim_h1 == meridians and not abelian
    want = "LocallyRigid" if rigid else "RankDeficient"
    require(rep["verdict"] == want, f"verdict {rep['verdict']}, expected {want}")


def check_rigidity(
    doc: dict, dim_h1: int, verdict: str, code: int, out: str, err: str
) -> dict:
    """Trace-rank verdict: `dim_h1` is per factor (complex for SL(2,C))."""
    rep = parse_report(code, out, 0 if verdict == "LocallyRigid" else 1)["rigidity"]
    require(rep["verdict"] == verdict, f"verdict {rep['verdict']}, expected {verdict}")
    meridians = len(doc.get("meridians", []))
    factors = holonomy_factors(doc)
    if doc["group"] == "SU2xSU2":
        require(len(rep["factors"]) == 2, "SU2xSU2 rigidity needs two factors")
        for sub, mats in zip(rep["factors"], factors):
            _check_rigidity_factor(sub, mats, meridians, dim_h1)
        require(rep["dim_h1"] == 2 * dim_h1, "factor dimensions do not add up")
        require(rep["rank"] == sum(f["rank"] for f in rep["factors"]), "factor ranks do not add up")
    else:
        _check_rigidity_factor(rep, factors[0], meridians, dim_h1)
    return {"verdict": rep["verdict"], "rank": rep["rank"], "dim_h1": rep["dim_h1"]}


def check_admissibility(doc: dict, code: int, out: str, err: str) -> dict:
    """Cone angles at most pi make every link admissible (the paper's range)."""
    graph = doc.get("singular_graph", {"edges": [], "vertices": []})
    angles = [e["angle"] for e in graph["edges"]]
    require(all(a <= math.pi + 1e-12 for a in angles), "fixture outside the angle <= pi range")
    rep = parse_report(code, out, 0)["admissibility"]
    require(rep["admissible"] is True, "angles <= pi reported inadmissible")
    points = rep["points"]
    require(
        len(points) == len(graph["edges"]) + len(graph["vertices"]),
        f"{len(points)} link points for {len(graph['edges'])} edges and "
        f"{len(graph['vertices'])} vertices",
    )
    require(all(p["admissible"] for p in points), "an individual link point is inadmissible")
    return {"admissible": True}


def check_agrees(key: str, seen: dict, summary: dict) -> dict:
    """Conjugation invariance: the summary equals that of the unconjugated op."""
    other = seen.get(key)
    require(other is not None, f"reference operation {key!r} did not succeed in this pass")
    require(other == summary, f"{summary} differs from {key}: {other}")
    return summary


# ---------------------------------------------------------------------------
# spectra


def circle_gap_ok(alpha: float, a: float) -> bool:
    """min_n |2 pi n - a| / alpha >= 1/2: no eigenvalue in the open gap."""
    n0 = round(a / TWO_PI)
    dist = min(abs(TWO_PI * n - a) for n in (n0 - 1, n0, n0 + 1))
    return dist / alpha >= 0.5 - GAP_SLACK


def circle_values(alpha: float, a: float, window: float) -> list[float]:
    n_max = int((abs(a) + window * alpha) / TWO_PI) + 2
    vals = []
    for n in range(-n_max, n_max + 1):
        v = abs(TWO_PI * n - a) / alpha
        vals.extend([0.0] if v <= GAP_SLACK else [v, -v])
    return sorted(v for v in vals if abs(v) <= window + GAP_SLACK)


def check_circle(alpha: float, a: float, window: float, code: int, out: str, err: str) -> dict:
    ok = circle_gap_ok(alpha, a)
    rep = parse_report(code, out, 0 if ok else 1)["spectrum"]
    require(rep["gap_ok"] is ok, f"gap verdict {rep['gap_ok']}, expected {ok}")
    _check_values(rep["values"], circle_values(alpha, a, window))
    return {"gap_ok": ok}


def link_values(lams, h0_dim: int, window: float) -> list[float]:
    vals = [1.0] * h0_dim + [-1.0] * h0_dim
    for lam in lams:
        s = math.sqrt(0.25 + lam)
        vals.extend((-0.5 - s, -0.5 + s, 0.5 - s, 0.5 + s))
    return sorted(v for v in vals if abs(v) <= window + GAP_SLACK)


def check_link(lams, h0_dim: int, window: float, code: int, out: str, err: str) -> dict:
    """Gap holds iff every eigenvalue lambda >= 3/4, i.e. sqrt(1/4 + lambda) >= 1."""
    ok = all(lam >= 0.75 for lam in lams)
    rep = parse_report(code, out, 0 if ok else 1)["spectrum"]
    require(rep["gap_ok"] is ok, f"gap verdict {rep['gap_ok']}, expected {ok}")
    _check_values(rep["values"], link_values(lams, h0_dim, window))
    return {"gap_ok": ok}


def _check_values(got, want) -> None:
    require(len(got) == len(want), f"{len(got)} spectrum values, expected {len(want)}")
    require(
        all(abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in zip(got, want)),
        "spectrum values differ from the closed form",
    )


# ---------------------------------------------------------------------------
# radial oracle and tube integrals


def sigma_b0(n: int) -> float:
    """Smallest singular value of the plain difference matrix: 2n sin(pi/2n)."""
    return 2.0 * n * math.sin(math.pi / (2.0 * n))


def bessel_rel_tol(b: float, n: int) -> float:
    """Second-order discretization error bound: (1 + b) / (2 n^2).

    The error of sigma_min against the first zero of J_{b+1/2} scales as
    c(b) / n^2 with c(0) = pi^2/24 ~ 0.41 and c(8) ~ 3.4; (1 + b)/2 bounds
    c(b) for every b in the workload with at least 18% to spare.
    """
    return (1.0 + b) / (2.0 * n * n)


def check_oracle(
    grid: int, kappa: int, bs, samples: int, refs: dict, code: int, out: str, err: str
) -> dict:
    """sigma_min per b against references; monotone in b; decay slack.

    `refs` maps (grid, kappa, b) to the independent tridiagonal sigma_min and
    b to the first zero of J_{b+1/2}; see reference.py.
    """
    rep = parse_report(code, out, 0)
    require(rep["grid"] == grid and rep["kappa"] == kappa, "grid or kappa echoed wrongly")
    rows = rep["radial_lower_bound"]
    require([r["b"] for r in rows] == list(bs), "b values echoed wrongly")
    sigmas = [r["sigma_min"] for r in rows]
    for b, s in zip(bs, sigmas):
        ref = refs["sigma"][(grid, kappa, float(b))]
        require(
            abs(s - ref) <= SIGMA_REL_TOL * ref,
            f"b={b}: sigma_min {s!r} vs tridiagonal eigenvalue {ref!r}",
        )
        if b == 0:
            exact = sigma_b0(grid)
            require(
                abs(s - exact) <= SIGMA_B0_REL_TOL * exact,
                f"b=0: sigma_min {s!r} vs 2n sin(pi/2n) = {exact!r}",
            )
        if kappa == 0:
            zero = refs["bessel"][float(b)]
            require(
                abs(s - zero) <= bessel_rel_tol(b, grid) * zero,
                f"b={b}: sigma_min {s!r} vs first zero of J_(b+1/2) {zero!r}",
            )
    increasing = all(x < y for x, y in zip(sigmas, sigmas[1:]))
    require(increasing, "sigma_min does not increase with b")
    require(rep["monotone_in_b"] is True, "monotone_in_b reported false")
    decay = rep["decay_bounds"]
    require(decay["samples"] == samples, "decay sample count echoed wrongly")
    for key in ("min_slack_t_b0", "min_slack_t_b1"):
        require(decay[key] >= -DECAY_BUDGET, f"{key} = {decay[key]!r} below -budget")
    require(decay["pass"] is True, "decay suite reported failing")
    return {"sigmas": sigmas}


def check_forms(
    profile: str, kappa: int, alpha: float, length: float, code: int, out: str, err: str
) -> dict:
    """ang and shr diverge, tws and len converge; ang grows by alpha L ln 2.

    Near the singular axis the ang integrand is alpha L / r, so each halving
    of the inner radius adds alpha L ln 2.
    """
    want = TUBE_EXPECTED[profile]
    rep = parse_report(code, out, 0)
    require(rep["expected"] == want, f"expected verdict echoed as {rep['expected']}")
    tube = rep["tube"]
    require(tube["verdict"] == want, f"{profile}: verdict {tube['verdict']}, expected {want}")
    inc = tube["last_increment"]
    if profile == "ang":
        target = alpha * length * math.log(2.0)
        require(
            abs(inc - target) <= ANG_INCREMENT_REL_TOL * target,
            f"ang increment {inc!r} not within 10% of alpha L ln 2 = {target!r}",
        )
    if want == "Convergent":
        require(inc < 1e-3 * alpha * length, f"{profile}: increments do not decay ({inc!r})")
    return {"verdict": tube["verdict"]}


# ---------------------------------------------------------------------------
# surface groups


def surface_dims(group: str, genus: int) -> tuple[int, int, int, int]:
    """(Z0, Z1, B1, H1) of a closed genus-g surface group.

    Irreducible SU(2) (real): Z0 = 0, B1 = 3, Z1 = 3(2g) - 3, H1 = 6g - 6.
    Generic diagonal SL(2,C) (complex): the Cartan line is fixed (Z0 = 1,
    B1 = 2); H1 is 2g from the trivial line plus 2g - 2 from each of the two
    nontrivial characters, 6g - 4, and Z1 = H1 + B1.
    """
    if group == "SU2":
        return (0, 6 * genus - 3, 3, 6 * genus - 6)
    return (1, 6 * genus - 2, 2, 6 * genus - 4)
