"""The three workloads: fixed lists of CLI operations built from a seed.

A pass runs every operation of its workload once, in order; every pass of a
run does identical work.  Each operation carries its own check (checks.py).
The seed changes input values only, never the amount of work: spectrum
parameters (fixtures), the holonomy of every surface group (surfaces), and
the cone angle, length and radius of each tube (radial).
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

FIXTURE_DIR = Path("src/conerig/fixtures")

# (Z0, Z1, B1, H1) per factor, complex for SL(2,C), and the trace-rank verdict.
#   torus, spherical-torus, abelian-torus: abelian holonomy of Z^2 with a
#     one-dimensional centralizer c, so Z0 = c, B1 = 3 - c, H1 = 2c;
#   pants (and its conjugate): the free group on two generators with
#     irreducible image, Z1 = 2 * 3, B1 = 3;
#   cusped: a smooth irreducible point of a two-bridge knot's character
#     variety, H1 = 1;
#   genus2-su2: irreducible SU(2) surface group, 6g - 6 = 6.
FIXTURES = {
    "torus": ((1, 4, 2, 2), "RankDeficient"),
    "pants": ((0, 6, 3, 3), "LocallyRigid"),
    "pants-conjugated": ((0, 6, 3, 3), "LocallyRigid"),
    "cusped": ((0, 4, 3, 1), "LocallyRigid"),
    "genus2-su2": ((0, 9, 3, 6), "RankDeficient"),
    "spherical-torus": ((1, 4, 2, 2), "RankDeficient"),
    "abelian-torus": ((1, 4, 2, 2), "RankDeficient"),
}
# Each conjugated fixture must agree with its original, op by op.
CONJUGATE_OF = {"pants-conjugated": "pants"}

GENERA = range(2, 14)  # 2g letters; surface_presentation(14) would need a 27th
ORACLE_BS = (0, 1, 2, 4, 8)
ORACLE_LADDER = ((256, -1), (256, 0), (256, 1), (512, -1), (512, 0), (512, 1), (1024, 0))
DECAY_SAMPLES = 25
PROFILES = ("ang", "shr", "tws", "len")


@dataclass
class Op:
    """One `conerig.cli.run(argv)` call and the check of its output.

    `check(code, stdout, stderr, seen)` raises checks.CheckFailed or returns
    a summary stored in `seen[name]` for later operations of the same pass.
    `known_fault` marks an operation that fails on every run because of a
    recorded fault of the program; it counts as failed but keeps `correct`.
    """

    name: str
    argv: list[str]
    check: Callable[[int, str, str, dict], dict]
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def _ignore_seen(fn):
    return lambda code, out, err, seen: fn(code, out, err)


def _agreeing(fn, key):
    return lambda code, out, err, seen: checks.check_agrees(key, seen, fn(code, out, err))


def build_fixtures(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for name, (dims, verdict) in FIXTURES.items():
        path = FIXTURE_DIR / f"{name}.json"
        doc = json.loads(path.read_text())
        per_cmd = {
            "validate": ([], partial(checks.check_validate, doc)),
            "cohomology": (["--audit"], partial(checks.check_cohomology, doc, dims, True)),
            "rigidity": ([], partial(checks.check_rigidity, doc, dims[3], verdict)),
            "admissibility": ([], partial(checks.check_admissibility, doc)),
        }
        for cmd, (extra, fn) in per_cmd.items():
            check = _ignore_seen(fn)
            if name in CONJUGATE_OF and cmd != "validate":
                check = _agreeing(fn, f"{cmd}:{CONJUGATE_OF[name]}")
            ops.append(Op(f"{cmd}:{name}", [cmd, str(path), *extra], check))

    circles = []
    for k in range(4):
        # alpha >= 1 keeps the nearest value, at most pi / alpha, inside the
        # window of 4: a spectrum with no value in its window makes the CLI
        # raise instead of reporting (see CHANGES.md).
        alpha = float(rng.uniform(1.0, 3.0))
        margin = 0.05
        if k % 2 == 0:  # nearest 2 pi n at least alpha/2 + margin away: gap holds
            a = float(rng.uniform(alpha / 2 + margin, 2 * math.pi - alpha / 2 - margin))
        else:  # within alpha/2 - margin of 0: an eigenvalue falls in the gap
            a = float(rng.uniform(margin, alpha / 2 - margin))
        circles.append((alpha, a))
        argv = ["spectrum", "circle", "--alpha", repr(alpha), "--hol-angle", repr(a),
                "--window", "4"]
        ops.append(Op(f"spectrum-circle:{k}", argv,
                      _ignore_seen(partial(checks.check_circle, alpha, a, 4.0))))
    links = []
    for k in range(2):
        lams = [float(x) for x in rng.uniform(1.0, 6.0, size=2)]
        if k == 1:  # first eigenvalue below 3/4 puts 1/2 - sqrt(1/4 + lambda) in the gap
            lams[0] = float(rng.uniform(0.05, 0.6))
        h0 = int(rng.integers(0, 4))
        links.append((lams, h0))
        argv = ["spectrum", "link", "--h0-dim", str(h0), "--window", "3"]
        for lam in lams:
            argv += ["--lambda", repr(lam)]
        ops.append(Op(f"spectrum-link:{k}", argv,
                      _ignore_seen(partial(checks.check_link, lams, h0, 3.0))))

    # A NaN holonomy entry must be refused (exit 2, JSON pointer).  The input
    # does not depend on the seed, so this fails identically on every pass
    # until the program rejects non-finite values.
    bad = json.loads((FIXTURE_DIR / "torus.json").read_text())
    bad["holonomy"]["a"][0][0][0] = float("nan")
    nan_path = workdir / "torus-nan.json"
    nan_path.write_text(json.dumps(bad))
    ops.append(Op("validate:torus-nan", ["validate", str(nan_path)],
                  _ignore_seen(checks.check_rejected), known_fault=True))
    return Workload("fixtures", ops, {"circles": circles, "links": links})


# ---------------------------------------------------------------------------
# surface groups


def _quat_of(mat: np.ndarray) -> list[float]:
    """[a, b, c, d] with mat = [[a + bi, c + di], [-(c - di), a - bi]]."""
    q = np.array([mat[0, 0].real, mat[0, 0].imag, mat[0, 1].real, mat[0, 1].imag])
    return [float(x) for x in q / np.linalg.norm(q)]


def _random_su2(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return checks._quat_matrix(q)


def su2_surface_holonomy(genus: int, rng) -> list[np.ndarray]:
    """Random irreducible SU(2) images of a_1, b_1, ..., a_g, b_g.

    The first g - 1 pairs are random.  With T the inverse of their commutator
    product, T = h diag(e^{i t}, e^{-i t}) h^-1, the last pair is
    a_g = h diag(e^{i t/2}, e^{-i t/2}) h^-1 and b_g = h w h^-1 for the
    quarter turn w = [[0, 1], [-1, 0]]: then [a_g, b_g] = T in closed form.
    """
    mats = [_random_su2(rng) for _ in range(2 * genus - 2)]
    prod = np.eye(2, dtype=complex)
    for a, b in zip(mats[0::2], mats[1::2]):
        prod = prod @ a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    target = np.linalg.inv(prod)
    vals, vecs = np.linalg.eig(target)
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    h = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    mu = np.sqrt(vals[0])
    d = np.diag([mu, np.conj(mu)])
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    hinv = np.conj(h.T)
    return mats + [h @ d @ hinv, h @ w @ hinv]


def sl2c_diagonal_holonomy(genus: int, rng) -> list[np.ndarray]:
    """Generic diagonal SL(2,C) images; diagonal images satisfy the relator."""
    log_abs = rng.uniform(-0.5, 0.5, 2 * genus)
    arg = rng.uniform(0.3, 2 * math.pi - 0.3, 2 * genus)
    z = np.exp(log_abs + 1j * arg)
    return [np.diag([x, 1.0 / x]) for x in z]


def surface_manifest(genus: int, group: str, mats: list[np.ndarray]) -> dict:
    letters = [chr(ord("a") + k) for k in range(2 * genus)]
    relator = "".join(
        x + y + x.upper() + y.upper() for x, y in zip(letters[0::2], letters[1::2])
    )
    if group == "SU2":
        hol = {g: _quat_of(m) for g, m in zip(letters, mats)}
    else:
        hol = {
            g: [[[float(z.real), float(z.imag)] for z in row] for row in m]
            for g, m in zip(letters, mats)
        }
    return {
        "schema": 1,
        "curvature": 1 if group == "SU2" else -1,
        "group": group,
        "generators": letters,
        "relators": [relator],
        "meridians": [],
        "holonomy": hol,
    }


def build_surfaces(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for genus in GENERA:
        for group, make in (("SU2", su2_surface_holonomy), ("SL2C", sl2c_diagonal_holonomy)):
            doc = surface_manifest(genus, group, make(genus, rng))
            path = workdir / f"surface-{group.lower()}-g{genus}.json"
            path.write_text(json.dumps(doc))
            dims = checks.surface_dims(group, genus)
            ops.append(Op(f"validate:{group}-g{genus}", ["validate", str(path)],
                          _ignore_seen(partial(checks.check_validate, doc))))
            ops.append(Op(f"cohomology:{group}-g{genus}", ["cohomology", str(path)],
                          _ignore_seen(partial(checks.check_cohomology, doc, dims, False))))
    return Workload("surfaces", ops)


# ---------------------------------------------------------------------------
# radial oracle and tube integrals


def radial_references(ladder, bs) -> dict:
    """Reference sigma_min and Bessel zeros from reference.py in a child process."""
    request = {
        "sigma": [[n, k, float(b)] for n, k in ladder for b in bs],
        "bessel": [float(b) for b in bs],
    }
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        input=json.dumps(request), capture_output=True, text=True, timeout=120, check=True,
    )
    reply = json.loads(proc.stdout)
    return {
        "sigma": {(n, k, b): s for n, k, b, s in reply["sigma"]},
        "bessel": {b: z for b, z in reply["bessel"]},
    }


def _oracle_op(grid: int, kappa: int, bs, samples: int, refs: dict) -> Op:
    argv = ["oracle", "--grid", str(grid), "--kappa", str(kappa), "--samples", str(samples)]
    for b in bs:
        argv += ["--b", str(b)]
    fn = partial(checks.check_oracle, grid, kappa, [float(b) for b in bs], samples, refs)
    name = f"oracle:n{grid}:k{kappa}" + (":decay" if samples > 1 else "")
    return Op(name, argv, _ignore_seen(fn))


def build_radial(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = radial_references(ORACLE_LADDER, ORACLE_BS)
    ops = [_oracle_op(n, k, ORACLE_BS, 1, refs) for n, k in ORACLE_LADDER]
    # The decay suite: 25 random band-limited inputs through t_b0, t_b1 and
    # their bounds; one b keeps its sigma_min part small.  (256, 0) is on the
    # ladder, so its reference is already there.
    ops.append(_oracle_op(256, 0, (1,), DECAY_SAMPLES, refs))
    tubes = []
    for kappa in (-1, 0, 1):
        for profile in PROFILES:
            alpha = float(rng.uniform(0.3, math.pi))
            length = float(rng.uniform(0.5, 2.0))
            eps = float(rng.uniform(0.25, 1.0))
            tubes.append((profile, kappa, alpha, length, eps))
            argv = ["forms", "--profile", profile, "--kappa", str(kappa), "--alpha", repr(alpha),
                    "--length", repr(length), "--eps", repr(eps)]
            fn = partial(checks.check_forms, profile, kappa, alpha, length)
            ops.append(Op(f"forms:{profile}:k{kappa}", argv, _ignore_seen(fn)))
    return Workload("radial", ops, {"tubes": tubes})


BUILDERS = {"fixtures": build_fixtures, "surfaces": build_surfaces, "radial": build_radial}
