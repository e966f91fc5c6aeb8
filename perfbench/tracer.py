"""Per-layer spans and counters around conerig's public functions.

`Tracer.install()` replaces module attributes that callers actually look up
(for example `conerig.cli.h1_basis`, which the CLI imported by name, and
`conerig.cohomology.h1_basis`, which rigidity and the audit call) with
wrappers; `uninstall()` puts the originals back.  Nothing inside the
program is edited.

A span is (name, start, end, parent index, pass index), kept in memory and
written out at the end of a run.  A layer's time is its self time: a span's
duration minus the durations of its direct child spans, so the layer times
of one pass add up to the pass time.  Calls too small to time without
distorting them (Lie-group products, adjoint actions, word evaluation) are
only counted.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

# (module, attribute, span name, counter name, hook)
# hook(tracer, fn, args, kwargs, result) adds computed counts after each call.


def _arg(fn, args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    if name in kwargs:
        return kwargs[name]
    return inspect.signature(fn).parameters[name].default


def _jacobian_entries(tr, fn, args, kwargs, result):
    tr.counts["words.jacobian_entries"] += int(result.size)


def _svd_size(tr, fn, args, kwargs, result):
    n = _arg(fn, args, kwargs, 2, "grid").n
    tr.counts["radial.svd_rows"] += n
    # Singular values only (LAPACK gesdd, no vectors) of an m x k matrix,
    # m >= k, costs about 4 m k^2 - 4 k^3 / 3 flops (Golub & Van Loan).
    m, k = n, n - 1
    tr.counts["radial.svd_gflop_computed"] += (4.0 * m * k * k - 4.0 * k**3 / 3.0) / 1e9


def _tube_radii(tr, fn, args, kwargs, result):
    # One trapezoid segment per delta, each over n + 1 radii.
    n = _arg(fn, args, kwargs, 3, "n")
    tr.counts["radial.tube_radii"] += len(result.deltas) * (n + 1)


def _quad_nodes(tr, fn, args, kwargs, result):
    tr.counts["radial.quad_samples"] += _arg(fn, args, kwargs, 3, "n") + 1


def _wrap_parser(tr, fn, args, kwargs, parser):
    parser.parse_args = tr.timed("cli.parser", parser.parse_args)


PATCHES = [
    ("conerig.cli", "build_parser", "cli.parser", None, _wrap_parser),
    ("conerig.cli", "load_manifest", "manifest.load", "manifest.load_calls", None),
    ("conerig.cli", "report_text", "manifest.report", None, None),
    ("conerig.cli", "h1_basis", "cohomology.h1_basis", "cohomology.h1_basis_calls", None),
    ("conerig.cohomology", "h1_basis", "cohomology.h1_basis", "cohomology.h1_basis_calls", None),
    ("conerig.cohomology", "relator_jacobian", "words.jacobian", None, _jacobian_entries),
    ("conerig.words", "relator_jacobian", "words.jacobian", None, _jacobian_entries),
    ("conerig.words", "extend_cocycle", None, "words.extend_cocycle_calls", None),
    ("conerig.cohomology", "extend_cocycle", None, "words.extend_cocycle_calls", None),
    ("conerig.words", "evaluate", None, "words.evaluate_calls", None),
    ("conerig.cohomology", "evaluate", None, "words.evaluate_calls", None),
    ("conerig.cli", "rigidity_test", "cohomology.rigidity", None, None),
    ("conerig.cohomology", "trace_differential", "cohomology.trace", None, None),
    ("conerig.cli", "dimension_audit", "cohomology.audit", None, None),
    ("conerig.cli", "cone_admissibility_verdict", "spectral.admissibility", None, None),
    ("conerig.cli", "circle_dirac_spectrum", "spectral.spectrum", None, None),
    ("conerig.cli", "circle_B_spectrum", "spectral.spectrum", None, None),
    ("conerig.cli", "link_B_spectrum", "spectral.spectrum", None, None),
    ("conerig.spectral", "circle_B_spectrum", "spectral.spectrum", None, None),
    ("conerig.spectral", "link_B_spectrum", "spectral.spectrum", None, None),
    ("conerig.cli", "pb_min_singular", "radial.pb_min_singular", None, _svd_size),
    ("conerig.cli", "l2_tube_verdict", "radial.tube", None, _tube_radii),
    ("conerig.cli", "t_b0", "radial.decay", None, _quad_nodes),
    ("conerig.cli", "t_b0_bound", "radial.decay", None, _quad_nodes),
    ("conerig.cli", "t_b1", "radial.decay", None, _quad_nodes),
    ("conerig.cli", "t_b1_bound", "radial.decay", None, _quad_nodes),
    ("conerig.words", "ad_action", None, "liecore.ad_action_calls", None),
    ("conerig.liecore", "ad_action", None, "liecore.ad_action_calls", None),
    ("conerig.liecore", "Sl2cElement.mul", None, "liecore.mul_calls", None),
    ("conerig.liecore", "Su2Element.mul", None, "liecore.mul_calls", None),
    ("conerig.liecore", "Su2PairElement.mul", None, "liecore.mul_calls", None),
]

# Per-pass metric -> span whose self time it reports (milliseconds).
TIMES = {
    "cli.parser_ms": "cli.parser",
    "cli.self_ms": "cli.run",
    "manifest.load_ms": "manifest.load",
    "manifest.report_ms": "manifest.report",
    "words.jacobian_ms": "words.jacobian",
    "cohomology.h1_basis_ms": "cohomology.h1_basis",
    "cohomology.rigidity_ms": "cohomology.rigidity",
    "cohomology.trace_ms": "cohomology.trace",
    "cohomology.audit_ms": "cohomology.audit",
    "spectral.admissibility_ms": "spectral.admissibility",
    "spectral.spectrum_ms": "spectral.spectrum",
    "radial.pb_min_singular_ms": "radial.pb_min_singular",
    "radial.tube_ms": "radial.tube",
    "radial.decay_ms": "radial.decay",
}
COUNTS = (
    "cli.calls",
    "manifest.load_calls",
    "words.jacobian_entries",
    "words.extend_cocycle_calls",
    "words.evaluate_calls",
    "cohomology.h1_basis_calls",
    "radial.svd_rows",
    "radial.svd_gflop_computed",
    "radial.tube_radii",
    "radial.quad_samples",
    "liecore.ad_action_calls",
    "liecore.mul_calls",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pass = -1
        self._pass_start = 0

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._pass]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrapper(self, fn, span, counter, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            result = fn(*args, **kwargs) if span is None else self.call(span, fn, *args, **kwargs)
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span, counter, hook in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(original, span, counter, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- per-pass metrics ------------------------------------------------

    def begin_pass(self) -> None:
        self._pass += 1
        self._pass_start = len(self.spans)
        self.counts.clear()

    def end_pass(self) -> dict[str, float]:
        spans = self.spans[self._pass_start :]
        child = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans, start=self._pass_start):
            self_time[name] += end - start - child[k]
        out = {metric: 1e3 * self_time[span] for metric, span in TIMES.items()}
        out.update({name: self.counts[name] for name in COUNTS})
        return out
