#!/usr/bin/env python3
"""conerig benchmark: one workload per process, timed through `conerig.cli.run`.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory whose `src/conerig` is the
package to measure).  With `--trace 0` the last line of stdout is the JSON
result with the end-to-end metrics; with `--trace 1` it carries the
per-layer metrics of a traced run instead.  The line before it records the
machine facts.  Both are also written, with per-pass details, under
`perfbench/out/`; a traced run also writes its spans there.

Exit codes: 0 with a result line, 2 when the package is missing or the
arguments are wrong (no result line is printed).
"""
from __future__ import annotations

import os

# One BLAS thread for the single-threaded baseline; set before numpy loads,
# in this process and in every interpreter it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fixtures", "surfaces", "radial")
SETUP_INTERPRETERS = 7
MIN_PASSES = 3
SETUP_CHILD = "import sys; sys.path.insert(0, 'src'); from conerig.cli import main; main()"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# running operations


class Runner:
    """Runs passes over a workload's operations and keeps the tallies."""

    def __init__(self, cli_run, ops):
        self.cli_run = cli_run
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def run_pass(self, tracer=None) -> list[float]:
        """One pass; returns the wall time of each operation in seconds."""
        times = []
        seen: dict = {}
        for op in self.ops:
            out, err = io.StringIO(), io.StringIO()
            code, crash = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if tracer is None:
                        code = self.cli_run(op.argv)
                    else:
                        tracer.counts["cli.calls"] += 1
                        code = tracer.call("cli.run", self.cli_run, op.argv)
            except Exception:  # an operation that raises is a failed operation
                crash = traceback.format_exc(limit=3)
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            failure = crash or self.verify(op, code, out.getvalue(), err.getvalue(), seen)
            if failure:
                self.failed += 1
                if not op.known_fault and len(self.unexpected) < 20:
                    self.unexpected.append(f"{op.name}: {failure}")
        return times

    @staticmethod
    def verify(op, code, out, err, seen) -> str | None:
        import checks

        try:
            seen[op.name] = op.check(code, out, err, seen)
        except checks.CheckFailed as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed report: {exc!r}"
        return None


def setup_seconds(op, runner) -> list[float]:
    """Cold start: fresh interpreter, `import conerig.cli`, the first report."""
    samples = []
    for _ in range(SETUP_INTERPRETERS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *op.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        samples.append(time.perf_counter() - t0)
        failure = runner.verify(op, proc.returncode, proc.stdout, proc.stderr, {})
        if failure:
            runner.unexpected.append(f"setup {op.name}: {failure}")
    return samples


def measure(runner, seconds: float) -> dict:
    runner.run_pass()  # warm-up: first-call costs, lazily built caches
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    totals = [sum(p) for p in passes]
    return {
        "pass_seconds": totals,
        "max_op_seconds": [max(p) for p in passes],
        "op_median_ms": {
            op.name: 1e3 * statistics.median(p[k] for p in passes)
            for k, op in enumerate(runner.ops)
        },
    }


def measure_traced(runner, tracer, seconds: float) -> dict:
    """Untraced and traced passes alternate; the difference is the overhead."""
    import tracer as tracing

    runner.run_pass()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES - 1 or time.perf_counter() - start < seconds:
        plain.append(sum(runner.run_pass()))
        tracer.install()
        try:
            tracer.begin_pass()
            traced.append(sum(runner.run_pass(tracer)))
            layers.append(tracer.end_pass())
        finally:
            tracer.uninstall()
    # Counts repeat exactly from pass to pass; median_low keeps them whole.
    metrics = {
        name: (statistics.median if name in tracing.TIMES else statistics.median_low)(
            [p[name] for p in layers])
        for name in layers[0]
    }
    metrics["trace.pass_ms"] = 1e3 * statistics.median(plain)
    # Each traced pass is paired with the untraced pass just before it, so a
    # change of machine speed between passes cancels in the difference.
    metrics["trace.overhead_ms"] = 1e3 * statistics.median(t - p for t, p in zip(traced, plain))
    return {"metrics": metrics, "plain_pass_seconds": plain, "traced_pass_seconds": traced,
            "per_pass": layers}


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "conerig" / "__init__.py").is_file():
        sys.stderr.write(f"error: no conerig package under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Cold starts are timed with a warm bytecode cache, as an installed
    # package has, whatever PYTHONDONTWRITEBYTECODE says: this import writes
    # the .pyc files and the timed interpreters read them.
    sys.dont_write_bytecode = False
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    import conerig.cli
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, workdir.relative_to(ROOT))
        runner = Runner(conerig.cli.run, workload.ops)
        details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                         "seconds": args.seconds, "ops": [op.name for op in workload.ops],
                         "inputs": workload.inputs}
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            result = measure_traced(runner, tracer, args.seconds)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()}
            details.update(result, missing_patches=tracer.missing)
            spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "pass"], "spans": tracer.spans}))
        else:
            setup = setup_seconds(workload.ops[0], runner)
            result = measure(runner, args.seconds)
            n_ops = len(workload.ops)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "ops_per_s": {"value": n_ops / statistics.median(result["pass_seconds"]),
                              "unit": "ops/s"},
                "max_op_ms": {"value": 1e3 * statistics.median(result["max_op_seconds"]),
                              "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
            details.update(result, setup_seconds=setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    final = {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details.update(machine=facts, unexpected_failures=runner.unexpected, result=final)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1, default=str))
    for line in runner.unexpected:
        sys.stderr.write(f"failed: {line}\n")
    print(json.dumps({"machine": facts}))
    print(json.dumps(final))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_gflop_computed"):
        return "Gflop"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
