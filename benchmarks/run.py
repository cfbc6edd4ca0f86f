"""Benchmark of loadcast's training and serving paths.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing hooked.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py`` instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the run environment and the unscaled wall-clock
figures; it is metadata, not metrics.

End-to-end timings (``days_per_s``, ``setup_s``) are in reference seconds:
wall seconds scaled by the host's speed, which ``reference.py`` measures with
a fixed loop just before and after every set-up and pass.  Per-layer timings
are plain wall seconds of a traced pass.

The program is imported from ``src/`` of the same checkout, never from an
installed copy; without it the benchmark exits 1 and prints no result.
"""

import os

# one BLAS thread: skinny matmuls are erratic with more, and results are only
# byte-reproducible at a fixed count.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-desk", "train-full", "evaluate")

#: end-to-end metrics and their units; every workload reports all of them
END_TO_END_UNITS = {
    "days_per_s": "1/s",
    "train_loss": "loss",
    "mape_pct": "%",
    "winkler": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import loadcast from this checkout's ``src/``, or exit 1."""
    if not (SRC / "loadcast" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC / 'loadcast'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import loadcast
    if Path(loadcast.__file__).resolve().parent != (SRC / "loadcast").resolve():
        sys.exit(f"benchmark: imported loadcast from {loadcast.__file__}, "
                 f"not from {SRC}")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(load_1m: float) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_avg_1m_at_start": load_1m,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class Run:
    """Operations attempted in one run and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.quality = None

    def check(self, what: str, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"benchmark: {what}: {p}", file=sys.stderr)

    def check_pass(self, what: str, result):
        """A pass's own checks, plus bit-for-bit repetition of quality."""
        problems = list(result.problems)
        if self.quality is None:
            self.quality = result.quality
        elif result.quality != self.quality:
            problems.append(f"quality {result.quality} differs from the "
                            f"first pass's {self.quality}")
        self.check(what, problems)


def days_per_s(passes, scales) -> float:
    """Days per second of a median pass, each pass's seconds multiplied by
    its scale.  Training passes time each variant separately, and the pass
    is the sum of per-variant medians, which a burst of load on the host
    during one variant's training does not move."""
    if passes[0].variant_s:
        seconds = sum(statistics.median(r.variant_s[v] * k
                                        for r, k in zip(passes, scales))
                      for v in passes[0].variant_s)
    else:
        seconds = statistics.median(r.wall_s * k
                                    for r, k in zip(passes, scales))
    return passes[0].days / seconds


def measure(workload, seed, seconds, trace, workdir):
    import tracing
    from reference import reference_seconds, scales

    run = Run()
    setups, setup_refs = [], [reference_seconds()]
    for i in range(workload.setup_repeats):
        seconds_taken, problems = workload.setup(seed, workdir)
        setups.append(seconds_taken)
        setup_refs.append(reference_seconds())
        run.check(f"set-up {i + 1}", problems)

    untraced, traced, layers = [], [], []
    refs = [setup_refs[-1]]
    deadline = time.perf_counter() + seconds
    while True:
        # every pass starts from the same heap: no garbage left to collect
        gc.collect()
        untraced.append(workload.run_pass(workdir))
        refs.append(reference_seconds())
        run.check_pass(f"pass {len(untraced)}", untraced[-1])
        if trace:
            gc.collect()
            with tracing.Tracer() as tracer:
                traced.append(workload.run_pass(workdir))
            run.check_pass(f"traced pass {len(traced)}", traced[-1])
            run.check("hooks", tracer.problems(workload.name, traced[-1].days))
            layers.append(tracing.layer_metrics(tracer.rec, traced[-1].samples))
        if time.perf_counter() >= deadline:
            break

    quality, problems, save_s = workload.finish(workdir)
    run.check("end-of-run checks", problems)
    med = statistics.median
    unscaled = {
        "pass_s": [round(r.wall_s, 4) for r in untraced],
        "reference_s": [round(r, 4) for r in refs],
        "wall_days_per_s": days_per_s(untraced, [1.0] * len(untraced)),
        "wall_setup_s": med(setups),
    }

    if not trace:
        values = dict(run.quality, **quality)
        values.update(
            days_per_s=days_per_s(untraced, scales(refs)),
            setup_s=med(t * k for t, k in zip(setups, scales(setup_refs))),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        units = END_TO_END_UNITS
    else:
        values = {k: med(m[k] for m in layers) for k in layers[0]}
        run.check("repeated counts", [
            f"{k} varies across traced passes"
            for k in tracing.COUNT_METRICS
            if k in layers[0] and len({m[k] for m in layers}) > 1])
        for v in tracing.VARIANTS:
            values[f"cells.{v}.ms_per_sample"] = (
                med(1000 * r.variant_s[v] * len(r.variant_s) / r.samples
                    for r in untraced) if v in untraced[0].variant_s else 0.0)
        untraced_wall = med(r.wall_s for r in untraced)
        values.update({
            "serialize.save_ensemble_s": save_s,
            "process.cpu_s": med(r.cpu_s for r in untraced),
            "process.wall_s": untraced_wall,
            "trace.overhead_s": med(r.wall_s for r in traced) - untraced_wall,
            "host.reference_s": med(refs),
        })
        units = tracing.PER_LAYER_UNITS
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
    return unscaled, {"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the self-check only")
    args = parser.parse_args(argv)
    load_1m = os.getloadavg()[0]
    import_program()
    import workloads

    env = environment(load_1m)
    workload = workloads.make_workloads(tiny=args.tiny)[args.workload]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        unscaled, result = measure(workload, args.seed, args.seconds,
                                   args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"environment": env, "unscaled": unscaled}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
