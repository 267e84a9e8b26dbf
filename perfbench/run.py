"""lapdual benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload dual-homog --seed 1 --seconds 20 --trace 0

Workloads: dual-homog, direct-mc, find-lambda, cli (see
workloads.py).  One client runs ops in a closed loop, whole blocks at a
time, until the next block would end past ``--seconds`` (and at least
the workload's minimum number of blocks).  Every output is checked
against references in oracles.py that do not use lapdual's numerics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs exactly
the minimum number of blocks under the tracer (so counts are a pure
function of code and seed), replays the first ops untraced to measure
the tracing overhead and to compare result digests, and prints the
per-layer metrics.  A human-readable report comes first; the last line
of stdout is one JSON object.

Run from the root of a lapdual checkout: the package is imported from
``src/`` there and nowhere else.  Outputs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# eigh and cholesky in the Gaussian path may otherwise start BLAS threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest grid percentile with at least ten of n samples beyond it.

    Computed from the workload's guaranteed minimum sample count, so a
    faster program (more samples in the same time) reports the same one.
    """
    return max(q for q in TAIL_GRID if n * (1.0 - q / 100.0) >= 10.0 - 1e-9)


def environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS[:3])
    return (f"env: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} clients=1 {threads}")


def code_hash() -> str:
    """Hash of lapdual's sources and of the generators that make the ops."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lapdual").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Context:
    """What ops need from the run: a scratch directory and the child environment."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir, self.env = workdir, env


class Record:
    def __init__(self, op, seconds, ok, reason="", certs=(), digest="", result=None):
        self.op, self.seconds, self.ok, self.reason = op, seconds, ok, reason
        self.certs, self.digest, self.result = list(certs), digest, result


def run_op(workload, op, ctx, tracer=None) -> Record:
    if tracer is not None:
        tracer.op = op.index
    t0 = time.perf_counter()
    try:
        result = workload.call(op, ctx)
    except Exception as exc:  # any failure of the program is a failed op
        return Record(op, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    digest = workload.digest(result)
    try:
        outcome = workload.check(op, result)
    except (KeyError, ValueError, IndexError, TypeError) as exc:  # malformed output
        return Record(op, seconds, False, f"unreadable output: {type(exc).__name__}: {exc}", digest=digest)
    return Record(op, seconds, outcome.ok, outcome.reason, outcome.certs, digest, result)


def run_blocks(workload, seed, ctx, seconds, fixed, tracer=None) -> list[Record]:
    """Whole blocks until the next would end past ``seconds``; ``fixed`` runs the minimum only.

    A workload with ``passes = 2`` spends half the time on new ops and then
    runs each op again; the op's time is the faster of its runs, and runs
    whose digests differ fail.
    """
    passes = 1 if fixed else workload.passes
    records, busy, b = [], 0.0, 0
    while True:
        for op in workload.block(seed, b):
            records.append(run_op(workload, op, ctx, tracer))
            busy += records[-1].seconds
        b += 1
        if b >= workload.min_blocks and (fixed or busy + busy / b > seconds / passes):
            break
    for _ in range(passes - 1):
        for rec in records:
            again = run_op(workload, rec.op, ctx, tracer)
            rec.seconds = min(rec.seconds, again.seconds)
            if rec.ok and not again.ok:
                rec.ok, rec.reason = False, "repeat run: " + again.reason
            elif rec.ok and again.digest != rec.digest:
                rec.ok, rec.reason = False, "repeat run gives a different digest"
    return records


def _child(cmd, env) -> tuple[float, str]:
    """Wall time and stdout of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return seconds, proc.stdout.decode().strip()


def measure_setup(workload, seed, env) -> tuple[list[float], set[str]]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload.name, str(seed)]
    runs = [_child(cmd, env) for _ in range(SETUP_REPEATS)]
    return [t for t, _ in runs], {digest for _, digest in runs}


def measure_cli_import(env) -> float:
    """Median time for a fresh interpreter to import lapdual.cli, timed inside it."""
    code = "import time; t = time.perf_counter(); import lapdual.cli; print(time.perf_counter() - t)"
    return statistics.median(float(_child([sys.executable, "-c", code], env)[1]) for _ in range(3))


def compare_digests(workload, seed, records) -> int:
    """Compare with the first run of the same code and seed; returns mismatches."""
    path = OUT / "digests" / f"{code_hash()}-{workload.name}-{seed}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    mismatches = 0
    for rec in records:
        key = str(rec.op.index)
        if not rec.digest:
            continue
        if key in stored and stored[key] != rec.digest:
            rec.ok, rec.reason = False, "output digest differs from the first run of this seed"
            mismatches += 1
        stored.setdefault(key, rec.digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return mismatches


def cert_summary(records) -> tuple[int, int]:
    certs = [c for rec in records for c in rec.certs]
    return sum(1 for claimed, observed in certs if claimed < observed), len(certs)


END_TO_END = ("setup_s", "solve_s.p50", "solve_s.tail", "solves_per_s", "peak_rss_mb")


def end_to_end(workload, records, setup_times, rss_mb, lines) -> dict:
    """Metrics of an untraced run, name -> (value, unit); the report gets all, with notes."""
    n = len(records)
    good = sum(1 for rec in records if rec.ok)
    times = sorted(rec.seconds for rec in records)
    busy = sum(times)
    q = tail_percentile(workload.block_size * workload.min_blocks)
    misses, n_certs = cert_summary(records)
    m = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} fresh interpreters"),
        "solve_s.p50": (percentile(times, 50.0), "s", f"n={n}"),
        "solve_s.tail": (percentile(times, q), "s", f"p{q:g}, n={n}"),
        "solves_per_s": (good / busy, "1/s", f"{good} solves in {busy:.3f} s"),
        "failed_frac": ((n - good) / n, "frac", f"{n - good}/{n} ops"),
        "cert_miss_frac": (misses / n_certs if n_certs else None, "frac",
                           f"{misses}/{n_certs} certificates" if n_certs else "no certificates issued"),
        "peak_rss_mb": (rss_mb, "MB", "the benchmark process"),
    }
    for name, (value, unit, note) in m.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<16} {shown:>12} {unit:<5} {note}")
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec.op.kind, []).append(rec.seconds)
    lines.append("  by stratum: " + ", ".join(
        f"{kind} {len(t)}x{statistics.median(t):.4g}s" for kind, t in sorted(by_kind.items())))
    return {name: m[name][:2] for name in END_TO_END}


def plain_run(workload, args, ctx, lines):
    from perfbench.workloads import known_defect_probe

    setup_times, setup_digests = measure_setup(workload, args.seed, ctx.env)
    workload.warm()
    workload.call(workload.block(args.seed, 0)[0], ctx)  # fills caches; the timed loop runs it again
    records = run_blocks(workload, args.seed, ctx, args.seconds, fixed=False)
    if setup_digests != {records[0].digest}:
        records[0].ok, records[0].reason = False, "cold-process digest differs from the warm one"
    compare_digests(workload, args.seed, records)
    lines.append(f"end-to-end: {len(records)} ops in {len(records) // workload.block_size} blocks")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(workload, records, setup_times, rss_mb, lines)
    if workload.name == "dual-homog":
        lines.append(known_defect_probe())
    return records, metrics


def traced_run(workload, args, ctx, lines):
    from perfbench.tracer import Tracer, layer_metrics

    import_s = measure_cli_import(ctx.env) if workload.name == "cli" else None
    workload.warm()
    workload.call(workload.block(args.seed, 0)[0], ctx)
    tracer = Tracer()
    tracer.install()
    try:
        records = run_blocks(workload, args.seed, ctx, args.seconds, fixed=True, tracer=tracer)
    finally:
        tracer.uninstall()
    # The same ops untraced: overhead on identical work, and identical digests.
    replayed, t_traced, t_plain = 0, 0.0, 0.0
    for rec in records:
        plain = run_op(workload, rec.op, ctx)
        replayed += 1
        t_traced += rec.seconds
        t_plain += plain.seconds
        if plain.digest != rec.digest:
            rec.ok, rec.reason = False, "traced and untraced runs give different digests"
        if t_plain >= args.seconds / 4:
            break
    volumes = {(rec.op.index, y): v for rec in records for y, v in workload.volumes(rec.op).items()}
    tracer.dump(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
    metrics = layer_metrics(tracer.spans, volumes, import_s)
    metrics["trace.solves_per_s_traced"] = (replayed / t_traced, "1/s")
    metrics["trace.solves_per_s_untraced"] = (replayed / t_plain, "1/s")
    metrics["trace.overhead_frac"] = (t_traced / t_plain - 1.0, "frac")
    lines.append(f"traced run: {len(records)} ops, {len(tracer.spans)} spans; overhead on {replayed} replayed ops")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    return records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lapdual" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lapdual sources under {SRC}; run from a lapdual checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import lapdual

    if Path(lapdual.__file__).resolve().parent != (SRC / "lapdual").resolve():
        sys.stderr.write(f"error: imported lapdual from {lapdual.__file__}, not from {SRC}\n")
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    lines = [f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}",
             environment(), f"input: {workload.about}"]
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        ctx = Context(Path(tmp), dict(os.environ, PYTHONPATH=str(SRC)))
        records, metrics = (traced_run if args.trace else plain_run)(workload, args, ctx, lines)
    failed = [rec for rec in records if not rec.ok]
    for rec in failed[:20]:
        lines.append(f"FAILED op {rec.op.index} ({rec.op.kind}): {rec.reason}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed),
                      "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
