"""povmint benchmark: closed loop, one client, one process per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload plane-verify --seed 1 --seconds 18 --trace 0

Untraced (``--trace 0``) runs measure the end-to-end metrics; traced runs
(``--trace 1``) interleave untraced and traced copies of each op, check that
their outputs are byte-identical, and report the per-layer metrics.  Every
run prints a table, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted``/``failed`` count output checks.
Details (samples, environment, self-time shares) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one client in one process: BLAS runs on the calling thread unless the
# caller asks otherwise (set before numpy is first imported)
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# set-up is repeated in fresh interpreters and reported as the median
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref_s": "s", "pass_rate": "ratio",
                    "peak_rss_mb": "MB"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Checks:
    """Running count of attempted and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def expect(self, ok: bool):
        self.add(1, int(not ok))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this fresh interpreter, "
                             "print it and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import povmint.cli as cli

    return cli


def run_op(workload, state, i, checks: Checks):
    """One timed op; an exception fails the op's check and the loop goes on.
    Returns the outcome and the op's start and end on perf_counter."""
    start = time.perf_counter()
    try:
        outcome = workload.op(state, i)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = None
    end = time.perf_counter()
    if outcome is None:
        checks.expect(False)
    else:
        checks.add(outcome.attempted, outcome.failed)
    return outcome, start, end


def setup_probes(args) -> list[list[float]]:
    """(wall, reference) set-up seconds of SETUP_SAMPLES - 1 further fresh
    interpreters."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(args, workload, state, checks: Checks) -> dict:
    """Closed loop of untraced ops for args.seconds, with the host's speed
    sampled throughout; returns each op's wall and reference seconds."""
    spans, first = [], {}
    repeated = False
    with hostspeed.HostSpeed() as host:
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            outcome, start, end = run_op(workload, state, i, checks)
            spans.append((start, end))
            if outcome is not None:
                if outcome.key in first:
                    repeated = True
                    checks.expect(outcome.output == first[outcome.key])
                else:
                    first[outcome.key] = outcome.output
            i += 1
    if not repeated:
        # re-run op 0 with the same inputs: its report must repeat exactly
        outcome, _, _ = run_op(workload, state, 0, checks)
        if outcome is not None:
            checks.expect(outcome.output == first.get(outcome.key))
    wall, ref = zip(*(host.ref_seconds(start, end) for start, end in spans))
    return {"op_s": list(wall), "op_ref_s": list(ref),
            "host_speed": host.speeds}


def measure_traced(args, workload, state, tr: tracing.Tracer,
                   checks: Checks) -> dict:
    """Pairs of (untraced, traced) runs of the same op for args.seconds."""
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        ref, start, end = run_op(workload, state, i, checks)
        plain.append(end - start)
        tr.install()
        try:
            with tr.root(f"op{i}"):
                got, start, end = run_op(workload, state, i, checks)
        finally:
            tr.uninstall()
        traced.append(end - start)
        checks.expect(ref is not None and got is not None
                      and ref.output == got.output)
        i += 1
    return {"plain_s": plain, "traced_s": traced}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(args, load_before) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without leaving it; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "povmint" / "__init__.py").is_file():
        sys.stderr.write(f"no povmint sources under {ROOT / 'src'}\n")
        return 2
    workload = WORKLOADS[args.workload]
    load_before = list(os.getloadavg())

    tr = None
    if args.trace:
        cli = import_program()
        tr = tracing.Tracer()
        tr.attach(cli)
        tr.install()
        try:
            with tr.root("setup"):
                state = workload.setup(cli, args.seed)
        finally:
            tr.uninstall()
    else:
        # set-up is timed with the host's speed sampled by a numpy-free chunk
        with hostspeed.HostSpeed(hostspeed.SETUP) as host:
            start = time.perf_counter()
            cli = import_program()
            state = workload.setup(cli, args.seed)
            end = time.perf_counter()
        setup = list(host.ref_seconds(start, end))
        if args.setup_probe:
            print(json.dumps(setup))
            return 0

    checks = Checks()
    checks.add(*state.get("setup_checks", (0, 0)))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        samples = measure_traced(args, workload, state, tr, checks)
        metrics = tr.metrics(len(samples["traced_s"]))
        metrics["trace.overhead_ratio"] = (sum(samples["traced_s"])
                                           / sum(samples["plain_s"]) - 1.0)
        units = tracing.UNITS
        notes = {"core.quantize.node_bytes": "computed, not measured",
                 "core.quantize.gb_per_s": "computed, not measured"}
        extra = {"self_share": tr.self_shares(), "spans": len(tr.spans)}
        tr.write_spans(stem.with_suffix(".spans.csv.gz"))
    else:
        setup_samples = [setup] + setup_probes(args)
        samples = measure(args, workload, state, checks)
        samples["setup_wall_ref_s"] = setup_samples
        ops, ref = samples["op_s"], samples["op_ref_s"]
        metrics = {
            "setup_s": statistics.median(r for _, r in setup_samples),
            "op_p50_ref_s": statistics.median(ref),
            "pass_rate": 1.0 - checks.failed / checks.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        # raw wall times, p90 and the error rate are printed but left out of
        # the result line: raw times follow the host's drift, p90 has ten
        # samples above it only in runs of 100+ ops, and a result metric must
        # never read 0
        op_p90 = p90(ref)
        above = sum(1 for v in ref if v > op_p90)
        speed = statistics.median(samples["host_speed"])
        notes = {"setup_s": f"median of {len(setup_samples)} fresh interpreters "
                            "at reference host speed",
                 "op_p50_ref_s": f"median of {len(ops)} ops at reference host speed"}
        extra = {"info": {
            "setup_wall_s": [statistics.median(w for w, _ in setup_samples), "s",
                             f"wall, median of {len(setup_samples)}"],
            "op_p50_s": [statistics.median(ops), "s", f"wall, median of {len(ops)} ops"],
            "op_p90_ref_s": [op_p90, "s", f"{len(ops)} ops, {above} above p90"],
            "host_speed": [speed, "ratio", f"median of {len(samples['host_speed'])} "
                           "samples, 1 = reference speed"],
            "error_rate": [checks.failed / checks.attempted, "ratio",
                           f"{checks.failed} of {checks.attempted} checks failed"],
        }}

    correct = checks.failed == 0
    env = environment(args, load_before)
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"env": env, "correct": correct, "attempted": checks.attempted,
                   "failed": checks.failed, "metrics": metrics,
                   "samples": samples, **extra}, fh, indent=1)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6g} {units[name]}{note}")
    for name, (value, unit, note) in extra.get("info", {}).items():
        print(f"{name:40s} {value:14.6g} {unit}  ({note}; not in result line)")
    for name, share in sorted(extra.get("self_share", {}).items(),
                              key=lambda kv: -kv[1]):
        print(f"self-time share {name:40s} {share:7.1%}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
