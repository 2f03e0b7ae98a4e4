"""The hskahler benchmark: CLI latency and throughput on generated documents.

    python3 bench/run.py --workload family-sparse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each operation is one CLI invocation, ``hskahler.cli.run_command(argv)``
called in-process with stdout captured.  One client drives a closed
loop: the next operation starts when the previous one has finished.
The loop first runs the workload's heavy operations once, then cycles
through its rounds until ``--seconds`` have passed, every round has run
twice and ``analyze`` has at least ten samples beyond its p90.  Between
rounds it times ``batch DIR --jobs 2`` (for at least 0.4 s) and two
cold starts of the CLI.  Every outcome is checked afterwards (see checker.py).  ``--trace 1`` runs the loop untraced, then traced,
and reports per-layer metrics (see spans.py) instead of end-to-end ones.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
COLD_STARTS_PER_ROUND = 2
MIN_COLD_STARTS = 11
MIN_BATCHES = 5
BATCH_SECONDS_PER_ROUND = 0.4
BATCH_JOBS = 2
ARGV = {"analyze": ["analyze"], "kahlerize": ["kahlerize"], "hs": ["hs"],
        "hs_search": ["hs", "--search"]}  # default --restarts 6 --budget 500
END_TO_END = (("analyze_ms_p50", "ms"), ("analyze_ms_p90", "ms"), ("kahlerize_ms_p50", "ms"),
              ("hs_ms_p50", "ms"), ("hs_search_ms_p50", "ms"), ("ops_per_s", "1/s"),
              ("batch_docs_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_cli():
    """``hskahler.cli`` from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "hskahler" / "__init__.py").is_file():
        raise SystemExit(f"error: no hskahler package under {src}")
    sys.path.insert(0, str(src))
    import hskahler.cli

    if not Path(hskahler.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: hskahler imported from {hskahler.cli.__file__}, not {src}")
    return hskahler.cli


def cold_start() -> float:
    """Seconds for ``python -m hskahler.cli --version`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hskahler.cli", "--version"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    dt = time.perf_counter() - t
    if proc.returncode != 0 or not proc.stdout.startswith("hskahler "):
        raise SystemExit(f"error: CLI cold start failed: {proc.stderr.strip()}")
    return dt


class Session:
    """Invokes the CLI in-process and keeps every outcome for checking."""

    def __init__(self, cli, w: workloads.Workload, tracer: spans.Tracer | None = None):
        self.cli, self.w, self.tracer = cli, w, tracer
        self.results: list[tuple[str, str, int, str]] = []  # command, doc, exit code, stdout
        self.samples: dict[str, list[float]] = {c: [] for c in ARGV}
        self.batch_rates: list[float] = []
        self.batch_ops: dict[int, int] = {}   # op id -> --jobs, for the traced batch metrics
        self.cold_starts: list[float] = []

    def invoke(self, argv: list[str]) -> tuple[int, float, str]:
        if self.tracer is not None:
            self.tracer.begin_op(len(self.results))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t = time.perf_counter()
            rc = self.cli.run_command(argv)
            dt = time.perf_counter() - t
        return rc, dt, out.getvalue()

    def op(self, op: workloads.Op, sample: bool = True) -> None:
        base = ARGV[op.command]
        rc, dt, out = self.invoke(base[:1] + [str(self.w.path(op.doc))] + base[1:])
        if sample:
            self.samples[op.command].append(dt)
        self.results.append((op.command, op.doc, rc, out))

    def closed_loop(self, seconds: float, cold_starts: bool) -> float:
        """Operations per second of the loop.

        Heavy operations count here, not in the latency percentiles.
        Between rounds ``batch`` runs for at least 0.4 s and, if asked,
        the CLI starts cold twice; spreading them over the run evens out a slow spell of the
        machine.  Their time is not part of the loop's wall time.
        """
        t0 = time.perf_counter()
        aside = 0.0
        for op in self.w.heavy:
            self.op(op, sample=False)
        cycle = self.w.rounds
        done = 0
        while True:
            for op in cycle[done % len(cycle)]:
                self.op(op)
            done += 1
            t = time.perf_counter()
            self.batch()
            while time.perf_counter() - t < BATCH_SECONDS_PER_ROUND:
                self.batch()
            if cold_starts:
                self.cold_starts += [cold_start() for _ in range(COLD_STARTS_PER_ROUND)]
            aside += time.perf_counter() - t
            n = len(self.samples["analyze"])
            if (done >= 2 * len(cycle) and time.perf_counter() - t0 >= seconds
                    and n - int(0.9 * (n + 1)) >= 10):
                break
        rate = (len(self.results) - len(self.batch_rates)) / (time.perf_counter() - t0 - aside)
        while len(self.batch_rates) < MIN_BATCHES:
            self.batch()
        while cold_starts and len(self.cold_starts) < MIN_COLD_STARTS:
            self.cold_starts.append(cold_start())
        return rate

    def batch(self) -> None:
        self.batch_ops[len(self.results)] = BATCH_JOBS
        rc, dt, out = self.invoke(["batch", str(self.w.batch_dir), "--jobs", str(BATCH_JOBS)])
        self.batch_rates.append(len(self.w.batch) / dt)
        self.results.append(("batch", "", rc, out))

    def failures(self) -> list[str]:
        """One reason per failed operation, in order."""
        first: dict[str, str] = {}      # doc -> command of its first operation
        body: dict[str, str] = {}       # doc -> JSON of that operation's first run
        repeats: dict[str, int] = {}
        out = []
        for command, doc, rc, stdout in self.results:
            if command == "batch":
                why = checker.check_batch(self.w.docs, self.w.batch, rc, stdout)
            else:
                why = checker.check(command, self.w.docs[doc], rc, stdout)
                if why is None and first.setdefault(doc, command) == command:
                    text = checker.split_report(stdout)[0]
                    repeats[doc] = repeats.get(doc, 0) + 1
                    if body.setdefault(doc, text) != text:
                        why = "JSON report differs from the first run of this operation"
            if why is not None:
                out.append(f"{command} {doc}: {why}")
        out += [f"{first[d]} {d}: ran once, not repeated" for d, k in repeats.items() if k < 2]
        return out


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8]


def end_to_end(session: Session, rate: float) -> dict[str, float]:
    s = session.samples
    return {
        "analyze_ms_p50": 1000.0 * statistics.median(s["analyze"]),
        "analyze_ms_p90": 1000.0 * _p90(s["analyze"]),
        "kahlerize_ms_p50": 1000.0 * statistics.median(s["kahlerize"]),
        "hs_ms_p50": 1000.0 * statistics.median(s["hs"]),
        "hs_search_ms_p50": 1000.0 * statistics.median(s["hs_search"]),
        "ops_per_s": rate,
        "batch_docs_per_s": statistics.median(session.batch_rates),
        "setup_s": statistics.median(session.cold_starts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args) -> dict:
    cli = import_cli()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        w = workloads.generate(args.workload, args.seed, work)
        plain = Session(cli, w)
        if not args.trace:
            rate = plain.closed_loop(args.seconds, cold_starts=True)
            values, units = end_to_end(plain, rate), dict(END_TO_END)
            sessions = [plain]
        else:
            plain_rate = plain.closed_loop(args.seconds, cold_starts=False)
            tracer = spans.Tracer()
            traced = Session(cli, w, tracer)
            tracer.install()
            try:
                traced_rate = traced.closed_loop(args.seconds, cold_starts=False)
            finally:
                tracer.uninstall()
            tracer.dump(work.parent / f"spans-{args.workload}.jsonl")
            values = spans.summarize(tracer.spans, traced.batch_ops)
            values["trace.overhead_ratio"] = traced_rate / plain_rate
            units = dict(spans.PER_LAYER)
            sessions = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(s.results) for s in sessions)
    reasons = [r for s in sessions for r in s.failures()]
    consistent = not args.trace or values["trace.self_over_wall_max"] <= 1.0 + 1e-9
    for r in reasons[:20]:
        print(f"FAILED {r}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, v in values.items():
        print(f"  {name:<46} {v:14.6g} {units[name]}")
    if not args.trace:
        counts = "  ".join(f"{c}={len(v)}" for c, v in plain.samples.items())
        print(f"  samples: {counts}  batch={len(plain.batch_rates)}"
              f"  cold_start={len(plain.cold_starts)}")
    print(f"  failed_frac {len(reasons) / attempted:.4f} ({len(reasons)} of {attempted} operations)")
    return {
        "correct": not reasons and consistent,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so peak memory does not mix."""
    ok = True
    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and rows[name]["correct"]
    if rows:
        names = list(rows)
        print(f"{'metric':<46} {'unit':<6} " + " ".join(f"{n:>14}" for n in names))
        for m, spec in rows[names[0]]["metrics"].items():
            cells = " ".join(f"{rows[n]['metrics'][m]['value']:14.6g}" for n in names)
            print(f"{m:<46} {spec['unit']:<6} {cells}")
        print(f"{'failed_frac':<46} {'ratio':<6} "
              + " ".join(f"{rows[n]['failed'] / rows[n]['attempted']:14.4f}" for n in names))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
