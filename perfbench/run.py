"""hyperspec benchmark: fresh-process time to a verified answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One closed-loop client runs the
workload's invocations one at a time, each in a fresh process started
when the previous one has exited, and repeats the whole pass until S
seconds have gone by. Every output is checked against its recorded exit
code and SHA-256. Before the passes, a fresh process imports hyperspec and
builds the workload's inputs, several times over, for `setup_s`.

With --trace 0 the last line of stdout holds the end-to-end metrics (each
a median over the passes of the run). Their times are scaled to a
reference host speed, which a probe thread samples all through the run
(see Speedometer); the raw times are printed beside them and kept in the
results file. With --trace 1 one further pass
runs through the tracer and the last line holds the per-layer metrics
named in BENCHMARK.json. Per-invocation times, digests and the full
per-layer figures go to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_REPEATS = 3
RUN_BUDGET_S = 170  # children still running this long after the start are killed
PROBE_EVERY_S = 0.05  # one probe of about 2 ms each 50 ms: a few % of one core
PROBE_PAD_S = 0.5  # probes this far before and after an invocation count for it
REF_PROBE_S = 0.0015  # probe CPU time that defines the reference host speed


def probe_loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class Speedometer:
    """Host speed, sampled all through a run by a thread of this process.

    The host is shared with other machines' work, and the same code runs
    up to half again as slow for tens of seconds at a time, so raw times
    of two runs differ by more than the benchmark's bounds. Every
    PROBE_EVERY_S the thread times `probe_loop` by its own CPU time, on
    each of the client's cores in turn. That time grows when the host
    slows the cores down; it does not grow when a child takes both cores,
    because time spent waiting for a core is not CPU time. An invocation's
    times are scaled by REF_PROBE_S over the median probe time around it,
    which gives the time it would have taken at the reference speed. The
    probe runs no hyperspec code, so a change to hyperspec moves scaled
    times by the same share as raw ones."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        # Pinned to each core in turn: unpinned, the scheduler puts the probe
        # on the core the child is not using, which tracks the child's speed
        # less well. Only this thread is pinned; children may use every core.
        cores = itertools.cycle(sorted(os.sched_getaffinity(0)))
        while not self._stop.is_set():
            os.sched_setaffinity(0, {next(cores)})
            at, cpu = time.perf_counter(), time.thread_time()
            probe_loop()
            self.samples.append((at, time.thread_time() - cpu))
            self._stop.wait(PROBE_EVERY_S)

    def scale(self, start: float, end: float) -> float:
        near = [d for at, d in self.samples if start - PROBE_PAD_S <= at <= end + PROBE_PAD_S]
        return REF_PROBE_S / statistics.median(near or [d for _, d in self.samples])


@dataclass
class Outcome:
    key: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    sha256: str  # of the raw stdout, comparable between commits on any seed
    digest: str | None  # of the stdout with seeded labels normalised; None if unparsable
    ok: bool
    start: float = 0.0  # perf_counter reading when the process was spawned
    scale: float = 1.0  # reference over measured host speed; see Speedometer

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.scale


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def ref_wall_s(self) -> float:
        return sum(o.ref_wall_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def child_env() -> dict[str, str]:
    """The whole environment of every child: no inherited hyperspec knob.
    OpenBLAS runs one thread, so that the load is one process on one core;
    otherwise its threads start at every numpy import and take a share of
    the second core that depends on what else the host runs."""
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}


def spawn(argv: list[str], deadline: float | None = None) -> tuple[float, float, float, int, bytes]:
    """Run one launcher process to completion from the checkout root, killing
    it at `deadline` (a perf_counter reading). Returns wall seconds from spawn
    to exit, user+system CPU seconds, peak RSS in MB, exit code and stdout."""
    cmd = [sys.executable, str(HERE / "launch.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill) if deadline else None
    if watchdog:
        watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if watchdog:
            watchdog.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out


def run_invocation(inv: workloads.Invocation, expected: dict, trace_file: Path | None = None,
                   deadline: float | None = None) -> Outcome:
    """One invocation; it is correct when both its exit code and its
    normalised stdout digest match the recorded ones. Past the deadline it
    fails without starting a process."""
    if deadline and time.perf_counter() >= deadline:
        return Outcome(inv.key, 0.0, 0.0, 0.0, -1, "", None, False)
    argv = (["--trace", str(trace_file)] if trace_file else []) + inv.argv
    start = time.perf_counter()
    wall, cpu, rss, code, out = spawn(argv, deadline)
    try:
        digest = inv.digest(out)
    except (ValueError, KeyError):  # not the JSON document the digest normalises
        digest = None
    ok = code == inv.exit_code and digest is not None and digest == expected.get(inv.key)
    return Outcome(inv.key, wall, cpu, rss, code, hashlib.sha256(out).hexdigest(), digest, ok, start)


def run_pass(wl: workloads.Workload, expected: dict, trace_dir: Path | None = None,
             deadline: float | None = None) -> Pass:
    result = Pass()
    for k, inv in enumerate(wl.invocations):
        trace_file = trace_dir / f"{k}.json" if trace_dir else None
        result.outcomes.append(run_invocation(inv, expected, trace_file, deadline))
    return result


def median_pass(passes: list[Pass], time_of) -> float:
    """One pass made of each invocation's median time over the passes: an
    invocation that ran slow once does not move it, as it would move the
    median of whole-pass sums."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            times.setdefault(o.key, []).append(time_of(o))
    return sum(statistics.median(t) for t in times.values())


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (n={n} < 11)"
    return f"p{(n - 10) * 100 // n}={sorted(samples)[n - 11]:.4f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hyperspec" / "cli.py").is_file():
        print(f"error: no hyperspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    wl = workloads.build(args.workload, args.seed, WORK / args.workload, ROOT)

    trace_dir = WORK / args.workload / "trace"
    traced, layer_figures = None, {}
    with Speedometer() as speed:
        setups = [] if args.trace else [run_invocation(wl.setup, expected, deadline=deadline) for _ in range(SETUP_REPEATS)]
        passes: list[Pass] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < min(args.seconds, deadline - start):
            passes.append(run_pass(wl, expected, deadline=deadline))
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            for old in trace_dir.glob("*.json"):
                old.unlink()
            traced = run_pass(wl, expected, trace_dir, deadline)
    for o in setups + [o for p in passes for o in p.outcomes]:
        o.scale = speed.scale(o.start, o.start + o.wall_s)
    walls = [p.wall_s for p in passes]

    if args.trace:
        docs = [json.loads(f.read_text()) for f in sorted(trace_dir.glob("*.json"))]
        layer_figures = tracer.aggregate(docs)
        layer_figures["cli.invocations"] = layer_figures.get("cli.main.calls", 0)
        layer_figures["trace.overhead_s"] = traced.wall_s - statistics.median(walls)

    runs = passes + ([traced] if traced else [])
    attempted = len(setups) + sum(len(p.outcomes) for p in runs)
    failed = sum(not o.ok for o in setups) + sum(p.failed for p in runs)

    if args.trace:
        metrics = {m["name"]: {"value": layer_figures.get(m["name"], 0), "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        values = {
            "wall_s": median_pass(passes, lambda o: o.ref_wall_s),
            "cpu_s": median_pass(passes, lambda o: o.ref_cpu_s),
            "setup_s": statistics.median(o.ref_wall_s for o in setups),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": child_env(),
        "setup": [vars(o) for o in setups],
        "passes": [[vars(o) for o in p.outcomes] for p in passes],
        "traced_pass": [vars(o) for o in traced.outcomes] if traced else None,
        "layers": layer_figures,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of {len(wl.invocations)} invocations")
    if not args.trace:
        print("  (times scaled to the reference host speed; raw medians in brackets)")
        print(f"  wall_s       {metrics['wall_s']['value']:.4f} s median, {tail([p.ref_wall_s for p in passes])},"
              f" n={len(walls)} [raw {median_pass(passes, lambda o: o.wall_s):.4f} s]")
        print(f"  cpu_s        {metrics['cpu_s']['value']:.4f} s median [raw {median_pass(passes, lambda o: o.cpu_s):.4f} s]")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s median of {len(setups)}"
              f" [raw {statistics.median(o.wall_s for o in setups):.4f} s]")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB median")
    else:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  fail_rate    {failed / attempted:.4f} ratio ({failed} of {attempted} invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
