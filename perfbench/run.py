"""lfcheck benchmark: workloads of fresh-process CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs nothing built or
installed.  One closed-loop client issues one `lfcheck` command at a time
in a fresh interpreter and waits for it to exit, so at most one child runs
at any moment.  Users pay every cold cost on every call, so the benchmark
does too.  Whole batches run while the next one would end less than half a
batch after S seconds; set-up (writing the inputs and one discarded warm-up
command) runs before each batch.

Workloads (inputs come from gen.py and depend only on the seed):

  scan-builtin  The acceptance scan, delta x 11a with a seeded Kronecker
                character, xmax 10^4, lmax 4.  Built-in eigenvalue ingest
                dominates, so an ingest change shows here.
  scan-tables   Seeded TSV tables (weight 12 level 1, weight 2 level 11,
                a_p up to the exact bound) and a table of 12th roots of
                unity, xmax 2*10^4, lmax 8.  Evaluation dominates and
                built-in ingest never runs, so an evaluator change shows
                here and an ingest change predicts no change.
  symbolic      verify sos/all/bridge, every verify case, seeded expand
                expressions (a few large same-base Sym^m (x) Sym^n) and
                seeded poles expressions with generated .hyp files.  Short
                commands, so interpreter start and import show here.

Every output is checked (check.py); negative controls run once per run,
untimed, and count as attempted.  With --trace 0 the end-to-end metrics
are printed: setup_s, batch_s (sum of the batch's command wall times),
cmd_s.p50, cmd_s.tail, cmd_cpu_s.p50 (child user+sys), all scaled for
machine speed (see REF_PROBE_S), and peak_rss_mb.  With --trace 1 each
command runs untraced and then traced (trace_child.py), and per-layer self
times, counts and the tracing overhead are printed.

Children get PYTHONPATH=<checkout>/src so the commit under test is what
runs; LCALC_THREADS is removed and --threads never passed, so the default
single-worker scan is what is measured.  A change that wants to justify
the scan's process pool must first add a workload for it in a separate
change to this benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from check import check, normalized  # noqa: E402
from gen import WORKLOADS, Command, make_inputs  # noqa: E402

# Machine-speed calibration.  On a shared machine the speed of the same
# code drifts by 20-40% over minutes, which is wider than any useful bound.
# A fixed pure-Python loop is timed between commands throughout the run,
# and every end-to-end time is scaled by REF_PROBE_S / (its mean time).
# REF_PROBE_S is the loop's mean time over runs on a shared 2-vCPU Intel
# Xeon at 2.1 GHz with Python 3.11, so there scaled and raw times agree on
# average; only ratios between runs matter.
REF_PROBE_S = 0.013
PROBE_EVERY_S = 0.5

# the body of the `lfcheck` console script
LAUNCH = "import sys; from lfcheck.cli import main; sys.exit(main())"
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
WORK = os.path.join("perfbench", "work")

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "cmd_s.p50": "s",
    "cmd_s.tail": "s",
    "cmd_cpu_s.p50": "s",
    "peak_rss_mb": "MiB",
}

# per-layer self time: metric -> the span names it sums
LAYER_TIMES = {
    "startup.import_s": ("startup",),
    "startup.shutdown_s": ("shutdown",),
    "ingest.builtin_11a_s": ("ingest.builtin_11a",),
    "ingest.builtin_delta_s": ("ingest.builtin_delta",),
    "ingest.load_table_s": ("ingest.load_table",),
    "ingest.char_spec_s": ("ingest.char_spec",),
    "ingest.prepare_points_s": ("ingest.prepare_points",),
    "dseries.polys_s": ("dseries.polys",),
    "dseries.scan_s": ("dseries.scan",),
    "dseries.verify_sos_s": ("dseries.verify_sos",),
    "satake.coeff_poly_s": ("satake.coeff_poly",),
    "exprlang.parse_s": ("exprlang.parse",),
    "repalg.decompose_s": ("repalg.decompose",),
    "poles.pole_order_s": ("poles.pole_order",),
    "cli.parse_hyp_s": ("cli.parse_hyp",),
    "casebook.verify_case_s": ("casebook.verify_case", "casebook.run_all"),
    "casebook.bridge_s": ("casebook.bridge",),
    "report.render_s": ("report.render",),
}
LAYER_COUNTS = (
    "ingest.table_rows", "ingest.primes", "ingest.skipped", "dseries.points",
    "satake.terms", "exprlang.kinds", "casebook.verdicts", "report.bytes",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for m in LAYER_TIMES:
        units[f"{m}.p50"] = units[f"{m}.tail"] = "s"
    units.update({c: "count" for c in LAYER_COUNTS})
    units["report.bytes"] = "bytes"
    units["dseries.eval_us_per_point"] = "us"
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage_min"] = "ratio"
    return units


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest order statistic with at least ten
    samples above it.  With 20 or fewer samples that point is not above the
    median, so the median is reported (p50): a maximum of a few samples
    swings with every hiccup of a shared machine."""
    s = sorted(values)
    n = len(s)
    if n <= 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def probe() -> float:
    """Seconds taken by a fixed loop of complex, int and dict operations,
    the kinds of work lfcheck's evaluator and algebra do."""
    t0 = time.perf_counter()
    acc = 0j
    table: dict[int, int] = {}
    z = complex(0.6, 0.8)
    for i in range(25000):
        w = z ** (i % 3 - 1)
        acc += w * w.conjugate() + (i & 7)
        table[i & 63] = table.get(i & 63, 0) + i * i % 11
    return time.perf_counter() - t0


class Speed:
    """Probe samples spread over a run: one per PROBE_EVERY_S of elapsed
    time (at most ten at once), taken between commands."""

    def __init__(self):
        self.samples = [probe()]
        self.last = time.monotonic()

    def sample(self):
        due = int((time.monotonic() - self.last) / PROBE_EVERY_S)
        if due:
            self.samples += [probe() for _ in range(min(due, 10))]
            self.last = time.monotonic()

    def scale(self) -> float:
        return REF_PROBE_S / statistics.mean(self.samples)


@dataclass
class Result:
    cmd: Command
    code: int
    out: str
    err: str
    wall: float
    cpu: float
    rss_mb: float
    trace: dict | None = None


class _Timeout(Exception):
    pass


def _alarm(_sig, _frame):
    raise _Timeout


class Client:
    """Starts one child at a time and reaps it with wait4 for its rusage."""

    def __init__(self):
        env = dict(os.environ)
        env.pop("LCALC_THREADS", None)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env = env
        self.out = os.path.join(WORK, "child.out")
        self.err = os.path.join(WORK, "child.err")
        self.spans = os.path.join(WORK, "child.spans.json")
        self.trace_child = os.path.join("perfbench", "trace_child.py")
        self.next_id = 1

    def run(self, cmd: Command, traced: bool = False) -> Result:
        cmd_id = self.next_id
        self.next_id += 1
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, self.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = time.monotonic_ns()
        if traced:
            argv = [sys.executable, self.trace_child, self.spans, str(t0), str(cmd_id),
                    "--", *cmd.argv]
        else:
            argv = [sys.executable, "-c", LAUNCH, *cmd.argv]
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _pid, status, ru = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
        t1 = time.monotonic_ns()
        with open(self.out) as fh:
            out = fh.read()
        with open(self.err) as fh:
            err = fh.read()
        trace = None
        if traced:
            with open(self.spans) as fh:
                trace = json.load(fh)
            os.remove(self.spans)
            spans = trace["spans"]
            spans.insert(0, {"id": 0, "name": "command", "start": t0, "end": t1,
                             "parent": None, "cmd": cmd_id})
            spans.append({"id": len(spans), "name": "shutdown", "start": trace["end"],
                          "end": t1, "parent": 0, "cmd": cmd_id})
        return Result(cmd, os.waitstatus_to_exitcode(status), out, err,
                      (t1 - t0) / 1e9, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                      trace)



def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover (seconds).
    Spans come from one thread, so children never overlap."""
    own = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= (s["end"] - s["start"]) / 1e9
    return own


def trace_problems(traced: Result, plain: Result) -> list[str]:
    problems = []
    if (traced.code, normalized(traced.out)) != (plain.code, normalized(plain.out)):
        problems.append("traced verdicts differ from the untraced run")
    t = traced.trace
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(t["lfcheck"]).startswith(src):
        problems.append(f"imported lfcheck from {t['lfcheck']}, not {src}")
    if t["polys"] is not None and abs(complex(*t["polys"]) - 324) > 1e-9:
        problems.append(f"a_D_value at the trivial point is {t['polys']}, not 324")
    return problems


def layer_metrics(traced_batches, plain_walls, traced_walls):
    """Per-layer metrics from the traced batches of one run, plus problems."""
    per_metric = {m: [] for m in LAYER_TIMES}
    eval_us, coverage, problems = [], [], []
    batch_counts = []
    for results in traced_batches:
        counts = dict.fromkeys(LAYER_COUNTS, 0)
        for r in results:
            spans = r.trace["spans"]
            own = self_times(spans)
            by_name: dict[str, float] = {}
            for s in spans:
                by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
            for m, names in LAYER_TIMES.items():
                if any(n in by_name for n in names):
                    per_metric[m].append(sum(by_name.get(n, 0.0) for n in names))
            # share of the wall time after import that named spans cover
            main = next(s for s in spans if s["name"] == "cli.main")
            startup = next(s for s in spans if s["name"] == "startup")
            after_import = (spans[0]["end"] - startup["end"]) / 1e9
            coverage.append(1 - (own[0] + own[main["id"]]) / after_import)
            pts = r.trace["counts"].get("dseries.points", 0)
            if pts:
                eval_us.append(by_name["dseries.scan"] / pts * 1e6)
            for c, v in r.trace["counts"].items():
                counts[c] += v
        batch_counts.append(counts)
    if any(c != batch_counts[0] for c in batch_counts):
        problems.append(f"layer counts differ between traced batches: {batch_counts}")
    metrics = {}
    for m, vals in per_metric.items():
        metrics[f"{m}.p50"] = statistics.median(vals) if vals else 0.0
        # no bound rides on a layer's tail, so with few samples it is the
        # maximum: that is where the large symbolic calls show
        few = len(vals) <= 20
        metrics[f"{m}.tail"] = (max(vals) if few else tail(vals)[0]) if vals else 0.0
    metrics.update(batch_counts[0])
    metrics["dseries.eval_us_per_point"] = statistics.median(eval_us) if eval_us else 0.0
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    metrics["trace.coverage_min"] = min(coverage)
    return metrics, problems


def run_meta(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = 0
    for d, _subdirs, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": _commit(), "src_lines": src_lines}


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lfcheck", "cli.py")):
        print(f"error: no lfcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps its child (see Client.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)
    client = Client()

    speed = Speed()
    setup_times = []

    def setup():
        # set-up runs before every batch, so its samples span the run
        speed.sample()
        t0 = time.perf_counter()
        inputs = make_inputs(args.workload, args.seed, WORK, args.smoke)
        client.run(inputs.warmup)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    failures: list[str] = []
    attempted = 0

    def record(r: Result, extra: list[str] = ()):
        nonlocal attempted
        attempted += 1
        problems = check(r.cmd, r.code, r.out, r.err) + list(extra)
        if problems:
            failures.append(f"lfcheck {' '.join(map(repr, r.cmd.argv))}: {'; '.join(problems)}")

    plain_walls, traced_walls, plain_results, traced_batches = [], [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        inputs = setup()
        t0 = time.monotonic()
        if args.trace:
            # each command runs untraced and then traced, back to back, so
            # drift in machine speed cancels out of the overhead
            results, traced = [], []
            for cmd in inputs.batch:
                results.append(client.run(cmd))
                traced.append(client.run(cmd, traced=True))
                record(results[-1])
                record(traced[-1], trace_problems(traced[-1], results[-1]))
            plain_walls.append(sum(r.wall for r in results))
            traced_walls.append(sum(r.wall for r in traced))
            traced_batches.append(traced)
        else:
            results = []
            for cmd in inputs.batch:
                speed.sample()
                results.append(client.run(cmd))
                record(results[-1])
            plain_walls.append(sum(r.wall for r in results))
        plain_results += results
        step = time.monotonic() - t0
        if time.monotonic() + step / 2 > deadline:
            break
    while len(setup_times) < MIN_SETUPS:
        setup()
    for cmd in inputs.controls:
        record(client.run(cmd))

    units: dict[str, str]
    run_problems: list[str] = []
    if args.trace:
        metrics, run_problems = layer_metrics(traced_batches, plain_walls, traced_walls)
        units = per_layer_units()
        with open(os.path.join(WORK, "spans.json"), "w") as fh:
            json.dump([r.trace["spans"] for b in traced_batches for r in b], fh)
    else:
        walls = [r.wall for r in plain_results]
        tail_value, tail_pct = tail(walls)
        raw = {
            "setup_s": statistics.median(setup_times),
            "batch_s": statistics.median(plain_walls),
            "cmd_s.p50": statistics.median(walls),
            "cmd_s.tail": tail_value,
            "cmd_cpu_s.p50": statistics.median(r.cpu for r in plain_results),
        }
        k = speed.scale()
        metrics = {name: v * k for name, v in raw.items()}
        metrics["peak_rss_mb"] = max(r.rss_mb for r in plain_results)
        units = END_TO_END
        print(f"speed scale {k:.4g} from {len(speed.samples)} probes; unscaled: "
              + ", ".join(f"{n} {v:.6g}" for n, v in raw.items()))
        print(f"cmd_s.tail is p{tail_pct:.1f} of {len(walls)} commands")
        scans = [r for r in plain_results if r.cmd.kind == "scan"]
        if scans:
            pts = sum(r.cmd.expect["points"] for r in scans)
            print(f"points_per_s {pts / sum(r.wall for r in scans):.6g} "
                  f"({pts} points in {len(scans)} scans)")

    print("meta: " + json.dumps(run_meta(args)))
    print(f"batches {len(plain_walls)}, commands attempted {attempted}, "
          f"failed {len(failures)}, fail_frac {len(failures) / attempted:.4g}")
    for f in failures + run_problems:
        print("FAIL " + f)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not (failures or run_problems),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
