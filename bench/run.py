"""bridgekit benchmark: one closed-loop client calling the package in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bridgekit is imported from ``src/``.
The workloads are census-sweep, search-queries, cli-tables and
word-invariants (see ``workloads.py``).  The client issues the next
operation only when the previous one has returned, and operations are
drawn from ``random.Random(seed)`` in batches of fixed composition;
whole batches run until the operations have taken ``--seconds``.  Every
output is checked after its batch, outside the timed region.

``--trace 0`` reports the end-to-end metrics with nothing patched:
``setup_s`` (median over fresh imports of bridgekit, each followed by one
warm-up operation), ``ops_per_s``, ``latency_p50_ms``,
``latency_p90_ms`` and ``peak_rss_mb``.  Timings are scaled to a
reference machine speed (see ``SpeedScale``); the unscaled figures are
printed as well.

``--trace 1`` reports the per-layer metrics.  It takes the first batch
and runs it alternately untraced and traced (``tracing.py``), at least
twice each, so that a drift in machine speed hits both sides alike.
Counts are per operation and must repeat exactly in every traced pass;
times are self time per operation, as measured; ``trace.overhead_ratio``
is traced over untraced operations per second.  The spans of the first
traced pass are written to ``bench/out/spans-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json.  The lines before it list every metric with its unit,
the failed ratio and the input properties of the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from tracing import PACKAGE
from workloads import WORKLOADS, torus_word

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("contfrac", "knot", "census", "epim", "classify", "cli")
SETUP_REPEATS = 5

# A shared host's speed drifts, by up to a factor of two over seconds and
# minutes and for every process alike, which would swamp any regression
# bound.  End-to-end timings are therefore reported at a reference speed:
# a fixed loop that does what bridgekit does (tuples, dict stores, integer
# arithmetic) is timed between operations, and each operation's time is
# multiplied by REFERENCE_LOOP_S over the loop's time just before and
# after it.  On a 2-vCPU cloud host the loop took about REFERENCE_LOOP_S
# when the host was quiet, so the figures read close to seconds there.
REFERENCE_LOOP_S = 0.00025
SAMPLE_EVERY_S = 0.05


def speed_loop() -> int:
    acc, table = 0, {}
    for i in range(2000):
        item = (i, i * 7 % 13)
        table[i & 255] = item
        acc += item[1]
    return acc


class SpeedScale:
    """Samples of speed_loop's time, taken between operations when due."""

    def __init__(self):
        self.samples: list[float] = []
        self.segment = array("i")
        self.work = SAMPLE_EVERY_S

    def sample(self) -> None:
        times = []
        for _ in range(5):
            start = perf_counter()
            speed_loop()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))
        self.work = 0.0

    def before(self) -> None:
        if self.work >= SAMPLE_EVERY_S:
            self.sample()

    def after(self, seconds: float) -> None:
        self.work += seconds
        self.segment.append(len(self.samples) - 1)

    def scaled(self, seconds) -> list[float]:
        """Take a closing sample; return each time at reference speed.

        A time is scaled by the mean of the samples on either side of it.
        """
        self.sample()
        around = [(a + b) / 2 for a, b in zip(self.samples, self.samples[1:])]
        return [t * REFERENCE_LOOP_S / around[k] for t, k in zip(seconds, self.segment)]


def import_fresh() -> SimpleNamespace:
    """Import bridgekit from src/ as if for the first time; return its modules."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def setup(workload, repeats: int):
    """Median seconds of (fresh import + one warm-up operation), and the modules.

    Returns the median at reference speed and as measured.
    """
    times, speed = [], SpeedScale()
    for _ in range(repeats):
        speed.sample()
        start = perf_counter()
        bk = import_fresh()
        workload.run(bk, workload.warmup())
        times.append(perf_counter() - start)
        speed.after(times[-1])
    gc.collect()
    return statistics.median(speed.scaled(times)), statistics.median(times), bk


def run_pass(workload, bk, batch, tracer=None, speed=None):
    """Run a batch once; return outputs, per-op seconds and failed op count."""
    outputs, latencies = [], []
    for op in batch:
        if speed is not None:
            speed.before()
        start = perf_counter()
        try:
            if tracer is None:
                out = workload.run(bk, op)
            else:
                out = tracer.op(op[0], workload.run, bk, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation {op!r} raised {exc!r}", file=sys.stderr)
            out = exc
        latencies.append(perf_counter() - start)
        outputs.append(out)
        if speed is not None:
            speed.after(latencies[-1])
    ok = [i for i, out in enumerate(outputs) if not isinstance(out, Exception)]
    try:
        bad = workload.check(bk, [batch[i] for i in ok], [outputs[i] for i in ok])
    except Exception:
        traceback.print_exc()
        return outputs, latencies, len(batch)
    for i in sorted(bad):
        print(f"operation {batch[ok[i]]!r} failed its output check", file=sys.stderr)
    return outputs, latencies, len(batch) - len(ok) + len(bad)


def add_properties(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total[key] + value if key in total else value


def timing_metrics(setup_s: float, latencies: list[float]) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
    }


def end_to_end(workload, bk, rng, seconds: float, setup_times):
    """End-to-end metrics at reference speed, and the timings as measured."""
    latencies, failed, props, speed = array("d"), 0, {}, SpeedScale()
    elapsed = 0.0
    while elapsed < seconds:
        batch = workload.batch(rng)
        outputs, lat, bad = run_pass(workload, bk, batch, speed=speed)
        latencies.extend(lat)
        elapsed += sum(lat)
        failed += bad
        add_properties(props, workload.properties(batch, outputs))
    # read before the sorting below, whose copies grow with the operation count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = timing_metrics(setup_times[0], speed.scaled(latencies))
    metrics["peak_rss_mb"] = peak_rss_mb
    measured = timing_metrics(setup_times[1], latencies)
    return metrics, measured, len(latencies), failed, props


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def traced(workload, bk, rng, seconds: float, spans_out: Path):
    """Alternate untraced and traced passes over the first batch."""
    batch = workload.batch(rng)
    tracer = tracing.Tracer()
    tracer.install()
    problems, selfcheck = tracing.self_check(tracer, torus_word(15))
    tracer.uninstall()
    failed = attempted = 0
    plain_s = traced_s = 0.0
    digests, per_pass, first_spans = set(), [], 0
    while len(per_pass) < 2 or plain_s + traced_s < seconds:
        outputs, lat, bad = run_pass(workload, bk, batch)
        plain_s += sum(lat)
        failed += bad
        digests.add(digest(outputs))
        tracer.install()
        before = Counter(tracer.counts)
        outputs, lat, bad = run_pass(workload, bk, batch, tracer)
        tracer.uninstall()
        traced_s += sum(lat)
        failed += bad
        digests.add(digest(outputs))
        per_pass.append(tracer.counts - before)
        first_spans = first_spans or len(tracer.start)
        attempted += 2 * len(batch)
    if len(digests) != 1:
        problems.append("outputs differ between untraced and traced passes")
    first = per_pass[0]
    if any(counts != first for counts in per_pass[1:]):
        problems.append("traced counts differ between passes over the same batch")
    props = workload.properties(batch, outputs)

    n, runs = len(batch), len(per_pass)
    traced_ops = n * runs
    self_s = tracer.self_seconds()
    search_self = sum(self_s[s] for s in tracing.SEARCHES)
    compositions = first["epim.ors_compose.calls"]
    special = {
        "epim.search.calls": sum(first[s + ".calls"] for s in tracing.SEARCHES) / n,
        "epim.search.self_s": search_self / traced_ops,
        "epim.match_ratio": ratio(first["epim.witnesses"], compositions),
        "epim.compositions_per_s": ratio(compositions * runs, search_self),
        "census.words_per_s": ratio(
            first["census.brute_counts.tk"] * runs, self_s["census.brute_counts"]
        ),
        "cli.stdout_bytes": props.get("stdout_bytes", 0) / n,
        "trace.overhead_ratio": plain_s / traced_s,
    }

    def metric(name):
        if name in special:
            return special[name]
        if name.endswith(".self_s"):
            return self_s[name[: -len(".self_s")]] / traced_ops
        return first[name] / n

    tracer.dump(spans_out, first_spans)
    return metric, n, attempted, failed, props, problems, selfcheck


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def commit() -> str:
    """The checkout's commit from .git, without running git; 'unknown' if none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe_inputs(args, props: dict, ops: int) -> dict:
    """Run context and input properties; shares and means are per operation."""
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "operations": ops,
    }
    for key, value in props.items():
        if key == "c":
            info["c_distribution"] = {str(c): value[c] for c in sorted(value)}
        elif key in ("word_length", "stdout_bytes"):
            info[f"mean_{key}"] = value / ops
        else:
            info[f"{key}_share"] = value / ops
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no {PACKAGE} sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    if args.trace:
        _, _, bk = setup(workload, 1)
        metric, ops, attempted, failed, props, problems, selfcheck = traced(
            workload, bk, rng, args.seconds, BENCH / "out" / f"spans-{args.workload}-{args.seed}.json"
        )
        declared = spec["per_layer"]
        values = {m["name"]: metric(m["name"]) for m in declared}
    else:
        *setup_times, bk = setup(workload, SETUP_REPEATS)
        metrics, measured, attempted, failed, props = end_to_end(
            workload, bk, rng, args.seconds, setup_times
        )
        ops, problems, selfcheck = attempted, [], {}
        print("as measured, before scaling to reference speed: " + json.dumps(measured))
        declared = spec["end_to_end"]
        values = {m["name"]: metrics[m["name"]] for m in declared}

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("inputs: " + json.dumps(describe_inputs(args, props, ops)))
    if selfcheck:
        print("self-check counts: " + json.dumps(selfcheck))
    for m in declared:
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")
    print(f"failed_ratio = {failed / attempted} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
