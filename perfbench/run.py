#!/usr/bin/env python3
"""Benchmark for grapes: seeded workloads driven through the CLI, in-process.

    python3 perfbench/run.py --workload suite-full --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from the root of a source checkout; grapes is imported from ``src/``.
One process, one thread.  The workload's set-up (importing grapes,
generating the inputs, writing the input files) runs several times and its
median is ``setup_s``.  The timed body is a list of ``grapes.cli.main``
calls, so JSON load and emit are measured and interpreter start-up is not.
The body runs round(seconds / PASS_S) times.  Every output is checked; the
last stdout line is the result as one JSON object, and the full report
goes to ``perfbench/out/``.

Steadiness: a fixed pure-Python calibration kernel runs between units of
work (one CLI query, or one suite stage as delimited by the stage lines the
CLI prints to stderr), and also every SAMPLE_PERIOD_S while a unit runs.
Kernel time is excluded, and each unit's time is scaled by the mean kernel
time around and during it to a fixed reference speed, giving reference
seconds.  Raw seconds and the calibration's own statistics are kept in the
report.

``--trace 1`` runs one untraced pass and one traced pass, and prints the
per-layer metrics instead (see ``tracer.py``).  ``--workload all`` runs every
workload in a fresh process each and exits non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
REF_CAL_S = 0.00065  # calibration kernel time at the reference speed
SAMPLE_PERIOD_S = 0.01  # calibration samples taken while a unit runs
PASS_S = 9  # nominal reference seconds of one pass; bodies take 7-10 s
TAIL_SAMPLES = 10  # samples required beyond the reported tail percentile
HASH_SEED = "0"  # PYTHONHASHSEED of every measured process
STAGE_METRICS = (
    "instance_set", "duality_identities", "alexander_duality", "grape_duality",
    "strong_homology_consistency", "forest_theorem", "path_free_path_missing",
    "deletion_contraction_identities", "ground_independence", "lifted_collapses",
    "wedge_predictions", "named_instances", "summary",
)
UNITS = {"setup_s": "s", "run_s": "s", "query_p50_s": "s", "query_tail_s": "s",
         "peak_rss_mb": "MB"}


# -- calibration -------------------------------------------------------------

def _kernel() -> int:
    """Fixed pure-Python work shaped like the program's: integer row
    elimination on nested lists, frozenset algebra and dict hashing."""
    m = [[(i * 7 + j * 3) % 5 - 2 for j in range(24)] for i in range(24)]
    for t in range(12):
        pivot = m[t]
        for i in range(t + 1, 24):
            row = m[i]
            q = row[t] // (pivot[t] or 1)
            for j in range(t, 24):
                row[j] -= q * pivot[j]
    faces = set()
    for i in range(250):
        face = frozenset((i % 13, i * 3 % 17, i * 7 % 19, i % 5))
        faces.add(face - {i % 13})
    sizes = {face: len(face) for face in faces}
    return sum(sizes.values()) + m[23][23]


def calibrate() -> float:
    """Median time of five runs of the kernel, in raw seconds."""
    times = []
    for _ in range(5):
        t = perf_counter()
        _kernel()
        times.append(perf_counter() - t)
    return statistics.median(times)


class Meter:
    """Times units of work, calibrating between and during them.

    ``begin`` starts a unit; ``end`` closes it and calibrates.  While a unit
    runs, a wall-clock timer interrupts it every SAMPLE_PERIOD_S to run the
    calibration kernel once more.  The machine's speed changes faster than
    units last, so these samples, taken while the unit runs, track the speed
    it actually had.  Their time is subtracted from the unit's.  A unit's
    reference seconds are its raw seconds times REF_CAL_S over the mean of
    the calibrations before and after it and the samples taken during it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cals = [calibrate()]  # between units
        self.samples: list = []  # during the current unit
        self.sampled = 0.0  # time spent sampling in the current unit
        self.units: list = []  # (name, raw_s, ref_s, samples)
        self.queries: list = []  # reference seconds of each query run
        self.t0 = 0.0

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        _kernel()
        took = perf_counter() - t
        self.samples.append(took)
        self.sampled += took
        if self.tracer is not None:
            self.tracer.excluded += took

    def begin(self) -> None:
        self.samples, self.sampled = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        if self.tracer is not None:
            self.tracer.resume()
        self.t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def end(self, name: str) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = perf_counter() - self.t0 - self.sampled
        if self.tracer is not None:
            self.tracer.pause()
        # every unit starts from an empty collector, so the cost of garbage
        # collection inside a unit does not depend on the units before it
        gc.collect()
        self.cals.append(calibrate())
        speed = statistics.mean([self.cals[-2], self.cals[-1], *self.samples])
        scale = REF_CAL_S / speed
        self.units.append((name, raw, raw * scale, len(self.samples)))
        if self.tracer is not None:
            self.tracer.flush(scale)


def stage_name(line: str) -> str:
    """Metric name of a suite stage line: 'forest theorem done (9 forests)'
    becomes 'forest_theorem'."""
    text = line.split("(")[0].split(":")[0].strip()
    if text.endswith(" done"):
        text = text[: -len(" done")]
    return "".join(c if c.isalnum() else "_" for c in text)


class StageTap(io.TextIOBase):
    """stderr replacement that closes a unit at every stage line."""

    def __init__(self, meter: Meter, prefix: str):
        self.meter = meter
        self.prefix = prefix
        self.buffer_text = ""

    def write(self, text: str) -> int:
        self.buffer_text += text
        while "\n" in self.buffer_text:
            line, self.buffer_text = self.buffer_text.split("\n", 1)
            self.meter.end(f"{self.prefix}/{stage_name(line)}")
            self.meter.begin()
        return len(text)


# -- running the body ------------------------------------------------------------


class Tally:
    """Checks attempted and failed, verdicts, and output sizes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.unknown = 0
        self.output_bytes = 0
        self.cert_bytes = 0
        self.problems: list = []

    def record(self, query_name: str, payload, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{query_name}: {p}" for p in problems)
        if not isinstance(payload, dict):
            return
        if "reports" in payload:  # suite summary: every report is a check
            total = payload["pass"] + payload["fail"] + payload["unknown"]
            self.attempted += total
            self.failed += payload["fail"]
            self.verdicts += total
            self.unknown += payload["unknown"]
        elif "verdict" in payload:
            self.verdicts += 1
            self.unknown += payload["verdict"] == "unknown"
        if "certificate" in payload:
            self.cert_bytes += len(json.dumps(payload["certificate"], separators=(",", ":")))


def run_query(cli, query, meter: Meter, tally: Tally) -> None:
    out, err = io.StringIO(), StageTap(meter, query.name) if query.stages else io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc, crash = None, None
    first_unit = len(meter.units)
    meter.begin()
    try:
        rc = cli.main(list(query.argv))
    except (Exception, SystemExit):  # a query that crashes is a failed check
        crash = traceback.format_exc(limit=3)
    finally:
        meter.end(f"{query.name}/summary" if query.stages else query.name)
        sys.stdout, sys.stderr = saved
    meter.queries.append(sum(ref for _, _, ref, _ in meter.units[first_unit:]))
    text = out.getvalue()
    tally.output_bytes += len(text)
    if crash is not None:
        tally.record(query.name, None, [f"crashed: {crash}"])
        return
    if not query.stages and err.getvalue():
        tally.record(query.name, None, [f"stderr: {err.getvalue().strip()}"])
        return
    try:
        payload = json.loads(text)
        problems = query.check(rc, payload)
    except (ValueError, KeyError, TypeError) as exc:
        payload, problems = None, [f"unreadable output: {exc!r}"]
    tally.record(query.name, payload, problems)


def run_passes(cli, body, meter: Meter, tally: Tally, seconds: float) -> int:
    """Run the body round(seconds / PASS_S) times, at least once.  The count
    does not depend on the machine's speed, so every run of a workload
    pools the same number of query samples."""
    passes = max(1, round(seconds / PASS_S))
    for _ in range(passes):
        for query in body.queries:
            if query.ready():
                run_query(cli, query, meter, tally)
    return passes


# -- statistics -------------------------------------------------------------------


def unit_medians(units: list) -> dict:
    """Per-unit (raw, ref) medians over passes, in first-seen order."""
    grouped: dict = {}
    for name, raw, ref, _ in units:
        grouped.setdefault(name, []).append((raw, ref))
    return {name: (statistics.median(r for r, _ in v), statistics.median(f for _, f in v))
            for name, v in grouped.items()}


def tail(values: list) -> tuple:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it (never
    below the median): (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(n - 1 - TAIL_SAMPLES, n // 2)
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(meter: Meter) -> dict:
    """run_s is the sum of the per-unit medians over passes; the per-query
    statistics pool every query run (a suite query is the sum of its stages)."""
    medians = unit_medians(meter.units)
    value, pct, beyond = tail(meter.queries)
    return {
        "run_s": sum(ref for _, ref in medians.values()),
        "raw_run_s": sum(raw for raw, _ in medians.values()),
        "query_p50_s": statistics.median(meter.queries),
        "query_tail_s": value,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "query_samples": len(meter.queries),
        "unit_samples": len(meter.units),
        "calibration_s": quartiles(meter.cals),
        "units": {name: {"raw_s": raw, "ref_s": ref} for name, (raw, ref) in medians.items()},
        "sequence": {"calibrations_s": meter.cals, "units": meter.units},
    }


# -- set-up and provenance -------------------------------------------------------------


def import_grapes():
    """Import grapes afresh from this checkout's src/ and return grapes.cli."""
    for name in [n for n in sys.modules if n == "grapes" or n.startswith("grapes.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("grapes.cli")
    if Path(cli.__file__).resolve().parent != SRC / "grapes":
        raise ImportError(f"grapes was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, work: Path, tiny: bool) -> tuple:
    """Run the set-up SETUPS times; returns (cli, body, per-set-up meter)."""
    meter = Meter()
    cli = body = None
    for i in range(SETUPS):
        meter.begin()
        try:
            cli = import_grapes()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            body = workloads.WORKLOADS[workload](seed, work, tiny)
        finally:
            meter.end(f"setup{i}")
    return cli, body, meter


def git_revision():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, body) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "grapes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "instances": body.instances,
        "queries": len(body.queries),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "ref_calibration_s": REF_CAL_S,
    }


# -- one workload ------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the full report (result line under "result")."""
    work = WORK / f"{workload}-{os.getpid()}"
    try:
        cli, body, setup_meter = setup(workload, seed, work, tiny)
        setup_s = statistics.median(ref for _, _, ref, _ in setup_meter.units)
        tally = Tally()
        meter = Meter()
        passes = run_passes(cli, body, meter, tally, 0.0 if trace else seconds)
        untraced = summarize(meter)
        report = {
            "provenance": provenance(workload, seed, body),
            "setup": {"setup_s": setup_s, "setups": [(raw, ref) for _, raw, ref, _ in setup_meter.units],
                      "calibration_s": quartiles(setup_meter.cals)},
            "passes": passes,
            "untraced": untraced,
        }
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer = tracing.Tracer()
            traced_tally = Tally()
            tracer.install()
            try:
                traced_meter = Meter(tracer)
                run_passes(cli, body, traced_meter, traced_tally, 0.0)
            finally:
                tracer.uninstall()
            traced = summarize(traced_meter)
            metrics = per_layer_metrics(tracer, untraced, traced, tally, traced_tally)
            report["traced"] = traced
            report["spans"] = {"kept": len(tracer.spans), "min_s": tracing.SPAN_KEEP_S}
            units = {name: per_layer_unit(name) for name in metrics}
            tally = merged(tally, traced_tally)
            write_spans(workload, seed, tracer)
        else:
            metrics = {"setup_s": setup_s, "run_s": untraced["run_s"],
                       "query_p50_s": untraced["query_p50_s"],
                       "query_tail_s": untraced["query_tail_s"], "peak_rss_mb": peak_rss_mb}
            units = UNITS
        report["checks"] = {"attempted": tally.attempted, "failed": tally.failed,
                            "verdicts": tally.verdicts, "unknown": tally.unknown,
                            "problems": tally.problems[:50]}
        report["result"] = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units.get(name, "count")}
                        for name, value in metrics.items()},
        }
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def merged(a: Tally, b: Tally) -> Tally:
    out = Tally()
    for count in ("attempted", "failed", "verdicts", "unknown"):
        setattr(out, count, getattr(a, count) + getattr(b, count))
    out.problems = a.problems + b.problems
    return out


PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "nodes": "count", "entries": "count",
                   "max_rows": "rows", "facets": "count", "yes_frac": "fraction",
                   "json_bytes": "B", "output_bytes": "B", "overhead_s": "s",
                   "coverage": "fraction", "fail_frac": "fraction", "unknown_frac": "fraction"}


def per_layer_metrics(tracer, untraced: dict, traced: dict, tally: Tally, traced_tally: Tally) -> dict:
    metrics = tracer.layer_metrics()
    metrics["grape.cert.json_bytes"] = traced_tally.cert_bytes
    metrics["cli.output_bytes"] = traced_tally.output_bytes
    stages: dict = {}
    for name, unit in untraced["units"].items():
        if "/" in name:
            stage = name.split("/", 1)[1]
            stages[stage] = stages.get(stage, 0.0) + unit["ref_s"]
    for stage in STAGE_METRICS:
        metrics[f"verify.stage.{stage}_s"] = stages.get(stage, 0.0)
    attributed = sum(v for k, v in tracer.self_s.items() if k != tracing.BENCH)
    metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    metrics["trace.coverage"] = attributed / traced["run_s"]
    both = merged(tally, traced_tally)
    metrics["checks.fail_frac"] = both.failed / both.attempted
    metrics["verdicts.unknown_frac"] = both.unknown / both.verdicts if both.verdicts else 0.0
    return metrics


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]] if not name.startswith("verify.stage.") else "s"


def write_spans(workload: str, seed: int, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    payload = {
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "spans": [{"layer": l, "parent": p, "start": s, "end": e} for l, p, s, e in tracer.spans],
    }
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(payload))


# -- command line -------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            ok = False
            print(f"{workload}: no result (exit {done.returncode})", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        ok = ok and done.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    combined["correct"] = ok
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and with it the iteration
        # order of every set of faces; the work of a scan over such a set
        # swung by up to 20% from one process to the next.  Restart this
        # process (no child is created) with one fixed hash seed.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small instances, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for problem in report["checks"]["problems"][:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
