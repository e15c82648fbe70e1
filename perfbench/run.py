#!/usr/bin/env python3
"""The repository benchmark: regenerate a paper figure's points, timed.

Runs one named workload (see ``workloads.py``) in this single process,
with no worker pool: points run serially, each after the previous one
ends.  Every timed region is bracketed by the calibration kernel of
``calibrate.py`` and reported in calibrated seconds.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0,
     "metrics": {"sweep_s": {"value": 5.1, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation attached; with ``--trace 1`` a separate traced run
reports the per-layer ones.  ``--steadiness N`` runs the workload N times
in child processes and prints the spread of every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload mesh-spin-curve --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload mesh-spin-curve --steadiness 5

See ``perfbench/README.md`` for the workloads, the metrics and the
calibration method.
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
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

RECORD_SCHEMA = "repro.perfbench-run/v1"

#: Each of these switches the engine or attaches instrumentation to every
#: simulated point without any code change, so a run under one of them
#: would time something else than the benchmark claims.
INSTRUMENT_ENV = ("REPRO_ENGINE", "REPRO_VERIFY", "REPRO_TELEMETRY",
                  "REPRO_PROFILE", "REPRO_STREAM_SOCKET")

NOTE = ("note: the simulator is not validated against Garnet or gem5; "
        "its statistics (latency, throughput, deadlock rates) are checked "
        "as outputs here, not reported as metrics")

END_TO_END = {
    "sweep_s": "s",
    "flit_hops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.allocate_s": "s",
    "sim.allocate_us_per_flit_hop": "us",
    "sim.control_s": "s",
    "sim.inject_s": "s",
    "sim.deliver_s": "s",
    "sim.collect_s": "s",
    "sim.loop_s": "s",
    "core.probes_sent": "count",
    "core.spins": "count",
    "core.sm_retries": "count",
    "core.spins_aborted": "count",
    "core.probe_success_ratio": "ratio",
    "core.control_us_per_sm": "us",
    "sim.fastcore.router_skip_ratio": "ratio",
    "sim.fastcore.controller_skip_ratio": "ratio",
    "sim.fastcore.cycles_fast_forwarded": "count",
    "sim.fastcore.fast_points": "count",
    "harness.build_s": "s",
    "harness.compile_s": "s",
    "deadlock.waitgraph_s": "s",
    "deadlock.waitgraph_calls": "count",
    "network.flit_hops": "count",
    "network.packets_delivered": "count",
    "trace.overhead_pct": "%",
}

PHASES = ("deliver", "control", "inject", "allocate", "collect")

#: Rounds of the set-up measurement; each round builds every point once.
SETUP_ROUNDS = 15


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def instrumented(env) -> List[str]:
    """The instrumentation variables set in ``env``."""
    return [name for name in INSTRUMENT_ENV if name in env]


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program to benchmark: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


def host_record() -> Dict[str, object]:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed ``rate -> digest`` table for a seed, if there is one."""
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def count_failures(reference: Dict[str, str],
                   passes: List[List[Dict[str, object]]]
                   ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over passes of point records.

    A point record has ``rate`` (a digest-table key), ``digest`` and
    ``error``.  Every reference point counts as attempted in every pass;
    a point fails when it raised, its digest differs from the
    reference, it is missing from the pass, or the reference lacks it.
    """
    attempted = failed = 0
    problems: List[str] = []
    for index, points in enumerate(passes):
        ran = {p["rate"]: p for p in points}
        keys = list(reference) + [k for k in ran if k not in reference]
        for key in keys:
            attempted += 1
            point = ran.get(key)
            if point is None:
                problem = "not run"
            elif point.get("error"):
                problem = f"raised {point['error']}"
            elif key not in reference:
                problem = "not in the reference"
            elif point["digest"] != reference[key]:
                problem = (f"digest {point['digest']} != "
                           f"{reference[key]}")
            else:
                continue
            failed += 1
            problems.append(f"pass {index} rate {key}: {problem}")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def run_pass(workload, seed: int, rates: Optional[List[float]], bracket,
             tracer=None, profile: bool = False) -> List[Dict[str, object]]:
    """One serial pass over the workload's points.

    With ``rates=None`` the workload's stop rule decides where the pass
    ends; otherwise exactly ``rates`` run.  A point is one or more timed
    regions (see ``Workload.run_point``), each between kernel runs.
    """
    from repro.sim.profile import PhaseProfiler
    from workloads import rate_key

    stop = workload.stop_rule()
    points = []
    for rate in rates if rates is not None else workload.rates:
        profiler = PhaseProfiler() if profile else None
        regions = []

        def timer(fn):
            result, timing = bracket.time(fn)
            regions.append(timing)
            return result

        record = {"rate": rate_key(rate), "digest": None, "error": None,
                  "_rate": rate}
        try:
            if tracer is None:
                outcome = workload.run_point(seed, rate, profiler=profiler,
                                             timer=timer)
            else:
                with tracer.span("point", rate) as span:
                    outcome = workload.run_point(seed, rate, tracer=tracer,
                                                 profiler=profiler,
                                                 timer=timer)
                outcome.span_id = span["id"]
        except Exception as exc:  # a point that raises is a failed point
            traceback.print_exc(file=sys.stderr)
            record["error"] = f"{type(exc).__name__}: {exc}"
            points.append(record)
            continue
        raw = sum(t.raw_s for t in regions)
        calibrated = sum(t.calibrated_s for t in regions)
        record.update(digest=outcome.digest, flit_hops=outcome.flit_hops,
                      packets_delivered=outcome.packets_delivered,
                      raw_s=raw, calibrated_s=calibrated,
                      # The kernel time that calibrates the whole point.
                      kernel_s=bracket.nominal_s * raw / calibrated,
                      regions=len(regions))
        record["_outcome"] = outcome
        record["_profiler"] = profiler
        points.append(record)
        if rates is None and stop(outcome):
            break
    return points


def measure_setup(workload, seed: int, rates: List[float], tracer=None
                  ) -> Dict[str, Dict[str, List[float]]]:
    """Calibrated time to first cycle of each point, ``SETUP_ROUNDS`` times.

    A set-up takes milliseconds, so a round builds every point once
    between two kernel runs and each point is calibrated by that round's
    kernels.  Returns ``{"total"|"build"|"first_cycle": {rate: [s...]}}``
    (the split only when traced).
    """
    from calibrate import Bracket, calibrate
    from workloads import rate_key

    samples: Dict[str, Dict[str, List[float]]] = {
        "total": {}, "build": {}, "first_cycle": {}}
    bracket = Bracket()
    clock = time.perf_counter
    for _ in range(SETUP_ROUNDS):
        def one_round():
            raws = []
            for rate in rates:
                first = len(tracer.spans) if tracer is not None else 0
                start = clock()
                workload.first_cycle(seed, rate, tracer)
                raw = {"total": clock() - start}
                if tracer is not None:
                    for span in tracer.spans[first:]:
                        raw[span["name"]] = span["end"] - span["start"]
                raws.append((rate_key(rate), raw))
            return raws

        raws, timing = bracket.time(one_round)
        for key, raw in raws:
            for name, seconds in raw.items():
                samples[name].setdefault(key, []).append(
                    calibrate(seconds, timing.kernel_s, bracket.nominal_s))
    return samples


def median_sum(samples: Dict[str, List[float]]) -> float:
    """Sum over points of each point's median sample."""
    return sum(statistics.median(values) for values in samples.values())


def per_point(passes, field: str) -> Dict[str, List[float]]:
    """``{rate: [value per pass]}`` over the points that succeeded."""
    table: Dict[str, List[float]] = {}
    for points in passes:
        for point in points:
            if not point.get("error"):
                table.setdefault(point["rate"], []).append(point[field])
    return table


def plain(points) -> List[Dict[str, object]]:
    """Point records without their in-memory objects (for the record)."""
    return [{k: v for k, v in p.items() if not k.startswith("_")}
            for p in points]


def timed_run(workload, seed: int, seconds: float, record) -> Dict:
    """End-to-end metrics: repeated untraced passes, then set-up."""
    from calibrate import Bracket

    workload.warm_up(seed)
    bracket = Bracket()
    passes = []
    walls = []
    started = time.perf_counter()
    rates = None
    while True:
        pass_start = time.perf_counter()
        points = run_pass(workload, seed, rates, bracket)
        walls.append(time.perf_counter() - pass_start)
        passes.append(points)
        if rates is None:
            rates = [p["_rate"] for p in points]
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > seconds:
            break
    setup = measure_setup(workload, seed, rates)

    sweep = per_point(passes, "calibrated_s")
    flit_hops = sum(p.get("flit_hops", 0) for p in passes[0])
    sweep_s = median_sum(sweep)
    metrics = {
        "sweep_s": sweep_s,
        "flit_hops_per_s": flit_hops / sweep_s if sweep_s > 0 else 0.0,
        "setup_s": median_sum(setup["total"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    record.update(
        passes=[plain(points) for points in passes],
        pass_wall_s=walls,
        measured_s=time.perf_counter() - started,
        raw={"sweep_s": median_sum(per_point(passes, "raw_s")),
             "kernel_s": statistics.median(bracket.kernel_times)},
        setup=setup["total"],
        kernel_s=bracket.kernel_times,
    )
    return {"passes": passes, "metrics": metrics, "checks": [],
            "check_attempts": 0}


def _events(points, name: str) -> int:
    return sum(p["_outcome"].events.get(name, 0) for p in points
               if not p.get("error"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, points, tracer, setup, overhead_pct: float
                  ) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (calibrated per point)."""
    from calibrate import calibrate
    from workloads import SM_SENT_EVENTS

    phase = dict.fromkeys(PHASES, 0.0)
    loop_s = waitgraph_s = 0.0
    waitgraph_calls = 0
    counters: Dict[str, int] = {}
    fast_points = 0
    for point in points:
        if point.get("error"):
            continue
        kernel_s = point["kernel_s"]

        def cal(seconds):
            return calibrate(seconds, kernel_s)

        profiler = point["_profiler"]
        for name in PHASES:
            phase[name] += cal(profiler.phase_seconds.get(name, 0.0))
        for name, value in profiler.counters.items():
            counters[name] = counters.get(name, 0) + value
        if ("alloc_cycles_run" in profiler.counters
                or "alloc_cycles_skipped" in profiler.counters):
            fast_points += 1
        # The loop is the simulation spans' time outside every phase and
        # outside the deadlock checks they contain.
        inner = -sum(profiler.phase_seconds.values())
        for span in tracer.children(point["_outcome"].span_id):
            if span["name"] not in ("simulate_point", "scan_chunk"):
                continue
            inner += span["end"] - span["start"]
            for check in tracer.children(span["id"]):
                if check["name"] == "has_deadlock":
                    seconds = check["end"] - check["start"]
                    waitgraph_s += cal(seconds)
                    waitgraph_calls += 1
                    inner -= seconds
        loop_s += cal(inner)

    flit_hops = sum(p.get("flit_hops", 0) for p in points)
    sms = sum(_events(points, name) for name in SM_SENT_EVENTS)
    routers = (counters.get("router_cycles_run", 0)
               + counters.get("router_cycles_skipped", 0))
    ticks = (counters.get("controller_ticks", 0)
             + counters.get("controller_ticks_skipped", 0))
    return {
        "sim.allocate_s": phase["allocate"],
        "sim.allocate_us_per_flit_hop": _ratio(phase["allocate"] * 1e6,
                                               flit_hops),
        "sim.control_s": phase["control"],
        "sim.inject_s": phase["inject"],
        "sim.deliver_s": phase["deliver"],
        "sim.collect_s": phase["collect"],
        "sim.loop_s": loop_s,
        "core.probes_sent": _events(points, "probes_sent"),
        "core.spins": _events(points, "spins"),
        "core.sm_retries": _events(points, "sm_retries"),
        "core.spins_aborted": _events(points, "spins_aborted"),
        "core.probe_success_ratio": _ratio(_events(points, "probes_returned"),
                                           _events(points, "probes_sent")),
        "core.control_us_per_sm": _ratio(phase["control"] * 1e6, sms),
        "sim.fastcore.router_skip_ratio": _ratio(
            counters.get("router_cycles_skipped", 0), routers),
        "sim.fastcore.controller_skip_ratio": _ratio(
            counters.get("controller_ticks_skipped", 0), ticks),
        "sim.fastcore.cycles_fast_forwarded":
            counters.get("cycles_fast_forwarded", 0),
        "sim.fastcore.fast_points": fast_points,
        "harness.build_s": median_sum(setup["build"]),
        "harness.compile_s": median_sum(setup["first_cycle"]),
        "deadlock.waitgraph_s": waitgraph_s,
        "deadlock.waitgraph_calls": waitgraph_calls,
        "network.flit_hops": flit_hops,
        "network.packets_delivered": sum(
            p.get("packets_delivered", 0) for p in points),
        "trace.overhead_pct": overhead_pct,
    }


def traced_run(workload, seed: int, record) -> Dict:
    """Per-layer metrics: an untraced pass, then the same points traced,
    then the knee point on the other engine."""
    from calibrate import Bracket
    from workloads import Tracer, rate_key

    workload.warm_up(seed)
    bracket = Bracket()
    untraced = run_pass(workload, seed, None, bracket)
    rates = [p["_rate"] for p in untraced]
    tracer = Tracer()
    setup = measure_setup(workload, seed, rates, tracer)
    traced = run_pass(workload, seed, rates, bracket, tracer=tracer,
                      profile=True)

    def total(points):
        return sum(p["calibrated_s"] for p in points if not p.get("error"))

    base = total(untraced)
    overhead = _ratio((total(traced) - base) * 100.0, base)
    metrics = layer_metrics(workload, traced, tracer, setup, overhead)

    checks = []
    knee = untraced[-1]
    other = workload.other_engine()
    try:
        outcome = workload.run_point(seed, rates[-1], engine=other)
        same = outcome.digest == knee["digest"]
        detail = f"{outcome.digest} vs {knee['digest']}"
    except Exception as exc:  # reported as a failed check
        traceback.print_exc(file=sys.stderr)
        same, detail = False, f"raised {type(exc).__name__}: {exc}"
    if not same:
        checks.append(f"knee rate {rate_key(rates[-1])} on {other} engine "
                      f"differs from {workload.engine}: {detail}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    record.update(passes=[plain(untraced), plain(traced)],
                  knee={"rate": rate_key(rates[-1]), "engine": other,
                        "identical": same},
                  spans=str(spans_path.relative_to(ROOT)),
                  kernel_s=bracket.kernel_times)
    return {"passes": [untraced, traced], "metrics": metrics,
            "checks": checks, "check_attempts": 1}


def record_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run writes its record."""
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool
              ) -> Dict[str, object]:
    """Run one workload, write its record, return the result line."""
    from calibrate import KERNEL_NOMINAL_S
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    record: Dict[str, object] = {
        "schema": RECORD_SCHEMA, "workload": workload_name, "seed": seed,
        "seconds": seconds, "trace": trace, "host": host_record(),
        "kernel_nominal_s": KERNEL_NOMINAL_S, "note": NOTE,
    }
    if trace:
        result = traced_run(workload, seed, record)
        names = PER_LAYER
    else:
        result = timed_run(workload, seed, seconds, record)
        names = END_TO_END

    expected = load_expected(workload_name, seed)
    if expected is None:
        # No committed digests for this seed: the first pass is the
        # reference, so later passes must reproduce it exactly.
        expected = {p["rate"]: p["digest"] for p in result["passes"][0]
                    if not p.get("error")}
        record["reference"] = "first pass"
    else:
        record["reference"] = f"{DIGESTS.name} seed {seed}"
    attempted, failed, problems = count_failures(
        expected, [plain(points) for points in result["passes"]])
    attempted += result["check_attempts"]
    failed += len(result["checks"])
    problems += result["checks"]
    correct = not problems and attempted > 0
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in names.items()}
    record.update(correct=correct, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics,
                  kernel_median_s=statistics.median(record["kernel_s"]),
                  peak_rss_mb=peak_rss_mb())
    path = record_path(workload_name, seed, int(trace))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def write_digests(workload_name: str, seed: int) -> int:
    """Run one pass and commit its digests as the seed's reference."""
    from calibrate import Bracket
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workload.warm_up(seed)
    points = run_pass(workload, seed, None, Bracket())
    for point in points:
        print(f"rate {point['rate']} digest {point['digest']} "
              f"flit_hops {point.get('flit_hops')} "
              f"raw_s {point.get('raw_s', 0):.3f} error {point['error']}")
    if any(point["error"] for point in points):
        return 1
    table = (json.loads(DIGESTS.read_text(encoding="utf-8"))
             if DIGESTS.is_file() else {})
    table.setdefault(workload_name, {})[str(seed)] = {
        point["rate"]: point["digest"] for point in points}
    for name in table:
        table[name] = dict(sorted(table[name].items(),
                                  key=lambda item: int(item[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# Steadiness mode
# ----------------------------------------------------------------------
def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def steadiness(args) -> int:
    """Run the workload ``args.steadiness`` times in child processes."""
    values: Dict[str, List[float]] = {}
    for index in range(args.steadiness):
        seed = args.seed + index
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT), check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"run {index} (seed {seed}) exited {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        child = json.loads(record_path(args.workload, seed, 0)
                           .read_text(encoding="utf-8"))
        row = {name: m["value"] for name, m in result["metrics"].items()}
        row["raw.sweep_s"] = child["raw"]["sweep_s"]
        row["raw.kernel_s"] = child["raw"]["kernel_s"]
        row["passes"] = len(child["passes"])
        print(f"run {index} seed {seed} correct={result['correct']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()),
              flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    print(f"\n{'metric':<18} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'min':>10} {'max':>10}")
    for name, series in values.items():
        s = spread(series)
        print(f"{name:<18} {s['median']:>10.4g} {s['q1']:>10.4g} "
              f"{s['q3']:>10.4g} {s['iqr_over_median']:>8.3f} "
              f"{s['min']:>10.4g} {s['max']:>10.4g}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Benchmark one workload of the SPIN reproduction.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time of an untraced run; passes "
                             "repeat while another one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run the workload N times (seeds seed.."
                             "seed+N-1) and print each metric's spread")
    parser.add_argument("--write-digests", action="store_true",
                        help=f"run one pass and store its digests in "
                             f"{DIGESTS.name} as the seed's reference")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    found = instrumented(os.environ)
    if found:
        print(f"refusing to time: {', '.join(found)} set; each one "
              f"switches the engine or attaches instrumentation",
              file=sys.stderr)
        return 2
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.write_digests:
        return write_digests(args.workload, args.seed)
    if args.steadiness:
        if args.steadiness < 2:
            print("--steadiness needs at least 2 runs", file=sys.stderr)
            return 2
        return steadiness(args)
    result = benchmark(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(NOTE)
    for name, metric in result["metrics"].items():
        print(f"{name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
