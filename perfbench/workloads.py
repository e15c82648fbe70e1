"""The benchmark's workloads, driven only through the public ``repro`` API.

Each workload is a list of *points* (offered loads) run serially, one
after the other, by a single client: a closed loop.  A point's
simulated result is reduced to a digest, so the benchmark can check its
outputs against committed values and across engines.

* ``mesh-spin-curve`` -- Fig. 7's latency curve on the fast engine's
  struct-of-arrays path; SPIN control is about half the busy time.
* ``dfly-ugal-curve`` -- Fig. 6's UGAL curve on the dragonfly; the fast
  engine falls back to the reference schedule, so reference
  ``Router.allocate`` with UGAL routing dominates.
* ``mesh-deadlock-scan`` -- Fig. 3's mesh row: no recovery, 3 VCs,
  1-flit packets, loads that wedge the network, and the wait-for-graph
  deadlock check every 200 cycles.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import SimulationConfig
from repro.deadlock.waitgraph import has_deadlock
from repro.harness.configs import build_network
from repro.harness.runner import ExperimentSpec
from repro.sim.engine_api import create_engine
from repro.stats.sweep import SaturationCursor, simulate_point
from repro.traffic.generator import PacketMix, SyntheticTraffic
from repro.traffic.patterns import make_pattern

#: Default-scale figure settings (benchmarks/_common.py at normal scale).
TDD = 32
SIM = SimulationConfig(warmup_cycles=400, measure_cycles=2000,
                       drain_cycles=2000, deadlock_abort_cycles=1500)
MESH_SIDE = 8

#: Windows of the untimed warm-up point: long enough to compile every
#: lazy path a timed point takes, short enough to cost well under 1 s.
WARMUP_SIM = SimulationConfig(warmup_cycles=50, measure_cycles=200,
                              drain_cycles=100, deadlock_abort_cycles=1500)

#: Fig. 3 scan: cycles between deadlock checks, checks per timed region
#: and cycles per rate.
SCAN_CHECK_EVERY = 200
SCAN_CHECKS_PER_REGION = 2
SCAN_WINDOW = 2000

#: SPIN special messages the control plane sends (core.control_us_per_sm).
SM_SENT_EVENTS = ("probes_sent", "moves_sent", "probe_moves_sent",
                  "kill_moves_sent")


def digest(payload: Dict[str, object]) -> str:
    """Stable 16-hex digest of a JSON-safe payload.

    Canonical JSON (sorted keys, no whitespace) over values whose repr
    does not depend on ``PYTHONHASHSEED``, so every process agrees.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rate_key(rate: float) -> str:
    """The digest table's key for an offered load."""
    return f"{rate:.2f}"


class Tracer:
    """Benchmark-side spans, kept in memory until the run ends.

    A span is ``(id, name, start, end, parent, rate)`` in raw
    ``perf_counter`` seconds; the parent is the span open when it began.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rate: Optional[float] = None):
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "rate": rate}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def children(self, parent_id: int) -> List[Dict[str, object]]:
        return [s for s in self.spans if s["parent"] == parent_id]


def _span(tracer: Optional[Tracer], name: str, rate: float):
    return tracer.span(name, rate) if tracer is not None else \
        contextlib.nullcontext()


def _direct(fn):
    """The untimed ``timer``: just call ``fn``."""
    return fn()


@dataclass
class PointOutcome:
    """What one point simulated, reduced to checkable facts."""

    digest: str
    flit_hops: int
    packets_delivered: int
    events: Dict[str, int] = field(default_factory=dict)
    #: The workload's stop rule for this point (saturation or deadlock).
    stop_value: object = None
    #: The traced pass's ``point`` span, when traced.
    span_id: Optional[int] = None


class Workload:
    """One named workload: an ordered rate list and how to run a point."""

    name = ""
    rates: List[float] = []
    #: Engine the timed points run on; the cross-engine check uses the
    #: other one.
    engine = "reference"

    def other_engine(self) -> str:
        return "reference" if self.engine == "fast" else "fast"

    def stop_rule(self) -> Callable[[PointOutcome], bool]:
        """A fresh predicate: True when the workload ends after a point."""
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        """One short untimed point that runs every lazy set-up path."""
        raise NotImplementedError

    def build(self, seed: int, rate: float):
        """The ``(network, traffic)`` pair of one point."""
        raise NotImplementedError

    def run_point(self, seed: int, rate: float, engine: Optional[str] = None,
                  tracer: Optional[Tracer] = None, profiler=None,
                  timer: Optional[Callable] = None) -> PointOutcome:
        """Simulate one point.

        ``timer(fn)`` runs ``fn`` as one timed region and returns its
        result; a point is one or more regions.  ``tracer`` records
        spans and ``profiler`` is attached to the engine.
        """
        raise NotImplementedError

    def first_cycle(self, seed: int, rate: float,
                    tracer: Optional[Tracer] = None) -> None:
        """Build a point, compile its engine and simulate one cycle."""
        with _span(tracer, "build", rate):
            network, traffic = self.build(seed, rate)
        with _span(tracer, "first_cycle", rate):
            engine = create_engine(self.engine)
            engine.register(traffic)
            engine.register(network)
            engine.step()


class CurveWorkload(Workload):
    """A latency curve: ``ExperimentSpec.run`` per rate, stopped by
    :class:`SaturationCursor` (the serial path of ``latency_curve``)."""

    engine = "fast"

    def __init__(self, name: str, design: str, pattern: str,
                 rates: List[float], **spec_kwargs) -> None:
        self.name = name
        self.design = design
        self.pattern = pattern
        self.rates = rates
        self.spec_kwargs = spec_kwargs

    def spec(self, seed: int, rate: float, engine: Optional[str] = None,
             sim: SimulationConfig = SIM) -> ExperimentSpec:
        return ExperimentSpec(design=self.design, pattern=self.pattern,
                              injection_rate=rate, seed=seed, tdd=TDD,
                              sim=sim, engine=engine or self.engine,
                              **self.spec_kwargs)

    def stop_rule(self):
        cursor = SaturationCursor()
        return lambda outcome: cursor.push(outcome.stop_value)

    def warm_up(self, seed: int) -> None:
        self.spec(seed, self.rates[0], sim=WARMUP_SIM).run()

    def build(self, seed: int, rate: float):
        network, traffic, _ = self.spec(seed, rate).build()
        return network, traffic

    def run_point(self, seed, rate, engine=None, tracer=None, profiler=None,
                  timer=None):
        spec = self.spec(seed, rate, engine)

        def run():
            if tracer is None:
                return spec.run(profiler=profiler)
            # ExperimentSpec.run is build() + simulate_point(); the traced
            # pass makes the same two calls so each gets its own span.
            # Its digests are checked against the untraced pass's.
            with tracer.span("build", rate):
                network, traffic, injector = spec.build()
            with tracer.span("simulate_point", rate):
                return network, simulate_point(
                    network, traffic, spec.sim,
                    injection_rate=spec.injection_rate, injector=injector,
                    verify=spec.verify, telemetry=spec.telemetry,
                    engine=spec.engine or None, profiler=profiler)

        network, point = (timer or _direct)(run)
        return PointOutcome(
            digest=digest(point.to_dict()),
            flit_hops=network.stats.events.get("flit_hops", 0),
            packets_delivered=network.stats.packets_delivered,
            events=dict(network.stats.events), stop_value=point)


class DeadlockScanWorkload(Workload):
    """Fig. 3's mesh row over a fixed load grid and a fixed window.

    Fig. 3 stops a rate at the first deadlock and the scan at the first
    deadlocking rate.  The onset cycle varies from a few hundred to
    thousands of cycles between seeds, so that much work would vary by
    seed more than any host noise.  Here every rate simulates the whole
    window and checks for deadlock every ``SCAN_CHECK_EVERY`` cycles,
    recording the first cycle at which the check fired: the same
    verdicts, for a fixed amount of simulated work.
    """

    name = "mesh-deadlock-scan"
    design = "mesh:minadaptive-nospin-3vc"
    pattern = "uniform"
    rates = [0.1, 0.2, 0.4]
    engine = "reference"

    def stop_rule(self):
        return lambda outcome: False

    def build(self, seed: int, rate: float):
        network = build_network(self.design, seed=seed, mesh_side=MESH_SIDE)
        pattern = make_pattern(self.pattern, network.topology.num_nodes,
                               cols=MESH_SIDE)
        traffic = SyntheticTraffic(network, pattern, rate, seed=seed,
                                   mix=PacketMix.single(1))
        return network, traffic

    def warm_up(self, seed: int) -> None:
        self._scan(seed, self.rates[-1], self.engine, None, None,
                   _direct, window=2 * SCAN_CHECK_EVERY
                   * SCAN_CHECKS_PER_REGION)

    def run_point(self, seed, rate, engine=None, tracer=None, profiler=None,
                  timer=None):
        return self._scan(seed, rate, engine or self.engine, tracer,
                          profiler, timer or _direct, window=SCAN_WINDOW)

    def _scan(self, seed, rate, engine_name, tracer, profiler, timer,
              window):
        def build():
            with _span(tracer, "build", rate):
                return self.build(seed, rate)

        network, traffic = timer(build)
        simulator = create_engine(engine_name)
        if profiler is not None:
            simulator.attach_profiler(profiler)
        simulator.register(traffic)
        simulator.register(network)

        def region():
            fired = []
            for _ in range(SCAN_CHECKS_PER_REGION):
                with _span(tracer, "scan_chunk", rate):
                    simulator.run(SCAN_CHECK_EVERY)
                    with _span(tracer, "has_deadlock", rate):
                        if has_deadlock(network, simulator.cycle):
                            fired.append(simulator.cycle)
            return fired

        first_deadlock = None
        # Each region is timed on its own, so a long rate is calibrated by
        # kernel runs spread through it.
        for _ in range(window // (SCAN_CHECK_EVERY * SCAN_CHECKS_PER_REGION)):
            fired = timer(region)
            if fired and first_deadlock is None:
                first_deadlock = fired[0]
        flit_hops = network.stats.events.get("flit_hops", 0)
        verdict = {"rate": rate, "first_deadlock_cycle": first_deadlock,
                   "cycles": simulator.cycle, "flit_hops": flit_hops}
        return PointOutcome(
            digest=digest(verdict), flit_hops=flit_hops,
            packets_delivered=network.stats.packets_delivered,
            events=dict(network.stats.events),
            stop_value=first_deadlock is not None)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        CurveWorkload(
            "mesh-spin-curve", "mesh:minadaptive-spin-1vc", "uniform",
            [round(0.02 * k, 2) for k in range(1, 11)],
            mesh_side=MESH_SIDE),
        CurveWorkload(
            "dfly-ugal-curve", "dfly:ugal-spin-3vc", "bit_complement",
            [0.04, 0.08, 0.12, 0.16, 0.22, 0.30],
            dragonfly=(2, 4, 2)),
        DeadlockScanWorkload(),
    )
}
