"""The scenario engine: injects world events into a running simulation.

:class:`ScenarioEngine` turns the declarative specs of a
:class:`~repro.dynamics.scenario.Scenario` into *event sources* — chains of
timed DES callbacks that wake up over simulated time and apply
:class:`~repro.dynamics.scenario.WorldEvent`\\ s to the fleet:

* ``drift`` — one fleet-wide source stepping every device's calibration,
* ``outage:<device>`` — one source per failable device,
* ``maintenance`` — one source walking the scheduled windows.

Each source takes its first step from a start event at the install instant
(``Environment.start``, ``URGENT`` priority) and then schedules one wake-up
timeout per event time.

Every applied event funnels through :meth:`ScenarioEngine.apply`, which both
mutates the world *and* appends the event to :attr:`applied_events` — so any
scenario run can be dumped to a trace and replayed.  Replay re-creates
every *recorded* source, re-applying the recorded events at their recorded
times; because each source allocates exactly one wake-up timeout per
event time in both modes, the interleaving of same-time events (and hence the
entire simulation) is reproduced exactly.

Determinism: every source draws from its own generator seeded by
``derive_seed(config.seed, "scenario", name, scenario.seed, <source>)`` — the
same scenario on the same config always produces the same event stream,
independent of fleet size changes in *other* sources.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.dynamics.scenario import (
    CALIBRATION_CATEGORIES,
    DriftSpec,
    MaintenanceWindow,
    OutageSpec,
    Scenario,
    WorldEvent,
)
from repro.engine.spec import derive_seed

__all__ = ["ScenarioEngine"]


class ScenarioEngine:
    """Runtime of one scenario inside one simulation.

    Parameters
    ----------
    env:
        The :class:`~repro.cloud.environment.QCloudSimEnv` (duck-typed: any
        DES environment exposing ``cloud``, ``config``, ``timeout`` and
        ``start``).
    scenario:
        The scenario to run.
    """

    def __init__(self, env: Any, scenario: Scenario) -> None:
        self.env = env
        self.scenario = scenario
        #: Every world event applied so far, in application order.
        self.applied_events: List[WorldEvent] = []
        #: Event-source identifiers in creation order (trace header field).
        self.sources: List[str] = []
        self._installed = False
        self._baselines: Dict[str, Any] = {}
        self._log_factors: Dict[str, Dict[str, float]] = {}
        self._seed_root = derive_seed(
            env.config.seed, "scenario", scenario.name, scenario.seed
        )

    # -- installation ---------------------------------------------------------
    @property
    def cloud(self) -> Any:
        """The device fleet of the owning environment."""
        return self.env.cloud

    @property
    def perpetual(self) -> bool:
        """Whether any installed source never terminates (the environment
        must then stop on job completion, not queue exhaustion)."""
        return self.scenario.is_perpetual

    def install(self) -> None:
        """Snapshot calibration baselines and start the event sources.

        A static scenario installs nothing: no sources are started, no
        events are scheduled, and the simulation is byte-identical to a run
        without a scenario.
        """
        if self._installed:
            raise RuntimeError("ScenarioEngine already installed")
        self._installed = True
        scenario = self.scenario

        for device in self.cloud.devices:
            self._baselines[device.name] = getattr(device, "calibration", None)
            self._log_factors[device.name] = {c: 0.0 for c in CALIBRATION_CATEGORIES}

        if scenario.is_replay:
            self._install_replay(scenario)
            return

        if scenario.drift is not None:
            self._validate_devices(scenario.drift.devices)
            self.sources.append("drift")
            self._start_drift(scenario.drift)
        if scenario.outages is not None:
            self._validate_devices(scenario.outages.devices)
            names = scenario.outages.devices or tuple(d.name for d in self.cloud.devices)
            for name in names:
                self.sources.append(f"outage:{name}")
                self._start_outage(name, scenario.outages)
        if scenario.maintenance:
            self._validate_devices(
                tuple(w.device for w in scenario.maintenance if w.device is not None)
            )
            self.sources.append("maintenance")
            self._start_maintenance(scenario.maintenance)

    def _validate_devices(self, names: Optional[Sequence[str]]) -> None:
        for name in names or ():
            self.cloud.device(name)  # raises KeyError for unknown devices

    def _install_replay(self, scenario: Scenario) -> None:
        events = scenario.replay_events or ()
        known = set(self.cloud.device_names())
        by_source: Dict[str, List[WorldEvent]] = {}
        for index, event in enumerate(events, start=1):
            if event.device is not None and event.device not in known:
                raise ValueError(
                    f"replay event {index} (t={event.time}, source {event.source!r}) "
                    f"targets unknown device {event.device!r}"
                )
            by_source.setdefault(event.source, []).append(event)
        # Re-create sources in the recorded creation order so that same-time
        # wake-up events interleave exactly as in the recorded run.
        order = list(scenario.replay_sources) or list(by_source)
        for source in order:
            source_events = by_source.pop(source, [])
            if source_events:
                self.sources.append(source)
                self._start_replay(source_events)
        for source, source_events in by_source.items():  # sources missing from header
            self.sources.append(source)
            self._start_replay(source_events)

    # -- event sources ---------------------------------------------------------
    # Each source is a chain of timed callbacks: the start event takes its
    # first step, and every step applies its events and then schedules the
    # next wake-up.
    def _source_rng(self, *components: Any) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self._seed_root, *components))

    def _start_drift(self, spec: DriftSpec) -> None:
        env = self.env
        rng = self._source_rng("drift")
        names = list(spec.devices) if spec.devices else [d.name for d in self.cloud.devices]
        # One vectorized draw per wake (5 categories x devices) instead of 5k
        # scalar draws: the drift hook runs on the hot path of every step.
        sigma = np.tile(
            [spec.volatility] * 3 + [spec.coherence_volatility] * 2, len(names)
        )
        elapsed = 0.0
        next_recal = spec.recalibration_period

        def wait(_event: Any) -> None:
            env.timeout(spec.interval).callbacks.append(step)

        def step(_event: Any) -> None:
            nonlocal elapsed, next_recal
            elapsed += spec.interval
            now = env.now
            steps = np.exp(sigma * rng.standard_normal(sigma.shape[0]))
            for i, name in enumerate(names):
                base = 5 * i
                factors = {
                    "readout": float(steps[base]),
                    "single_qubit": float(steps[base + 1]),
                    "two_qubit": float(steps[base + 2]),
                    "t1": float(steps[base + 3]),
                    "t2": float(steps[base + 4]),
                }
                self.apply(WorldEvent(now, "drift", "calibration", name, {"factors": factors}))
            if next_recal is not None and elapsed >= next_recal:
                next_recal += spec.recalibration_period
                for name in names:
                    self.apply(
                        WorldEvent(
                            now,
                            "drift",
                            "recalibration",
                            name,
                            {"strength": spec.recalibration_strength},
                        )
                    )
            wait(None)

        env.start(wait)

    def _start_outage(self, name: str, spec: OutageSpec) -> None:
        env = self.env
        rng = self._source_rng("outage", name)
        source = f"outage:{name}"

        def run(_event: Any) -> None:
            env.timeout(float(rng.exponential(spec.mtbf))).callbacks.append(fail)

        def fail(_event: Any) -> None:
            self.apply(
                WorldEvent(
                    env.now,
                    source,
                    "offline",
                    name,
                    {"kill_running": spec.kill_running, "cause": "outage"},
                )
            )
            env.timeout(float(rng.exponential(spec.mttr))).callbacks.append(repair)

        def repair(_event: Any) -> None:
            self.apply(WorldEvent(env.now, source, "online", name, {"cause": "outage"}))
            run(None)

        env.start(run)

    def _start_maintenance(self, windows: Sequence[MaintenanceWindow]) -> None:
        # Windows are served in start order; an overlapping window is simply
        # deferred until the previous one ends (its full duration is honoured).
        env = self.env
        queue = deque(sorted(windows, key=lambda w: (w.start, w.device or "")))

        def next_window(_event: Any) -> None:
            if not queue:
                return
            window = queue[0]
            if window.start > env.now:
                env.timeout(window.start - env.now).callbacks.append(begin)
            else:
                begin(None)

        def begin(_event: Any) -> None:
            window = queue[0]
            self.apply(
                WorldEvent(
                    env.now,
                    "maintenance",
                    "offline",
                    window.device,
                    {"kill_running": window.kill_running, "cause": "maintenance"},
                )
            )
            env.timeout(window.duration).callbacks.append(end)

        def end(_event: Any) -> None:
            window = queue.popleft()
            self.apply(
                WorldEvent(
                    env.now, "maintenance", "online", window.device,
                    {"cause": "maintenance"},
                )
            )
            next_window(None)

        env.start(next_window)

    def _start_replay(self, events: Sequence[WorldEvent]) -> None:
        env = self.env
        queue = deque(events)

        def next_events(_event: Any) -> None:
            # Apply every event that is due, then sleep until the next one.
            while queue:
                event = queue[0]
                if event.time > env.now:
                    env.timeout(event.time - env.now).callbacks.append(wake)
                    return
                self.apply(queue.popleft())

        def wake(_event: Any) -> None:
            # The wake-up is the event's time: apply it without comparing
            # the clock again (``now + (t - now)`` need not equal ``t``).
            self.apply(queue.popleft())
            next_events(None)

        env.start(next_events)

    # -- event application -----------------------------------------------------
    def apply(self, event: WorldEvent) -> None:
        """Apply one world event to the fleet and record it.

        This is the single funnel shared by the stochastic sources and the
        replay sources, so recording and replaying cannot diverge.
        """
        kind = event.kind
        if kind == "calibration":
            self._shift_calibration(event.device, event.payload["factors"])
        elif kind == "recalibration":
            self._recalibrate(event.device, float(event.payload.get("strength", 1.0)))
        elif kind == "offline":
            for device in self._targets(event.device):
                device.set_offline(
                    kill_running=bool(event.payload.get("kill_running", True)),
                    cause=str(event.payload.get("cause", "outage")),
                )
        elif kind == "online":
            cause = event.payload.get("cause")
            recovered = False
            for device in self._targets(event.device):
                recovered = device.set_online(cause) or recovered
            if recovered:
                # Wake brokers waiting for capacity so they re-plan onto the
                # recovered device.
                self.cloud.signal_capacity_change()
        else:
            raise ValueError(f"unknown world-event kind {kind!r}")
        self.applied_events.append(event)

    def _targets(self, device_name: Optional[str]) -> List[Any]:
        if device_name is None:
            return list(self.cloud.devices)
        return [self.cloud.device(device_name)]

    def _shift_calibration(self, device_name: Optional[str], factors: Dict[str, Any]) -> None:
        if device_name is None:
            raise ValueError("calibration events need a target device")
        state = self._log_factors[device_name]
        for category, factor in factors.items():
            if category not in state:
                raise ValueError(f"unknown calibration category {category!r}")
            state[category] += math.log(float(factor))
        self._rescale(device_name)

    def _recalibrate(self, device_name: Optional[str], strength: float) -> None:
        names = (
            [device_name] if device_name is not None else [d.name for d in self.cloud.devices]
        )
        for name in names:
            state = self._log_factors[name]
            for category in state:
                state[category] *= 1.0 - strength
            self._rescale(name)

    def _rescale(self, device_name: str) -> None:
        """Re-derive the device calibration from its baseline and the
        accumulated log-deviations (always from the baseline, so replayed
        event streams reproduce bit-identical calibrations)."""
        baseline = self._baselines[device_name]
        if baseline is None:
            raise TypeError(f"device {device_name!r} carries no calibration data")
        state = self._log_factors[device_name]
        device = self.cloud.device(device_name)
        device.calibration = baseline.scaled(
            readout=math.exp(state["readout"]),
            single_qubit=math.exp(state["single_qubit"]),
            two_qubit=math.exp(state["two_qubit"]),
            t1=math.exp(state["t1"]),
            t2=math.exp(state["t2"]),
        )

    # -- reporting -------------------------------------------------------------
    def event_counts(self) -> Dict[str, int]:
        """Number of applied events per kind (for summaries/CLI)."""
        counts: Dict[str, int] = {}
        for event in self.applied_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ScenarioEngine scenario={self.scenario.name!r} "
            f"sources={len(self.sources)} applied={len(self.applied_events)}>"
        )
