"""Lightweight metrics registry: counters, gauges, histograms.

Instruments are keyed by ``(name, labels)`` — labels are the free-form
dimensions (``task=1``, ``layer=3``, ``direction="load"``) that the
scheduler-quality analyses slice by.  A :class:`MetricsSink` attached to the
event bus maintains the standard instruments automatically; code can also
update instruments directly for domain-specific signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import Event, EventKind
from repro.state import Stateful

#: A label set in canonical (hashable) form.
LabelKey = tuple[tuple[str, object], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


@dataclass
class Counter:
    """Monotonically increasing count (events, cycles, bytes)."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value (queue depth, buffer bytes)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Distribution summary with exact values retained (simulations are
    small enough that reservoir sampling would only add noise)."""

    values: list[float] = field(default_factory=list)

    def record(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError("histogram is empty")
        return self.total / len(self.values)

    @property
    def min(self) -> float:
        if not self.values:
            raise ValueError("histogram is empty")
        return min(self.values)

    @property
    def max(self) -> float:
        if not self.values:
            raise ValueError("histogram is empty")
        return max(self.values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not self.values:
            raise ValueError("histogram is empty")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]


class Metrics(Stateful):
    """Registry of named, labelled instruments."""

    STATE = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, _label_key(labels))
        if key not in self._histograms:
            self._histograms[key] = Histogram()
        return self._histograms[key]

    # -- aggregation -------------------------------------------------------

    def counter_total(self, name: str, **labels: object) -> int:
        """Sum a counter across every label set matching ``labels``."""
        wanted = set(labels.items())
        return sum(
            counter.value
            for (counter_name, label_key), counter in self._counters.items()
            if counter_name == name and wanted <= set(label_key)
        )

    def snapshot(self) -> dict[str, dict[str, object]]:
        """All instruments as plain data, keyed ``name{k=v,...}``."""

        def fmt(name: str, label_key: LabelKey) -> str:
            if not label_key:
                return name
            inner = ",".join(f"{key}={value}" for key, value in label_key)
            return f"{name}{{{inner}}}"

        result: dict[str, dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), counter in sorted(self._counters.items()):
            result["counters"][fmt(name, labels)] = counter.value
        for (name, labels), gauge in sorted(self._gauges.items()):
            result["gauges"][fmt(name, labels)] = gauge.value
        for (name, labels), histogram in sorted(self._histograms.items()):
            result["histograms"][fmt(name, labels)] = {
                "count": histogram.count,
                "mean": histogram.mean if histogram.count else None,
                "min": histogram.min if histogram.count else None,
                "max": histogram.max if histogram.count else None,
            }
        return result


class MetricsSink:
    """Bus sink maintaining the standard instruments.

    Standard signals: ``instructions`` / ``busy_cycles`` (per task, layer),
    ``ddr_bytes`` / ``ddr_bursts`` (per direction), ``preemptions`` /
    ``vi_expansions`` (per task), ``jobs`` and the ``response_cycles`` /
    ``turnaround_cycles`` histograms (per task), ``ros_published`` /
    ``ros_delivered`` (per topic), ``faults_injected`` / ``faults_detected``
    / ``faults_recovered`` (per site), ``jobs_degraded`` (per task, action)
    and ``deadline_misses`` (per task).
    """

    def __init__(self, metrics: Metrics):
        self.metrics = metrics

    def handle(self, event: Event) -> None:
        metrics = self.metrics
        kind = event.kind
        if kind is EventKind.INSTR_RETIRE:
            metrics.counter("instructions", task=event.task_id).inc()
            metrics.counter(
                "busy_cycles", task=event.task_id, layer=event.layer_id
            ).inc(event.duration)
        elif kind is EventKind.DDR_BURST:
            direction = event.data.get("direction", "?")
            metrics.counter("ddr_bursts", direction=direction).inc()
            metrics.counter("ddr_bytes", direction=direction).inc(
                int(event.data.get("bytes", 0))
            )
        elif kind is EventKind.PREEMPT_BEGIN:
            metrics.counter("preemptions", task=event.task_id).inc()
        elif kind is EventKind.VI_EXPAND:
            metrics.counter(
                "vi_expansions", task=event.task_id, phase=event.data.get("phase", "?")
            ).inc()
        elif kind is EventKind.JOB_COMPLETE:
            metrics.counter("jobs", task=event.task_id).inc()
            response = event.data.get("response_cycles")
            if response is not None:
                metrics.histogram("response_cycles", task=event.task_id).record(response)
            turnaround = event.data.get("turnaround_cycles")
            if turnaround is not None:
                metrics.histogram("turnaround_cycles", task=event.task_id).record(
                    turnaround
                )
        elif kind is EventKind.ROS_PUBLISH:
            metrics.counter("ros_published", topic=event.data.get("topic", "?")).inc()
        elif kind is EventKind.ROS_DELIVER:
            metrics.counter("ros_delivered", topic=event.data.get("topic", "?")).inc()
        elif kind is EventKind.FAULT_INJECT:
            metrics.counter("faults_injected", site=event.data.get("site", "?")).inc()
        elif kind is EventKind.FAULT_DETECT:
            metrics.counter("faults_detected", site=event.data.get("site", "?")).inc()
        elif kind is EventKind.FAULT_RECOVER:
            metrics.counter("faults_recovered", site=event.data.get("site", "?")).inc()
        elif kind is EventKind.CHECKPOINT_RETRY:
            metrics.counter("checkpoint_retries", task=event.task_id).inc()
        elif kind is EventKind.JOB_DEGRADED:
            metrics.counter(
                "jobs_degraded",
                task=event.task_id,
                action=event.data.get("action", "?"),
            ).inc()
        elif kind is EventKind.DEADLINE_MISS:
            metrics.counter("deadline_misses", task=event.task_id).inc()
