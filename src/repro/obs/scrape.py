"""Periodic snapshots of the metrics registry, for windowed evaluation.

Counters and histograms in :class:`~repro.obs.metrics.MetricsRegistry`
are *cumulative*: they answer "how many ever", never "how many in the
last five minutes".  SLO burn rates need the latter, so the scraper
takes sim-clock snapshots of every series and exposes window-delta
queries: counter increase over a window, histogram bucket deltas over a
window (from which a windowed percentile or a good/bad split falls out),
and gauge sample series (fraction-of-time style SLIs).

Snapshots are compact (plain floats and tuples, no Metric objects) and
ring-buffered, so a week-long simulated course holds a bounded history.
The scrape loop is an opt-in perpetual process like the broker caretaker
— ``RaiSystem.start_observability`` drives it — but :meth:`scrape_now`
also works on demand (``rai slo`` takes a fresh snapshot per report).
It is the deployment's one sampling loop: the operator report's windowed
queue-depth and fleet averages read its retained gauge samples, and its
heartbeat (:meth:`last_beat`) is the ``stuck:metrics-scraper`` watchdog.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

SeriesKey = Tuple[str, str]        # (metric name, label text)


def _label_text(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


class HistogramState:
    """One histogram's cumulative state at scrape time."""

    __slots__ = ("count", "sum", "bucket_counts", "bounds")

    def __init__(self, count: int, sum_: float,
                 bucket_counts: Tuple[int, ...],
                 bounds: Tuple[float, ...]):
        self.count = count
        self.sum = sum_
        self.bucket_counts = bucket_counts
        self.bounds = bounds


class MetricsSnapshot:
    """All series values at one instant of simulated time."""

    __slots__ = ("time", "counters", "gauges", "histograms")

    def __init__(self, time: float):
        self.time = time
        self.counters: Dict[SeriesKey, float] = {}
        self.gauges: Dict[SeriesKey, float] = {}
        self.histograms: Dict[SeriesKey, HistogramState] = {}

    def counter(self, name: str, label: str = "") -> float:
        return self.counters.get((name, label), 0.0)

    def counter_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge(self, name: str, label: str = "") -> Optional[float]:
        return self.gauges.get((name, label))

    def histogram(self, name: str,
                  label: str = "") -> Optional[HistogramState]:
        return self.histograms.get((name, label))


class MetricsScraper:
    """Bounded history of :class:`MetricsSnapshot`\\ s on the sim clock."""

    def __init__(self, registry: MetricsRegistry,
                 clock: Callable[[], float],
                 interval: float = 60.0,
                 max_samples: int = 256):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2 (need a baseline)")
        self.registry = registry
        self.clock = clock
        self.interval = interval
        self._samples: Deque[MetricsSnapshot] = deque(maxlen=max_samples)
        self._stopped = False
        self.total_scrapes = 0
        #: Sim time of the most recent scrape.
        self.last_scrape_at: Optional[float] = None
        #: Sim time the periodic loop (:meth:`process`) started.
        self.started_at: Optional[float] = None

    # -- capture ------------------------------------------------------------

    def scrape_now(self) -> MetricsSnapshot:
        """Take one snapshot of every series and append it."""
        snap = MetricsSnapshot(self.clock())
        for metric in self.registry:
            key = (metric.name, _label_text(metric.labels))
            if isinstance(metric, Counter):
                snap.counters[key] = metric.value
            elif isinstance(metric, Histogram):
                snap.histograms[key] = HistogramState(
                    metric.count, metric.sum,
                    tuple(metric.bucket_counts), metric.buckets)
            elif isinstance(metric, Gauge):
                # Labelled callback gauges (per-worker utilisation) are
                # skipped: they are fleet-sized, and the SLO layer and
                # the operator report read deployment-level signals.
                if metric.labels and metric.fn is not None:
                    continue
                snap.gauges[key] = metric.value
        self._samples.append(snap)
        self.total_scrapes += 1
        self.last_scrape_at = snap.time
        return snap

    def stop(self) -> None:
        self._stopped = True

    @property
    def retention(self) -> float:
        """Simulated seconds of history a full ring covers (one scrape
        interval per retained sample)."""
        return self.interval * self._samples.maxlen

    @property
    def running(self) -> bool:
        """True while the periodic loop is started and not stopped —
        the only state in which a missing heartbeat means a stall."""
        return self.started_at is not None and not self._stopped

    def last_beat(self) -> Optional[float]:
        """The loop's latest sign of life: its last scrape, else its
        start (a loop that never scraped is judged from when it began)."""
        if self.last_scrape_at is not None:
            return self.last_scrape_at
        return self.started_at

    def process(self, sim, on_scrape: Optional[Callable] = None):
        """Kernel process: scrape every ``interval`` simulated seconds.

        Start with ``sim.process(scraper.process(sim))``.  It is a
        perpetual process (like the broker caretaker), so drive the
        simulation with ``run(until=...)`` or a terminating process set.
        ``on_scrape(snapshot)`` runs after each capture — the system
        wires the alert manager's check here so SLO burn rates are
        judged on every fresh sample.
        """
        self.started_at = sim.now
        while not self._stopped:
            yield sim.timeout(self.interval)
            if self._stopped:
                return
            snap = self.scrape_now()
            if on_scrape is not None:
                on_scrape(snap)

    # -- history access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[MetricsSnapshot]:
        return list(self._samples)

    def latest(self) -> Optional[MetricsSnapshot]:
        return self._samples[-1] if self._samples else None

    def baseline_for(self, now: float, window: float
                     ) -> Optional[MetricsSnapshot]:
        """Newest snapshot at or before ``now - window``.

        Falls back to the oldest retained snapshot when the window
        reaches past history (best effort, with the true span readable
        off the returned snapshot's ``time``); None with no history.
        """
        cutoff = now - window
        best = None
        for snap in self._samples:
            if snap.time <= cutoff:
                best = snap
            else:
                break
        if best is None and self._samples:
            best = self._samples[0]
        return best

    def in_window(self, now: float, window: float) -> List[MetricsSnapshot]:
        """Snapshots with ``now - window < time <= now``."""
        cutoff = now - window
        return [s for s in self._samples if cutoff < s.time <= now]

    # -- window deltas -------------------------------------------------------

    def counter_delta(self, name: str, now: float, window: float,
                      label: str = "",
                      latest: Optional[MetricsSnapshot] = None) -> float:
        """Counter increase between the window baseline and ``latest``."""
        latest = latest if latest is not None else self.latest()
        base = self.baseline_for(now, window)
        if latest is None:
            return 0.0
        end = latest.counter(name, label)
        start = base.counter(name, label) if base is not None else 0.0
        return max(0.0, end - start)

    def histogram_delta(self, name: str, now: float, window: float,
                        label: str = "",
                        latest: Optional[MetricsSnapshot] = None
                        ) -> Optional[HistogramState]:
        """Bucketed observations that landed inside the window."""
        latest = latest if latest is not None else self.latest()
        if latest is None:
            return None
        end = latest.histogram(name, label)
        if end is None:
            return None
        base = self.baseline_for(now, window)
        start = base.histogram(name, label) if base is not None else None
        if start is None:
            return HistogramState(end.count, end.sum,
                                  end.bucket_counts, end.bounds)
        counts = tuple(e - s for e, s in zip(end.bucket_counts,
                                             start.bucket_counts))
        return HistogramState(end.count - start.count, end.sum - start.sum,
                              counts, end.bounds)

    def gauge_samples(self, name: str, now: float, window: float,
                      label: str = "") -> List[Tuple[float, float]]:
        """(time, value) gauge samples inside the window."""
        out = []
        for snap in self.in_window(now, window):
            value = snap.gauge(name, label)
            if value is not None:
                out.append((snap.time, value))
        return out

    def stats(self) -> dict:
        return {
            "samples": len(self._samples),
            "total_scrapes": self.total_scrapes,
            "interval": self.interval,
            "last_scrape_at": self.last_scrape_at,
            "span": (self._samples[-1].time - self._samples[0].time
                     if len(self._samples) >= 2 else 0.0),
        }
