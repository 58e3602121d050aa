"""Operational telemetry: the data behind §VII's provisioning decisions.

The course staff watched queue depth, worker utilisation, and submission
bursts to decide when to move from G2 to P2 instances and when to grow
the fleet ("we found that students worked in bursts, which required RAI
to be elastic to remain reliable and cost-efficient").  Those signals are
callback gauges in the system's metrics registry, sampled over time by
its :class:`~repro.obs.scrape.MetricsScraper`; this module renders them
as an operator health report.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.analysis.report import format_bytes, render_table


def gauge_window(scraper, name: str) -> Tuple[float, float]:
    """``(time-weighted average, peak)`` of gauge ``name`` over every
    sample the scraper retains; NaNs when it was never sampled.

    Samples are treated as a step function: each value holds until the
    next sample.
    """
    points = scraper.gauge_samples(name, now=scraper.clock(),
                                   window=math.inf)
    if not points:
        return math.nan, math.nan
    peak = max(value for _, value in points)
    span = points[-1][0] - points[0][0]
    if span <= 0:
        return points[-1][1], peak
    area = sum(value * (t1 - t0)
               for (t0, value), (t1, _) in zip(points, points[1:]))
    return area / span, peak


def health_report(system) -> str:
    """An operator-facing snapshot, plus windowed fleet signals once the
    scraper holds samples, plus every active alert."""
    stats = system.stats()
    rows: List[list] = [
        ["simulated time", f"{stats['now'] / 3600:.1f} h"],
        ["workers running",
         f"{stats['workers']['running']}/{stats['workers']['total']}"],
        ["jobs completed", stats["workers"]["jobs_completed"]],
        ["jobs failed", stats["workers"]["jobs_failed"]],
        ["queue depth (now)", stats["queue_depth"]],
        ["submissions recorded", stats["submissions_recorded"]],
        ["file server", format_bytes(stats["storage"]["total_bytes"])],
        ["db documents", stats["database"]["total_documents"]],
        ["rate-limit rejections", stats["rate_limiter"]["rejected"]],
    ]
    counters = system.counters
    recovery = [
        ("dead letters (parked)", stats.get("dead_letters", 0)),
        ("dead letters (drained)", counters.get("dead_letters_drained")),
        ("storage retries", counters.get("storage_retries")),
        ("faults injected", counters.get("faults_injected")),
        ("duplicate records suppressed",
         counters.get("duplicate_records_suppressed")),
        ("jobs past deadline", counters.get("jobs_deadline_exceeded")),
    ]
    for label, value in recovery:
        if value:
            rows.append([label, int(value)])
    scraper = system.scraper
    if len(scraper):
        window = f"{scraper.retention / 3600:.1f} h window"
        for signal in ("queue_depth", "workers_running", "jobs_active"):
            avg, peak = gauge_window(scraper, signal)
            rows.append([f"{signal} (avg, {window})", f"{avg:.2f}"])
            rows.append([f"{signal} (peak, {window})", f"{peak:.0f}"])
    # Active alerts (one row per *incident*, however often this report
    # runs) — a stalled scrape loop and every SLO burn land here.
    alerts = system.alerts
    if alerts is not None:
        alerts.check_heartbeats()
        for alert in alerts.active():
            rows.append([f"⚠ ALERT {alert.name}",
                         f"{alert.summary} "
                         f"(firing since t={alert.fired_at:.0f}s)"])
        resolved = alerts.total_resolved
        if resolved:
            rows.append(["alerts resolved", resolved])
    return render_table(["metric", "value"], rows,
                        title="RAI deployment health")
