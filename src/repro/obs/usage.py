"""Per-tenant usage metering and cost attribution.

The paper's §VII argument is economic: the course stayed inside an AWS
budget by provisioning elastically.  Fleet-level accounting
(:class:`repro.cluster.CostReport`) can say what the semester cost, but
not *who* consumed it.  This module closes that gap with two layers:

:class:`UsageMeter`
    A write-optimised ledger of typed usage records.  Every layer that
    consumes a billable resource — worker command execution, warm-pool
    slot occupancy, storage puts/uploads/downloads, docdb operations,
    broker messages — calls :meth:`UsageMeter.record` (or the per-job
    aggregate :meth:`UsageMeter.record_job`) with the owning tenant.
    Attribution rides the job document (``job.team``/``job.username``)
    and ``TraceContext`` headers, NOT the worker or partition doing the
    work, so a job stolen across shards or redelivered after a crash
    still bills the originating team.  Records roll up three ways:
    cumulative totals, per-tenant totals, and per-billing-window
    buckets used by the allocator below.

:class:`CostAllocator`
    Prices the meter.  Per billing window it takes the fleet cost the
    attached :class:`repro.cluster.Provisioner`\\ s accrued in that
    window and splits it: the share matching measured utilisation
    (busy container-seconds / provisioned slot-seconds) is apportioned
    to tenants by their container-seconds share; everything else —
    idle capacity plus unattributed work — is reported explicitly as
    idle/overhead cost.  Idle is computed as the *residual*
    ``window_cost - sum(tenant costs)``, so the conservation invariant

        attributed + idle == fleet total

    holds exactly by construction, at any instant (partial windows are
    previewed with the same arithmetic) and across snapshot/restore.

Dedup and buildcache savings are credited as their own resources
(``storage_bytes_saved_dedup``, ``build_seconds_saved``) rather than
silently shrinking the billed numbers: a team sees both what it
consumed and what the platform's caches saved it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.events import EventType

#: Every resource the meter understands.  Amounts are floats; byte
#: resources count logical bytes, ``*_saved_*`` resources are credits.
USAGE_RESOURCES = (
    "container_seconds",        # container busy time executing commands
    "gpu_seconds",              # subset of the above on a GPU worker
    "slot_seconds",             # worker slot occupancy (queue->done)
    "warm_slot_seconds",        # warm-pool idle time consumed/evicted
    "storage_bytes_uploaded",   # wire bytes client -> object store
    "storage_bytes_downloaded", # wire bytes object store -> worker
    "storage_bytes_stored",     # logical bytes written to buckets
    "storage_bytes_saved_dedup",  # bytes chunk-dedup kept off wire/disk
    "build_seconds_saved",      # build time the buildcache replayed away
    "docdb_ops",                # document reads/writes/scans
    "broker_messages",          # messages published on any topic
)

#: Tenant bucket for usage with no owning team/username (pool evictions,
#: system log traffic, control-plane docdb ops).  Its cost lands in the
#: idle/overhead slice, never on a team.
UNATTRIBUTED = "(unattributed)"


@dataclass
class JobExemplar:
    """Rolled-up usage for one job, kept for `rai cost` trace exemplars."""

    job_id: str
    tenant: str
    trace_id: Optional[str]
    container_seconds: float = 0.0
    gpu_seconds: float = 0.0


class UsageMeter:
    """Accumulates attributed usage; cheap enough for every hot path.

    ``record`` is called from broker publish and docdb scans, so it does
    no allocation beyond dict entries and short-circuits entirely when
    metering is disabled.
    """

    def __init__(self, clock: Callable[[], float], course: str = "ece408",
                 window_seconds: float = 3600.0, enabled: bool = True,
                 max_jobs: int = 256):
        self.clock = clock
        self.course = course
        self.window_seconds = float(window_seconds)
        self.enabled = enabled
        self.max_jobs = max_jobs
        #: resource -> cumulative amount
        self.totals: Dict[str, float] = {}
        #: tenant -> resource -> cumulative amount
        self.tenants: Dict[str, Dict[str, float]] = {}
        #: window index -> tenant -> resource -> amount
        self.windows: Dict[int, Dict[str, Dict[str, float]]] = {}
        #: job_id -> JobExemplar (bounded; evicts the cheapest job)
        self.jobs: Dict[str, JobExemplar] = {}
        self.total_records = 0

    # -- recording ----------------------------------------------------------

    def record(self, resource: str, amount: float,
               tenant: Optional[str] = None,
               at: Optional[float] = None) -> None:
        """Meter ``amount`` of ``resource`` against ``tenant`` (or overhead)."""
        if not self.enabled or amount == 0:
            return
        if at is None:
            at = self.clock()
        if not tenant:
            tenant = UNATTRIBUTED
        self.total_records += 1
        self.totals[resource] = self.totals.get(resource, 0.0) + amount
        per_tenant = self.tenants.get(tenant)
        if per_tenant is None:
            per_tenant = self.tenants[tenant] = {}
        per_tenant[resource] = per_tenant.get(resource, 0.0) + amount
        window = self.windows.setdefault(int(at // self.window_seconds), {})
        bucket = window.get(tenant)
        if bucket is None:
            bucket = window[tenant] = {}
        bucket[resource] = bucket.get(resource, 0.0) + amount

    def record_job(self, tenant: Optional[str], job_id: Optional[str] = None,
                   trace_id: Optional[str] = None,
                   container_seconds: float = 0.0, gpu_seconds: float = 0.0,
                   slot_seconds: float = 0.0, bytes_downloaded: float = 0.0,
                   bytes_uploaded: float = 0.0,
                   build_seconds_saved: float = 0.0,
                   at: Optional[float] = None) -> None:
        """One aggregated entry per completed job (the worker's hook).

        A single call per job keeps metering off the per-command hot
        path; attribution comes from the job document so it survives
        redelivery and cross-shard stealing.
        """
        if not self.enabled:
            return
        if at is None:
            at = self.clock()
        for resource, amount in (
                ("container_seconds", container_seconds),
                ("gpu_seconds", gpu_seconds),
                ("slot_seconds", slot_seconds),
                ("storage_bytes_downloaded", bytes_downloaded),
                ("storage_bytes_uploaded", bytes_uploaded),
                ("build_seconds_saved", build_seconds_saved)):
            if amount:
                self.record(resource, amount, tenant=tenant, at=at)
        if job_id is not None and container_seconds > 0:
            self._note_job(job_id, tenant or UNATTRIBUTED, trace_id,
                           container_seconds, gpu_seconds)

    def _note_job(self, job_id: str, tenant: str, trace_id: Optional[str],
                  container_seconds: float, gpu_seconds: float) -> None:
        exemplar = self.jobs.get(job_id)
        if exemplar is not None:
            exemplar.container_seconds += container_seconds
            exemplar.gpu_seconds += gpu_seconds
            return
        if len(self.jobs) >= self.max_jobs:
            cheapest = min(self.jobs.values(),
                           key=lambda j: j.container_seconds)
            if cheapest.container_seconds >= container_seconds:
                return
            del self.jobs[cheapest.job_id]
        self.jobs[job_id] = JobExemplar(job_id, tenant, trace_id,
                                        container_seconds, gpu_seconds)

    # -- reading ------------------------------------------------------------

    def tenant_count(self) -> int:
        return sum(1 for t in self.tenants if t != UNATTRIBUTED)

    def tenant_total(self, tenant: str, resource: str) -> float:
        return self.tenants.get(tenant, {}).get(resource, 0.0)

    def window(self, index: int) -> Dict[str, Dict[str, float]]:
        return self.windows.get(index, {})

    def usage_since_window(self, first_index: int) -> Dict[str, Dict[str, float]]:
        """Merge all window buckets with index >= ``first_index``."""
        merged: Dict[str, Dict[str, float]] = {}
        for index, window in self.windows.items():
            if index < first_index:
                continue
            for tenant, bucket in window.items():
                out = merged.setdefault(tenant, {})
                for resource, amount in bucket.items():
                    out[resource] = out.get(resource, 0.0) + amount
        return merged

    def top_jobs(self, n: int = 5) -> List[JobExemplar]:
        return sorted(self.jobs.values(),
                      key=lambda j: -j.container_seconds)[:n]

    def stats(self) -> dict:
        return {
            "course": self.course,
            "enabled": self.enabled,
            "tenants": self.tenant_count(),
            "records": self.total_records,
            "container_seconds": round(
                self.totals.get("container_seconds", 0.0), 3),
            "gpu_seconds": round(self.totals.get("gpu_seconds", 0.0), 3),
        }

    # -- durability ---------------------------------------------------------

    def to_snapshot(self) -> dict:
        return {
            "course": self.course,
            "window_seconds": self.window_seconds,
            "totals": dict(self.totals),
            "tenants": {t: dict(r) for t, r in self.tenants.items()},
            "windows": {str(k): {t: dict(r) for t, r in w.items()}
                        for k, w in self.windows.items()},
            "jobs": [{"job_id": j.job_id, "tenant": j.tenant,
                      "trace_id": j.trace_id,
                      "container_seconds": j.container_seconds,
                      "gpu_seconds": j.gpu_seconds}
                     for j in self.jobs.values()],
            "total_records": self.total_records,
        }

    def install_snapshot(self, snap: dict) -> int:
        self.course = snap["course"]
        self.window_seconds = snap["window_seconds"]
        self.totals = dict(snap["totals"])
        self.tenants = {t: dict(r) for t, r in snap["tenants"].items()}
        self.windows = {int(k): {t: dict(r) for t, r in w.items()}
                        for k, w in snap["windows"].items()}
        self.jobs = {j["job_id"]: JobExemplar(
            j["job_id"], j["tenant"], j["trace_id"],
            j["container_seconds"], j["gpu_seconds"])
            for j in snap["jobs"]}
        self.total_records = snap["total_records"]
        return len(self.tenants)


@dataclass
class CostWindow:
    """The priced outcome of one closed billing window."""

    index: int
    start: float
    end: float
    fleet_cost: float
    attributed_cost: float
    idle_cost: float
    utilization: float
    tenant_costs: Dict[str, float] = field(default_factory=dict)


class CostAllocator:
    """Apportions provisioner fleet cost to tenants by metered usage.

    Books are settled per billing window: closing window ``k`` prices
    the fleet cost accrued in ``[k*w, (k+1)*w)`` against the meter's
    bucket for that window.  :meth:`preview` extends the settled books
    with the not-yet-closed span using identical arithmetic, so the
    conservation invariant holds at any instant, not just on window
    boundaries.
    """

    def __init__(self, meter: UsageMeter, clock: Callable[[], float],
                 window_seconds: float = 3600.0,
                 budget_window_seconds: float = 7 * 24 * 3600.0,
                 metrics=None, events=None):
        self.meter = meter
        self.clock = clock
        self.window_seconds = float(window_seconds)
        self.budget_window_seconds = float(budget_window_seconds)
        self.metrics = metrics
        self.events = events
        self.providers: List[object] = []
        #: provider id -> fleet cost already settled into the books
        self._provider_base: Dict[int, float] = {}
        #: open-span cost carried over a restore: pre-crash providers
        #: died with the old process, but the cost they accrued past the
        #: last settled window edge is frozen here and settles with the
        #: next window close, so conservation spans the crash.
        self._carry_open = 0.0
        # settled books (closed windows only; conservation-exact)
        self.attributed: Dict[str, float] = {}
        self.idle_cost = 0.0
        self.fleet_cost = 0.0
        self.windows_closed = 0
        self.next_window = 0
        self.closed: List[CostWindow] = []
        # per-tenant budgets and the burn bookkeeping behind the SLOs
        self.budgets: Dict[str, float] = {}
        self.budget_period = 0
        self._period_base: Dict[str, float] = {}

    # -- wiring -------------------------------------------------------------

    def attach_provisioner(self, provisioner) -> None:
        self.providers.append(provisioner)
        self._provider_base[id(provisioner)] = 0.0

    def set_budget(self, team: str, usd: float) -> None:
        if usd <= 0:
            raise ValueError(f"budget must be positive, got {usd}")
        self.budgets[team] = usd
        if self.metrics is not None:
            # A labelled *set* gauge: the scrape loop skips labelled
            # callback gauges, so burn must be pushed, not pulled.
            self.metrics.gauge("usage_budget_burn", team=team).set(
                self.budget_burn(team))

    # -- the allocation arithmetic ------------------------------------------

    def _fleet_delta(self, until: float, settle: bool) -> float:
        """Fleet cost accrued since the books' edge, optionally settling."""
        delta = self._carry_open
        for provider in self.providers:
            cost = provider.total_cost(until)
            delta += cost - self._provider_base[id(provider)]
            if settle:
                self._provider_base[id(provider)] = cost
        if settle:
            self._carry_open = 0.0
        return delta

    def _capacity_slot_seconds(self, start: float, end: float) -> float:
        total = 0.0
        for provider in self.providers:
            total += provider.capacity_slot_seconds(start, end)
        return total

    def _allocate(self, usage: Dict[str, Dict[str, float]],
                  fleet_cost: float, start: float,
                  end: float) -> tuple:
        """Split ``fleet_cost`` by usage share; idle is the exact residual."""
        busy = sum(bucket.get("container_seconds", 0.0)
                   for bucket in usage.values())
        capacity = self._capacity_slot_seconds(start, end)
        if capacity > 0:
            utilization = min(1.0, busy / capacity)
        else:
            utilization = 1.0 if busy > 0 else 0.0
        tenant_costs: Dict[str, float] = {}
        if busy > 0 and fleet_cost > 0:
            pool = fleet_cost * utilization
            for tenant, bucket in usage.items():
                if tenant == UNATTRIBUTED:
                    continue  # overhead work stays in the idle slice
                seconds = bucket.get("container_seconds", 0.0)
                if seconds > 0:
                    tenant_costs[tenant] = pool * (seconds / busy)
        idle = fleet_cost - sum(tenant_costs.values())
        return tenant_costs, idle, utilization

    def _close_window(self, index: int) -> CostWindow:
        start = index * self.window_seconds
        end = start + self.window_seconds
        fleet = self._fleet_delta(end, settle=True)
        usage = self.meter.window(index)
        tenant_costs, idle, utilization = self._allocate(
            usage, fleet, start, end)
        for tenant, cost in tenant_costs.items():
            self.attributed[tenant] = self.attributed.get(tenant, 0.0) + cost
        self.idle_cost += idle
        self.fleet_cost += fleet
        self.windows_closed += 1
        window = CostWindow(index, start, end, fleet,
                            sum(tenant_costs.values()), idle, utilization,
                            tenant_costs)
        self.closed.append(window)
        if self.events is not None:
            for tenant, bucket in usage.items():
                self.events.emit(
                    EventType.USAGE_SAMPLE, at=end, team=tenant,
                    course=self.meter.course, window=index,
                    container_seconds=round(
                        bucket.get("container_seconds", 0.0), 6),
                    gpu_seconds=round(bucket.get("gpu_seconds", 0.0), 6),
                    cost_usd=round(tenant_costs.get(tenant, 0.0), 6))
            self.events.emit(
                EventType.COST_WINDOW, at=end, window=index,
                fleet_cost_usd=round(fleet, 6),
                attributed_cost_usd=round(window.attributed_cost, 6),
                idle_cost_usd=round(idle, 6),
                utilization=round(utilization, 4),
                tenants=len(tenant_costs))
        return window

    # -- public surface -----------------------------------------------------

    def refresh(self, now: Optional[float] = None) -> None:
        """Close every complete window and push the per-team gauges."""
        if now is None:
            now = self.clock()
        last = int(now // self.window_seconds)
        while self.next_window < last:
            self._close_window(self.next_window)
            self.next_window += 1
        self._roll_budget_period(now)
        self._update_gauges(now)

    def preview(self, now: Optional[float] = None) -> dict:
        """Settled books plus the open span, conservation-exact at ``now``."""
        if now is None:
            now = self.clock()
        fleet_open = self._fleet_delta(now, settle=False)
        usage = self.meter.usage_since_window(self.next_window)
        start = self.next_window * self.window_seconds
        tenant_costs, idle_open, utilization = self._allocate(
            usage, fleet_open, start, max(now, start))
        attributed = dict(self.attributed)
        for tenant, cost in tenant_costs.items():
            attributed[tenant] = attributed.get(tenant, 0.0) + cost
        return {
            "at": now,
            "fleet_cost": self.fleet_cost + fleet_open,
            "attributed": attributed,
            "attributed_total": sum(attributed.values()),
            "idle_cost": self.idle_cost + idle_open,
            "open_utilization": utilization,
            "windows_closed": self.windows_closed,
        }

    def report(self, now: Optional[float] = None) -> dict:
        """The `rai cost` payload: ranked tenants, conservation, budgets."""
        if now is None:
            now = self.clock()
        view = self.preview(now)
        tenants = []
        attributed = view["attributed"]
        fleet = view["fleet_cost"]
        for tenant, resources in self.meter.tenants.items():
            if tenant == UNATTRIBUTED:
                continue
            cost = attributed.get(tenant, 0.0)
            tenants.append({
                "team": tenant,
                "container_seconds": resources.get("container_seconds", 0.0),
                "gpu_seconds": resources.get("gpu_seconds", 0.0),
                "cost_usd": cost,
                "share": cost / fleet if fleet > 0 else 0.0,
                "budget_usd": self.budgets.get(tenant),
                "budget_burn": (self.budget_burn(tenant, view=view)
                                if tenant in self.budgets else None),
            })
        tenants.sort(key=lambda t: (-t["cost_usd"], -t["container_seconds"],
                                    t["team"]))
        return {
            "at": now,
            "course": self.meter.course,
            "tenants": tenants,
            "fleet_cost": fleet,
            "attributed_cost": view["attributed_total"],
            "idle_cost": view["idle_cost"],
            "windows_closed": view["windows_closed"],
        }

    def budget_burn(self, team: str, now: Optional[float] = None,
                    view: Optional[dict] = None) -> float:
        """Fraction of ``team``'s budget spent in the current period."""
        budget = self.budgets.get(team)
        if not budget:
            return 0.0
        if view is None:
            view = self.preview(now)
        spent = (view["attributed"].get(team, 0.0)
                 - self._period_base.get(team, 0.0))
        return max(0.0, spent) / budget

    def _roll_budget_period(self, now: float) -> None:
        period = int(now // self.budget_window_seconds)
        if period > self.budget_period:
            # New budget period: burn restarts from the books as settled
            # at the boundary (window-granular, documented in DESIGN.md).
            self.budget_period = period
            self._period_base = dict(self.attributed)

    def _update_gauges(self, now: float) -> None:
        if self.metrics is None:
            return
        view = self.preview(now)
        for tenant, cost in view["attributed"].items():
            self.metrics.gauge("usage_cost_usd", team=tenant).set(cost)
        for team in self.budgets:
            self.metrics.gauge("usage_budget_burn", team=team).set(
                self.budget_burn(team, view=view))

    def attributed_total(self) -> float:
        return sum(self.attributed.values())

    def stats(self) -> dict:
        view = self.preview()
        return {
            "fleet_cost_usd": round(view["fleet_cost"], 4),
            "attributed_cost_usd": round(view["attributed_total"], 4),
            "idle_cost_usd": round(view["idle_cost"], 4),
            "windows_closed": self.windows_closed,
            "budgets": dict(self.budgets),
        }

    # -- durability ---------------------------------------------------------

    def to_snapshot(self) -> dict:
        return {
            "attributed": dict(self.attributed),
            "idle_cost": self.idle_cost,
            "fleet_cost": self.fleet_cost,
            # Cost the live fleet has accrued past the last settled
            # window edge.  It rides the snapshot so the restored books
            # still balance against the pre-crash fleet total.
            "open_fleet_cost": self._fleet_delta(self.clock(),
                                                 settle=False),
            "windows_closed": self.windows_closed,
            "next_window": self.next_window,
            "budgets": dict(self.budgets),
            "budget_period": self.budget_period,
            "period_base": dict(self._period_base),
        }

    def install_snapshot(self, snap: dict) -> None:
        self.attributed = dict(snap["attributed"])
        self.idle_cost = snap["idle_cost"]
        self.fleet_cost = snap["fleet_cost"]
        self.windows_closed = snap["windows_closed"]
        self.next_window = snap["next_window"]
        self._carry_open = snap.get("open_fleet_cost", 0.0)
        self.budgets = dict(snap["budgets"])
        self.budget_period = snap["budget_period"]
        self._period_base = dict(snap["period_base"])
        # Pre-crash providers died with the old process; their unsettled
        # accrual is carried in ``_carry_open``.  Any provider already
        # attached here is re-based at *now* so only its future accrual
        # stacks on top — conservation stays exact going forward.
        now = self.clock()
        for provider in self.providers:
            self._provider_base[id(provider)] = provider.total_cost(now)
        for team in self.budgets:
            self.set_budget(team, self.budgets[team])
