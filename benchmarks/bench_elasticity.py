"""§III/§VII — elasticity: fixed cluster vs elastic RAI under a deadline burst.

Paper claims reproduced in shape:

- "the fixed resources of the local cluster can become oversubscribed
  during the final weeks ... the cluster queue can become long, causing
  delays and a poor experience" (§III, the Torque/PBS column);
- "students worked in bursts, which required RAI to be elastic to remain
  reliable and cost-efficient" (§VII).

Setup: the same burst arrival pattern (quiet → deadline spike) is offered
to (a) a fixed 6-node Torque cluster, (b) RAI with a fixed 6 workers, and
(c) RAI with the reactive autoscaler (up to 24 single-job workers).  The
figure of merit is queue wait; the autoscaler should hold waits near
interactive levels through the spike while fixed capacity degrades, at a
cost far below permanently provisioning for the peak.
"""

import numpy as np

from benchmarks.conftest import print_banner
from repro.baselines import TorqueCluster
from repro.cluster import Autoscaler, AutoscalerPolicy, CostReport, Provisioner
from repro.core.system import RaiSystem
from repro.sim import Simulator

HOUR = 3600.0
JOB_SECONDS = 90.0          # a mid-project build+run cycle
FIXED_NODES = 6
BURST_HOURS = 6.0


def burst_arrivals(seed=5):
    """Arrival times: 1 job/min background, ramping 10x near 'deadline'."""
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    while t < BURST_HOURS * HOUR:
        progress = t / (BURST_HOURS * HOUR)
        rate_per_sec = (1 + 9 * progress ** 3) / 60.0
        t += float(rng.exponential(1.0 / rate_per_sec))
        times.append(t)
    return times


def run_torque(arrivals):
    sim = Simulator()
    cluster = TorqueCluster(sim, nodes=FIXED_NODES)

    def feeder(sim):
        last = 0.0
        for i, at in enumerate(arrivals):
            yield sim.timeout(at - last)
            last = at
            cluster.qsub(f"u{i}", JOB_SECONDS)

    sim.process(feeder(sim))
    sim.run()
    waits = cluster.completed_waits()
    return np.asarray(waits), None


def run_rai(arrivals, autoscale: bool, seed=7):
    system = RaiSystem(seed=seed)
    provisioner = Provisioner(system)
    if autoscale:
        policy = AutoscalerPolicy(
            min_instances=2, max_instances=24, step=4,
            check_interval=120.0, scale_in_cooldown=1800.0)
        scaler = Autoscaler(system, provisioner, policy)
        system.sim.process(scaler.run())
    else:
        provisioner.launch_many(FIXED_NODES, instance_type="p2.xlarge",
                                boot_delay=0.0)

    waits = []

    def job(sim, at):
        # A synthetic job through the real queue path: publish, wait for a
        # worker slot, hold it for the service time.  (Containers are not
        # needed for a queueing comparison and would quintuple runtime.)
        from repro.broker.client import Consumer, Producer

        producer = Producer(system.broker, "rai")
        body = {"synthetic": True, "service": JOB_SECONDS, "at": at}
        producer.publish(body)
        producer.close()

    # Synthetic workers: consume from the same channel with the same
    # concurrency the provisioner granted.
    def synthetic_worker_loop(worker):
        from repro.broker.client import Consumer

        consumer = Consumer(system.broker, "rai/tasks")
        while worker.is_running:
            msg = yield consumer.get()
            waits.append(system.sim.now - msg.body["at"])
            yield system.sim.timeout(msg.body["service"])
            consumer.ack(msg)

    # Replace real executors with synthetic ones as workers appear.
    seen = set()

    def worker_watcher(sim):
        while True:
            for worker in system.running_workers:
                if worker.id not in seen:
                    seen.add(worker.id)
                    worker.stop()            # park the real executors
                    worker._stopped = False  # reuse its identity
                    sim.process(synthetic_worker_loop(worker))
            yield sim.timeout(30.0)

    def feeder(sim):
        last = 0.0
        for at in arrivals:
            yield sim.timeout(at - last)
            last = at
            job(sim, at)

    system.sim.process(worker_watcher(system.sim))
    system.sim.process(feeder(system.sim))
    horizon = BURST_HOURS * HOUR + 4 * HOUR
    system.sim.run(until=horizon)
    return np.asarray(waits), CostReport.collect(provisioner)


def test_elasticity_fixed_vs_elastic(benchmark):
    arrivals = burst_arrivals()

    def experiment():
        torque = run_torque(arrivals)
        rai_fixed = run_rai(arrivals, autoscale=False)
        rai_elastic = run_rai(arrivals, autoscale=True)
        return torque, rai_fixed, rai_elastic

    (tq_waits, _), (fx_waits, fx_cost), (el_waits, el_cost) = \
        benchmark.pedantic(experiment, rounds=1, iterations=1)

    def summary(name, waits, cost=None):
        served = len(waits)
        line = (f"{name:<28} served={served:5d} "
                f"median wait={np.median(waits):8.1f}s "
                f"p95={np.percentile(waits, 95):9.1f}s "
                f"max={waits.max():9.1f}s")
        if cost is not None:
            line += f"  cost=${cost.total_cost_usd:7.2f}"
        print(line)
        return np.percentile(waits, 95)

    print_banner("Elasticity — deadline burst: fixed capacity vs elastic")
    print(f"offered load: {len(arrivals)} jobs over {BURST_HOURS:.0f}h, "
          f"{JOB_SECONDS:.0f}s each; fixed capacity = {FIXED_NODES} nodes")
    tq_p95 = summary("Torque/PBS (fixed 6)", tq_waits)
    fx_p95 = summary("RAI, fixed 6 workers", fx_waits, fx_cost)
    el_p95 = summary("RAI + autoscaler (≤24)", el_waits, el_cost)

    peak_cost = 24 * 0.90 * (BURST_HOURS + 4)
    print(f"\nalways-at-peak cost would be ≈ ${peak_cost:.2f}; "
          f"autoscaler paid ${el_cost.total_cost_usd:.2f}")

    # --- shape assertions -------------------------------------------------
    # Fixed capacity (either scheduler) saturates: long tail waits.
    assert tq_p95 > 10 * JOB_SECONDS
    assert fx_p95 > 10 * JOB_SECONDS
    # Elastic RAI keeps the p95 wait interactive (< a few job times).
    assert el_p95 < 5 * JOB_SECONDS
    assert el_p95 < tq_p95 / 10
    # And does it cheaper than permanently provisioning the peak.
    assert el_cost.total_cost_usd < peak_cost * 0.8
    # Everyone eventually served by the elastic system.
    assert len(el_waits) == len(arrivals)
