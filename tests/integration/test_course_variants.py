"""Course-driver variants: autoscaled fleets, tiny classes, scale knobs."""

import pytest

from repro.cluster import Autoscaler, AutoscalerPolicy, Provisioner
from repro.workload.course import CourseConfig, CourseSimulation


class TestAutoscaledCourse:
    def test_course_on_autoscaler_instead_of_manual_schedule(self):
        """The §IV claim that RAI 'can be configured to scale out ... as
        local resources [are] exhausted' — the whole course on reactive
        scaling only."""
        config = CourseConfig(n_students=24, n_teams=8,
                              duration_days=3.0, seed=9,
                              use_manual_schedule=False,
                              # slow teams: full-dataset finals take
                              # minutes, so the deadline builds a queue
                              struggling_fraction=1.0)
        simulation = CourseSimulation(config)
        provisioner = Provisioner(simulation.system)
        simulation.provisioner = provisioner
        simulation.result.provisioner = provisioner
        policy = AutoscalerPolicy(min_instances=1, max_instances=8,
                                  check_interval=60.0)
        scaler = Autoscaler(simulation.system, provisioner, policy)
        simulation.system.sim.process(scaler.run())
        result = simulation.run()

        assert len(result.final_results) == 8
        assert result.totals()["submissions"] > 50
        # The fleet breathed: at least the minimum was kept, and the
        # deadline crunch triggered scale-outs.
        assert len(provisioner.instances) >= 1
        assert any(d["action"] == "scale-out" for d in scaler.decisions)

    def test_bursty_load_survives_scale_in_of_active_worker(self):
        """Scale-in interrupts an in-flight job; the system recovers and
        the team's later submissions still succeed."""
        config = CourseConfig(n_students=6, n_teams=2, duration_days=1.5,
                              seed=4, use_manual_schedule=False)
        simulation = CourseSimulation(config)
        provisioner = Provisioner(simulation.system)
        simulation.provisioner = provisioner
        provisioner.launch_many(3, instance_type="p2.xlarge",
                                boot_delay=0.0)

        def chaos(sim):
            # Kill workers periodically while the course runs.
            for _ in range(4):
                yield sim.timeout(6 * 3600.0)
                provisioner.terminate_count(1)
                provisioner.launch(boot_delay=30.0)

        simulation.system.sim.process(chaos(simulation.system.sim))
        result = simulation.run()
        assert len(result.final_results) == 2


class TestScaleKnobs:
    def test_team_count_scales_submissions(self):
        def total(n_teams, n_students):
            config = CourseConfig(n_students=n_students, n_teams=n_teams,
                                  duration_days=2.0, seed=6,
                                  final_week_instances=4)
            return CourseSimulation(config).run().totals()["submissions"]

        small = total(2, 6)
        large = total(6, 18)
        assert large > 2 * small

    def test_padding_scales_storage(self):
        def stored(mean_bytes):
            config = CourseConfig(n_students=6, n_teams=2,
                                  duration_days=1.0, seed=6,
                                  final_week_instances=2,
                                  mean_project_bytes=mean_bytes)
            return CourseSimulation(config).run().totals()[
                "file_server_bytes"]

        assert stored(5e6) > 3 * stored(1e5)
