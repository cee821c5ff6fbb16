"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v

They build the workload program the way run.py does, then run tiny
iterations of it, so they take a few seconds after the first build.
"""

import contextlib
import io
import re
import unittest

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class MetricNamesTest(unittest.TestCase):
    def test_names_are_unique_and_well_formed(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "duplicate metric name")
        for name in names:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(0), name)

    def test_workloads_match_the_spec(self):
        spec = run.load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_UNITS))


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def iteration(self, workload, units, traced=False, seed=1):
        record = run.run_iteration(self.binary, workload, seed, traced, units=units)
        self.assertIsNotNone(record)
        return record

    def test_gate_rejects_a_wrong_expected_count(self):
        fuzz = self.iteration("mc_fuzz", 3000)
        self.assertEqual(run.gate("mc_fuzz", fuzz, {"fuzz_ops": 3000}), [])
        self.assertNotEqual(run.gate("mc_fuzz", fuzz, {"fuzz_ops": 3001}), [])

        sessions = self.iteration("sessions_paging", 40)
        self.assertEqual(run.gate("sessions_paging", sessions, {"completed": 40}), [])
        self.assertNotEqual(run.gate("sessions_paging", sessions, {"completed": 41}), [])

        # The exhaustive run takes seconds; its gate is checked on its record
        # shape, with the fixed-point counts the real run must reproduce.
        exhaustive = dict(run.EXPECTED_EXHAUSTIVE, fixed_point=True, violations=0)
        self.assertEqual(run.gate("mc_exhaustive", exhaustive), [])
        wrong = dict(run.EXPECTED_EXHAUSTIVE, **{"modelcheck.states": 1081})
        self.assertNotEqual(run.gate("mc_exhaustive", exhaustive, wrong), [])
        self.assertNotEqual(run.gate("mc_exhaustive", dict(exhaustive, violations=1)), [])

    def test_diverged_simulation_is_caught(self):
        first = self.iteration("sessions_paging", 40)
        traced = self.iteration("sessions_paging", 40, traced=True)
        self.assertEqual(run.determinism_problems(first, traced), [])
        other_seed = self.iteration("sessions_paging", 40, seed=2)
        self.assertNotEqual(run.determinism_problems(first, other_seed), [])

    def test_each_workload_has_its_own_process(self):
        sessions = self.iteration("sessions_paging", 300)
        fuzz = self.iteration("mc_fuzz", 3000)
        # A 300-session world holds hundreds of descriptor segments; the
        # fuzz world a handful. Shared process state would report one peak.
        self.assertGreater(sessions["peak_rss_kb"], 2 * fuzz["peak_rss_kb"])

    def test_result_holds_exactly_the_declared_metrics(self):
        spec = run.load_spec()
        saved = run.WORKLOAD_UNITS["mc_fuzz"]
        run.WORKLOAD_UNITS["mc_fuzz"] = 3000
        try:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with contextlib.redirect_stdout(io.StringIO()):
                    result = run.run_workload(spec, self.binary, "mc_fuzz", 1, 0.5, trace)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        finally:
            run.WORKLOAD_UNITS["mc_fuzz"] = saved


if __name__ == "__main__":
    unittest.main()
