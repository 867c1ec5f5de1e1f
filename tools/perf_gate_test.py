#!/usr/bin/env python3
"""Unit tests for perf_gate: throughput floors, exact deterministic counters
and pair inversion. Run by CTest as `perf_gate_unit`."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

GATE = pathlib.Path(__file__).resolve().parent / "perf_gate.py"

FABRIC = {
    "name": "fabric_churn_maxmin",
    "events": 25600,
    "seconds": 0.1,
    "events_per_sec": 250000,
    "max_queue": 2,
    "digest": "25be29680577d7a1",
    "solves": 24784,
    "flows_touched": 1553931,
    "rate_changes": 501895,
    "epochs_flushed": 24784,
    "batched_changes": 46221,
    "patched_arrivals": 797,
    "patched_departures": 4182,
}


FLUID = {
    "name": "fluid_churn",
    "events": 191596,
    "seconds": 0.05,
    "events_per_sec": 3800000,
    "max_queue": 7,
    "digest": "d60942bc49ed8ab3",
    "rate_changes": 254726,
    "timer_rearms": 255345,
    "completions": 128000,
}


def scenario(**changes):
    row = dict(FABRIC)
    row.update(changes)
    return row


class PerfGateTest(unittest.TestCase):
    def run_gate(self, baseline, current, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, rows in (("baseline", baseline), ("current", current)):
                path = pathlib.Path(tmp) / f"{label}.json"
                path.write_text(json.dumps({"bench": "simcore", "scenarios": rows}))
                paths.append(str(path))
            return subprocess.run(
                [sys.executable, str(GATE), "--baseline", paths[0], "--current", paths[1], *flags],
                capture_output=True,
                text=True,
            )

    def test_identical_counters_and_throughput_pass(self) -> None:
        result = self.run_gate([scenario()], [scenario(events_per_sec=240000)],
                               "--gate", "fabric_churn_maxmin:0.35")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_counter_drift_fails_and_names_the_field(self) -> None:
        result = self.run_gate([scenario()], [scenario(rate_changes=434806)],
                               "--gate", "fabric_churn_maxmin:0.35")
        self.assertEqual(result.returncode, 1)
        self.assertIn("rate_changes", result.stderr)
        self.assertIn("re-record with a reason", result.stderr)
        self.assertNotIn("solves", result.stderr)

    def test_digest_drift_fails(self) -> None:
        result = self.run_gate([scenario()], [scenario(digest="0000000000000000")],
                               "--gate", "fabric_churn_maxmin:0.35")
        self.assertEqual(result.returncode, 1)
        self.assertIn("digest", result.stderr)

    def test_field_missing_on_one_side_fails(self) -> None:
        current = scenario()
        del current["patched_departures"]
        result = self.run_gate([scenario()], [current], "--gate", "fabric_churn_maxmin:0.35")
        self.assertEqual(result.returncode, 1)
        self.assertIn("patched_departures", result.stderr)

    def test_fluid_counter_drift_fails_and_names_the_field(self) -> None:
        fluid = dict(FLUID)
        result = self.run_gate([fluid], [dict(fluid, timer_rearms=255346)],
                               "--gate", "fluid_churn:0.35")
        self.assertEqual(result.returncode, 1)
        self.assertIn("timer_rearms", result.stderr)
        self.assertNotIn("completions", result.stderr)
        result = self.run_gate([fluid], [dict(fluid, completions=127999)],
                               "--gate", "fluid_churn:0.35")
        self.assertEqual(result.returncode, 1)
        self.assertIn("completions", result.stderr)
        result = self.run_gate([fluid], [dict(fluid, events_per_sec=2000000)],
                               "--gate", "fluid_churn:0.35")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_ungated_scenario_may_drift(self) -> None:
        result = self.run_gate([scenario()], [scenario(rate_changes=1, events_per_sec=1)])
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_throughput_below_floor_fails(self) -> None:
        result = self.run_gate([scenario()], [scenario(events_per_sec=50000)],
                               "--gate", "fabric_churn_maxmin:0.35")
        self.assertEqual(result.returncode, 1)
        self.assertIn("gate requires >= 0.35x", result.stderr)

    def test_inverted_pair_fails(self) -> None:
        off = scenario(name="fabric_churn_maxmin_telemetry_off", events_per_sec=200000)
        result = self.run_gate([scenario(), off], [scenario(), off],
                               "--pair", "fabric_churn_maxmin:fabric_churn_maxmin_telemetry_off:0.95")
        self.assertEqual(result.returncode, 1)
        self.assertIn("inverted", result.stdout)


if __name__ == "__main__":
    unittest.main()
