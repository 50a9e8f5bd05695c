"""The quiet-host gate: when it waits, when it gives up, what it remembers."""

from __future__ import annotations

import json

from bench.host import MIN_HISTORY, PATIENCE_ALL, PATIENCE_RUN, QuietGate

QUIET = 1.0e-4


class FakeHost:
    """Probe readings from a script; a clock that only ``sleep`` moves."""

    def __init__(self, readings):
        self.readings = iter(readings)
        self.last = QUIET
        self.now = 0.0

    def probe(self) -> float:
        self.last = next(self.readings, self.last)
        return self.last

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def clock(self) -> float:
        return self.now

    def gate(self, path) -> QuietGate:
        return QuietGate(path, probe=self.probe, sleep=self.sleep, clock=self.clock)


def remember(path, lows, waited=0.0):
    path.write_text(json.dumps({"lows": lows, "waited_s": waited}))


def test_without_a_history_nothing_waits(tmp_path):
    host = FakeHost([5 * QUIET])
    gate = host.gate(tmp_path / "host.json")
    gate.wait()
    assert gate.waited == 0.0 and host.now == 0.0
    assert gate.close()["probe_reference_s"] is None
    assert json.loads((tmp_path / "host.json").read_text())["lows"] == [5 * QUIET]


def test_a_slow_host_is_waited_out(tmp_path):
    path = tmp_path / "host.json"
    remember(path, [QUIET] * MIN_HISTORY)
    host = FakeHost([1.6 * QUIET, 1.5 * QUIET, 1.1 * QUIET])
    gate = host.gate(path)
    gate.wait()
    assert gate.readings == [1.1 * QUIET]
    assert gate.waited == host.now > 0
    report = gate.close()
    assert report["probe_reference_s"] == QUIET
    assert json.loads(path.read_text())["waited_s"] == gate.waited


def test_a_host_that_stays_slow_is_measured_after_the_runs_patience(tmp_path):
    path = tmp_path / "host.json"
    remember(path, [QUIET] * MIN_HISTORY)
    host = FakeHost([2 * QUIET])
    gate = host.gate(path)
    gate.wait()
    gate.wait()  # nothing left to spend
    assert PATIENCE_RUN <= gate.waited < PATIENCE_RUN + 2
    assert gate.readings == [2 * QUIET, 2 * QUIET]


def test_the_patience_of_all_runs_together_is_rationed_too(tmp_path):
    path = tmp_path / "host.json"
    remember(path, [QUIET] * MIN_HISTORY, waited=PATIENCE_ALL)
    host = FakeHost([2 * QUIET])
    gate = host.gate(path)
    gate.wait()
    assert gate.waited == 0.0


def test_one_slow_run_does_not_move_the_reference(tmp_path):
    path = tmp_path / "host.json"
    remember(path, [QUIET, QUIET, QUIET, 2 * QUIET])
    assert FakeHost([]).gate(path).reference == QUIET
