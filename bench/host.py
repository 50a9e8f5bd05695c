"""Wait for a quiet host before measuring.

The shared box this runs on is 1.4 to 1.9 times slower for one to five
minutes at a time, a tenth of the time or so, and everything slows together:
no pass of a 25 s run sees a quiet moment then, so per-op minima cannot help
and the run reads 40-90 % high. A run therefore times a fixed kernel before
each set-up and, when that reads slow against what the runs before it in the
same checkout read, sleeps until it no longer does. Waiting changes no number
that is measured; it only chooses when to measure. What was read and how long
the run waited go into the result file.

The runs share ``host.json`` in the output directory. Without it (a first run,
a fresh checkout) nothing is known about the host and nothing waits. Waiting
is rationed, per run and over all runs sharing the file, so that a host that
has simply become slower costs a bounded time and is then measured as it is.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

PROBE_SECONDS = 0.25
SLOW = 1.2
"""A reading this many times the reference is a slow host."""
RETRY_SECONDS = 0.75
PATIENCE_RUN = 60.0
"""Seconds one run may wait in all."""
PATIENCE_ALL = 400.0
"""Seconds all runs sharing one ``host.json`` may wait in all."""
HISTORY = 40
MIN_HISTORY = 3

_clock = time.perf_counter


def _kernel() -> None:
    table: dict[int, int] = {}
    for i in range(4_000):
        table[i & 255] = i


def probe() -> float:
    """Median time of a fixed pure-Python kernel over ``PROBE_SECONDS``."""
    samples = []
    end = _clock() + PROBE_SECONDS
    while True:
        begin = _clock()
        _kernel()
        now = _clock()
        samples.append(now - begin)
        if now >= end:
            return statistics.median(samples)


class QuietGate:
    """``wait()`` before each stretch of measuring; ``close()`` at the end."""

    def __init__(
        self, path: Path, probe=probe, sleep=time.sleep, clock=_clock
    ) -> None:
        self.path = path
        self._probe = probe
        self._sleep = sleep
        self._clock = clock
        try:
            state = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            state = {}
        self.lows: list[float] = list(state.get("lows", []))[-HISTORY:]
        self.waited_before: float = float(state.get("waited_s", 0.0))
        self.waited = 0.0
        self.readings: list[float] = []

    @property
    def reference(self) -> float | None:
        """What a quiet host reads: the median of earlier runs' best."""
        if len(self.lows) < MIN_HISTORY:
            return None
        return statistics.median(self.lows)

    def _may_wait(self) -> bool:
        return (
            self.waited < PATIENCE_RUN
            and self.waited_before + self.waited < PATIENCE_ALL
        )

    def wait(self) -> None:
        reading = self._probe()
        reference = self.reference
        while (
            reference is not None
            and reading > SLOW * reference
            and self._may_wait()
        ):
            begin = self._clock()
            self._sleep(RETRY_SECONDS)
            reading = self._probe()
            self.waited += self._clock() - begin
        self.readings.append(reading)

    def close(self) -> dict:
        """Record this run's best reading; return what the run saw."""
        reference = self.reference
        if self.readings:
            self.lows = (self.lows + [min(self.readings)])[-HISTORY:]
        state = {"lows": self.lows, "waited_s": self.waited_before + self.waited}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(state) + "\n", encoding="utf-8")
        return {
            "probe_reference_s": reference,
            "probe_readings_s": self.readings,
            "waited_s": self.waited,
        }
