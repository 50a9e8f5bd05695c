"""``python3 -m bench`` — run one workload, or all four in subprocesses."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "bench" / "out"
EXIT_USAGE = 2
EXIT_BROKEN = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="End-to-end, per-layer wall-clock benchmark.",
    )
    parser.add_argument(
        "--workload",
        choices=list(WORKLOADS),
        help="run this workload in this process (default: all four, "
        "each in a fresh subprocess, timed and then traced)",
    )
    parser.add_argument(
        "--seed", type=lambda text: int(text) % 2**32, default=1,
        help="every input is generated from it (taken modulo 2**32)",
    )
    parser.add_argument(
        "--seconds", type=float, help="measuring time (default: run_seconds)"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics, tracer off; 1: per-layer metrics",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small inputs, two set-ups, one second per run (10-20 s in all)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="directory for result files"
    )
    return parser.parse_args(argv)


def _refuse_switches() -> None:
    set_switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if set_switches:
        sys.exit(
            "refusing to run: the benchmark measures default switches only, "
            f"but the environment sets {', '.join(set_switches)}"
        )


def _environment(seed: int) -> dict:
    import numpy
    from repro.core import switches

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "switches": [
            {"name": s.name, "value": s.value, "source": s.source}
            for s in switches.describe()
        ],
    }


def run_workload(args: argparse.Namespace) -> int:
    """One workload in this process; the last line printed is the result."""
    from bench import protocol
    from bench.check import BenchmarkError
    from bench.host import QuietGate
    from bench.workloads import WORKLOADS

    declared = protocol.spec()
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    setups = protocol.SETUPS
    if args.smoke:
        seconds, setups = 1.0, 2
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    gate = None if args.smoke else QuietGate(args.out / "host.json")
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    try:
        if trace:
            run = protocol.traced_run(
                workload,
                args.seed,
                seconds,
                args.out / f"{workload.name}.trace.jsonl",
                gate,
            )
        else:
            run = protocol.timed_run(workload, args.seed, seconds, setups, gate)
    except BenchmarkError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return EXIT_BROKEN
    if gate is not None:
        run["host"] = gate.close()
    metrics = run.pop("metrics")
    if set(metrics) != set(units):
        print(
            "benchmark aborted: metrics measured and metrics declared in "
            f"BENCHMARK.json differ: {sorted(set(metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return EXIT_BROKEN

    print(f"workload {workload.name}  seed {args.seed}  trace {int(trace)}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6f} {units[name]}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "environment": _environment(args.seed),
        "sizes": workload.sizes(),
        "correct": run["failed"] == 0,
        **run,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    kind = "trace" if trace else "timed"
    path = args.out / f"{workload.name}-seed{args.seed}-{kind}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    walls = " ".join(f"{wall:.3f}" for wall in run["pass_walls_s"])
    print(f"  passes {len(run['pass_walls_s'])}, walls {walls} s; wrote {path}")
    if gate is not None and gate.waited:
        print(f"  waited {gate.waited:.1f} s for a quiet host")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """All four workloads, timed then traced, one fresh process each."""
    from bench.workloads import WORKLOADS

    summary: dict = {"seed": args.seed, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, "-m", "bench",
                "--workload", name,
                "--seed", str(args.seed),
                "--trace", str(trace),
                "--out", str(args.out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
            )
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                print(f"{name} (trace {trace}) exited with {done.returncode}")
                status = done.returncode
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            entry = summary["workloads"].setdefault(name, {})
            entry["per_layer" if trace else "end_to_end"] = {
                key: metric["value"] for key, metric in result["metrics"].items()
            }
            entry["failed"] = entry.get("failed", 0) + result["failed"]
    # A benchmark run measures; it never claims a gain.
    summary["claim"] = None
    print(json.dumps(summary, indent=1))
    return status


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return EXIT_USAGE
    sys.path.insert(0, str(ROOT / "src"))
    _refuse_switches()
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.workload is None:
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
