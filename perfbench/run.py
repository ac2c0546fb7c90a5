"""perfbench command line: run the workloads, print every metric, check answers.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                             [--scale full|smoke] [--json OUT]
    python3 perfbench/run.py --check-determinism W
    python3 perfbench/run.py --update-expected

This process only orchestrates: every set-up and every measured phase
runs in its own sequential child process (one host thread,
``PYTHONHASHSEED=0``), so ``peak_rss_mb`` and ``setup_s`` are those of a
fresh interpreter.  With ``--workload`` the last line of standard output
is the JSON object the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The traced phase keeps the client count but runs this share of the ops.
TRACE_OPS_SHARE = 0.25


# ---------------------------------------------------------------------------
# Child: one set-up, optionally one measured phase
# ---------------------------------------------------------------------------


def child_main(args) -> dict:
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    import cProfile
    import resource

    from perfbench import ledger
    from perfbench.calibration import Calibrator
    from perfbench.workloads import REFERENCE_SECONDS, WORKLOADS, update_expected

    if args.child == "expected":
        return {"expected": update_expected()}

    traced = args.child == "traced"
    workload = WORKLOADS[args.workload](args.seed, trace=traced)
    warm, measured = workload.smoke if args.scale == "smoke" else (
        workload.warm_per_client,
        max(1, round(workload.ops_per_client * args.seconds / REFERENCE_SECONDS)),
    )
    if traced and args.scale != "smoke":
        measured = max(1, round(measured * TRACE_OPS_SHARE))
    workload.build()
    warm_failed = sum(not ok for _lat, _answer, ok in workload.phase("warm", warm))
    record = {"setup_s": time.time() - float(os.environ["PERFBENCH_SPAWNED_AT"])}
    if args.child == "setup":
        return record

    calibrator, profiler = Calibrator(), cProfile.Profile()
    if not traced:  # cProfile would bill the probe's bursts to a layer
        workload.tick = calibrator.tick
    before = ledger.snapshot(workload)
    calibrator.start()
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    if traced:
        profiler.enable()
    results = workload.phase("measured", measured)
    profiler.disable()
    wall_raw_s = time.perf_counter() - wall_start - calibrator.spent_s
    cpu_s = time.process_time() - cpu_start - calibrator.spent_s
    after = ledger.snapshot(workload)
    calibrator.burst()  # a phase shorter than the probe's gap still gets one
    speed = calibrator.speed

    ops = len(results)
    wall_norm_s = wall_raw_s * speed
    counts = ledger.count_metrics(workload, before, after, ops, wall_norm_s)
    failures = [str(answer) for _lat, answer, ok in results if not ok]
    failures += workload.verify()  # may advance the simulation (checkpoint)
    if warm_failed:
        failures.append(f"{warm_failed} warm-up ops failed")
    counts.update({f"workloads.{key}": value for key, value in workload.anomalies.items()})
    latency = ledger.latency_metrics([lat for lat, _a, _ok in results], counts["sim.virtual_s"])
    record.update(
        workload=args.workload, seed=args.seed, clients=workload.clients, ops=ops,
        wall_norm_s=wall_norm_s, wall_raw_s=wall_raw_s, cpu_s=cpu_s, speed=speed,
        # Report-only guard: did something else use the host meanwhile?
        disturbed=wall_raw_s > 1.05 * cpu_s or calibrator.drift() > 0.10,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        failed=len(failures), failures=failures[:5], counts=counts,
        exact_counts=ledger.exact_counts(counts), **latency,
        sim_digest=ledger.sim_digest(after["sim.now_us"], results, counts),
    )
    if traced:
        record["profile"] = ledger.profile_metrics(profiler.getstats(), counts, ops)
    return record


# ---------------------------------------------------------------------------
# Parent: spawn children, merge their records, print
# ---------------------------------------------------------------------------


def spawn(mode: str, args, workload: str | None = None, seed: int | None = None) -> dict:
    """Run one child to completion and return the record it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0", PERFBENCH_SPAWNED_AT=repr(time.time()))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--seed", str(args.seed if seed is None else seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
    ] + (["--workload", workload] if workload else [])
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {mode} child of {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with their units."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC[kind]
    }


def run_workload(name: str, args) -> dict:
    """All children of one workload; returns its merged result."""
    timed = spawn("timed", args, name)
    result = {key: timed[key] for key in (
        "workload", "seed", "ops", "clients", "failed", "failures", "sim_digest",
        "tail_pct", "samples", "disturbed", "wall_raw_s", "speed",
    )}
    result["attempted"] = timed["ops"]
    setups = [timed["setup_s"]]
    if args.trace:
        traced = spawn("traced", args, name)
        setups.append(traced["setup_s"])
        # The traced run checks answers too (and, for TPC-C, serializability).
        result["attempted"] += traced["ops"]
        result["failed"] += traced["failed"]
        result["failures"] += traced["failures"]
        result["per_layer"] = declared("per_layer", {
            **timed["counts"], **traced["profile"],
            "host.wall_s": timed["wall_raw_s"], "host.cpu_s": timed["cpu_s"],
            "host.speed": timed["speed"],
            "trace.overhead_ratio": (traced["wall_raw_s"] / traced["ops"])
                                    / (timed["wall_raw_s"] / timed["ops"]),
        })
    else:
        setups += [spawn("setup", args, name)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    result["setups"] = setups
    result["end_to_end"] = declared("end_to_end", {**timed, "setup_s": statistics.median(setups)})
    return result


def print_result(result: dict) -> None:
    print(f"== {result['workload']}: seed {result['seed']}, {result['ops']} ops, "
          f"{result['clients']} closed-loop clients ==")
    notes = {
        "setup_s": "median of " + " ".join(f"{s:.2f}" for s in result["setups"]),
        "wall_norm_s": f"{result['wall_raw_s']:.3f} s raw at machine speed {result['speed']:.3f}",
        "sim_lat_p50_ms": f"{result['samples']} samples",
        "sim_lat_tail_ms": f"p{result['tail_pct']}, {result['samples']} samples",
    }
    for name, metric in {**result["end_to_end"], **result.get("per_layer", {})}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"{'fail_share':40s} {result['failed'] / result['attempted']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    print(f"{'sim_digest':40s} {result['sim_digest']:>16s}")
    print(f"{'disturbed':40s} {'yes' if result['disturbed'] else 'no':>16s}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def check_determinism(name: str, args) -> int:
    """Same seed twice: identical simulation. Another seed: a different one."""
    first, second = spawn("timed", args, name), spawn("timed", args, name)
    other = spawn("timed", args, name, seed=args.seed + 1)
    exact = first["exact_counts"]
    problems = [
        f"{key}: {exact[key]} != {second['exact_counts'][key]}"
        for key in sorted(exact) if exact[key] != second["exact_counts"][key]
    ]
    if first["sim_digest"] != second["sim_digest"]:
        problems.append(f"sim_digest {first['sim_digest']} != {second['sim_digest']}")
    if other["sim_digest"] == first["sim_digest"]:
        problems.append(f"seed {args.seed + 1} repeats the digest of seed {args.seed}")
    failed = first["failed"] + second["failed"] + other["failed"]
    if failed:
        problems.append(f"{failed} failed ops")
    print(f"{name}: seed {args.seed} twice -> {first['sim_digest']} {second['sim_digest']}, "
          f"seed {args.seed + 1} -> {other['sim_digest']}, {len(exact)} exact counters compared")
    for problem in problems:
        print(f"  NOT DETERMINISTIC: {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured-phase length the op counts are scaled to")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from an extra cProfile'd run")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", metavar="OUT", help="also write the full results here")
    parser.add_argument("--check-determinism", metavar="W", choices=WORKLOAD_NAMES)
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate perfbench/expected_answers.json")
    parser.add_argument("--child", choices=("setup", "timed", "traced", "expected"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro beside perfbench/; nothing to benchmark", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child_main(args)))
        return 0
    if args.update_expected:
        expected = spawn("expected", args)["expected"]
        print(f"wrote {sum(len(answers) for answers in expected.values())} expected answers")
        return 0
    if args.check_determinism:
        return check_determinism(args.check_determinism, args)

    results = []
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        results.append(run_workload(name, args))
        print_result(results[-1])
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
    if args.workload:
        result = results[0]
        print(json.dumps({
            "correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["per_layer" if args.trace else "end_to_end"],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
