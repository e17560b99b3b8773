"""The repository benchmark: one workload per call, each repetition in its
own process, outputs checked, metrics printed by name and unit.

    python3 perfbench/run.py --workload paper-scale-125 --seed 3 \\
        --seconds 55 --trace 0

``--seed`` re-seeds the workload's item streams (default: the registry
seed, at which ``pins.json`` pins the makespan and the digest of the
deterministic view).  A run measures ``STREAMS`` streams, seeds
``seed + j * SEED_STRIDE``, in whole rounds (every stream once per
round) for ``--seconds``, so each stream is repeated equally often.
``--trace 0`` reports the end-to-end metrics over the repetitions
(lower quartiles of the times, scaled to a reference host speed by a
calibration loop timed before each repetition; the median of memory); ``--trace 1`` runs the tracing neutrality
self-test and then one untraced and one traced repetition of the first
stream, and reports the per-layer metrics.  The second-to-last line of
standard output is a full report (provenance, per-repetition figures,
sample counts, check failures); the last line is the result object.  The metric names, units and bounds live
in ``BENCHMARK.json``; their definitions in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from layers import percentile  # noqa: E402

#: Every run must exit within this many seconds of starting.
HARD_LIMIT_S = 170.0

#: A run measures this many item streams: stream ``j`` of a run with seed
#: ``n`` is drawn from seed ``n + j * SEED_STRIDE``.  The end-to-end
#: metrics run over the repetitions of every stream, so they rest on more
#: than one input.
STREAMS = 3
SEED_STRIDE = 7919

#: Untraced repetitions run this many at a time, one per core at most.
PARALLEL_REPS = 2

#: Seconds the calibration loop timed before each repetition
#: (``rep.calibration_s``) takes on the reference host.  End-to-end
#: times are scaled to that speed: multiplied by this over the lower
#: quartile of the run's own calibration times.
CALIBRATION_S = 0.1


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_kernel(env) -> str:
    """Compile the native kernel in this checkout; the path or ''."""
    code = ("from repro.pathfinding._kernel.build import build_extension;"
            "print(build_extension() or '')")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600, check=False)
    return done.stdout.decode().strip() if done.returncode == 0 else ""


def source_digest() -> str:
    """SHA-256 over the library sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """The checkout's git commit, never one of an enclosing repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def stop_group(child) -> None:
    """Kill a worker and the repetition it forked; wait until both end."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(child.pid, 0)  # the forked child may still be exiting
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(workload: str, jobs, env, deadline: float) -> list:
    """Run ``(seed, mode)`` jobs in one ``rep.py`` worker; their payloads.

    The worker and every repetition it forks share a process group,
    which is killed and waited for if the run's time limit comes first.
    A job without a payload gets a failure in its place.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--jobs", ",".join(f"{seed}:{mode}" for seed, mode in jobs)]
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, start_new_session=True)
    why = ""
    try:
        out, err = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
        if child.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            why = f"exit {child.returncode}: " + " | ".join(tail)
    except subprocess.TimeoutExpired:
        stop_group(child)
        out, err = child.communicate()
        why = "killed at the run's time limit"
    finally:
        if child.poll() is None:
            stop_group(child)
            child.communicate()
    # Only whole lines: a worker killed mid-line leaves a fragment.
    payloads = [json.loads(line) for line in out.decode().split("\n")[:-1]]
    why = why or "the worker ended before this job"
    return payloads + [{"seed": seed, "mode": mode, "failures": [why]}
                       for seed, mode in jobs[len(payloads):]]


def run_rounds(workload: str, jobs, env, deadline: float, width: int,
               until: float) -> list:
    """Run the jobs in whole rounds on ``width`` concurrent lanes; every
    payload.

    Each round is a fresh worker, so the library import that
    ``setup_s`` includes is timed once per round.  A lane starts another
    round only while one as long as its last still ends before
    ``until`` (a ``time.monotonic()`` value), and runs at least one.
    """
    def lane(__):
        payloads = []
        while True:
            begun = time.monotonic()
            payloads += run_worker(workload, jobs, env, deadline)
            ended = time.monotonic()
            if 2 * ended - begun > until:
                return payloads

    with ThreadPoolExecutor(max_workers=width) as pool:
        done = list(pool.map(lane, range(width)))
    return [payload for share in done for payload in share]


def median(values):
    return statistics.median(values) if values else 0.0


def lower_quartile(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[0]


def check_reps(reps, pin):
    """Add the cross-repetition checks; returns every failure string.

    Every repetition of one stream must give the same deterministic view,
    and on the pinned seed the pinned makespan and digest.  In a traced
    run the traced and the untraced repetition share a stream, so this
    also requires their views to be identical.
    """
    first = {}
    for rep in reps:
        found = rep.setdefault("failures", [])
        if "digest" not in rep:
            continue
        if rep["seed"] == pin["seed"]:
            if rep["makespan_ticks"] != pin["makespan_ticks"]:
                found.append(f"makespan {rep['makespan_ticks']} != pinned "
                             f"{pin['makespan_ticks']}")
            if rep["digest"] != pin["digest"]:
                found.append("digest differs from the pinned digest")
        reference = first.setdefault(rep["seed"], rep)
        if rep["digest"] != reference["digest"]:
            found.append(f"seed {rep['seed']}: view differs from an "
                         f"earlier repetition of the same stream")
    return [f for rep in reps for f in rep["failures"]]


def end_to_end(reps, units):
    """The end-to-end metrics over every correct repetition of a run.

    A latency percentile is taken per repetition: the host's bursts of
    slowness land on the tails of a few repetitions, which a pooled
    percentile would take in whole.  Each time is the lower quartile
    over the repetitions, and the calibration time likewise: the host
    runs in fast and slow phases, and both quartiles come from its fast
    phase, so their quotient hardly moves with the phases' mix.  Every
    stream is repeated equally often, so a parent and a change are
    summarised over the same inputs.  The unscaled figures stay in the
    details.
    """
    ok = [r for r in reps if "digest" in r and not r["failures"]]

    def over_reps(key, pct):
        return lower_quartile([percentile(r[key], pct) for r in ok])

    raw = {
        "setup_s": lower_quartile([r["setup_s"] for r in ok]),
        "wall_s": lower_quartile([r["wall_s"] for r in ok]),
        "wake_p50_ms": over_reps("wake_ms", 50),
        "wake_p99_ms": over_reps("wake_ms", 99),
        "leg_p50_ms": over_reps("leg_ms", 50),
        "leg_p99_ms": over_reps("leg_ms", 99),
    }
    calibration = lower_quartile([r["calibration_s"] for r in ok])
    scale = CALIBRATION_S / calibration if calibration else 0.0
    values = {name: v * scale for name, v in raw.items()}
    values["peak_rss_mb"] = median([r["peak_rss_mb"] for r in ok])
    # The p99s are reported but not listed: on the paper floor the legs'
    # p99 spread 0.19-0.22 over ten runs, too close to the largest bound.
    details = {name: v for name, v in values.items() if name not in units}
    details.update({
        "calibration_s": calibration,
        "unscaled": raw,
        "repetitions": len(ok),
        "wakes_per_repetition": median([len(r["wake_ms"]) for r in ok]),
        "legs_per_repetition": median([len(r["leg_ms"]) for r in ok])})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}, details


def per_layer(reps, units):
    """The listed per-layer metrics, and the unlisted layer figures.

    Times of a layer that only some workloads exercise (the rescue,
    windowed and wait tiers' latencies, checkpoint dump and load) would
    read a constant 0 on the others, so they are reported, not listed.
    """
    untraced = next((r for r in reps if r.get("mode") == "plain"
                     and "digest" in r), None)
    traced = next((r for r in reps if "layers" in r), None)
    layers = dict(traced["layers"]) if traced else {}
    if traced and untraced:
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    listed = {name: {"value": layers.get(name, 0.0), "unit": unit}
              for name, unit in units.items()}
    return listed, {k: v for k, v in layers.items() if k not in units}


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no library sources under {SRC}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    if args.workload not in pins:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(pins)}")

    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch))
    kernel_path = build_kernel(env)

    pin = pins[args.workload]
    base = args.seed if args.seed is not None else pin["seed"]
    streams = [base + j * SEED_STRIDE for j in range(STREAMS)]
    if args.trace:
        # One after the other: the overhead is a difference of two walls.
        reps = run_worker(args.workload, [(streams[0], mode) for mode in
                                          ("self-test", "plain", "traced")],
                          env, deadline)
    else:
        width = min(PARALLEL_REPS, len(os.sched_getaffinity(0)))
        reps = run_rounds(args.workload, [(seed, "plain") for seed in streams],
                          env, deadline, width, started + args.seconds)
    failures = check_reps(reps, pin)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, details = per_layer(reps, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, details = end_to_end(reps, units)
    failed = sum(1 for r in reps if r["failures"])

    kernels = next((r["kernels"] for r in reps if "kernels" in r), {})
    fallback = sorted(p for p, k in kernels.items() if k != "compiled")
    if fallback or not kernel_path:
        print(f"perfbench: planes not on the compiled kernel: {fallback}",
              file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": base,
        "streams": streams,
        "repetitions": [
            {key: rep.get(key) for key in ("seed", "mode", "digest",
                                           "makespan_ticks", "mc_peak_mb",
                                           "calibration_s", "setup_s",
                                           "wall_s")}
            | {f"{key}_p50_ms": percentile(rep[f"{key}_ms"], 50)
               for key in ("wake", "leg") if f"{key}_ms" in rep}
            for rep in reps],
        # Unlisted figures and sample counts (untraced) or the unlisted
        # layer figures (traced).
        "details": details,
        "failures": failures,
        "failed_share": failed / len(reps),
        "provenance": {
            "kernels": kernels,
            "kernel_fallback": fallback,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
            "source_sha256": source_digest(),
        },
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
