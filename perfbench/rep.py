"""A benchmark worker: imports the library once, then forks one child per
repetition.

Every child starts from the same freshly imported state, runs one
repetition, reports it and exits, so each repetition has its own peak
RSS and no cache carries over from one to the next, without paying for
the import again.  Each repetition first times a calibration loop,
which ``run.py`` uses to scale its timings to a reference host speed.
A job is ``SEED:MODE``; ``MODE`` is ``plain``, ``traced`` (adds the
per-layer metrics) or ``self-test`` (only the tracing neutrality
self-test).  The worker prints one JSON line per job, in order: the
repetition's timings, latency samples, simulated results, output checks
and the kernel that served each plane.

    python3 perfbench/rep.py --workload service-soak --jobs 7:plain,7:traced
"""

from __future__ import annotations

import time

#: Set-up is timed from here: importing the library is part of what a
#: user's run pays before its first simulated tick.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import Probe, Tracer  # noqa: E402
from workloads import MINI, WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

#: Passes of ``calibration_pass`` timed before every repetition.
CALIBRATION_PASSES = 40


def calibration_pass() -> int:
    """A fixed pure-Python loop that never touches the library: its time
    tracks the host's speed, not the program's."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


def calibration_s() -> float:
    """Seconds for ``CALIBRATION_PASSES`` passes, on this core, now."""
    started = time.perf_counter()
    for __ in range(CALIBRATION_PASSES):
        calibration_pass()
    return time.perf_counter() - started


def kernel_planes():
    """Which implementation serves each compiled plane in this process."""
    from repro.pathfinding.free_flow import descent_kernel_name
    from repro.pathfinding.reservation import mutation_kernel_name
    from repro.pathfinding.st_astar import search_kernel_name
    from repro.warehouse.grid import field_kernel_name
    return {"search": search_kernel_name(),
            "descent": descent_kernel_name(),
            "mutation": mutation_kernel_name(),
            "field": field_kernel_name()}


def measured_run(workload, seed, traced):
    """Run once under the probe (and the tracer); restore everything."""
    probe = Probe(workload.planner_cls)
    tracer = Tracer() if traced else None
    probe.install()
    try:
        if tracer is not None:
            tracer.install(workload.planner_cls)
        try:
            result = workload.run(seed)
        finally:
            broken = tracer.restore() if tracer is not None else []
    finally:
        broken += probe.restore()
    result.failures.extend(broken)
    return result, probe, tracer


def neutrality_self_test():
    """Traced and untraced ``mini`` runs must agree bit for bit.

    Returns the failed checks: diverging deterministic views, a wrap
    that did not restore, or a tracer that saw no planning at all.
    """
    plain, __, __ = measured_run(MINI, None, traced=False)
    traced, __, tracer = measured_run(MINI, None, traced=True)
    failures = [f"mini: {name}" for name in plain.failures + traced.failures]
    if plain.digest != traced.digest:
        failures.append("mini: traced view differs from untraced view")
    if not tracer.calls["pipeline"]:
        failures.append("mini: tracer recorded no legs")
    return failures


def repetition(workload, seed: int, mode: str) -> dict:
    """One job's payload, computed in the forked child."""
    if mode == "self-test":
        return {"seed": seed, "mode": mode,
                "failures": neutrality_self_test()}
    calibration = calibration_s()
    result, probe, tracer = measured_run(workload, seed, mode == "traced")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {
        "seed": seed,
        "mode": mode,
        "calibration_s": calibration,
        "setup_s": IMPORT_S + result.setup_s,
        "wall_s": result.wall_s,
        "wake_ms": [s * 1000.0 for s in probe.wakes],
        "leg_ms": [s * 1000.0 for s in probe.legs],
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "mc_peak_mb": result.mc_peak_bytes / 1e6,
        "makespan_ticks": result.makespan_ticks,
        "digest": result.digest,
        "failures": result.failures,
        "kernels": kernel_planes(),
    }
    if tracer is not None:
        setup = {"import_s": IMPORT_S, "build_s": result.build_s,
                 "init_s": result.init_s}
        payload["layers"] = tracer.metrics(result.wall_s, probe.planner_s,
                                           setup)
        payload["layers"].update({
            "sim.metrics.makespan_ticks": result.makespan_ticks,
            "sim.metrics.mc_peak_mb": payload["mc_peak_mb"]})
    return payload


def forked(workload, seed: int, mode: str) -> str:
    """Run one job in a child process; its payload as one JSON line."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            line = json.dumps(repetition(workload, seed, mode),
                              separators=(",", ":"))
        except BaseException as exc:  # reported, never propagated
            line = json.dumps({"seed": seed, "mode": mode, "failures": [
                f"raised {type(exc).__name__}: {exc}"]})
        with os.fdopen(write, "w") as out:
            out.write(line)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as inp:
        line = inp.read()
    __, status = os.waitpid(pid, 0)
    if not line:
        line = json.dumps({"seed": seed, "mode": mode, "failures": [
            f"child ended without a report (status {status})"]})
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--jobs", required=True,
                        help="comma-separated SEED:MODE list")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    for job in args.jobs.split(","):
        seed, mode = job.split(":")
        print(forked(workload, int(seed), mode), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
