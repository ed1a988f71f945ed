#!/usr/bin/env python3
"""Repo benchmark: the glmn-weights CLI run the way users run it.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload verify-m1 --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``verify-m1`` and ``verify-m3`` run
``verify --check all`` over a coordinate box; ``stream-m3`` streams a JSONL
file of 20,000 generated weights through ``transform``, ``transform
--direction inverse --trace``, ``classify`` and ``orbit-rep``.  The load is
a closed loop with one client: one child command at a time, each a fresh
``python -m glmn_weights`` process on the checkout's ``src``.

``--trace 0`` reports the end-to-end metrics.  It times the set-up (the
workload's commands on ``--box 0:0`` or on empty input) several times, then
runs passes until ``--seconds`` have elapsed.  ``--trace 1`` runs passes
in-process through ``cli.main``, alternating an untraced pass with a pass
traced by ``tracing.Tracer``, and reports the per-layer breakdown.  Every
pass is checked for correct output; a failed pass makes the benchmark exit
1.  The last line of standard output is the JSON result; the lines before it
are a run header (backend, Python, CPUs, commit, parameters, seed, input
digest) and a readable table.  The traced run also writes its coarse spans
to ``perfbench/.work/spans-<workload>.json``.

The per-weight counts (``oracle.<check>.enumerated`` and ``.checked``)
come from the pure backend's calls into the library; they read 0 when the
compiled backend runs the checks.  ``GLMN_WEIGHTS_PURE=1`` forces the pure
backend for the whole benchmark.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3  # before the passes; one more follows each pass
IMPORT_REPEATS = 9

sys.path.insert(0, str(HERE))
from workloads import CHECKS, WORKLOADS, CommandResult, VerifyWorkload, digest, run_pass  # noqa: E402

# The metrics of the result line.  wall_s.p90, fail_ratio and the stream
# commands' lines_per_s are printed in the table only: with about ten passes
# per run no percentile above the median has ten samples beyond it, failures
# are carried by "attempted"/"failed", and a result metric must exist and be
# non-zero on every workload.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s.p50": "s",
    "weights_per_s": "weights/s",
    "peak_rss_mb": "MiB",
}
STREAM_COMMANDS = ("transform", "transform_trace", "classify", "orbit_rep")
CHECK_FUNCTIONS = {
    "image": "verify_image",
    "order": "verify_order_invariance",
    "theorem": "verify_theorem",
    "trace": "verify_trace_invariants",
}
CLASSIFY_FUNCTIONS = ("is_standard_dominant", "is_mixed_highest_weight", "is_relevant_orbit",
                      "orbit_representative")
BACKENDS = ("pure", "compiled")


def _per_layer_units() -> dict[str, str]:
    units = {"cli.parse_args.s": "s", "cli.self_s": "s", "cli.lines": "count", "cli.bytes_out": "bytes"}
    units.update({f"{c}.lines_per_s": "lines/s" for c in STREAM_COMMANDS})
    for check in CHECKS:
        units.update({f"oracle.{check}.s": "s", f"oracle.{check}.self_s": "s",
                      f"oracle.{check}.enumerated": "count", f"oracle.{check}.checked": "count",
                      f"oracle.{check}.useful_ratio": "ratio"})
    for check in CHECKS:
        for be in BACKENDS:
            units.update({f"kernels.scan_{check}.{be}.s": "s",
                          f"kernels.scan_{check}.{be}.weights_per_s": "weights/s"})
    units["kernels.compiled.available"] = "count"
    for fn in ("forward", "inverse"):
        units.update({f"serganova.{fn}.calls": "count", f"serganova.{fn}.self_s": "s"})
    units.update({"serganova.steps": "count", "serganova.StepOrder.calls": "count",
                  "serganova.all_linear_extensions.s": "s", "roots.pair_leq.calls": "count"})
    for fn in CLASSIFY_FUNCTIONS:
        units.update({f"classify.{fn}.calls": "count", f"classify.{fn}.self_s": "s"})
    units.update({"core.Weight.calls": "count", "core.Weight.self_s": "s",
                  "core.congruent_zero.calls": "count", "import_s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()


# -- runners -------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class SubprocessRunner:
    """Runs each command as a fresh ``python -m glmn_weights`` process through
    ``launch.py``, with stdin and stdout in files under the run's work
    directory.  Use as a context manager: it owns the launcher process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.launcher = None

    def __enter__(self):
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def __call__(self, cmd, stdin_text: str) -> CommandResult:
        paths = {k: self.workdir / f"{cmd.label}.{k}" for k in ("stdin", "stdout", "stderr")}
        paths["stdin"].write_text(stdin_text)
        request = {"argv": [sys.executable, "-m", "glmn_weights", *cmd.argv]}
        request.update({k: str(v) for k, v in paths.items()})
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return CommandResult(reply["code"], reply["wall_s"], paths["stdout"].read_text(),
                             paths["stderr"].read_text(), reply["maxrss_kb"] / 1024)


def inprocess_runner(cmd, stdin_text: str) -> CommandResult:
    """Runs a command through ``cli.main`` in this process."""
    from glmn_weights import cli

    fout, ferr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    code = cli.main(list(cmd.argv), io.StringIO(stdin_text), fout, ferr)
    wall = time.perf_counter() - t0
    return CommandResult(code, wall, fout.getvalue(), ferr.getvalue())


# -- helpers -------------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _git_commit() -> str:
    """Commit of the checkout, read from its own .git only (a benchmark
    checkout may have none)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header(workload, seed: int, text: str, trace: int) -> dict:
    from glmn_weights import kernels

    return {
        "workload": workload.name,
        "params": workload.params(),
        "seed": seed,
        "seed_used": workload.uses_seed,
        "input_digest": digest(text),
        "trace": trace,
        "backend": kernels.active_backend().name,
        "compiled_available": kernels.compiled_available(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def _time_setup(workload, runner) -> tuple[float, list[str]]:
    results = run_pass(workload, "", runner, workload.setup_commands())
    problems = [f"set-up {label} exited {r.code}: {r.stderr.strip()[:200]}"
                for label, r in results.items() if r.code != 0]
    return sum(r.wall_s for r in results.values()), problems


# -- end-to-end run ------------------------------------------------------------


def end_to_end(workload, text: str, seconds: float, workdir: Path) -> tuple[dict, int, int, list[str]]:
    with SubprocessRunner(workdir) as runner:
        return _end_to_end(workload, text, seconds, runner)


def _end_to_end(workload, text, seconds, runner):
    _, problems = _time_setup(workload, runner)  # warm-up: bytecode caches
    setups = []
    walls, rss, per_command = [], [], {c.label: [] for c in workload.commands()}
    attempted = failed = 0

    def setup():
        wall, bad = _time_setup(workload, runner)
        setups.append(wall)
        problems.extend(bad)

    for _ in range(SETUP_REPEATS):
        setup()
    # Passes run until the next one would end past --seconds; one set-up is
    # timed after each, so set-up samples spread over the whole run.
    start, last = time.perf_counter(), 0.0
    while not problems and (attempted == 0 or time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        results = run_pass(workload, text, runner)
        attempted += 1
        bad = workload.check(text, results)
        if bad:
            failed += 1
            problems += bad
            break
        walls.append(sum(r.wall_s for r in results.values()))
        rss.append(max(r.peak_rss_mb for r in results.values()))
        for label, r in results.items():
            per_command[label].append(r.wall_s)
        setup()
        last = time.perf_counter() - t0
    if problems:
        return {}, attempted, failed, problems

    p50 = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s.p50": p50,
        "weights_per_s": workload.work / p50,
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"# {len(walls)} passes, {len(setups)} set-ups")
    print(f"# pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"# {'wall_s.p90':<42} {p90(walls):>16.6g} s (n={len(walls)})")
    if not isinstance(workload, VerifyWorkload):
        for label, times in per_command.items():
            rate = workload.lines / statistics.median(times)
            print(f"# {label + '.lines_per_s':<42} {rate:>16.6g} lines/s")
    return metrics, attempted, failed, problems


# -- traced run ----------------------------------------------------------------


def _import_s() -> float:
    env = _child_env()
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import glmn_weights"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _kernel_metrics(workload, problems: list[str]) -> dict[str, float]:
    """Time each check's scan on the workload's box, untraced, on every
    importable backend, through the public oracle entry point."""
    from glmn_weights import kernels, oracle
    from glmn_weights.core import Modulus, SuperRank

    out = {}
    backends = {"pure": kernels.pure, "compiled": kernels.compiled}
    for check in CHECKS:
        for name, be in backends.items():
            key = f"kernels.scan_{check}.{name}"
            if be is None:
                out[f"{key}.s"] = out[f"{key}.weights_per_s"] = 0.0
                continue
            t0 = time.perf_counter()
            report = oracle.run_check(check, SuperRank(workload.M, workload.N), Modulus(workload.p),
                                      oracle.Box(workload.lo, workload.hi), backend=be)
            elapsed = time.perf_counter() - t0
            if not report.passed:
                problems.append(f"{name} scan of {check} reported {report.failures[:2]}")
            out[f"{key}.s"] = elapsed
            out[f"{key}.weights_per_s"] = workload.box_weights / elapsed
    return out


def _layer_metrics(tracer, results, workload) -> dict[str, float]:
    m = {
        "cli.parse_args.s": tracer.total_s("cli.parse_args"),
        "cli.self_s": tracer.layer_self_s("cli"),
        "cli.lines": sum(r.stdout.count("\n") for r in results.values()),
        "cli.bytes_out": sum(len(r.stdout.encode()) for r in results.values()),
    }
    for check, fn in CHECK_FUNCTIONS.items():
        enumerated, checked = tracer.scans.get(f"kernels.scan_{check}.pure", (0, 0))
        m.update({
            f"oracle.{check}.s": tracer.total_s(f"oracle.{fn}"),
            f"oracle.{check}.self_s": tracer.self_s(f"oracle.{fn}"),
            f"oracle.{check}.enumerated": enumerated,
            f"oracle.{check}.checked": checked,
            f"oracle.{check}.useful_ratio": checked / enumerated if enumerated else 0.0,
        })
    for fn in ("forward", "inverse"):
        m[f"serganova.{fn}.calls"] = tracer.calls(f"serganova.{fn}")
        m[f"serganova.{fn}.self_s"] = tracer.self_s(f"serganova.{fn}")
    m.update({
        "serganova.steps": tracer.steps,
        "serganova.StepOrder.calls": tracer.calls("serganova.StepOrder"),
        "serganova.all_linear_extensions.s": tracer.total_s("serganova.all_linear_extensions"),
        "roots.pair_leq.calls": tracer.calls("roots.pair_leq"),
        "core.Weight.calls": tracer.calls("core.Weight"),
        "core.Weight.self_s": tracer.self_s("core.Weight"),
        "core.congruent_zero.calls": tracer.calls("core.congruent_zero"),
    })
    for fn in CLASSIFY_FUNCTIONS:
        m[f"classify.{fn}.calls"] = tracer.calls(f"classify.{fn}")
        m[f"classify.{fn}.self_s"] = tracer.self_s(f"classify.{fn}")
    return m


def traced(workload, text: str, seconds: float, workdir: Path) -> tuple[dict, int, int, list[str]]:
    from glmn_weights import kernels
    from tracing import Tracer

    import_s = _import_s()
    tracer = Tracer()
    rounds, plain_walls, traced_walls = [], [], []
    per_command = {c: [] for c in STREAM_COMMANDS}
    attempted = failed = 0
    problems: list[str] = []
    start, last = time.perf_counter(), 0.0
    while not problems and (attempted == 0 or time.perf_counter() - start + last <= seconds):
        t0 = time.perf_counter()
        plain = run_pass(workload, text, inprocess_runner)
        tracer.reset()
        tracer.pass_id = attempted // 2
        with tracer:
            results = run_pass(workload, text, inprocess_runner)
        attempted += 2
        bad_plain, bad_traced = workload.check(text, plain), workload.check(text, results)
        if bad_plain or bad_traced:
            failed += bool(bad_plain) + bool(bad_traced)
            problems += bad_plain + bad_traced
            break
        plain_walls.append(sum(r.wall_s for r in plain.values()))
        traced_walls.append(sum(r.wall_s for r in results.values()))
        for label, r in plain.items():
            if label in per_command:
                per_command[label].append(workload.lines / r.wall_s)
        m = _layer_metrics(tracer, results, workload)
        if isinstance(workload, VerifyWorkload):
            m.update(_kernel_metrics(workload, problems))
            failed += bool(problems)
        rounds.append(m)
        last = time.perf_counter() - t0
    tracer.write_spans(workdir.parent / f"spans-{workload.name}.json")
    if problems:
        return {}, attempted, failed, problems

    metrics = {name: statistics.median(r.get(name, 0.0) for r in rounds) for name in PER_LAYER_UNITS}
    for label, rates in per_command.items():
        metrics[f"{label}.lines_per_s"] = statistics.median(rates) if rates else 0.0
    metrics["kernels.compiled.available"] = int(kernels.compiled_available())
    metrics["import_s"] = import_s
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    print(f"# {len(rounds)} traced and {len(rounds)} untraced in-process passes")
    return metrics, attempted, failed, problems


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not (SRC / "glmn_weights" / "__init__.py").is_file():
        print(f"error: no glmn_weights sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[ns.workload]
    text = workload.make_input(ns.seed)
    workdir = WORK / f"{workload.name}-seed{ns.seed}-trace{ns.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"header": run_header(workload, ns.seed, text, ns.trace)}))
    try:
        measure = traced if ns.trace else end_to_end
        metrics, attempted, failed, problems = measure(workload, text, ns.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"FAIL: {problem}", file=sys.stderr)
    if attempted:
        print(f"# {'fail_ratio':<42} {failed / attempted:>16.6g} ratio ({failed}/{attempted} passes)")
    if problems or not metrics:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    units = PER_LAYER_UNITS if ns.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"# {name:<42} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
