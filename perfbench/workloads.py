"""Workloads of the repo benchmark, their inputs and their correctness gates.

A workload is a fixed list of CLI commands (one pass) plus the check that
decides whether a pass produced correct output.  Passes are run by a
runner: a fresh ``python -m glmn_weights`` process per command for the
end-to-end timings, or ``cli.main`` in-process for the traced breakdown.
Both runners hand back the same ``CommandResult``, so one gate serves both.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

CHECKS = ("image", "order", "theorem", "trace")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.  ``stdin`` names where its input comes
    from: ``None`` for empty input, ``"input"`` for the generated input, or
    the label of an earlier command whose output it reads."""

    label: str
    argv: tuple[str, ...]
    stdin: str | None


@dataclass
class CommandResult:
    code: int
    wall_s: float
    stdout: str
    stderr: str
    peak_rss_mb: float = 0.0


@dataclass(frozen=True)
class VerifyWorkload:
    """``verify --check all`` over one coordinate box.  Deterministic: the
    seed is recorded but changes nothing."""

    name: str
    M: int
    N: int
    p: int
    lo: int
    hi: int
    uses_seed = False

    def _argv(self, box: str) -> tuple[str, ...]:
        return ("verify", "--M", str(self.M), "--N", str(self.N), "--p", str(self.p),
                "--box", box, "--check", "all")

    @property
    def box_weights(self) -> int:
        return (self.hi - self.lo + 1) ** (self.M + self.N)

    @property
    def work(self) -> int:
        """Weights covered by one pass: the box, once per check.  Taken from
        the parameters, not from the report's ``total``."""
        return self.box_weights * len(CHECKS)

    def params(self) -> dict:
        return {"command": " ".join(self._argv(f"{self.lo}:{self.hi}")),
                "box_weights": self.box_weights, "work_per_pass": self.work}

    def commands(self) -> tuple[Command, ...]:
        return (Command("verify", self._argv(f"{self.lo}:{self.hi}"), None),)

    def setup_commands(self) -> tuple[Command, ...]:
        return (Command("verify", self._argv("0:0"), None),)

    def make_input(self, seed: int) -> str:
        return ""

    def check(self, text: str, results: dict[str, CommandResult]) -> list[str]:
        res = results["verify"]
        problems = []
        if res.code != 0:
            problems.append(f"verify exited {res.code}: {res.stderr.strip()[:200]}")
        try:
            reports = [json.loads(line) for line in res.stdout.splitlines()]
        except json.JSONDecodeError as exc:
            return problems + [f"verify output is not JSONL: {exc}"]
        names = [r.get("check_name") for r in reports]
        if names != list(CHECKS):
            problems.append(f"verify reported checks {names}, expected {list(CHECKS)}")
        for r in reports:
            if r.get("passed") is not True:
                problems.append(f"check {r.get('check_name')} did not pass: {r.get('failures', [])[:2]}")
        return problems


def _dominant(lam, theta) -> bool:
    """Both chains non-increasing, written here independently of the library."""
    return all(a >= b for a, b in zip(lam, lam[1:])) and all(a >= b for a, b in zip(theta, theta[1:]))


@dataclass(frozen=True)
class StreamWorkload:
    """Four commands streaming one generated JSONL file of weights."""

    name: str
    M: int
    N: int
    p: int
    lines: int
    lo: int
    hi: int
    uses_seed = True

    @property
    def work(self) -> int:
        """Weights processed by one pass: input lines times commands."""
        return self.lines * len(self.commands())

    def params(self) -> dict:
        return {"M": self.M, "N": self.N, "p": self.p, "lines": self.lines,
                "value_range": [self.lo, self.hi], "work_per_pass": self.work,
                "commands": {c.label: " ".join(c.argv) for c in self.commands()}}

    def _rank(self) -> tuple[str, ...]:
        return ("--M", str(self.M), "--N", str(self.N))

    def commands(self) -> tuple[Command, ...]:
        rp = self._rank() + ("--p", str(self.p))
        return (
            Command("transform", ("transform",) + rp, "input"),
            Command("transform_trace", ("transform",) + rp + ("--direction", "inverse", "--trace"), "transform"),
            Command("classify", ("classify",) + rp, "transform"),
            Command("orbit_rep", ("orbit-rep",) + self._rank(), "input"),
        )

    def setup_commands(self) -> tuple[Command, ...]:
        return tuple(Command(c.label, c.argv, None) for c in self.commands())

    def make_input(self, seed: int) -> str:
        """Half the lines sorted to be dominant, half uniform in [lo, hi]."""
        rng = random.Random(seed)
        out = []
        for k in range(self.lines):
            lam = [rng.randint(self.lo, self.hi) for _ in range(self.M)]
            theta = [rng.randint(self.lo, self.hi) for _ in range(self.N)]
            if k % 2 == 0:
                lam.sort(reverse=True)
                theta.sort(reverse=True)
            out.append(json.dumps({"lambda": lam, "theta": theta}))
        return "\n".join(out) + "\n"

    def check(self, text: str, results: dict[str, CommandResult]) -> list[str]:
        problems = [f"{label} exited {res.code}: {res.stderr.strip()[:200]}"
                    for label, res in results.items() if res.code != 0]
        inputs = text.splitlines()
        outs = {label: res.stdout.splitlines() for label, res in results.items()}
        for label, rows in outs.items():
            if len(rows) != len(inputs):
                problems.append(f"{label} wrote {len(rows)} lines for {len(inputs)} input lines")
        if problems:
            return problems
        steps = self.M * (self.M + 1) // 2
        size = f'{{"size": {self.N}, '
        for k, (line, back, cls, rep) in enumerate(
            zip(inputs, outs["transform_trace"], outs["classify"], outs["orbit_rep"]), start=1
        ):
            w = json.loads(line)
            if not _holds(back, back.startswith(line[:-1] + ', "trace": [') and back.count('{"k": ') == steps,
                          lambda o: {"lambda": o["lambda"], "theta": o["theta"]} == w
                          and len(o["trace"]) == steps):
                problems.append(f"line {k}: inverse of forward is {back[:200]}, input was {line}")
            if _dominant(w["lambda"], w["theta"]) and not _holds(
                cls, '"mixed_highest_weight": true' in cls, lambda o: o["mixed_highest_weight"] is True
            ):
                problems.append(f"line {k}: forward image of dominant {line} is not mixed: {cls}")
            if not _holds(rep, rep.startswith(size), lambda o: o["size"] == self.N):
                problems.append(f"line {k}: orbit-rep size is not {self.N}: {rep[:200]}")
            if len(problems) >= 5:
                break
        return problems


def _holds(line: str, fast: bool, test) -> bool:
    """``fast`` is the check made on the CLI's own JSON formatting; a line
    that fails it is parsed and decided by ``test`` on the decoded object, so
    a change of key order or spacing alone never fails the gate."""
    if fast:
        return True
    try:
        return bool(test(json.loads(line)))
    except (ValueError, TypeError, KeyError):
        return False


WORKLOADS = {
    w.name: w
    for w in (
        # One excess pair and half the box dominant: box walking, predicates
        # and per-weight overhead dominate; near-bypass for chain enumeration.
        VerifyWorkload("verify-m1", M=1, N=2, p=2, lo=-20, hi=20),
        # Six transform steps per weight, 16 step orders, 1 box weight in 32
        # dominant: the transform core is the heaviest layer.
        VerifyWorkload("verify-m3", M=3, N=4, p=3, lo=-2, hi=2),
        # JSON I/O, validation, the transform with and without a trace, and
        # the predicates; never touches oracle or kernels.
        StreamWorkload("stream-m3", M=3, N=5, p=3, lines=20_000, lo=-20, hi=20),
    )
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(workload, text: str, runner, commands=None) -> dict[str, CommandResult]:
    """Run the workload's commands in order through ``runner(command,
    stdin_text)`` and return their results by label."""
    results: dict[str, CommandResult] = {}
    for cmd in commands if commands is not None else workload.commands():
        if cmd.stdin is None:
            stdin = ""
        elif cmd.stdin == "input":
            stdin = text
        else:
            stdin = results[cmd.stdin].stdout
        results[cmd.label] = runner(cmd, stdin)
    return results
