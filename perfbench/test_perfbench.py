"""Tests of the benchmark's correctness gate and of its tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from itertools import product

import pytest

from glmn_weights import classify, cli, core, serganova
from run import inprocess_runner
from tracing import Tracer
from workloads import CHECKS, StreamWorkload, VerifyWorkload, _dominant, run_pass

# Small versions of the benchmark's workloads, so the tests run in seconds.
SMALL = (
    VerifyWorkload("verify-small", M=2, N=3, p=2, lo=-1, hi=1),
    StreamWorkload("stream-small", M=3, N=5, p=3, lines=200, lo=-20, hi=20),
)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_gate_passes_the_program(workload):
    text = workload.make_input(3)
    assert workload.check(text, run_pass(workload, text, inprocess_runner)) == []


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_gate_catches_inverted_congruence(workload, monkeypatch):
    real = core.congruent_zero
    monkeypatch.setattr(serganova, "congruent_zero", lambda a, p: not real(a, p))
    text = workload.make_input(3)
    assert workload.check(text, run_pass(workload, text, inprocess_runner)) != []


def test_stream_input_depends_only_on_seed():
    w = SMALL[1]
    assert w.make_input(5) == w.make_input(5)
    assert w.make_input(5) != w.make_input(6)


def test_tracer_counts_layers_and_restores_bindings():
    w = SMALL[0]
    bindings = (cli.forward, cli.is_relevant_orbit, serganova.congruent_zero,
                classify.congruent_zero, core.Weight.__post_init__)
    tracer = Tracer()
    with tracer:
        results = run_pass(w, "", inprocess_runner)
    assert w.check("", results) == []
    assert (cli.forward, cli.is_relevant_orbit, serganova.congruent_zero,
            classify.congruent_zero, core.Weight.__post_init__) == bindings

    box = list(product(range(w.lo, w.hi + 1), repeat=w.M + w.N))
    dominant = sum(_dominant(c[: w.M], c[w.M:]) for c in box)
    for check in CHECKS:
        assert tracer.scans[f"kernels.scan_{check}.pure"][0] == len(box)
    assert tracer.scans["kernels.scan_theorem.pure"][1] == len(box)
    assert tracer.scans["kernels.scan_order.pure"][1] == dominant
    assert tracer.scans["kernels.scan_trace.pure"][1] == dominant
    assert tracer.calls("cli.main") == 1
    assert tracer.calls("core.congruent_zero") > 0
    assert tracer.self_s("cli.main") <= tracer.total_s("cli.main")

    root = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["cli.main"]
    checks = [s for s in tracer.spans if s["parent"] == root[0]["id"]]
    assert len(checks) == len(CHECKS)
    for span in checks:
        assert [s["name"] for s in tracer.spans if s["parent"] == span["id"]][0].startswith(
            "kernels.scan_")
