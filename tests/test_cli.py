import csv
import io
import json
import os
import random
import subprocess
import sys

import pytest

from glmn_weights import cli
from glmn_weights.classify import (
    GroupConvention,
    is_mixed_highest_weight,
    is_relevant_orbit,
    is_standard_dominant,
    orbit_representative,
)
from glmn_weights.core import Modulus, SuperRank, Weight, box_weights, dominant_weights
from glmn_weights.serganova import (
    all_linear_extensions,
    forward,
    inverse,
    order_v1,
    order_v2,
    walk,
)


def invoke(args, stdin_text=""):
    fin = io.StringIO(stdin_text)
    fout = io.StringIO()
    ferr = io.StringIO()
    code = cli.main(args, stdin=fin, stdout=fout, stderr=ferr)
    return code, fout.getvalue(), ferr.getvalue()


def test_transform_forward_example():
    code, out, err = invoke(
        ["transform", "--M", "1", "--N", "2", "--p", "2", "--direction", "forward", "--order", "v1"],
        '{"lambda":[1],"theta":[0,0]}\n',
    )
    assert code == 0, err
    assert json.loads(out) == {"lambda": [0], "theta": [1, 0]}


def test_transform_trace_flag():
    code, out, _ = invoke(
        ["transform", "--M", "1", "--N", "2", "--p", "2", "--trace"],
        '{"lambda":[1],"theta":[0,0]}\n',
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["trace"] == [
        {
            "k": 1,
            "pair": [1, 1],
            "action": "move",
            "sum_before": 1,
            "state_after": {"lambda": [0], "theta": [1, 0]},
        }
    ]


# transform --trace output at (2|3), p = 3, column order, in both directions,
# pinned byte for byte
TRACE_INPUT = '{"lambda":[2,0],"theta":[1,1,-1]}\n{"lambda":[1,1],"theta":[0,0,0]}\n'
TRACE_FORWARD = (
    '{"lambda": [1, -1], "theta": [3, 1, -1], "trace": [{"k": 1, "pair": [2, 1], '
    '"action": "move", "sum_before": 1, "state_after": {"lambda": [2, -1], '
    '"theta": [2, 1, -1]}}, {"k": 2, "pair": [1, 1], "action": "move", '
    '"sum_before": 4, "state_after": {"lambda": [1, -1], "theta": [3, 1, -1]}}, '
    '{"k": 3, "pair": [2, 2], "action": "noop", "sum_before": 0, '
    '"state_after": {"lambda": [1, -1], "theta": [3, 1, -1]}}]}\n'
    '{"lambda": [0, 0], "theta": [2, 0, 0], "trace": [{"k": 1, "pair": [2, 1], '
    '"action": "move", "sum_before": 1, "state_after": {"lambda": [1, 0], "theta": [1, '
    '0, 0]}}, {"k": 2, "pair": [1, 1], "action": "move", "sum_before": 2, '
    '"state_after": {"lambda": [0, 0], "theta": [2, 0, 0]}}, {"k": 3, "pair": [2, 2], '
    '"action": "noop", "sum_before": 0, "state_after": {"lambda": [0, 0], "theta": [2, '
    '0, 0]}}]}\n'
)
TRACE_INVERSE = (
    '{"lambda": [2, 2], "theta": [0, 0, -1], "trace": [{"k": 1, "pair": [2, 2], '
    '"action": "move", "sum_before": 1, "state_after": {"lambda": [2, 1], "theta": [1, '
    '0, -1]}}, {"k": 2, "pair": [1, 1], "action": "noop", "sum_before": 3, '
    '"state_after": {"lambda": [2, 1], "theta": [1, 0, -1]}}, {"k": 3, "pair": [2, 1], '
    '"action": "move", "sum_before": 2, "state_after": {"lambda": [2, 2], "theta": [0, '
    '0, -1]}}]}\n'
    '{"lambda": [2, 3], "theta": [-2, -1, 0], "trace": [{"k": 1, "pair": [2, 2], '
    '"action": "move", "sum_before": 1, "state_after": {"lambda": [1, 2], "theta": [0, '
    '-1, 0]}}, {"k": 2, "pair": [1, 1], "action": "move", "sum_before": 1, '
    '"state_after": {"lambda": [2, 2], "theta": [-1, -1, 0]}}, {"k": 3, "pair": [2, '
    '1], "action": "move", "sum_before": 1, "state_after": {"lambda": [2, 3], '
    '"theta": [-2, -1, 0]}}]}\n'
)


def test_transform_trace_output_is_unchanged():
    base = ["transform", "--M", "2", "--N", "3", "--p", "3", "--trace"]
    for direction, want in (("forward", TRACE_FORWARD), ("inverse", TRACE_INVERSE)):
        assert invoke([*base, "--direction", direction], TRACE_INPUT) == (0, want, "")
    # at M = 0 there is no step: the result is the weight itself
    base = ["transform", "--M", "0", "--N", "1", "--p", "3", "--trace"]
    for direction in ("forward", "inverse"):
        assert invoke([*base, "--direction", direction], '{"lambda":[],"theta":[4]}\n') == (
            0, '{"lambda": [], "theta": [4], "trace": []}\n', ""
        )


def _rendered(fmt, objs, columns=None, row=None):
    """The stream output as json and csv encode it: the rendering the
    commands' own text must reproduce byte for byte."""
    if fmt == "json":
        return json.dumps(objs) + "\n"
    if fmt == "jsonl":
        return "".join(json.dumps(obj) + "\n" for obj in objs)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if objs:
        writer.writerow(columns)
    writer.writerows(row(obj) for obj in objs)
    return out.getvalue()


def _trace_object(w, p, order, rank, d):
    lam, theta, trace = w.lam, w.theta, []
    for k, (i, j), moved, s, lam, theta in walk(w, p, order, rank, d):
        trace.append({"k": k, "pair": [i, j], "action": "move" if moved else "noop",
                      "sum_before": s, "state_after": {"lambda": list(lam), "theta": list(theta)}})
    return {"lambda": list(lam), "theta": list(theta), "trace": trace}


def _stream_weights(M, N, rng):
    """Negative and multi-digit entries, half of them dominant."""
    weights = []
    for k in range(24):
        lam = [rng.randint(-150, 150) for _ in range(M)]
        theta = [rng.randint(-150, 150) for _ in range(N)]
        if k % 2:
            lam.sort(reverse=True)
            theta.sort(reverse=True)
        weights.append(Weight(tuple(lam), tuple(theta)))
    return weights


def test_stream_text_matches_the_json_encoding(tmp_path):
    rng = random.Random(11)
    for M in range(4):
        N = M + 1 + M % 2
        rank, weights = SuperRank(M, N), _stream_weights(M, N, rng)
        stdin = "".join(json.dumps(w.to_json_dict()) + "\n" for w in weights)
        base = ["--M", str(M), "--N", str(N)]
        columns = [f"lambda_{i}" for i in range(1, M + 1)] + [f"theta_{j}" for j in range(1, N + 1)]
        flags = ["standard_dominant", "mixed_highest_weight", "relevant"]
        for fmt in ("jsonl", "json"):
            objs = [orbit_representative(w, rank).to_json_dict() for w in weights]
            assert invoke(["orbit-rep", *base, "--format", fmt], stdin) == (
                0, _rendered(fmt, objs), ""), (M, fmt)
        for p in (0, 2, 3):
            mod, rp = Modulus(p), [*base, "--p", str(p)]
            for convention in GroupConvention:
                objs = [{"weight": w.to_json_dict(),
                         "standard_dominant": is_standard_dominant(w, rank),
                         "mixed_highest_weight": is_mixed_highest_weight(w, rank, mod),
                         "relevant": is_relevant_orbit(w, rank, mod, convention)}
                        for w in weights]
                row = lambda obj: (obj["weight"]["lambda"] + obj["weight"]["theta"]
                                   + [str(obj[key]).lower() for key in flags])
                for fmt in ("jsonl", "json", "csv"):
                    argv = ["classify", *rp, "--convention", convention.value, "--format", fmt]
                    assert invoke(argv, stdin) == (
                        0, _rendered(fmt, objs, columns + flags, row), ""), (M, p, convention, fmt)
            # a file holds a middle linear extension: at M = 3, neither v1 nor v2
            exts = all_linear_extensions(M)
            middle = exts[len(exts) // 2]
            assert (middle in (order_v1(M), order_v2(M))) == (M < 3)
            path = tmp_path / f"order-{M}.json"
            path.write_text(json.dumps([list(pair) for pair in middle.steps]))
            for spec, order in (("v1", order_v1(M)), ("v2", order_v2(M)), (f"file:{path}", middle)):
                for direction, fn, d in (("forward", forward, 1), ("inverse", inverse, -1)):
                    plain = [fn(w, mod, order, rank).to_json_dict() for w in weights]
                    traced = [_trace_object(w, mod, order, rank, d) for w in weights]
                    argv = ["transform", *rp, "--order", spec, "--direction", direction]
                    for fmt in ("jsonl", "json"):
                        for trace, objs in (([], plain), (["--trace"], traced)):
                            assert invoke([*argv, *trace, "--format", fmt], stdin) == (
                                0, _rendered(fmt, objs), ""), (M, p, spec, direction, fmt, trace)
        for fmt in ("jsonl", "json", "csv"):
            for name, walk in (("all", box_weights), ("dominant", dominant_weights)):
                objs = [w.to_json_dict() for w in walk(M, N, -11, -9)]
                argv = ["enumerate", *base, "--box", "-11:-9", "--filter", name, "--format", fmt]
                assert invoke(argv) == (0, _rendered(
                    fmt, objs, columns, lambda obj: obj["lambda"] + obj["theta"]), ""), (M, name)


@pytest.mark.parametrize("argv, line", [
    # theta_1 = 10^4300 after the forward step, one digit past the limit
    (["transform"], '{"lambda": [0], "theta": [%s, 0]}'),
    (["transform", "--trace"], '{"lambda": [0], "theta": [%s, 0]}'),
    # lambda_1 = 10^4300 after the inverse step
    (["transform", "--direction", "inverse"], '{"lambda": [%s], "theta": [0, 0]}'),
    (["transform", "--direction", "inverse", "--trace"], '{"lambda": [%s], "theta": [0, 0]}'),
    # the diagonal entry -(lambda_1 + theta_1) has 4301 digits
    (["orbit-rep"], '{"lambda": [%s], "theta": [%s, 0]}'),
], ids=("forward", "forward-trace", "inverse", "inverse-trace", "orbit-rep"))
def test_output_integer_too_long_to_write_is_a_bad_line(argv, line):
    nines = "9" * 4300
    bad = line % ((nines,) * line.count("%s"))
    good = '{"lambda": [1], "theta": [0, 0]}'
    argv = [*argv, "--M", "1", "--N", "2"] + ["--p", "2"] * (argv[0] == "transform")
    code, out, err = invoke(argv, f"{good}\n{bad}\n{good}\n")
    assert code == 1
    assert err.startswith("line 2: output not written: Exceeds the limit")
    assert err.count("\n") == 1
    assert out.splitlines() == [invoke(argv, good)[1].strip()] * 2


def test_transform_roundtrip_reproduces_input():
    weights = '{"lambda":[2,0],"theta":[1,1,-1]}\n{"lambda":[0,0],"theta":[0,0,0]}\n'
    base = ["--M", "2", "--N", "3", "--p", "3"]
    code, fwd, _ = invoke(["transform", *base, "--direction", "forward"], weights)
    assert code == 0
    code, back, _ = invoke(["transform", *base, "--direction", "inverse"], fwd)
    assert code == 0
    normalize = lambda text: [json.dumps(json.loads(line)) for line in text.splitlines() if line]
    assert normalize(back) == normalize(weights)


def test_transform_streams_multiple_lines():
    code, out, _ = invoke(
        ["transform", "--M", "0", "--N", "1", "--p", "2"],
        '{"lambda":[],"theta":[4]}\n{"lambda":[],"theta":[-1]}\n',
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {"lambda": [], "theta": [-1]}


def test_transform_order_from_file(tmp_path):
    path = tmp_path / "order.json"
    path.write_text(json.dumps([[2, 1], [2, 2], [1, 1]]))
    args = ["transform", "--M", "2", "--N", "3", "--p", "2", "--order", f"file:{path}"]
    code, out, err = invoke(args, '{"lambda":[1,1],"theta":[0,0,0]}\n')
    assert code == 0, err
    assert json.loads(out) == {"lambda": [1, 0], "theta": [1, 0, 0]}


def test_transform_rejects_invalid_order_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 1], [2, 1], [2, 2]]))  # not a linear extension
    code, _, err = invoke(
        ["transform", "--M", "2", "--N", "3", "--p", "2", "--order", f"file:{path}"]
    )
    assert code == 2
    assert "linear extension" in err
    # a pair twice: the message prints plain pairs, not PairIndex reprs
    path.write_text(json.dumps([[1, 1], [1, 1]]))
    code, _, err = invoke(
        ["transform", "--M", "1", "--N", "2", "--p", "2", "--order", f"file:{path}"]
    )
    assert (code, err.strip()) == (2, "error: steps must visit each excess pair for M=1 "
                                      "exactly once, got ((1, 1), (1, 1))")
    # entries that are not pairs, or pairs that do not hold integers
    for data in ([1, [1, 1]], [[1, 1, 1]], [[1.9, 1]], [[True, 1]], [["1", 1]]):
        path.write_text(json.dumps(data))
        code, _, err = invoke(
            ["transform", "--M", "1", "--N", "2", "--p", "2", "--order", f"file:{path}"],
            '{"lambda":[1],"theta":[0,0]}\n',
        )
        assert code == 2, data
        assert err.startswith("error: steps must be (i, j) pairs"), (data, err)


def test_classify_example():
    code, out, _ = invoke(
        ["classify", "--M", "2", "--N", "3", "--p", "2", "--convention", "uplus"],
        '{"lambda":[1,0],"theta":[1,0,0]}\n',
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "weight": {"lambda": [1, 0], "theta": [1, 0, 0]},
        "standard_dominant": True,
        "mixed_highest_weight": True,
        "relevant": True,
    }


def test_classify_csv_format():
    code, out, _ = invoke(
        ["classify", "--M", "2", "--N", "3", "--p", "2", "--format", "csv"],
        '{"lambda":[1,0],"theta":[1,0,0]}\n',
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "lambda_1,lambda_2,theta_1,theta_2,theta_3,"
        "standard_dominant,mixed_highest_weight,relevant"
    )
    assert lines[1] == "1,0,1,0,0,true,true,true"


def test_orbit_rep_output():
    code, out, _ = invoke(
        ["orbit-rep", "--M", "1", "--N", "2"], '{"lambda":[1],"theta":[2,0]}\n'
    )
    assert code == 0
    assert json.loads(out) == {"size": 2, "entries": [[1, 1, -3], [2, 1, -2], [2, 2, 0]]}


def test_roots_output():
    code, out, _ = invoke(["roots", "--M", "2", "--N", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["omega"] == [1, 2, 3, 4, 5]
    assert len(obj["positive_roots"]) == 10
    assert obj["excess_pairs"] == [[1, 1], [2, 1], [2, 2]]
    assert obj["hasse"] == [[[2, 1], [1, 1]], [[2, 1], [2, 2]]]


def test_roots_mixed_omega():
    code, out, _ = invoke(["roots", "--M", "2", "--N", "3", "--omega", "mixed"])
    assert code == 0
    obj = json.loads(out)
    assert obj["omega"] == [3, 1, 4, 2, 5]
    assert [1, 3] not in obj["positive_roots"]


def test_enumerate_counts_and_filter():
    code, out, _ = invoke(["enumerate", "--M", "1", "--N", "2", "--box", "0:1"])
    assert code == 0
    assert len(out.splitlines()) == 8
    code, out, _ = invoke(
        ["enumerate", "--M", "1", "--N", "2", "--box", "0:1", "--filter", "dominant"]
    )
    assert len(out.splitlines()) == 6


def expected_enumerate_output(weights, M, N, fmt):
    """What enumerate prints for these weights, written out here."""
    objs = [{"lambda": list(w.lam), "theta": list(w.theta)} for w in weights]
    if fmt == "json":
        return json.dumps(objs) + "\n"
    if fmt == "jsonl":
        return "".join(json.dumps(obj) + "\n" for obj in objs)
    header = [f"lambda_{i}" for i in range(1, M + 1)] + [f"theta_{j}" for j in range(1, N + 1)]
    rows = [header] * bool(weights) + [w.lam + w.theta for w in weights]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


@pytest.mark.parametrize("fmt", ("jsonl", "json", "csv"))
def test_enumerate_chain_filters_print_the_filtered_box(fmt):
    # dominant, mixed and relevant under uplus walk the dominant chains; every
    # filter must print byte for byte the box filtered by its predicate
    for M, N, p, lo, hi in ((1, 2, 2, -1, 1), (2, 3, 3, -2, 1), (3, 4, 2, -1, 1)):
        rank, mod = SuperRank(M, N), Modulus(p)
        tests = (
            ("dominant", "uplus", lambda w: is_standard_dominant(w, rank)),
            ("mixed", "uplus", lambda w: is_mixed_highest_weight(w, rank, mod)),
            ("relevant", "uplus",
             lambda w: is_relevant_orbit(w, rank, mod, GroupConvention.UPLUS)),
            # non-decreasing chains: this one still filters the whole box
            ("relevant", "uminus",
             lambda w: is_relevant_orbit(w, rank, mod, GroupConvention.UMINUS)),
        )
        for name, convention, test in tests:
            code, out, _ = invoke(
                ["enumerate", "--M", str(M), "--N", str(N), "--box", f"{lo}:{hi}", "--p", str(p),
                 "--format", fmt, "--filter", name, "--convention", convention]
            )
            assert code == 0
            weights = [w for w in box_weights(M, N, lo, hi) if test(w)]
            assert out == expected_enumerate_output(weights, M, N, fmt), (M, N, name, convention)


def test_enumerate_csv_header():
    code, out, _ = invoke(
        ["enumerate", "--M", "1", "--N", "2", "--box", "0:0", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda_1,theta_1,theta_2"
    assert lines[1] == "0,0,0"


def test_enumerate_relevant_filter():
    code, out, _ = invoke(
        ["enumerate", "--M", "1", "--N", "2", "--box", "0:1", "--filter", "relevant",
         "--p", "2", "--convention", "uminus"]
    )
    assert code == 0
    got = [json.loads(line) for line in out.splitlines()]
    # non-decreasing chains; theta_1 = theta_2 forces lambda_1 + theta_1 even
    assert {"lambda": [0], "theta": [0, 0]} in got
    assert {"lambda": [1], "theta": [0, 0]} not in got
    assert all(obj["theta"][0] <= obj["theta"][1] for obj in got)


def test_enumerate_limit_counts_the_dominant_walk():
    # (1|2), box 0:1: 6 dominant weights out of 8
    base = ["enumerate", "--M", "1", "--N", "2", "--box", "0:1", "--filter", "dominant"]
    code, out, err = invoke([*base, "--limit", "6"])
    assert (code, len(out.splitlines()), err) == (0, 6, "")
    code, out, err = invoke([*base, "--limit", "5"])
    assert (code, out) == (3, "") and "visits 6 weights" in err
    code, _, err = invoke([*base[:-2], "--limit", "6"])
    assert code == 3 and "visits 8 weights" in err


def test_roots_custom_omega():
    code, out, _ = invoke(["roots", "--M", "1", "--N", "2", "--omega", "2,1,3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["positive_roots"] == [[1, 3], [2, 1], [2, 3]]
    code, _, err = invoke(["roots", "--M", "1", "--N", "2", "--omega", "2,1"])
    assert code == 2


def test_enumerate_json_array_format():
    code, out, _ = invoke(
        ["enumerate", "--M", "0", "--N", "1", "--box", "-1:1", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == [
        {"lambda": [], "theta": [-1]},
        {"lambda": [], "theta": [0]},
        {"lambda": [], "theta": [1]},
    ]


def test_verify_all_checks_pass():
    code, out, err = invoke(
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-2:2", "--check", "all"]
    )
    assert code == 0, err
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["check_name"] for r in reports] == ["image", "order", "theorem", "trace"]
    assert all(r["passed"] for r in reports)
    assert all(r["failures"] == [] for r in reports)
    assert reports[0]["params"] == {"M": 1, "N": 2, "p": 2, "box": [-2, 2]}


def test_defaulted_flags_match_their_defaults():
    weight = '{"lambda":[1,0],"theta":[1,0,0]}\n'
    base = ["--M", "2", "--N", "3", "--p", "3"]
    trace = invoke(["transform", *base, "--trace"], weight)
    assert trace == invoke(["transform", *base, "--trace", "--order", "v1"], weight)
    assert trace != invoke(["transform", *base, "--trace", "--order", "v2"], weight)
    assert invoke(["classify", *base], weight) == invoke(
        ["classify", *base, "--convention", "uplus"], weight
    )
    box = ["enumerate", "--M", "1", "--N", "2", "--box", "-1:1"]
    assert invoke(box) == invoke([*box, "--p", "0", "--filter", "all"])
    verify = ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1"]
    assert invoke(verify) == invoke(
        [*verify, "--check", "all", "--failure-cap", "20", "--cap", "10000", "--limit", "10000000"]
    )


def test_verify_rank_beyond_the_compiled_buffers():
    # 65 coordinates: the compiled scans refuse them and the pure backend runs
    for check in ("image", "theorem", "trace"):
        code, out, err = invoke(
            ["verify", "--M", "32", "--N", "33", "--p", "2", "--box", "0:0", "--check", check]
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["passed"] is True and report["backend"] == "pure"


def test_verify_negative_box_with_space():
    code, _, err = invoke(
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--check", "image"]
    )
    assert code == 0, err


def test_verify_all_checks_pass_in_the_exact_regime():
    for M, N, box in (("1", "2", "-1:1"), ("3", "4", "-2:2")):
        code, out, err = invoke(
            ["verify", "--M", M, "--N", N, "--p", "0", "--box", box, "--check", "all"]
        )
        assert (code, err) == (0, "")
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["check_name"] for r in reports] == ["image", "order", "theorem", "trace"]
        assert all(r["passed"] and r["params"]["p"] == 0 for r in reports)


def test_validation_errors_exit_2():
    for args in (
        ["verify", "--M", "2", "--N", "3", "--p", "4", "--box", "-1:1"],
        ["verify", "--M", "3", "--N", "3", "--p", "2", "--box", "-1:1"],
        ["verify", "--M", "2", "--N", "3", "--p", "2", "--box", "2:-2"],
        ["verify", "--M", "2", "--N", "3", "--p", "2", "--box", "nope"],
        ["transform", "--M", "1", "--N", "2", "--p", "2", "--order", "v9"],
        # refused before any check runs, whichever checks would read the cap
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--cap", "-5"],
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--cap", "0",
         "--check", "image"],
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--failure-cap", "0"],
        # a limit below 1 is invalid, not a capacity error (exit 3)
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--limit", "-1"],
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--limit", "0",
         "--check", "order"],
        ["enumerate", "--M", "1", "--N", "2", "--box", "-1:1", "--limit", "-5"],
        ["enumerate", "--M", "1", "--N", "2", "--box", "-1:1", "--limit", "0"],
    ):
        code, out, err = invoke(args)
        assert code == 2, args
        assert err
        assert out == "", args


def test_validation_errors_are_reported_together():
    code, _, err = invoke(
        ["verify", "--M", "3", "--N", "3", "--p", "4", "--box", "zz", "--check", "image"]
    )
    assert code == 2
    assert "M < N" in err and "prime" in err and "LO:HI" in err
    code, out, err = invoke(["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1",
                             "--cap", "0", "--failure-cap", "0", "--limit", "0"])
    assert code == 2 and out == ""
    assert "cap must be positive" in err and "failure cap must be at least 1" in err
    assert "limit must be at least 1" in err
    code, out, err = invoke(["enumerate", "--M", "3", "--N", "3", "--box", "zz", "--limit", "-5"])
    assert code == 2 and out == ""
    assert "M < N" in err and "LO:HI" in err and "limit must be at least 1" in err


def test_usage_errors_exit_2():
    code, _, _ = invoke(["no-such-command"])
    assert code == 2
    code, _, _ = invoke(["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--bogus"])
    assert code == 2
    code, _, _ = invoke([])
    assert code == 2


def test_capacity_errors_exit_3():
    code, _, err = invoke(
        ["verify", "--M", "2", "--N", "3", "--p", "2", "--box", "-2:2",
         "--check", "image", "--limit", "10"]
    )
    assert code == 3
    assert "limit" in err
    code, _, err = invoke(
        ["verify", "--M", "3", "--N", "4", "--p", "2", "--box", "-1:1",
         "--check", "order", "--cap", "2"]
    )
    assert code == 3


def test_verify_order_cap_bounds_the_order_ideals():
    # M = 5: 132 order ideals per weight (and 292,864 linear extensions)
    verify = ["verify", "--M", "5", "--N", "6", "--p", "2", "--box", "-1:1", "--check", "order"]
    code, out, _ = invoke(verify)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert invoke([*verify, "--cap", "132"])[0] == 0
    code, _, err = invoke([*verify, "--cap", "131"])
    assert code == 3 and "132 order ideals" in err


def test_malformed_input_lines_reported_with_numbers():
    # line 4 holds an integer beyond Python's default int-string digit limit
    huge = "9" * 5000
    stdin = (
        '{"lambda":[1],"theta":[0,0]}\nnot json\n{"lambda":[1,2],"theta":[0,0]}\n'
        f'{{"lambda":[{huge}],"theta":[0,0]}}\n'
    )
    for cmd in (["transform", "--p", "2"], ["classify", "--p", "2"], ["orbit-rep"]):
        code, out, err = invoke([*cmd, "--M", "1", "--N", "2"], stdin)
        assert code == 1
        assert len(out.splitlines()) == 1  # good line still processed
        assert "line 2" in err and "line 3" in err and "line 4" in err


def test_empty_input_empty_output_exit_0():
    for cmd in ("transform", "classify"):
        code, out, _ = invoke([cmd, "--M", "1", "--N", "2", "--p", "2"], "")
        assert code == 0
        assert out == ""


def test_help_exits_0():
    code, _, _ = invoke(["--help"])
    assert code == 0


def test_verify_exits_1_when_a_check_fails(monkeypatch):
    from glmn_weights import oracle
    from glmn_weights.oracle import VerificationReport

    failing = VerificationReport(
        "image",
        1,
        ({"kind": "forward_not_in_mixed", "weight": {"lambda": [0], "theta": [0, 0]}},),
        "pure",
    )
    monkeypatch.setattr(oracle, "run_check", lambda *a, **k: failing)
    code, out, _ = invoke(
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--check", "image"]
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_exits_1_when_the_theorem_scan_finds_the_library_inconsistent(monkeypatch):
    # forward lowers lambda_1 by two more than its steps, and inverse undoes
    # that: dominant preimages lie beyond the theorem scan's widened walk,
    # and the scan raises InternalConsistencyError, which is reported
    from glmn_weights import serganova

    real_steps, whole = serganova._steps, serganova.order_v1(1).indices

    def shifted_steps(lam, theta, indices, p, d=1):
        # only the runs through the whole order, forward or reversed, shift
        indices = tuple(indices)
        shift = indices == (whole if d == 1 else whole[::-1])
        if shift and d == -1:
            lam[0] += 2
        real_steps(lam, theta, indices, p, d)
        if shift and d == 1:
            lam[0] -= 2

    monkeypatch.setenv("GLMN_WEIGHTS_PURE", "1")
    monkeypatch.setattr(serganova, "_steps", shifted_steps)
    code, out, err = invoke(
        ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-1:1", "--check", "theorem"]
    )
    assert (code, out) == (cli.EXIT_FAILURES, "")
    assert err.startswith("error: theorem scan:") and "outside the walk" in err
    assert "Traceback" not in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "glmn_weights", "verify", "--M", "1", "--N", "2",
         "--p", "3", "--box", "-1:1", "--check", "image"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_cli_process_imports_no_dataclasses_or_inspect():
    # the value classes are plain classes: whatever command a CLI process
    # runs, it loads neither dataclasses nor inspect, which dataclasses imports
    script = """
import io, json, sys
from glmn_weights import cli
line = json.dumps({"lambda": [1, 0], "theta": [2, 1, 0]}) + "\\n"
rank = ["--M", "2", "--N", "3"]
for argv in (["transform", *rank, "--p", "3"],
             ["transform", *rank, "--p", "3", "--direction", "inverse", "--trace", "--order", "v2"],
             ["classify", *rank, "--p", "3", "--format", "csv"],
             ["orbit-rep", *rank],
             ["roots", *rank, "--omega", "mixed"],
             ["enumerate", *rank, "--box", "-1:1", "--filter", "relevant", "--p", "2"],
             ["verify", *rank, "--p", "3", "--box", "-1:1", "--check", "all"]):
    out = io.StringIO()
    assert cli.main(argv, stdin=io.StringIO(line), stdout=out, stderr=sys.stderr) == 0, argv
    assert out.getvalue(), argv
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _closed_pipe_run(argv, stdin, keep):
    """Run the CLI with stdout piped to a reader that takes `keep` bytes and
    closes the pipe, as `| head -c keep` does.  Standard output is block
    buffered, as it is without PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "glmn_weights", *argv], env=env,
                          stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(keep) if keep else b""
        proc.stdout.close()
        err = proc.stderr.read()
        return head, proc.wait(timeout=60), err


def test_closed_pipe_stops_quietly(tmp_path):
    # 20,000 output lines overflow the pipe, so a write in the stream fails
    lines = (json.dumps({"lambda": [k % 7, 1, -k % 5], "theta": [k % 3, 0, 2, -1, k % 11]})
             for k in range(20_000))
    path = tmp_path / "weights.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with open(path, encoding="utf-8") as fin:
        got = _closed_pipe_run(["transform", "--M", "3", "--N", "5", "--p", "3"], fin, 10)
    assert got == (b'{"lambda":', cli.EXIT_FAILURES, b"")
    # the reader is gone before anything is written: the buffered reports
    # fail on the last flush, and nothing is left to fail again at exit
    argv = ["verify", "--M", "1", "--N", "2", "--p", "2", "--box", "-2:2"]
    got = _closed_pipe_run(argv, subprocess.DEVNULL, 0)
    assert got == (b"", cli.EXIT_FAILURES, b"")
