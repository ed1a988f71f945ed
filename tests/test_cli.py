import io
import json
import subprocess
import sys

import pytest

from glmn_weights import cli
from glmn_weights.classify import (
    GroupConvention,
    is_mixed_highest_weight,
    is_relevant_orbit,
    is_standard_dominant,
)
from glmn_weights.core import Modulus, SuperRank, box_weights


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
    assert invoke(verify) == invoke([*verify, "--check", "all", "--failure-cap", "20"])


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


def test_verify_p0_image_allowed_theorem_rejected():
    code, _, _ = invoke(
        ["verify", "--M", "1", "--N", "2", "--p", "0", "--box", "-1:1", "--check", "image"]
    )
    assert code == 0
    code, _, err = invoke(
        ["verify", "--M", "1", "--N", "2", "--p", "0", "--box", "-1:1", "--check", "all"]
    )
    assert code == 2
    assert "prime" in err


def test_validation_errors_exit_2():
    for args in (
        ["verify", "--M", "2", "--N", "3", "--p", "4", "--box", "-1:1"],
        ["verify", "--M", "3", "--N", "3", "--p", "2", "--box", "-1:1"],
        ["verify", "--M", "2", "--N", "3", "--p", "2", "--box", "2:-2"],
        ["verify", "--M", "2", "--N", "3", "--p", "2", "--box", "nope"],
        ["transform", "--M", "1", "--N", "2", "--p", "2", "--order", "v9"],
    ):
        code, _, err = invoke(args)
        assert code == 2, args
        assert err


def test_validation_errors_are_reported_together():
    code, _, err = invoke(
        ["verify", "--M", "3", "--N", "3", "--p", "4", "--box", "zz", "--check", "image"]
    )
    assert code == 2
    assert "M < N" in err and "prime" in err and "LO:HI" in err


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "glmn_weights", "verify", "--M", "1", "--N", "2",
         "--p", "3", "--box", "-1:1", "--check", "image"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
