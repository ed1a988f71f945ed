"""Command-line interface: JSON/JSONL/CSV plumbing around the library.

Subcommands: transform, classify, orbit-rep, roots, enumerate, verify.
Weights travel as {"lambda": [...], "theta": [...]} JSON objects, one per
line.  Exit codes: 0 success, 1 verification failure, bad input lines,
output cut short because the reader closed the pipe (`... | head`) or an
internal consistency error, 2 usage/validation error, 3 capacity/limit error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from . import oracle, serganova
from .classify import (
    GroupConvention,
    is_mixed_highest_weight,
    is_relevant_orbit,
    is_standard_dominant,
    orbit_representative,
)
from .core import (CapacityError, InternalConsistencyError, Modulus, SuperRank, ValidationError,
                   Weight)
from .oracle import Box
from .roots import BorelWord, excess_pairs, hasse_edges, mixed_word, positive_roots, standard_word
from .serganova import StepOrder, forward, inverse, order_v1, order_v2, walk

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glmn-weights",
        description="GL(M|N) weight transforms, classification predicates, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rank(sp):
        sp.add_argument("--M", type=int, required=True, help="number of even basis vectors")
        sp.add_argument("--N", type=int, required=True, help="number of odd basis vectors")

    def add_p(sp):
        sp.add_argument("--p", type=int, required=True, help="modulus: 0 (exact) or a prime")

    sp = sub.add_parser("transform", help="run the transform on weights from stdin")
    add_rank(sp)
    add_p(sp)
    sp.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    sp.add_argument("--order", default="v1", help="v1, v2, or file:PATH with a JSON pair list")
    sp.add_argument("--trace", action="store_true", help="include the step trace in the output")
    sp.add_argument("--format", dest="fmt", choices=("jsonl", "json"), default="jsonl")

    sp = sub.add_parser("classify", help="classify weights from stdin")
    add_rank(sp)
    add_p(sp)
    sp.add_argument("--convention", choices=("uminus", "uplus"), default="uplus")
    sp.add_argument("--format", dest="fmt", choices=("jsonl", "json", "csv"), default="jsonl")

    sp = sub.add_parser("orbit-rep", help="emit orbit representative matrices for stdin weights")
    add_rank(sp)
    sp.add_argument("--format", dest="fmt", choices=("jsonl", "json"), default="jsonl")

    sp = sub.add_parser("roots", help="print positive roots, excess pairs, and their Hasse relation")
    add_rank(sp)
    sp.add_argument(
        "--omega",
        default="standard",
        help="Borel word: standard, mixed, or a comma-separated permutation of 1..M+N",
    )

    sp = sub.add_parser("enumerate", help="stream every weight in a coordinate box")
    add_rank(sp)
    sp.add_argument("--box", required=True, help="coordinate range LO:HI")
    sp.add_argument(
        "--filter",
        dest="filter_name",
        choices=("all", "dominant", "mixed", "relevant"),
        default="all",
    )
    sp.add_argument("--p", type=int, default=0, help="modulus for mixed/relevant filters")
    sp.add_argument("--convention", choices=("uminus", "uplus"), default="uplus")
    sp.add_argument("--limit", type=int, default=oracle.DEFAULT_LIMIT,
                    help="max weights the enumeration visits")
    sp.add_argument("--format", dest="fmt", choices=("jsonl", "json", "csv"), default="jsonl")

    sp = sub.add_parser("verify", help="run exhaustive checks over a coordinate box")
    add_rank(sp)
    add_p(sp)
    sp.add_argument("--box", required=True, help="coordinate range LO:HI")
    sp.add_argument(
        "--check",
        choices=(*oracle.CHECK_NAMES, "all"),
        default="all",
    )
    sp.add_argument("--cap", type=int, default=serganova.DEFAULT_EXTENSION_CAP,
                    help="max order ideals the order check holds per weight, Catalan(M+1)")
    sp.add_argument("--limit", type=int, default=oracle.DEFAULT_LIMIT,
                    help="max weights a check visits")
    sp.add_argument("--failure-cap", type=int, default=oracle.DEFAULT_FAILURE_CAP,
                    help="max counterexamples kept per report")
    return parser


def _merge_box_values(argv: list[str]) -> list[str]:
    # argparse treats "-2:2" as an option; fold "--box -2:2" into "--box=-2:2".
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--box":
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"--box={nxt}")
        else:
            out.append(tok)
    return out


def _parse_box(text: str) -> Box:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"box must be LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"box bounds must be integers, got {text!r}") from None
    return Box(lo, hi)


def _parse_order(spec: str, M: int) -> StepOrder:
    if spec == "v1":
        return order_v1(M)
    if spec == "v2":
        return order_v2(M)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read order file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"order file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise ValidationError(f"order file {path!r} must hold a JSON array of [i, j] pairs")
        return StepOrder(M, tuple(data))
    raise ValidationError(f"order must be v1, v2, or file:PATH, got {spec!r}")


def _parse_omega(spec: str, rank: SuperRank) -> BorelWord:
    if spec == "standard":
        return standard_word(rank)
    if spec == "mixed":
        return mixed_word(rank)
    try:
        word = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise ValidationError(f"omega must be standard, mixed, or a comma list, got {spec!r}") from None
    w = BorelWord(word)
    if len(word) != rank.total:
        raise ValidationError(f"omega has length {len(word)}, rank total is {rank.total}")
    return w


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and fully validate argv; all validation failures are collected
    and reported together.  The validated rank, p, box, order, omega, checks
    and convention objects are set on the returned namespace."""
    ns = _build_parser().parse_args(_merge_box_values(argv))
    errors: list[str] = []

    def validated(build, *args):
        try:
            return build(*args)
        except ValidationError as exc:
            errors.append(str(exc))
            return None

    ns.rank = validated(SuperRank, ns.M, ns.N)
    if "p" in ns:
        ns.p = validated(Modulus, ns.p)
    if "box" in ns:
        ns.box = validated(_parse_box, ns.box)
    if "order" in ns and ns.rank is not None:
        ns.order = validated(_parse_order, ns.order, ns.rank.M)
    if "omega" in ns and ns.rank is not None:
        ns.omega = validated(_parse_omega, ns.omega, ns.rank)
    if "convention" in ns:
        ns.convention = GroupConvention(ns.convention)
    if "check" in ns:
        ns.checks = oracle.CHECK_NAMES if ns.check == "all" else (ns.check,)
    if "cap" in ns:
        validated(serganova._require_cap, ns.cap)
        validated(oracle._require_positive, ns.failure_cap, "failure cap")
    if "limit" in ns:
        validated(oracle._require_positive, ns.limit, "limit")

    if errors:
        raise ValidationError("; ".join(errors))
    return ns


def _write(fmt, texts, fout, csv_columns=()):
    """Write the text of each output line: one per line for JSONL (default)
    and CSV, CSV with a header row before the first line, or all of them as
    one JSON array."""
    if fmt == "json":
        fout.write("[" + ", ".join(texts) + "]\n")
        return
    write, header = fout.write, ",".join(csv_columns) + "\n" if fmt == "csv" else ""
    for text in texts:
        write(header + text + "\n")
        header = ""


def _stream(args, fin, fout, ferr, convert, csv_columns=()):
    """The stdin loop of transform, classify and orbit-rep: read one JSON
    weight per line, write the text convert(weight) gives for each valid
    one, and report each bad line on ferr and keep going.  A line is bad when
    its weight is, or when its output holds an integer too long to write.
    Exits 1 if any line was bad."""
    bad_lines = []

    def texts():
        for lineno, line in enumerate(fin, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                w = Weight.from_json_dict(json.loads(line), args.rank)
            except ValidationError as exc:
                error = str(exc)
            except ValueError as exc:  # bad JSON, or an integer too long to read
                error = f"invalid JSON: {exc}"
            else:
                try:
                    yield convert(w)
                    continue
                except ValueError as exc:  # an integer too long to write
                    error = f"output not written: {exc}"
            print(f"line {lineno}: {error}", file=ferr)
            bad_lines.append(lineno)

    _write(args.fmt, texts(), fout, csv_columns)
    return EXIT_FAILURES if bad_lines else EXIT_OK


# Output lines are %-formats filled with plain ints and "false"/"true", as
# json.dumps writes the objects' to_json_dict and csv writes their rows.
_BOOL = ("false", "true")


def _weight_format(rank, fmt="jsonl"):
    """The format of a weight's CSV row or JSON object, filled by lambda + theta."""
    if fmt == "csv":
        return ",".join(["%d"] * rank.total)
    return '{"lambda": [%s], "theta": [%s]}' % (", ".join(["%d"] * rank.M),
                                                ", ".join(["%d"] * rank.N))


def _weight_columns(rank):
    return [f"lambda_{i}" for i in range(1, rank.M + 1)] + [
        f"theta_{i}" for i in range(1, rank.N + 1)
    ]


def _run_transform(args, fin, fout, ferr):
    rank, p, order = args.rank, args.p, args.order
    fn, d = (forward, 1) if args.direction == "forward" else (inverse, -1)
    weight = _weight_format(rank)
    step = ('{"k": %d, "pair": [%d, %d], "action": "%s", "sum_before": %d, "state_after": '
            + weight + "}")
    result = weight[:-1] + ', "trace": [%s]}'

    def convert(w):
        w = fn(w, p, order, rank)
        return weight % (w.lam + w.theta)

    def convert_trace(w):
        # the transform runs once: its result is the state after the last
        # step, or the weight itself when there is no step (M = 0)
        lam, theta, steps = w.lam, w.theta, []
        for k, (i, j), moved, s, lam, theta in walk(w, p, order, rank, d):
            steps.append(step % (k, i, j, "move" if moved else "noop", s, *lam, *theta))
        return result % (*lam, *theta, ", ".join(steps))

    return _stream(args, fin, fout, ferr, convert_trace if args.trace else convert)


def _run_classify(args, fin, fout, ferr):
    rank, p, convention = args.rank, args.p, args.convention
    weight = _weight_format(rank, args.fmt)
    line = weight + ",%s,%s,%s" if args.fmt == "csv" else (
        '{"weight": ' + weight + ', "standard_dominant": %s, "mixed_highest_weight": %s, '
        '"relevant": %s}')

    def convert(w):
        return line % (*w.lam, *w.theta, _BOOL[is_standard_dominant(w, rank)],
                       _BOOL[is_mixed_highest_weight(w, rank, p)],
                       _BOOL[is_relevant_orbit(w, rank, p, convention)])

    columns = _weight_columns(rank) + ["standard_dominant", "mixed_highest_weight", "relevant"]
    return _stream(args, fin, fout, ferr, convert, columns)


def _run_orbit_rep(args, fin, fout, ferr):
    rank = args.rank
    # orbit_representative gives M + N entries, one per row
    matrix = '{"size": %%d, "entries": [%s]}' % ", ".join(["[%d, %d, %d]"] * rank.total)

    def convert(w):
        m = orbit_representative(w, rank)
        return matrix % (m.size, *chain.from_iterable(m.entries))

    return _stream(args, fin, fout, ferr, convert)


def _run_roots(args, fin, fout, ferr):
    rank = args.rank
    obj = {
        "M": rank.M,
        "N": rank.N,
        "omega": list(args.omega.word),
        "positive_roots": [list(r) for r in sorted(positive_roots(args.omega, rank))],
        "excess_pairs": [list(pq) for pq in excess_pairs(rank)],
        "hasse": [[list(x), list(y)] for x, y in hasse_edges(rank.M)],
    }
    print(json.dumps(obj), file=fout)
    return EXIT_OK


def _run_enumerate(args, fin, fout, ferr):
    rank, p = args.rank, args.p
    # Dominant, mixed and non-increasing relevant weights are all dominant:
    # those filters walk the dominant chains only (None: no further test).
    uplus = args.convention is GroupConvention.UPLUS
    chains, predicate = {
        "all": (False, None),
        "dominant": (True, None),
        "mixed": (True, lambda w: is_mixed_highest_weight(w, rank, p)),
        "relevant": (uplus, lambda w: is_relevant_orbit(w, rank, p, args.convention)),
    }[args.filter_name]
    weights = oracle.enumerate_box(rank, args.box, predicate, limit=args.limit, dominant=chains)
    weight = _weight_format(rank, args.fmt)
    _write(args.fmt, (weight % (w.lam + w.theta) for w in weights), fout, _weight_columns(rank))
    return EXIT_OK


def _run_verify(args, fin, fout, ferr):
    all_passed = True
    for name in args.checks:
        report = oracle.run_check(
            name,
            args.rank,
            args.p,
            args.box,
            cap=args.cap,
            limit=args.limit,
            failure_cap=args.failure_cap,
        )
        obj = report.to_json_dict()
        obj["params"] = {
            "M": args.rank.M,
            "N": args.rank.N,
            "p": args.p.p,
            "box": [args.box.lo, args.box.hi],
        }
        print(json.dumps(obj), file=fout)
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_FAILURES


_RUNNERS = {
    "transform": _run_transform,
    "classify": _run_classify,
    "orbit-rep": _run_orbit_rep,
    "roots": _run_roots,
    "enumerate": _run_enumerate,
    "verify": _run_verify,
}


def run(args: argparse.Namespace, fin, fout, ferr) -> int:
    """Dispatch the namespace from parse_args against the given streams."""
    return _RUNNERS[args.command](args, fin, fout, ferr)


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    fin = stdin if stdin is not None else sys.stdin
    fout = stdout if stdout is not None else sys.stdout
    ferr = stderr if stderr is not None else sys.stderr
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse usage error or --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValidationError as exc:
        print(f"error: {exc}", file=ferr)
        return EXIT_USAGE
    try:
        code = run(args, fin, fout, ferr)
        fout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped reading: stop quietly.  Standard output is
        # pointed at devnull so that the flush at interpreter exit does not
        # fail again (the recipe in the Python documentation on SIGPIPE).
        if stdout is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURES
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=ferr)
        return EXIT_FAILURES
    except (ValidationError, OverflowError) as exc:
        print(f"error: {exc}", file=ferr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=ferr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    raise SystemExit(main())
