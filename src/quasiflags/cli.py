"""Command-line verification driver.

Subcommands:

* ``verify-main``  -- localization series against the eigenfunction product;
* ``verify-toda``  -- equivariant volumes against the Toda series, plus
  strong-coupling limit diagnostics;
* ``properties``   -- every cross-module invariant suite;
* ``inspect``      -- dump fixed points, tangent weights, pair characters or
  series prefixes, with no verdict.

One machine-readable JSON document per run goes to standard output;
diagnostics go to standard error.  Exit codes: 0 pass, 1 identity or property
failure, 2 genericity exhausted, 3 usage error, 4 report not written
(standard output closed, a closed pipe or a full device).
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain

from .eigenfunctions import cs_coefficients, cs_product_series, toda_coefficients
from .errors import NonGenericParameter
from .localization import ParameterPoint, evaluate_weight
from .characters import pair_character, tangent_weights
from .scalars import format_rational, parse_rational
from .series import check_degree_vector, denominator_power_series
from .tableaux import Tableau, enumerate_fixed_points
from .verify import (GenericityExhausted, format_gamma, run_properties,
                     verify_main, verify_toda)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NONGENERIC = 2
EXIT_USAGE = 3
EXIT_OUTPUT = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no prefix matching: a flag a command lacks (properties --m) must not
        # bind to a longer one (--max-degree)
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _add_common(sub, command):
    """Flags shared by the report commands; properties takes neither --trials,
    --jobs nor an explicit point, and verify-toda takes no coupling --m."""
    sub.set_defaults(m=None)  # _point reads args.m; only verify-main sets it
    sub.add_argument("--n", type=int, default=3, help="rank parameter (default 3)")
    sub.add_argument("--max-degree", type=int, default=4,
                     help="total-degree truncation D (default 4)")
    if command != "properties":
        sub.add_argument("--trials", type=int, default=5,
                         help="number of sampled parameter points (default 5)")
    sub.add_argument("--seed", type=int, default=1,
                     help="seed for the splitmix64 sampling stream, 0 <= seed < 2^64")
    if command == "properties":
        return
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted and ignored, kept for compatibility "
                          "(degrees are evaluated serially)")
    sub.add_argument("--a", type=str, default=None,
                     help="explicit zero-sum torus point, comma-separated rationals")
    if command == "verify-main":
        sub.add_argument("--m", type=_parse_rational_arg, default=None,
                         help="explicit coupling (rational p/q)")
    sub.add_argument("--x", type=_parse_rational_arg, default=None,
                     help="loop-weight gauge with --a (rational, default 1)")


def _point(args) -> ParameterPoint:
    """The point given by --a, --x and --m (x = 1, m = 0 when absent), or ValueError."""
    a = tuple(parse_rational(part) for part in args.a.split(","))
    if len(a) != args.n:
        raise ValueError(f"--a must have {args.n} entries")
    if sum(a) != 0:
        raise ValueError("--a entries must sum to zero")
    return ParameterPoint(a, Fraction(1) if args.x is None else args.x, args.m or 0)


def _checked(parser, parse, *args):
    """parse(*args), or a usage error on its ValueError.  Each input is
    checked this way before anything is computed, so a ValueError from the
    computation is not taken for bad input."""
    try:
        return parse(*args)
    except ValueError as exc:
        parser.error(str(exc))


def _explicit_point(args, parser, need_m: bool) -> ParameterPoint | None:
    if args.a is None:
        for flag, value in (("--m", args.m), ("--x", args.x)):
            if value is not None:
                parser.error(f"{flag} requires --a (otherwise points are sampled)")
        return None
    if need_m and args.m is None:
        parser.error("verify-main with an explicit point also needs --m")
    return _checked(parser, _point, args)


def build_parser() -> _Parser:
    parser = _Parser(prog="quasiflags",
                     description="Exact verification of localization and "
                                 "eigenfunction identities on quasiflag spaces.")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("verify-main", "Chern series identity"),
                            ("verify-toda", "volume / Toda identity"),
                            ("properties", "cross-module invariants")):
        _add_common(commands.add_parser(name, help=help_text), name)

    ins = commands.add_parser("inspect", help="dump exact data, no verdict")
    ins.add_argument("subject", choices=["fixed-points", "tangent-weights",
                                         "character", "series"])
    ins.add_argument("--n", type=int, default=3)
    ins.add_argument("--max-degree", type=int, default=4)
    ins.add_argument("--gamma", type=_parse_int_list, default=None,
                     help="degree vector, comma-separated")
    ins.add_argument("--tableau", type=_parse_int_list, default=None,
                     help="row-major tableau entries, comma-separated")
    ins.add_argument("--tableau2", type=_parse_int_list, default=None,
                     help="second tableau for pair characters")
    ins.add_argument("--kind", choices=["cs", "toda", "product", "denominator"],
                     default="cs", help="series kind for subject=series")
    ins.add_argument("--a", type=str, default=None)
    ins.add_argument("--m", type=_parse_rational_arg, default=Fraction(0))
    ins.add_argument("--x", type=_parse_rational_arg, default=Fraction(1))
    return parser


_SCALARS = frozenset((str, int, bool, float, type(None)))
_ROWS = 1024  # flat dicts per encode call: bounds each piece of a long list


def _emit(document: dict) -> None:
    """Write json.dumps(document, indent=2, sort_keys=True) + newline, byte for
    byte, in pieces: one per flat container (every child a scalar, or an empty
    list or dict, which the dump too writes as [] or {}) and one per _ROWS rows
    of a list of flat dicts, each encoded by CPython's C encoder, which an
    indent would turn off.  Its item separator carries the newline and indent;
    the others are spliced in (an encoded string holds no newline)."""
    if sys.stdout is None:  # descriptor 1 was closed before start-up
        raise OSError("standard output is closed")
    write = sys.stdout.write
    encoder = functools.cache(lambda depth: json.JSONEncoder(  # items at depth
        sort_keys=True, check_circular=False,  # it sees flat values: no cycles
        separators=(",\n" + "  " * depth, ": ")).encode)
    stack = [(document, 0)]  # text to write, or (value, indent level); keys are str
    while stack:
        if type(item := stack.pop()) is str:
            write(item)
            continue
        value, depth = item
        pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        is_dict = isinstance(value, dict)
        if not (is_dict or isinstance(value, (list, tuple))) or not value:
            write(encoder(depth)(value))
        elif _SCALARS.issuperset(map(type, filter(None, value.values() if is_dict else value))):
            text = encoder(depth + 1)(value)
            write(text[0] + inner + text[1:-1] + pad + text[-1])
        elif (not is_dict and set(map(type, value)) == {dict} and all(value)
              and _SCALARS.issuperset(map(type, filter(None, chain.from_iterable(
                  map(dict.values, value)))))):
            inner2 = inner + "  "
            for start in range(0, len(value), _ROWS):
                text = encoder(depth + 2)(value[start:start + _ROWS])[2:-2]
                write(("," if start else "[") + inner + "{" + inner2 + text.replace(
                    "}," + inner2 + "{", inner + "}," + inner + "{" + inner2) + inner + "}")
            write(pad + "]")
        else:  # children in order, each after its separator (and key)
            stack.append(pad + ("}" if is_dict else "]"))
            for key in reversed(sorted(value) if is_dict else range(len(value))):
                stack += ((value[key], depth + 1),
                          "," + inner + (encoder(0)(key) + ": " if is_dict else ""))
            stack[-1] = ("{" if is_dict else "[") + stack[-1][1:]
    write("\n")
    sys.stdout.flush()  # a failed write raises OSError here, not at exit


def _inspect(args, parser) -> dict:
    n = args.n
    if args.subject == "fixed-points":
        if args.gamma is None:
            parser.error("inspect fixed-points needs --gamma")
        gamma = _checked(parser, check_degree_vector, args.gamma, n - 1)
        points = enumerate_fixed_points(n, gamma)
        return {"subject": "fixed-points", "n": n, "gamma": format_gamma(gamma),
                "count": len(points), "tableaux": [p.as_flat_list() for p in points]}

    if args.subject == "tangent-weights":
        if args.tableau is None:
            parser.error("inspect tangent-weights needs --tableau")
        d = _checked(parser, Tableau.from_flat_list, args.tableau, n)
        pt = None if args.a is None else _checked(parser, _point, args)
        weights = tangent_weights(d, n)
        record = {"subject": "tangent-weights", "n": n, "tableau": d.as_flat_list(),
                  "weights": [{"a_coeffs": list(w.a_coeffs), "x_coeff": w.x_coeff}
                              for w in weights]}
        if pt is not None:
            record["values"] = [format_rational(evaluate_weight(w, pt)) for w in weights]
        return record

    if args.subject == "character":
        if args.tableau is None or args.tableau2 is None:
            parser.error("inspect character needs --tableau and --tableau2")
        d, dp = (_checked(parser, Tableau.from_flat_list, t, n)
                 for t in (args.tableau, args.tableau2))
        char = pair_character(d, dp, n)
        return {"subject": "character", "n": n,
                "tableau": d.as_flat_list(), "tableau2": dp.as_flat_list(),
                "total_multiplicity": char.total_multiplicity(),
                "terms": [{"a_coeffs": list(a), "x_coeff": x, "multiplicity": m}
                          for a, x, m in char.as_sorted_triples()]}

    # subject == "series"
    if args.kind == "denominator":
        series = denominator_power_series(n, args.m + 1, args.max_degree)
    else:
        if args.a is None:
            parser.error("inspect series needs --a")
        pt = _checked(parser, _point, args)
        if args.kind == "cs":
            series = cs_coefficients(n, pt.a_over_x(), pt.m, args.max_degree).tail
        elif args.kind == "toda":
            series = toda_coefficients(n, pt.a_over_x(), args.max_degree, x=pt.x).tail
        else:
            series = cs_product_series(n, pt.a_over_x(), pt.m, args.max_degree)
    return {"subject": "series", "kind": args.kind, "n": n,
            "max_degree": args.max_degree,
            "coefficients": [{"gamma": format_gamma(g), "value": format_rational(c)}
                             for g, c in series.terms()]}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value, low in (("--n", args.n, 2), ("--max-degree", args.max_degree, 0),
                             ("--trials", getattr(args, "trials", 1), 1)):
        if value < low:
            parser.error(f"{flag} must be at least {low}, got {value}")
    # the stream keeps 64 bits, so a wider seed would alias a narrower one
    if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
        parser.error(f"--seed must satisfy 0 <= seed < 2^64, got {args.seed}")

    # run functions are looked up at call time, so a wrapper patched in here runs
    try:
        if args.command == "inspect":
            document = _inspect(args, parser)
        elif args.command == "properties":
            document = run_properties(args.n, args.max_degree, args.seed)
        else:
            run = verify_main if args.command == "verify-main" else verify_toda
            pt = _explicit_point(args, parser, need_m=args.command == "verify-main")
            document = run(args.n, args.max_degree, args.trials, args.seed,
                           explicit_point=pt, jobs=args.jobs)
    except GenericityExhausted as exc:
        print(f"genericity exhausted: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except NonGenericParameter as exc:
        print(f"non-generic parameters: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC

    try:
        _emit(document)
    except OSError as exc:  # BrokenPipeError included
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # quiet the exit-time flush
        print(f"error: report not written: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    if document.get("verdict", "pass") != "pass":
        print("verdict: fail", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
