"""Batch command-line front end.

Subcommands:

* ``params`` - check the ring, derive its constants, write them to a
  table file, print a summary with the certified Barrett constants;
* ``gen``    - produce seeded, reproducible test-vector files;
* ``mul``    - multiply every vector record with the reference code
  (``naive`` schoolbook or ``ntt`` transform path);
* ``sim``    - drive the cycle-accurate multiplier model over the vectors
  and dump products plus the cycle report as JSON;
* ``check``  - run the simulator, whose products are the schoolbook
  oracle's once its proofs pass, and the transform over every record,
  and fail unless the transform and any stored ``c_expected`` agree with
  them everywhere.

Vector files are newline-delimited JSON, one record per line, with all
coefficients as decimal strings so nothing downstream can lose precision.
Every command is deterministic: the only randomness is ``gen``'s
``--seed``, which feeds Python's ``random.Random`` (Mersenne Twister); with
equal flags the output files are byte-identical across runs.

Exit codes: 0 success, 1 check found a disagreement, 2 bad input (ring,
file, or record) or a file that cannot be read or written, 3 internal
pipeline assertion.
"""

from __future__ import annotations

import argparse
import json
import random
import reprlib
import sys

from .params import build_params, emit_tables, load_tables
from .pipesim import (PipelineAssertionError, PipelineConfig, run_stream,
                      write_trace)
from .polymul import Polynomial, naive_negacyclic_mul, negacyclic_mul_ntt

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_ASSERT = 3


def _load_params(path):
    try:
        return load_tables(path)
    except FileNotFoundError:
        raise ValueError(f"parameter file not found: {path}")
    # JSONDecodeError is a ValueError; too deep a nesting raises RecursionError
    except (ValueError, RecursionError) as e:
        raise ValueError(f"{path}: {e}")


def _poly_from_json(value, n, M, where):
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{where}: expected an array of {n} coefficients")
    try:
        text = "".join(value)
    except TypeError:               # an entry that is not a string
        text = ""
    try:
        # one pass at C speed when every entry is a non-empty string and
        # their text is ASCII digits alone: the ints are then >= 0 and one
        # max bounds them (int() refuses too many digits)
        if all(value) and text.isascii() and text.isdigit():
            cs = tuple(map(int, value))
            if max(cs) < M:
                return Polynomial._unchecked(cs, M, "coefficient")
            return Polynomial(cs, M)    # names the first entry out of range
        # any other list holds an entry that is not a decimal string, so
        # this raises at the first entry int() or the rule refuses
        return Polynomial([int(x) if isinstance(x, str) and x.isascii()
                           and x.isdigit() else _not_decimal(x)
                           for x in value], M)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _not_decimal(entry):
    raise ValueError(f"coefficient {reprlib.repr(entry)} is not a decimal "
                     "string")


def _load_records(path, params):
    n, M = params.n, params.M
    records = []
    try:
        fh = open(path)
    except FileNotFoundError:
        raise ValueError(f"vector file not found: {path}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            # JSONDecodeError is a ValueError, as is a too-long JSON number
            except (ValueError, RecursionError) as e:
                raise ValueError(f"{where}: invalid JSON ({e})")
            if not isinstance(rec, dict) or "a" not in rec or "b" not in rec:
                raise ValueError(f"{where}: record must carry fields a and b")
            entry = {
                "a": _poly_from_json(rec["a"], n, M, where + " field a"),
                "b": _poly_from_json(rec["b"], n, M, where + " field b"),
                "raw": rec,
            }
            if "c_expected" in rec:
                entry["c_expected"] = _poly_from_json(
                    rec["c_expected"], n, M, where + " field c_expected")
            records.append(entry)
    return records


def _dump_json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_params(args) -> int:
    p = build_params(args.modulus, args.n)
    emit_tables(p, args.out)
    ctx = p.ctx
    print(f"modulus M = {p.M}, transform size N = {p.n} "
          f"({p.num_stages} stages)")
    print(f"barrett: k = {ctx.barrett_k}, u = {ctx.barrett_u}")
    print(f"roots: omega = {p.omega}, phi = {p.phi}")
    # the context was certified over all of [0, (M-1)**2] when it was built
    print(f"barrett check: ok over all {(p.M - 1) ** 2 + 1} inputs "
          f"(exact certificate)")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    p = _load_params(args.params)
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    rng = random.Random(args.seed)
    n, M = p.n, p.M
    with open(args.out, "w") as fh:
        for _ in range(args.count):
            a = [str(rng.randrange(M)) for _ in range(n)]
            b = [str(rng.randrange(M)) for _ in range(n)]
            fh.write(_dump_json_line({"a": a, "b": b, "seed": args.seed}))
    print(f"wrote {args.count} records to {args.out}")
    return EXIT_OK


def cmd_mul(args) -> int:
    p = _load_params(args.params)
    records = _load_records(args.vectors, p)
    mul = naive_negacyclic_mul if args.method == "naive" else negacyclic_mul_ntt
    with open(args.out, "w") as fh:
        for rec in records:
            c = mul(rec["a"], rec["b"], p)
            out = dict(rec["raw"])
            out["c"] = list(map(str, c.coeffs))
            fh.write(_dump_json_line(out))
    print(f"multiplied {len(records)} records ({args.method}) into {args.out}")
    return EXIT_OK


def cmd_sim(args) -> int:
    p = _load_params(args.params)
    pairs = [(r["a"], r["b"]) for r in _load_records(args.vectors, p)]
    try:
        config = PipelineConfig(n=p.n, params=p, mode=args.mode,
                                butterfly_latency=args.butterfly_latency)
    except PipelineAssertionError as e:
        # a break of the schedule proof: the law's rows up to where it
        # stopped, at the config's latency, for this many products
        if e.stop is not None and args.trace is not None:
            try:
                write_trace(args.trace, p.n, e.butterfly_latency,
                            len(pairs), e.stop)
            except OSError as w:    # main prints it after the assertion
                e.trace_error = w
        raise
    products, report = run_stream(pairs, config, trace_path=args.trace)
    # the text json.dump(doc, fh, indent=2, sort_keys=True) writes for doc
    # = {"products": [...], "report": ...}, written a product at a time so
    # that no list of every product's strings is held: the products are
    # digit strings, which need no escaping
    with open(args.report, "w") as fh:
        fh.write('{\n  "products": [')
        for i, poly in enumerate(products):
            fh.write(f'{"," if i else ""}\n    [\n      "'
                     + '",\n      "'.join(map(str, poly.coeffs))
                     + '"\n    ]')
        fh.write(('\n  ]' if products else ']') + ',\n  "report": '
                 + json.dumps(report.to_dict(), indent=2, sort_keys=True)
                 .replace("\n", "\n  ") + "\n}\n")
    print(f"simulated {len(pairs)} multiplications at n={p.n} "
          f"({config.mode} mode, butterfly latency {config.butterfly_latency})")
    if report.first_mul_latency is not None:
        print(f"first product after {report.first_mul_latency} cycles "
              f"(predicted {report.predicted_first_mul})")
    if report.steady_cycles_per_mul is not None:
        print(f"steady state: {report.steady_cycles_per_mul} cycles "
              f"per multiplication")
    if args.trace is not None:
        print(f"cycle trace: {args.trace}")
    print(f"wrote {args.report}")
    return EXIT_OK


def cmd_check(args) -> int:
    p = _load_params(args.params)
    records = _load_records(args.vectors, p)
    pairs = [(r["a"], r["b"]) for r in records]
    # the simulator's products are the schoolbook oracle's, by its proofs
    products, _ = run_stream(pairs, PipelineConfig(n=p.n, params=p))
    for i, ((a, b), rec, want) in enumerate(zip(pairs, records, products)):
        if negacyclic_mul_ntt(a, b, p).coeffs != want.coeffs:
            print(f"record {i}: transform result disagrees with the "
                  f"schoolbook oracle", file=sys.stderr)
            return EXIT_MISMATCH
        if "c_expected" in rec and rec["c_expected"].coeffs != want.coeffs:
            print(f"record {i}: stored c_expected disagrees with the "
                  f"schoolbook oracle", file=sys.stderr)
            return EXIT_MISMATCH
    print(f"checked {len(records)} records at n={p.n}, M={p.M}: "
          f"schoolbook, transform, and simulator all agree")
    return EXIT_OK


# ---------------------------------------------------------------------------

# name: (help, handler, arguments as (flag, add_argument keywords))
_COMMANDS = {
    "params": ("derive constants and write a table file", cmd_params, (
        ("--modulus", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--out", {"required": True}))),
    "gen": ("generate seeded test vectors", cmd_gen, (
        ("--params", {"required": True}),
        ("--count", {"type": int, "required": True}),
        ("--seed", {"type": int, "required": True}),
        ("--out", {"required": True}))),
    "mul": ("multiply vector records with reference code", cmd_mul, (
        ("--params", {"required": True}),
        ("--vectors", {"required": True}),
        ("--method", {"choices": ("naive", "ntt"), "default": "ntt"}),
        ("--out", {"required": True}))),
    "sim": ("run the cycle-accurate multiplier model", cmd_sim, (
        ("--params", {"required": True}),
        ("--vectors", {"required": True}),
        ("--mode", {"choices": ("schedule", "structural"),
                    "default": "schedule"}),
        ("--butterfly-latency", {"type": int}),
        ("--report", {"required": True}),
        ("--trace", {"help": "CSV cycle-trace path"}))),
    "check": ("cross-check oracle, transform, simulator", cmd_check, (
        ("--params", {"required": True}),
        ("--vectors", {"required": True}))),
}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The CLI's parser.  When argv starts with a subcommand's name, only
    that subparser is built: argparse hands it every later argument, and
    the one message the top parser can still print, an unrecognized
    argument's, shows its usage, whose metavar is then spelled out as
    argparse spells the full list of names."""
    ap = argparse.ArgumentParser(
        prog="nttmul",
        description="negacyclic polynomial multiplication: parameter "
                    "derivation, reference multiplication, and the "
                    "cycle-accurate pipeline model")
    names = list(_COMMANDS)
    if argv and argv[0] in _COMMANDS:
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(names) + "}")
        names = [argv[0]]
    else:
        sub = ap.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, func, arguments = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            sp.add_argument(flag, **options)
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineAssertionError as e:
        print(f"internal assertion: {e}", file=sys.stderr)
        # a break of the schedule proof, the one that a traced run writes
        # its rows up to, unless that write failed; a network or table
        # proof breaks before any row
        if getattr(e, "trace_error", None):
            print(f"error: {e.trace_error}", file=sys.stderr)
        elif e.stop is not None and getattr(args, "trace", None):
            print(f"cycle trace (up to the failure): {args.trace}",
                  file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
