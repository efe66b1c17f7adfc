"""Command-line front end.

Exit codes: 0 all MUST-PASS checks green, 1 a MUST-PASS failure, 2 input
error, 141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ends)
when the reader closes stdout before the output is written. Output is
JSON-first (deterministic: byte-identical for identical inputs), streamed
to stdout as it is encoded; --plain switches to a text rendering.

The import ends with gc.freeze(). A fresh invocation's answer takes a few
milliseconds, and after the imports about 22,000 gc-tracked objects of
numpy, hyperspec, argparse and json are alive, each as long as the
process. Moved once into the collector's permanent generation, they are
walked neither by the run's full collections nor by those of interpreter
shutdown, which saves about 12 ms of every process; garbage made during a
run is collected as before. The library itself never touches the
collector: `import hyperspec` leaves it as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import galoisline, specops as ops
from .gfarith import PrimeField
from .hyperkernel import (
    HyperRingTable,
    HyperTable,
    check_hypergroup,
    check_hyperring,
    krasner_hyperfield,
    sign_hyperfield,
)
from .suite import DEFAULT_SUITE, load_algebra, run_suite

# everything imported so far lives as long as the process: no collection
# need walk it again (see the module docstring)
gc.freeze()

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _dump(doc: dict, stream) -> None:
    """doc as indented JSON and a newline, written to stream as it is
    encoded: json.dump shares iterencode with json.dumps, so the bytes are
    the same, and no string of the whole document is formed."""
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def _emit(doc: dict, plain: str | None, as_plain: bool) -> None:
    if as_plain and plain is not None:
        print(plain)
    else:
        _dump(doc, sys.stdout)


def cmd_laws(args) -> int:
    spec = args.table
    try:
        if spec == "builtin:K":
            table, kind = krasner_hyperfield(), "hyperring"
        elif spec == "builtin:S":
            table, kind = sign_hyperfield(), "hyperring"
        elif spec.startswith("builtin:"):
            raise ValueError(f"unknown builtin table {spec!r}; expected builtin:K or builtin:S")
        else:
            doc = json.loads(Path(spec).read_text())
            if isinstance(doc, dict) and "mul" in doc:
                table, kind = HyperRingTable.from_json(doc), "hyperring"
            else:
                table, kind = HyperTable.from_json(doc), "hypergroup"
        if kind == "hyperring" and args.mode != "canonical":
            raise ValueError(f"hyperring tables are checked in canonical mode only, got --mode {args.mode}")
    except Exception as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if kind == "hyperring":
        report = check_hyperring(table)
    else:
        report = check_hypergroup(table, args.mode)
    doc = {"input": spec, "kind": kind, "ok": report.ok, "report": report.to_json()}
    lines = [f"{spec}: {'PASS' if report.ok else 'FAIL'}"]
    for name, c in report.checks.items():
        mark = "ok" if c.passed else "FAIL"
        lines.append(f"  {name:<34} {mark}" + (f"  witness={list(c.witness)}" if c.witness else ""))
    _emit(doc, "\n".join(lines), args.plain)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_hyperop(args) -> int:
    try:
        h = load_algebra(args.algebra)
        h.ensure_verified()
        pts = ops.kpoints(h)
        if args.pair:
            f = ops.point_by_label(h, args.pair[0])
            g = ops.point_by_label(h, args.pair[1])
    except Exception as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.pair:
        res = ops.hyperop(h, f, g)
        doc = res.to_json()
        plain = f"{f.label} * {g.label} = {res.labels()}"
        _emit(doc, plain, args.plain)
        return EXIT_OK
    table = [[[kp.label for kp, member in zip(pts, cell) if member] for cell in row] for row in ops.hyperop_cube(h)]
    doc = {
        "algebra": h.name or args.algebra,
        "points": [kp.label for kp in pts],
        "table": table,
    }
    width = max(len(kp.label) for kp in pts) + 2
    lines = [f"hyperoperation table for {doc['algebra']} (rows * columns)"]
    for kp, row in zip(pts, table):
        cells = "  ".join(",".join(cell) if len(cell) > 1 else cell[0] for cell in row)
        lines.append(f"{kp.label:<{width}} | {cells}")
    _emit(doc, "\n".join(lines), args.plain)
    return EXIT_OK


def _config_list(cfg: dict, key: str, default):
    """cfg[key], which must be a list of strings when present."""
    value = cfg.get(key, default)
    if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"suite config {key!r} must be a list of strings, got {value!r}")
    return value


def cmd_verify(args) -> int:
    specs = list(DEFAULT_SUITE)
    checks = None
    out_path = None
    verbosity = 0
    try:
        if args.suite:
            cfg = json.loads(Path(args.suite).read_text())
            if not isinstance(cfg, dict):
                raise ValueError(f"suite config must be a JSON object, got {type(cfg).__name__}")
            specs = _config_list(cfg, "algebras", specs)
            if not specs:
                raise ValueError(f"suite config 'algebras' must name at least one algebra, got {specs!r}")
            checks = _config_list(cfg, "checks", None)
            verbosity = cfg.get("verbosity", 0)
            if not isinstance(verbosity, int) or isinstance(verbosity, bool):
                raise ValueError(f"suite config 'verbosity' must be an integer, got {verbosity!r}")
            out_path = cfg.get("output")
            if out_path is not None and not isinstance(out_path, str):
                raise ValueError(f"suite config 'output' must be a path string, got {out_path!r}")
            if out_path:
                # fail before any algebra is loaded, not after the whole run;
                # append mode leaves an existing file as it is until the
                # report replaces it
                try:
                    with open(out_path, "a"):
                        pass
                except OSError as exc:
                    raise ValueError(f"cannot write output: {exc}") from exc
        result = run_suite(specs, checks, timings=args.timings)
    except Exception as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if out_path:
        try:
            with open(out_path, "w") as fh:
                _dump(result, fh)
        except OSError as exc:
            print(f"input error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if verbosity >= 1:
        for rep in result["suite"]:
            print(f"{rep['algebra']}: {'PASS' if rep['ok'] else 'FAIL'}", file=sys.stderr)
    if args.plain:
        for rep in result["suite"]:
            print(f"{rep['algebra']}: {'PASS' if rep['ok'] else 'FAIL'}")
            for name, entry in rep["checks"].items():
                print(f"  {name:<24} {entry['status']}")
    else:
        _dump(result, sys.stdout)
    return EXIT_OK if result["ok"] else EXIT_FAIL


def cmd_line(args) -> int:
    law = galoisline.ADDITIVE if args.law == "add" else galoisline.MULTIPLICATIVE
    try:
        PrimeField(args.p).require_odd()
        galoisline.require_line_size(args.p, law, args.max_degree)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = galoisline.crosscheck(args.p, law, args.max_degree)
    laws, assoc = doc["laws"], doc["laws"]["associativity"]
    lines = [
        f"p={args.p} law={law} max_degree={args.max_degree}: "
        f"{'AGREE' if doc['agree'] else 'DISAGREE'} on {len(doc['pairs'])} pairs",
        f"  identity={laws['identity']} antipode={laws['antipode_inverse']} "
        f"reversibility={laws['reversibility']} commutativity={laws['commutativity']}",
        f"  associativity: checked={assoc['checked']} skipped={assoc['skipped']} pass={assoc['pass']}",
    ]
    _emit(doc, "\n".join(lines), args.plain)
    return EXIT_OK if doc["agree"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Exact hyperstructure checks for spectra of Hopf algebras over odd prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_laws = sub.add_parser("laws", help="check hypergroup/hyperring axioms of a table")
    p_laws.add_argument("table", help="JSON file, builtin:K, or builtin:S")
    p_laws.add_argument("--mode", choices=["strong", "marty", "canonical"], default="canonical")
    p_laws.add_argument("--plain", action="store_true", help="text output instead of JSON")
    p_laws.set_defaults(func=cmd_laws)

    p_hop = sub.add_parser("hyperop", help="hyperoperation table of an algebra's spectrum")
    p_hop.add_argument("algebra", help="builtin spec like mu:5:4 / addetale:3:2, or a JSON file")
    p_hop.add_argument("--pair", nargs=2, metavar=("F", "G"), help="two point labels, e.g. '(T^2+1)' '(T^2+1)'")
    p_hop.add_argument("--plain", action="store_true", help="text output instead of JSON")
    p_hop.set_defaults(func=cmd_hyperop)

    p_ver = sub.add_parser("verify", help="run the per-statement traceability suite")
    p_ver.add_argument("--suite", help="JSON config with algebras/checks/output")
    p_ver.add_argument("--timings", action="store_true", help="include runtimes (breaks byte-determinism)")
    p_ver.add_argument("--plain", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_line = sub.add_parser("line", help="cross-check the two line/torus engines")
    p_line.add_argument("--p", type=int, required=True)
    p_line.add_argument("--law", choices=["add", "mul"], required=True)
    p_line.add_argument("--max-degree", type=int, required=True)
    p_line.add_argument("--plain", action="store_true")
    p_line.set_defaults(func=cmd_line)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # that the flush at exit does not raise again; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
