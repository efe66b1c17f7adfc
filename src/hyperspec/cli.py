"""Command-line front end.

Exit codes: 0 all MUST-PASS checks green, 1 a MUST-PASS failure, 2 input
error, 141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ends)
when the reader closes stdout before the output is written. Output is
JSON-first (deterministic: byte-identical for identical inputs); --plain
switches to a text rendering. A report is written as json.dumps(doc,
indent=2) writes it, but from the C encoder's compact text, re-indented by
array operations in slices (_dump): with an indent, json's own encoder
runs in pure Python, one generator step and one write per fragment.

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

import numpy as np

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


RUN = 64  # items of a long top-level value encoded as one piece
# compact characters re-indented at a time, at least: 8,192 re-indented a
# 300 KB report 10-20 % faster, but with 0.4 MB more peak RSS
SLICE = 2048
_HOLD = "[{\\"  # a slice is never cut after one of these (see _slices)
_QUOTE, _COMMA, _COLON, _SPACE, _NEWLINE, _LSQB, _LBRACE, _RSQB, _RBRACE = b'",: \n[{]}'


def _compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _pieces(doc):
    """json.dumps(doc, separators=(",", ":")) in pieces, each made by the C
    encoder: the top-level container item by item, and a top-level value of
    more than RUN items in runs of RUN items. A piece is yielded as (text,
    start, stop), the piece being text[start:stop], so that the brackets
    around an encoded item or run are left out without a copy of it. A dict
    key is encoded in a dict, so keys convert (and fail) as json's do."""
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        text = _compact(doc)
        yield text, 0, len(text)
        return
    is_dict = isinstance(doc, dict)
    opener, closer = "{}" if is_dict else "[]"
    yield opener, 0, 1
    for n, item in enumerate(doc.items() if is_dict else doc):
        value = item[1] if is_dict else item
        if n:
            yield ",", 0, 1
        if not isinstance(value, (dict, list, tuple)) or len(value) <= RUN:
            text = _compact(dict([item]) if is_dict else value)
            yield text, int(is_dict), len(text) - is_dict
            continue
        kind, (open_value, close_value) = (dict, "{}") if isinstance(value, dict) else (list, "[]")
        items = list(value.items()) if kind is dict else value
        text = (_compact({item[0]: None})[1:-5] if is_dict else "") + open_value
        yield text, 0, len(text)
        for k in range(0, len(items), RUN):
            if k:
                yield ",", 0, 1
            text = _compact(kind(items[k : k + RUN]))
            yield text, 1, len(text) - 1
        yield close_value, 0, 1
    yield closer, 0, 1


def _reindent(text: str, depth: int, in_string: bool) -> tuple[str, int, bool]:
    """Compact JSON text as json.dumps(..., indent=2) writes it, given the
    nesting depth before it and whether it starts inside a string; returns
    the text, and both again at its end. The text is ASCII (the encoder
    escapes every other character), and no escape and no empty [] or {}
    crosses its ends. With each \\\\ and \\" blanked out, the quotes left
    are the string delimiters, so a character is outside every string where
    the quotes before it are even. Outside strings, a line break and the
    indent of the depth follow each comma and each opening bracket and
    precede each closing one, except within an empty [] or {}, and a space
    follows each colon."""
    raw = text.encode()
    chars = np.frombuffer(raw.replace(b"\\\\", b"  ").replace(b'\\"', b"  "), dtype=np.uint8)
    odd = np.logical_xor.accumulate(chars == _QUOTE)  # odd quotes up to each
    outside = odd == in_string
    opens = ((chars == _LSQB) | (chars == _LBRACE)) & outside
    closes = ((chars == _RSQB) | (chars == _RBRACE)) & outside
    level = np.cumsum(opens.view(np.int8) - closes.view(np.int8), dtype=np.int32) + depth  # the depth after each
    empty = np.zeros(len(chars) + 1, dtype=bool)
    empty[1:-1] = opens[:-1] & closes[1:]  # empty[i + 1]: characters i and i + 1 are [] or {}
    breaks_after = ((chars == _COMMA) & outside) | (opens & ~empty[1:])
    breaks_before = closes & ~empty[:-1]
    after = np.where(breaks_after, 1 + 2 * level, (chars == _COLON) & outside)
    before = np.where(breaks_before, 1 + 2 * level, 0)
    at = np.arange(len(chars), dtype=np.int32) + np.cumsum(before + after, dtype=np.int32) - after
    out = np.full(int(at[-1] + after[-1]) + 1, _SPACE, dtype=np.uint8)
    out[at] = np.frombuffer(raw, dtype=np.uint8)
    out[at[breaks_before] - before[breaks_before]] = _NEWLINE
    out[at[breaks_after] + 1] = _NEWLINE
    return out.tobytes().decode(), int(level[-1]), bool(in_string != odd[-1])


def _slices(pieces):
    """The pieces' text in slices of at least SLICE characters, but the last,
    each cut after no character of _HOLD, so that no escape and no empty []
    or {} crosses a cut (a JSON text ends in none of them)."""
    text = ""
    for piece, first, stop in pieces:
        # a long piece joins the text a slice at a time, so that no copy of
        # it is made
        for k in range(first, stop, SLICE):
            text += piece[k : min(k + SLICE, stop)]
            start = 0
            while len(text) - start > SLICE:
                end = start + SLICE
                while end < len(text) and text[end - 1] in _HOLD:
                    end += 1
                if text[end - 1] in _HOLD:
                    break
                yield text[start:end]
                start = end
            text = text[start:]
    if text:
        yield text


def _dump(doc, stream) -> None:
    """doc as json.dumps(doc, indent=2) writes it, and a newline, written to
    stream from the C encoder's compact text: the pieces of _pieces are
    re-indented by array operations in slices of a few thousand characters,
    each carrying the depth and the in-string state of the one before. So
    no string of a whole report is formed, and no text longer than a piece
    and a slice is held."""
    depth, in_string = 0, False
    for text in _slices(_pieces(doc)):
        out, depth, in_string = _reindent(text, depth, in_string)
        stream.write(out)
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
