"""Child process of the benchmark: one hyperspec invocation per process.

    launch.py [--trace OUT] cli ARGS...        hyperspec.cli.main(ARGS), as the
                                               `hyperspec` command runs it
    launch.py [--trace OUT] oracle ALG R_MAX   specops.presentation_oracle over
                                               every (x, f, g) of ALG
    launch.py setup SPEC                       import hyperspec and build every
                                               input SPEC lists, then exit

With --trace, the tracer wraps the library after the import and writes
its spans and counters to OUT when the invocation ends. An untraced `cli`
call imports nothing beyond what the `hyperspec` command imports, so its
start-up cost is the command's.
"""

import sys
import time


def oracle(spec: str, r_max: int) -> int:
    import json
    from itertools import product

    from hyperspec import specops
    from hyperspec.suite import load_algebra

    h = load_algebra(spec)
    pts = specops.kpoints(h)
    values = []
    for x in product(range(h.algebra.field.p), repeat=h.dim):
        for f, g in product(pts, repeat=2):
            values.append(sorted(specops.presentation_oracle(h, f, g, list(x), r_max)))
    print(json.dumps({"algebra": spec, "r_max": r_max, "cases": len(values), "values": values}))
    return 0


def setup(spec_path: str) -> int:
    """Build each input through public functions, as an invocation would
    before its first hyperoperation or law check."""
    import json
    from pathlib import Path

    from hyperspec import galoisline, specops
    from hyperspec.hyperkernel import HyperRingTable
    from hyperspec.suite import load_algebra

    spec = json.loads(Path(spec_path).read_text())
    built = {}
    for name in spec["algebras"]:
        h = load_algebra(name)
        h.ensure_verified()
        built[name] = [h.dim, len(specops.kpoints(h))]
    for path in spec["tables"]:
        built[path] = HyperRingTable.from_json(json.loads(Path(path).read_text())).add.size
    for p, law, deg in spec["lines"]:
        law_name = galoisline.ADDITIVE if law == "add" else galoisline.MULTIPLICATIVE
        built[f"line:{p}:{law}:{deg}"] = len(galoisline.line_points(p, law_name, deg))
    print(json.dumps(built, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        return setup(*args)
    start = time.perf_counter()
    import hyperspec.cli

    import_s = time.perf_counter() - start

    def invoke() -> int:
        return hyperspec.cli.main(args) if mode == "cli" else oracle(args[0], int(args[1]))

    if trace_out is None:
        return invoke()
    import tracer

    t = tracer.install()
    try:
        return invoke()
    finally:
        t.dump(trace_out, " ".join(argv), {"cli.import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
