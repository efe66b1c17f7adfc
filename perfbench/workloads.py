"""The benchmark's workloads: which invocations a pass runs, the inputs they
read, and what each must print.

Every invocation is one fresh process. A seed permutes the order of the
invocations within a pass and relabels the carriers of the generated
tables; the named algebras and the `line` parameters stay fixed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import tables

# hyperspec's default `verify` suite, restated so the setup inputs do not
# follow a change of the library's default.
DEFAULT_SUITE = ("mu:3:2", "mu:5:4", "addetale:3:1", "addetale:3:2")
HYPEROP_ALGEBRAS = ("mu:5:4", "mu:7:6", "mu:3:8", "mu:5:8", "addetale:3:2", "mu:3:10")
MID_ALGEBRAS = ("mu:13:12", "addetale:11:1")
LINE_RUNS = ((3, "add", 3), (3, "mul", 3), (7, "add", 2), (7, "mul", 2))
ORACLE_ALGEBRA, ORACLE_R_MAX = "addetale:3:1", 10

WORKLOADS = ("verify-mid", "line", "small-queries")


@dataclass
class Invocation:
    key: str  # stable name; the recorded digests are keyed by it
    argv: list[str]  # launcher arguments: "cli ARGS..." or "oracle ALGEBRA R_MAX"
    exit_code: int = 0
    # seeded label -> canonical label, for outputs that echo table labels
    canonical: dict[str, str] = field(default_factory=dict)

    def digest(self, stdout: bytes) -> str:
        """SHA-256 of stdout with seeded table labels mapped back to the
        canonical ones, so one recorded digest holds for every seed."""
        if self.canonical:
            doc = json.loads(stdout)
            doc["report"] = _relabel(doc["report"], self.canonical)
            stdout = (json.dumps(doc, indent=2) + "\n").encode()
        return hashlib.sha256(stdout).hexdigest()


def _relabel(obj, names: dict[str, str]):
    if isinstance(obj, str):
        return names.get(obj, obj)
    if isinstance(obj, list):
        return [_relabel(x, names) for x in obj]
    if isinstance(obj, dict):
        return {k: _relabel(v, names) for k, v in obj.items()}
    return obj


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    setup: Invocation  # builds the inputs of every invocation, for setup_s


def build(name: str, seed: int, work: Path, root: Path) -> Workload:
    """Write the workload's input files under `work` and list its
    invocations in seeded order. Paths passed to hyperspec are relative to
    `root`, the directory the children run in, so outputs that echo an
    input path do not vary between checkouts."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    rel = work.relative_to(root)
    invs: list[Invocation] = []
    setup: dict = {"algebras": [], "tables": [], "lines": []}  # what setup builds
    if name == "verify-mid":
        suite = work / "verify-mid-suite.json"
        suite.write_text(json.dumps({"algebras": list(MID_ALGEBRAS)}) + "\n")
        invs.append(Invocation("verify-mid", ["cli", "verify", "--suite", str(rel / suite.name)]))
        setup["algebras"] = list(MID_ALGEBRAS)
    elif name == "line":
        for p, law, deg in LINE_RUNS:
            argv = ["cli", "line", "--p", str(p), "--law", law, "--max-degree", str(deg)]
            invs.append(Invocation(f"line-p{p}-{law}-d{deg}", argv))
        setup["lines"] = [list(run) for run in LINE_RUNS]
    else:
        invs.append(Invocation("verify-default", ["cli", "verify"]))
        for spec in HYPEROP_ALGEBRAS:
            invs.append(Invocation(f"hyperop-{spec}", ["cli", "hyperop", spec]))
        invs.append(Invocation("laws-builtin-K", ["cli", "laws", "builtin:K"]))
        for table, code in tables.all_tables():
            names = tables.relabeling(table.carrier, random.Random(f"{seed}:{table.name}"))
            path = work / f"{table.name}.json"
            tables.write_checked(path, tables.to_json(table, names))
            canonical = {v: k for k, v in names.items()}
            invs.append(Invocation(f"laws-{table.name}", ["cli", "laws", str(rel / path.name)], code, canonical))
            setup["tables"].append(str(rel / path.name))
        invs.append(Invocation("oracle", ["oracle", ORACLE_ALGEBRA, str(ORACLE_R_MAX)]))
        setup["algebras"] = sorted(set(DEFAULT_SUITE + HYPEROP_ALGEBRAS + (ORACLE_ALGEBRA,)))
    spec = work / "setup.json"
    spec.write_text(json.dumps(setup) + "\n")
    random.Random(f"{seed}:{name}").shuffle(invs)
    return Workload(name, invs, Invocation("setup", ["setup", str(rel / spec.name)]))
