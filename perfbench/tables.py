"""Quotient-hyperring tables F_q/G, built with the benchmark's own integer
arithmetic so that the inputs stay fixed when the library changes.

F_q/G has the cosets of a subgroup G of F_q^* (plus {0}) as carrier, with
aG * bG = abG and aG + bG = {(ax + by)G : x, y in G}. A table's canonical
labels are the decimal residues of the coset representatives (the smallest
element of each coset); a seed relabels them with strings drawn from an
alphabet without commas, because table keys have the form "a,b".
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
LABEL_LENGTH = 3

# (q, |G|): the trivial group and one nontrivial subgroup for each prime.
QUOTIENTS = ((13, 1), (13, 3), (29, 1), (29, 4), (47, 1), (47, 2))
# The table whose multiplication is made non-commutative at one pair.
CORRUPTED_FROM = (29, 4)


@dataclass(frozen=True)
class Table:
    name: str
    carrier: tuple[str, ...]  # canonical labels, in carrier order
    add: dict  # (a, b) -> sorted tuple of labels
    mul: dict  # (a, b) -> label
    zero: str
    one: str


def _subgroup(q: int, order: int) -> list[int]:
    if (q - 1) % order:
        raise ValueError(f"F_{q}^* has no subgroup of order {order}")
    return sorted(x for x in range(1, q) if pow(x, order, q) == 1)


def quotient_table(q: int, order: int) -> Table:
    g = _subgroup(q, order)
    rep = {0: 0}
    for a in range(1, q):
        rep[a] = min(a * x % q for x in g)
    reps = sorted(set(rep.values()))
    label = {r: str(r) for r in reps}
    add, mul = {}, {}
    for ra in reps:
        for rb in reps:
            key = (label[ra], label[rb])
            mul[key] = label[rep[ra * rb % q]]
            sums = {rep[(ra * x + rb * y) % q] for x in g for y in g}
            add[key] = tuple(label[r] for r in sorted(sums))
    carrier = tuple(label[r] for r in reps)
    return Table(f"F{q}_G{order}", carrier, add, mul, label[0], label[1])


def corrupted(t: Table) -> Table:
    """Break multiplicative commutativity at the first pair of distinct
    elements outside {0, 1}; `laws` must name that pair as its witness."""
    a, b = [c for c in t.carrier if c not in (t.zero, t.one)][:2]
    mul = dict(t.mul)
    mul[(a, b)] = next(c for c in t.carrier if c not in (t.mul[(a, b)], t.zero))
    return Table(t.name + "_broken", t.carrier, t.add, mul, t.zero, t.one)


def relabeling(carrier, rng: random.Random) -> dict[str, str]:
    """Canonical label -> seeded label, injective, with no commas."""
    fresh: list[str] = []
    while len(fresh) < len(carrier):
        s = "".join(rng.choice(LABEL_ALPHABET) for _ in range(LABEL_LENGTH))
        if s not in fresh:
            fresh.append(s)
    return dict(zip(carrier, fresh))


def to_json(t: Table, names: dict[str, str]) -> dict:
    """The `hyperspec laws` input format, with carrier labels renamed."""
    return {
        "carrier": [names[c] for c in t.carrier],
        "op": {f"{names[a]},{names[b]}": [names[c] for c in v] for (a, b), v in t.add.items()},
        "mul": {f"{names[a]},{names[b]}": names[c] for (a, b), c in t.mul.items()},
        "zero": names[t.zero],
        "one": names[t.one],
    }


def write_checked(path: Path, doc: dict) -> None:
    """Write a table and check that it reads back to the same table."""
    text = json.dumps(doc, indent=1)
    path.write_text(text + "\n")
    back = json.loads(path.read_text())
    if back != doc:
        raise RuntimeError(f"{path}: table does not round-trip through JSON")
    carrier = set(back["carrier"])
    for section in ("op", "mul"):
        keys = [tuple(k.split(",")) for k in back[section]]
        if any(len(k) != 2 or not set(k) <= carrier for k in keys) or len(keys) != len(carrier) ** 2:
            raise RuntimeError(f"{path}: {section} keys do not split into carrier pairs")


def all_tables() -> list[tuple[Table, int]]:
    """Every generated table with the exit code `hyperspec laws` must give."""
    tables = [(quotient_table(q, d), 0) for q, d in QUOTIENTS]
    tables.append((corrupted(quotient_table(*CORRUPTED_FROM)), 1))
    return tables
