"""Per-algebra traceability suite: one named check per verified statement,
with a fixed list so every report has the same shape.

A failing check fails the algebra, except preimage_primality, which is
report-only by design: it lists each pair's forced-zero ideal and whether
it is prime, which by the idempotent lemma (specops) is |f*g| = 1. Every
check after hopf_axioms reads the verified Hopf structure, so when the
axioms fail those checks are reported skipped, with the reason, and not run.
"""

from __future__ import annotations

import json
import os
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import specops as ops
from .hopfkernel import HopfData, descent_ideal, parse_builtin
from .hyperkernel import LawReport, _first
from .linalg import matmul, require_int64_sum

DEFAULT_SUITE = ("mu:3:2", "mu:5:4", "addetale:3:1", "addetale:3:2")


def load_algebra(spec: str) -> HopfData:
    """A builtin descriptor ("mu:p:n", "addetale:p:k") or a JSON file path."""
    if not spec.strip():
        raise ValueError(f"algebra spec {spec!r} is empty")
    if ":" in spec and not os.path.exists(spec):
        return parse_builtin(spec)
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"algebra spec {spec!r} is neither a builtin nor a file")
    if path.is_dir():
        raise ValueError(f"algebra spec {spec!r} is a directory, not a JSON file")
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read algebra file {spec!r}: {exc}") from exc
    return HopfData.from_json(doc)


def _kernel_containment(h: HopfData) -> tuple[bool, dict]:
    """Q_fg = (pi_f ⊗ pi_g)∘Delta vanishes on the printed forced-zero ideal
    I of every pair, by the definition: I lies in Ker Q_fg. I is the
    intersection of the kernels of the members of f*g, and by the idempotent
    lemma (specops) Ker Q_fg lies in each of them, so I = Ker Q_fg.

    Pairs with the same member set share one forced-zero ideal object, so
    each ideal is decided once, for all its pairs, by one product of their
    rows of the pair maps with its basis. The witness is the first failing
    pair in product order."""
    p = h.algebra.field.p
    require_int64_sum(h.dim, 2, p, "pair map times an ideal basis")
    pts = ops.kpoints(h)
    k = len(pts)
    groups: dict[int, tuple] = {}  # id of the ideal -> (ideal, bool [f, g] of its pairs)
    for f, g in product(pts, repeat=2):
        ideal = ops.hyperop(h, f, g).forced_zero
        groups.setdefault(id(ideal), (ideal, np.zeros((k, k), dtype=bool)))[1][f.index, g.index] = True
    owner = np.repeat(np.arange(k), [kp.degree for kp in pts])  # the point of each residue row
    fails = np.zeros((k, k), dtype=bool)
    for ideal, pairs in groups.values():
        rows = pairs[np.ix_(owner, owner)]  # [a, b]: the residue rows of the ideal's pairs
        hit = matmul(ops._pair_maps(h)[rows], ideal.basis.T, p).any(axis=1)
        a, b = np.nonzero(rows)
        fails[owner[a[hit]], owner[b[hit]]] = True
    bad = _first(fails)
    if bad is None:
        return True, {"pairs": k * k}
    f, g = (pts[i] for i in bad)
    return False, {"pair": [f.label, g.label], "reason": "Q_fg does not vanish on the forced-zero ideal"}


def _preimage_primality(h: HopfData) -> tuple[None, dict]:
    """Each pair's forced-zero ideal, prime iff f*g has one member."""
    entries = []
    for f, g in product(ops.kpoints(h), repeat=2):
        res = ops.hyperop(h, f, g)
        gen = res.forced_zero.generator_poly()
        entries.append(
            {
                "f": f.label,
                "g": g.label,
                "ideal": f"({gen})" if gen is not None else res.forced_zero.to_json(),
                "prime": len(res.members) == 1,
            }
        )
    return None, {"pairs": entries}


def _verdict(rep: LawReport, detail: dict | None = None) -> tuple[bool, dict]:
    """A LawReport as (ok, detail): `detail`, followed by the report on failure."""
    detail = detail or {}
    return rep.ok, detail if rep.ok else {**detail, **rep.to_json()}


def _hopf_axioms(h: HopfData) -> tuple[bool, dict]:
    rep = h.hopf_report
    return rep.ok, {} if rep.ok else {"failures": rep.failures()}


def _identity_law(h: HopfData) -> tuple[bool, dict]:
    rep = ops.identity_law_check(h)
    return _verdict(rep) if not rep.ok else (True, {"identity": ops.identity_point(h).label})


def _weak_associativity(h: HopfData) -> tuple[bool, dict]:
    rep = ops.weak_assoc_all(h)
    return _verdict(rep, {"fully_associative": rep.checks["fully_associative"].passed})


def _classical_comparison(h: HopfData) -> tuple[bool, dict]:
    rep = ops.classical_comparison(h, h.algebra.field.p)
    return _verdict(rep, {"points": list(rep.checks["classical_point_count"].witness)})


def _descent_compatibility(h: HopfData) -> tuple[bool, dict]:
    ideal = descent_ideal(h)
    gen = ideal.generator_poly()
    return _verdict(ops.descend_and_compare(h, ideal), {"ideal": f"({gen})" if gen is not None else "0"})


# name -> check(h) -> (ok, detail), in report order. ok is None for the
# report-only check, which decides nothing.
CHECKS = {
    "hopf_axioms": _hopf_axioms,
    "identity_law": _identity_law,
    "inverse_law": lambda h: _verdict(ops.inverse_law_check(h)),
    "reversibility": lambda h: _verdict(ops.reversibility_check(h)),
    "weak_associativity": _weak_associativity,
    "nonempty": lambda h: _verdict(ops.nonempty_check(h)),
    "classical_comparison": _classical_comparison,
    "descent_compatibility": _descent_compatibility,
    "kernel_containment": _kernel_containment,
    "preimage_primality": _preimage_primality,
}

TRACE_CHECKS = tuple(CHECKS)


def _selection(checks) -> set[str]:
    """The selected check names, every check for None; an empty or unknown
    name list is an input error."""
    if checks is not None and not checks:
        raise ValueError(f"suite config 'checks' must name at least one check, got {checks!r}")
    selected = set(TRACE_CHECKS if checks is None else checks)
    unknown = sorted(str(name) for name in selected - set(CHECKS))
    if unknown:
        raise ValueError(f"unknown check(s) {', '.join(unknown)}; valid checks: {', '.join(TRACE_CHECKS)}")
    return selected


def run_algebra_suite(h: HopfData, checks=None, timings: bool = False) -> dict:
    """TraceReport for one algebra: every identifier in the fixed list appears
    exactly once (selected-out checks are reported as skipped)."""
    selected = _selection(checks)
    out: dict = {"algebra": h.name or "unnamed", "checks": {}}
    blocked = False
    for name, check in CHECKS.items():
        if name not in selected:
            out["checks"][name] = {"status": "skipped"}
            continue
        if name != "hopf_axioms" and not h.hopf_report.ok:
            reason = f"Hopf axioms fail: {', '.join(h.hopf_report.failures())}"
            out["checks"][name] = {"status": "skipped", "reason": reason}
            blocked = True
            continue
        t0 = time.monotonic()
        ok, detail = check(h)
        entry: dict = {"status": "report-only" if ok is None else ("pass" if ok else "fail")}
        if detail:
            entry["detail"] = detail
        if timings:
            entry["runtime_ms"] = round(1000 * (time.monotonic() - t0), 1)
        out["checks"][name] = entry
    out["ok"] = not blocked and all(entry["status"] != "fail" for entry in out["checks"].values())
    return out


def run_suite(specs, checks=None, timings: bool = False) -> dict:
    """Run the traceability suite over several algebras; reports keep input order."""
    _selection(checks)
    algebras = [load_algebra(s) for s in specs]
    reports = [run_algebra_suite(h, checks, timings) for h in algebras]
    return {"suite": reports, "ok": all(r["ok"] for r in reports)}
