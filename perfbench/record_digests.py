"""Record the expected stdout digest of every invocation of every workload.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known to be right (the
digests are normalised, so one seed serves every seed). Writes
perfbench/expected.json, and fails if an exit code differs from the one
the workload expects.
"""

import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, run.WORK / name, run.ROOT)
        invs = [wl.setup, *wl.invocations]
        outcomes = [run.run_invocation(inv, {}) for inv in invs]
        want = {inv.key: inv.exit_code for inv in invs}
        bad = [o.key for o in outcomes if o.exit_code != want[o.key] or o.digest is None]
        if bad:
            print(f"{name}: unexpected exit code or output from {', '.join(bad)}", file=sys.stderr)
            return 1
        expected[name] = {o.key: o.digest for o in sorted(outcomes, key=lambda o: o.key)}
        print(f"{name}: {len(outcomes)} digests")
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
