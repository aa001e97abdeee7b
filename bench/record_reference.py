"""Record bench/reference.json from the code in src/.

Runs every operation of every workload at seed 0 once, in this process,
and stores the digest of each output's exact part and its floats. Run it
only on a commit whose outputs are known to be right:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import child
import workloads


def main() -> int:
    sys.path.insert(0, str(child.ROOT / "src"))
    reference = {}
    for workload in workloads.WORKLOADS.values():
        ops = workload.build(0, 1)
        outcomes, _, _ = child.run_pass(ops)
        errors = [line for e in child.check_pass(ops, outcomes, {}) for line in e]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        for op, (_, text) in zip(ops, outcomes):
            reference[op.key] = workloads.reference_entry(op.kind, text)
    child.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(reference)} outputs in {child.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
