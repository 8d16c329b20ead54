"""Record the stdout digests the cli-tables workload checks against.

    python3 bench/record_golden.py

Run from the root of a checkout.  The digests are written to
bench/golden.json only after two independent checks pass: the
generated Table 1 matches the bundled reference (``table1_diff`` is
empty through c = 15) and ``census 3..17 --verify`` agrees with the
closed forms; every recorded command must also exit 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import COMMANDS, GOLDEN_PATH, command_key, digest, run_cli

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from bridgekit import classify, cli

    diff = classify.table1_diff(classify.table1(15), c_max=15)
    if diff:
        print("table1 differs from the reference:", *diff, sep="\n  ", file=sys.stderr)
        return 1
    code, _ = run_cli(cli, ("census", "3..17", "--verify"))
    if code != 0:
        print(f"census 3..17 --verify exited {code}", file=sys.stderr)
        return 1
    golden = {}
    for argv in COMMANDS:
        code, text = run_cli(cli, argv)
        if code != 0:
            print(f"{command_key(argv)} exited {code}", file=sys.stderr)
            return 1
        golden[command_key(argv)] = digest(text)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"recorded {len(golden)} digests in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
