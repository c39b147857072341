#!/usr/bin/env python3
"""Record the output digests and experimental verdicts the checks compare.

    python3 bench/record.py --seeds 0-30

Run from the repository root.  For each workload and seed it runs one pass,
requires every other check to pass, and writes the pass digest into
bench/recorded.json, together with the experimental verdicts that
``list-gadgets --verdicts`` prints.  Re-record only when a change is meant to alter the
library's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-30", help="inclusive range, e.g. 0-30")
    args = parser.parse_args(argv)
    low, high = (int(part) for part in args.seeds.split("-"))

    run._import_library()
    import checks
    import workloads

    recorded = checks.load_recorded()
    code, listing = workloads.list_gadgets()
    if code != 0:
        print(f"list-gadgets --verdicts exited {code}", file=sys.stderr)
        return 1
    recorded["verdicts"] = checks.experimental_verdicts(listing)
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_record-") as work_dir:
        for name in workloads.WORKLOADS:
            for seed in range(low, high + 1):
                inst = workloads.generate(name, seed)
                workloads.prepare(inst, work_dir)
                outcome = checks.check_pass(workloads.run_pass(inst), recorded["verdicts"])
                if outcome.failures:
                    print(f"{name} seed {seed}: {outcome.failures}", file=sys.stderr)
                    return 1
                recorded["digests"][name][str(seed)] = outcome.digest
                print(name, seed, outcome.digest, flush=True)
    with open(checks.RECORDED_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
