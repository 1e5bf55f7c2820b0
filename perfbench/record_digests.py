#!/usr/bin/env python3
"""Record the output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-49 [--workloads star-fold,...]

Run from the root of a source checkout.  Runs one untimed pass of each
workload per seed (cli requests replayed in process through
``motivic.cli.run``) and writes the sha256 of the canonical outputs to
``perfbench/golden.json``.  A timed run compares its own digest with the one
recorded for its seed, so the canonical outputs stay byte-identical across
changes; record again only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-49", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    golden = json.loads(run.GOLDEN.read_text())
    for name in args.workloads.split(","):
        for seed in range(first, last + 1):
            r = run.Run(name, seed)
            r.set_up()
            outs, _ = r.one_pass(r.bind(r.m, r.built, in_process=True))
            golden.setdefault(name, {})[str(seed)] = r.digest(outs)
        print(f"{name}: seeds {first}-{last} recorded")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
