"""Write reference.json: the small output values the benchmark checks against.

Run once, from the root of a checkout whose outputs are known to be right,
and commit the result:

    python3 perfbench/make_reference.py

Only sweep ratios and variances, file lists, per-step means and variances
and report variances are stored, never whole densities.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import cumvol.cli as cli

    work = run.WORK / "reference"
    reference = {}
    try:
        for size, smoke in (("full", False), ("smoke", True)):
            values = reference[size] = {}
            # mc_oracle is checked against a bound, not against stored values
            for name in ("saddle_sweep", "step_outputs"):
                _, cmds = run.WORKLOADS[name](smoke, random.Random(0), work)
                for cmd in cmds:
                    code = run.call_cli(cli, cmd.full_argv(work))
                    if code != 0:
                        print(f"{cmd.label} exited {code}", file=sys.stderr)
                        return 1
                    values[cmd.label] = run.facts(cmd, cmd.out(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
