"""Record the answer digests that run.py checks its answers against.

    python3 perfbench/record_digests.py --seeds 0-10 [--workload NAME ...]

For each workload and seed this generates the inputs exactly as run.py does,
answers every call of every unit once, and stores the input digest with one
digest per unit in digests.json.  A digest covers member flags, prevision
values and verify outcomes, not certificates or routes.  Re-record only when
answers are meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range A-B")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)

    found = run.import_package()
    if found is None:
        print("error: no package source under src/", file=sys.stderr)
        return 2
    path = run.HERE / "digests.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    status = 0
    for name in args.workload or sorted(found):
        workload = found[name]()
        for seed in _seeds(args.seeds):
            workdir = run.ROOT / ".perfbench_work" / f"record-{name}-{seed}-{os.getpid()}"
            try:
                units = run.make_inputs(workload, seed, workdir)
                log = run.run_fixed(workload, units)
                inputs = run.input_digest(units)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if log.failed:
                print(f"{name} seed {seed}: not recorded, {log.failed} failed: {log.messages[:3]}")
                status = 1
                continue
            record.setdefault(name, {})[str(seed)] = {"inputs": inputs, "units": log.unit_digests}
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {len(log.unit_digests)} units recorded", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
