"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For every workload, listed in BENCHMARK.json or not, in this one process:
  * a reduced-size run prints every end-to-end metric of BENCHMARK.json and
    a traced one every per-layer metric, each with its unit, and both
    answer correctly;
  * per-layer counts (calls, cells, route histogram, spans) repeat exactly
    across two traced runs of one seed;
  * a different seed yields a different input digest.
Prints one line per finding and exits 1 if any expectation failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

SCALE = "0.1"


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--scale", SCALE]
        )
    lines = out.getvalue().strip().splitlines()
    if code != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run exited {code}: {out.getvalue()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(ok: bool, text: str) -> None:
        print(("ok   " if ok else "FAIL ") + text, flush=True)
        if not ok:
            problems.append(text)

    found = run.import_package()
    listed = {w["name"] for w in spec["workloads"]}
    expect(listed <= set(found), f"BENCHMARK.json workloads {sorted(listed)} all exist")
    for name in sorted(found):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            info, result = _run(name, 1, trace)
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in metrics.items()}
            expect(printed == wanted, f"{name} trace {trace}: prints every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: {result['attempted']} operations, none failed")
            if trace:
                counts = {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}
                again = {k: v["value"] for k, v in _run(name, 1, 1)[1]["metrics"].items()
                         if v["unit"] != "s"}
                expect(counts == again, f"{name}: per-layer counts repeat across two traced runs")
            else:
                other = _run(name, 2, 0)[0]
                expect(other["input_digest"] != info["input_digest"],
                       f"{name}: seeds 1 and 2 give different input digests")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
