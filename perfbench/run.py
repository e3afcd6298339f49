"""Seeded benchmark of credalcones: verify, query and local decisions.

    python3 perfbench/run.py --workload {sweep,mutated,chain,local} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The seed alone decides every input file (written under
``.perfbench_work/`` and removed at exit); the package sees only those files.
Everything runs in this one process, with no threads.

``--trace 0`` first sets up every unit of the workload once, then answers
calls until ``--seconds`` have passed, every unit set up cold again before
its calls as in a fresh CLI run; between calls, further cold set-ups of
the units in turn take about 5% of the run.  ``setup_s`` sums, over the
units, the median of all the cold set-ups of that unit, so that its
samples are spread over the whole run.  Set-ups and calls are timed in
CPU time of this process (``time.process_time``): the program is
single-threaded and does no waiting, so this is its wall time less the
time the host gave its CPU to someone else.  Each call is made again on
every pass over the units; ``answers_per_s`` and ``answer_p50_ms`` take
the median time of each call over its passes.  Reference slices, a fixed
piece of rational arithmetic run between the calls for about 5% of the
run, measure how fast the host is meanwhile, and every time is scaled to
the nominal host on which a slice takes ``REFERENCE_S``: on a shared host
whose speed drifts by a third over minutes, that drift would otherwise
outweigh most changes to the program.  The info line keeps the times as
measured, before scaling, and the reference.  It prints the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` runs each unit of a fixed prefix
twice, untraced and then traced, and prints the per-layer metrics with the
tracing overhead (traced time minus untraced time); the spans go to
``.perfbench_out/spans-<workload>.jsonl``.

Every answer is checked.  A failed check or a raised exception counts as a
failed operation and never stops the run.  When ``digests.json`` holds a
record for this workload and seed, the inputs and the answers must match
it (``record_digests.py`` writes it): the inputs are partly built by the
package (``net.sample_credal_net``, coherence checks, witnesses), so a
change there that moves them fails the run instead of quietly changing the
work.  The last line of stdout is the result object; the line before it
carries provenance, the number of calls and of timed samples, the p90
latency (scaled) where there are at least 100 calls, and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SHARE = 0.05  # of a timed run spent on extra set-ups, for setup_s
P90_MIN_SAMPLES = 100
REFERENCE_SHARE = 0.05  # of a timed run spent on reference slices
REFERENCE_TERMS = 500
REFERENCE_S = 0.005  # a reference slice's CPU time on the nominal host


@dataclass
class Log:
    """What a stretch of calls did: latencies, answers, failures, digests."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    unit_digests: dict = field(default_factory=dict)
    setup_times: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)  # (unit, position) -> [answers, latencies]

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 10:
            self.messages.append(message)

    def absorb(self, other: "Log") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages = (self.messages + other.messages)[:10]
        for name, times in other.setup_times.items():
            self.setup_times.setdefault(name, []).extend(times)

    def setup_s(self) -> float:
        """Sum over the units of the median time of one cold set-up."""
        return sum(statistics.median(times) for times in self.setup_times.values())

    def record(self, key: tuple, answers: int, latency: float) -> None:
        entry = self.calls.setdefault(key, [answers, []])
        entry[1].append(latency)

    def call_medians(self) -> list[tuple[int, float]]:
        """(answers, median latency) of every call made at least once: a
        call is made again on each pass over the units, and its median
        over the passes drops a pass that the host slowed down."""
        return [(answers, statistics.median(times)) for answers, times in self.calls.values()]


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def input_digest(units) -> str:
    h = hashlib.sha256()
    for unit in units:
        for path in (unit.path, unit.query_path):
            if path is not None:
                h.update(path.read_bytes())
        h.update(json.dumps(unit.calls, sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:16]


def setup_unit(workload, unit, log: Log):
    """The unit set up cold, its time kept in the log."""
    start = process_time()
    state = workload.setup(unit)
    log.setup_times.setdefault(unit.name, []).append(process_time() - start)
    return state


class SetupSampler:
    """Extra cold set-ups spread over a timed run, one unit at a time in
    turn, for about SETUP_SHARE of the time since the run began.  A unit
    makes only a few passes in a run, so its own set-ups are too few and
    too close together to give a steady median on a machine whose speed
    drifts."""

    def __init__(self, workload, units, log: Log):
        self.workload, self.units, self.log = workload, units, log
        self.begin = perf_counter()
        self.spent = 0.0
        self.turn = 0

    def __call__(self) -> None:
        now = perf_counter()
        if self.spent >= SETUP_SHARE * (now - self.begin):
            return
        unit = self.units[self.turn % len(self.units)]
        self.turn += 1
        try:
            setup_unit(self.workload, unit, self.log)
        except Exception:
            pass  # its first set-up already counted the failure
        self.spent += perf_counter() - now


def reference_slice() -> float:
    """CPU time of a fixed piece of exact rational arithmetic, the
    operations the package's LPs spend their time in.  Garbage collection
    is off meanwhile, so that the size of the program's heap does not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        total = Fraction(0)
        for i in range(REFERENCE_TERMS):
            total += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 11 + 1, i % 3 + 1) - Fraction(i % 13, 7)
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Reference slices spread over a timed run, for about REFERENCE_SHARE
    of the time since the run began.  The host lends this process a CPU
    whose speed drifts by a third over minutes, as other tenants come and
    go, and every time of a run moves with it; the slices measure that
    speed alongside the calls, and ``scale`` is what turns a time of the
    run into one on the nominal host, where a slice takes REFERENCE_S."""

    def __init__(self):
        self.begin = perf_counter()
        self.spent = 0.0
        self.times: list[float] = []

    def __call__(self) -> None:
        now = perf_counter()
        while self.spent < REFERENCE_SHARE * (now - self.begin):
            self.times.append(reference_slice())
            later = perf_counter()
            self.spent += later - now
            now = later

    def scale(self) -> float:
        if not self.times:
            self.times.append(reference_slice())
        return REFERENCE_S / statistics.fmean(self.times)


def run_unit(workload, unit, log: Log, deadline=None, tracer=None, between=None) -> bool:
    """Set the unit up cold, then make its calls, running `between` before
    each; False once past the deadline."""
    if tracer is not None:
        tracer.request = f"{unit.name}:setup"
    try:
        state = setup_unit(workload, unit, log)
    except Exception as err:  # a broken unit must not stop the run
        log.attempted += len(unit.calls)
        log.fail(len(unit.calls), f"{unit.name}: set-up raised {err!r}")
        return deadline is None or perf_counter() < deadline
    done, failed = [], set()
    for pos, spec in enumerate(unit.calls):
        if deadline is not None and log.attempted and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = f"{unit.name}:{pos}"
        if between is not None:
            between()
        log.attempted += 1
        start = process_time()
        try:
            result = workload.call(unit, state, spec)
        except Exception as err:
            log.record((unit.name, pos), 0, process_time() - start)
            log.fail(1, f"{unit.name}[{pos}]: raised {err!r}")
            failed.add(pos)
            done.append((spec, None))
            continue
        log.record((unit.name, pos), workload.answers(result), process_time() - start)
        done.append((spec, result))
        problem = workload.check(unit, spec, result)
        if problem is not None:
            failed.add(pos)
            log.fail(1, f"{unit.name}[{pos}]: {problem}")
    if len(done) == len(unit.calls) and not failed:
        digest = _digest(workload.outcome(s, r) for s, r in done)
        seen = log.unit_digests.setdefault(unit.name, digest)
        if seen != digest:
            log.fail(len(done), f"{unit.name}: answers differ from an earlier pass")
    return deadline is None or perf_counter() < deadline


def run_timed(workload, units, seconds: float) -> tuple[Log, Reference]:
    """Cycle over the units until the deadline, each unit starting cold,
    with set-ups and reference slices sampled between the calls."""
    log = Log()
    sampler = SetupSampler(workload, units, log)
    reference = Reference()

    def between() -> None:
        sampler()
        reference()

    deadline = perf_counter() + seconds
    while True:
        for unit in units:
            if not run_unit(workload, unit, log, deadline, between=between):
                reference()
                return log, reference


def run_fixed(workload, units) -> Log:
    log = Log()
    for unit in units:
        run_unit(workload, unit, log)
    return log


def run_traced(workload, units, tracer) -> tuple[float, float, Log, Log]:
    """Each unit untraced and then traced, so that both sides see about the
    same machine state; returns both times and both logs."""
    plain, traced = Log(), Log()
    plain_s = traced_s = 0.0
    for unit in units:
        start = perf_counter()
        run_unit(workload, unit, plain)
        middle = perf_counter()
        tracer.install()
        try:
            run_unit(workload, unit, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        plain_s += middle - start
        traced_s += perf_counter() - middle
    return plain_s, traced_s, plain, traced


def run_setups(workload, units) -> Log:
    """One timed cold set-up of every unit; a unit whose set-up raises
    counts as one failed operation."""
    log = Log()
    for unit in units:
        try:
            setup_unit(workload, unit, log)
        except Exception as err:
            log.attempted += 1
            log.fail(1, f"{unit.name}: set-up raised {err!r}")
    return log


def compare_recorded(log: Log, workload: str, seed: int, inputs: str) -> str:
    """Check the unit digests against digests.json; returns a status word."""
    path = HERE / "digests.json"
    record = json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    if record is None:
        return "not-recorded"
    if record["inputs"] != inputs:
        log.fail(1, f"inputs differ from those recorded for seed {seed}")
        return "inputs-differ"
    for name, digest in log.unit_digests.items():
        expected = record["units"].get(name)
        if expected is not None and expected != digest:
            log.fail(1, f"{name}: answers differ from the digest recorded for seed {seed}")
    return "checked"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    from credalcones import lp

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "backend": f"{lp._Q.__module__}.{lp._Q.__name__}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def import_package():
    """Put the checkout's src/ and this directory on sys.path; None when the
    checkout holds no package source."""
    if not (ROOT / "src" / "credalcones").is_dir():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads.WORKLOADS


def make_inputs(workload, seed: int, workdir: Path, scale: float = 1.0):
    """The workload's units for this seed, written under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return workload.generate(random.Random(f"{workload.name}:{seed}"), workdir, scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink every corpus (the self-test uses 0.1)"
    )
    args = parser.parse_args(argv)

    found = import_package()
    if found is None:
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in found:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = found[args.workload]()
    from tracer import PER_LAYER, Tracer

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        units = make_inputs(workload, args.seed, workdir, args.scale)
        inputs = input_digest(units)
        info = {"workload": args.workload, "seed": args.seed, "input_digest": inputs}
        if args.trace:
            work = units[: max(1, round(workload.trace_units * args.scale))]
            tracer = Tracer()
            untraced_s, traced_s, log, traced_log = run_traced(workload, work, tracer)
            for name, digest in traced_log.unit_digests.items():
                if log.unit_digests.get(name) != digest:
                    traced_log.fail(1, f"{name}: traced answers differ from untraced ones")
            log.absorb(traced_log)
            values = tracer.layer_metrics(untraced_s, traced_s)
            metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}.jsonl")
            info["traced_units"] = len(work)
        else:
            log = run_setups(workload, units)
            timed, reference = run_timed(workload, units, args.seconds)
            log.absorb(timed)
            log.unit_digests = timed.unit_digests
            medians = timed.call_medians()
            latencies = [t for _, t in medians]
            measured = {
                "setup_s": log.setup_s(),
                "answers_per_s": sum(a for a, _ in medians) / sum(latencies),
                "answer_p50_ms": statistics.median(latencies) * 1000,
            }
            scale = reference.scale()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": _metric(measured["setup_s"] * scale, "s"),
                "answers_per_s": _metric(measured["answers_per_s"] / scale, "1/s"),
                "answer_p50_ms": _metric(measured["answer_p50_ms"] * scale, "ms"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
            }
            info["measured"] = measured
            info["reference"] = {
                "slices": len(reference.times),
                "mean_s": statistics.fmean(reference.times),
                "nominal_s": REFERENCE_S,
                "scale": scale,
            }
            info["latency"] = {
                "calls": len(latencies),
                "samples": sum(len(times) for _, times in timed.calls.values()),
                "p50_ms": metrics["answer_p50_ms"]["value"],
            }
            if len(latencies) >= P90_MIN_SAMPLES:
                info["latency"]["p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1000 * scale
        if args.scale == 1.0:
            info["digest"] = compare_recorded(log, args.workload, args.seed, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["failed_frac"] = log.failed / log.attempted
    info["failures"] = log.messages
    info["provenance"] = provenance()
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
