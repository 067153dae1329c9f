"""The repository's benchmark: one workload per run, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload eval-synth --seed 1 --seconds 35 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Inputs are generated from ``--seed`` in a child process, so the
program sees only the generated files. The workload's batch is then repeated
in this process, one user or record after another, until ``--seconds`` have
passed, and every repeat's outputs are checked. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics from the traced ones. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (output
checks made and failed) and ``metrics``. See README.md in this directory for
why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if __name__ == "__main__" and not (SRC / "historiographer" / "__init__.py").is_file():
    sys.exit(f"error: program source not found under {SRC}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from historiographer import cli, cookies, harness, planner  # noqa: E402
from historiographer.attack import AttackConfig  # noqa: E402

BUDGETS = (110, 440, 2000)
SETUP_PROBES = 9
PLAN_MASS = 0.9

# Set-up as a user pays it: import the package and build the default plan
# from the bundled word list, in a fresh interpreter. Reference samples
# taken in the same interpreter just before and after give its speed.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {here!r})
import reference
ref = reference.Reference()
for _ in range(5):
    ref.sample()
start = time.perf_counter()
from historiographer import cli, planner
planner.build_plan(planner.bundled_wordlist(), mass_fraction={mass})
setup = time.perf_counter() - start
for _ in range(5):
    ref.sample()
print(setup, sum(ref.samples) / len(ref.samples))
""".format(here=str(HERE), mass=PLAN_MASS)


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def probe_setup():
    """Set-up seconds of one fresh interpreter, and its mean reference
    sample in seconds."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=_child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    setup_s, ref_s = map(float, done.stdout.split())
    return setup_s, ref_s


def generate(workload: str, seed: int, work: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work)],
        env=_child_env(), timeout=150, check=True,
    )
    return json.loads((work / "meta.json").read_text())


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


class Workload:
    """One workload: ``run`` is the timed batch, ``check`` checks its result
    and returns (checks made, failure messages), ``items`` counts the work
    units of one batch, and ``extras`` gives the workload's own metrics."""

    name = ""

    def __init__(self, work: Path, meta: dict, plan):
        self.work = work
        self.input = work / inputs.WRITERS[self.name][0]
        self.meta = meta
        self.first_bytes = None

    def same_bytes(self, *data: bytes) -> list:
        """Outputs must be byte-identical on every repeat."""
        if self.first_bytes is None:
            self.first_bytes = data
            return []
        return [] if data == self.first_bytes else ["output bytes differ from the first repeat"]


class EvalSynth(Workload):
    """CLI ``eval`` with the default plan, no budget and the default workers."""

    name = "eval-synth"

    def __init__(self, work, meta, plan):
        super().__init__(work, meta, plan)
        self.output = work / "report.json"
        self.argv = ["eval", str(self.input), "-o", str(self.output)]
        self.items = len(meta["users"])
        self.report = None

    def run(self):
        return cli.main(self.argv)

    def check(self, code):
        if code != 0:
            return 1, [f"eval exited with {code}"]
        failures = self.same_bytes(
            self.output.read_bytes(), (self.work / "report.per_user.csv").read_bytes()
        )
        self.report = json.loads(self.output.read_text())
        made, found = checks.check_eval(self.report, self.meta["users"])
        return made + 1, failures + found

    def extras(self, wall_s):
        requests = sum(row["n_requests"] for row in self.report["per_user"])
        return {
            "users_per_s": (self.items / wall_s, "1/s"),
            "requests_per_s": (requests / wall_s, "1/s"),
            "mean_recall": (self.report["mean_recall"], "ratio"),
            "mean_requests": (self.report["mean_requests"], "count"),
        }


class CurveAol(Workload):
    """Ingest an AOL-format log, then the recall curve at the paper's budgets."""

    name = "curve-aol"

    def __init__(self, work, meta, plan):
        super().__init__(work, meta, plan)
        self.config = AttackConfig(plan=plan)
        self.items = meta["users"] * len(BUDGETS)
        self.ingest_s = []
        self.points = None

    def run(self):
        start = time.perf_counter()
        histories, skipped = harness.ingest_query_log_counted(self.input)
        self.ingest_s.append(time.perf_counter() - start)
        return harness.recall_curve(histories, self.config, budgets=BUDGETS), skipped, len(histories)

    def check(self, result):
        points, skipped, users = result
        failures = self.same_bytes(json.dumps(points).encode())
        if users != self.meta["users"]:
            failures.append(f"ingested {users} users, generator wrote {self.meta['users']}")
        made, found = checks.check_curve(points, BUDGETS, skipped, self.meta)
        self.points = points
        return made + 2, failures + found

    def extras(self, wall_s):
        requests = sum(p["mean_requests"] for p in self.points) * self.meta["users"]
        out = {
            "users_per_s": (self.items / wall_s, "1/s"),
            "requests_per_s": (requests / wall_s, "1/s"),
            "ingest_rows_per_s": (self.meta["rows"] / statistics.median(self.ingest_s), "1/s"),
        }
        for p in self.points:
            out[f"recall_at_{p['budget']}"] = (p["mean_recall"], "ratio")
            out[f"mean_requests_at_{p['budget']}"] = (p["mean_requests"], "count")
        return out


class AuditTrace(Workload):
    """CLI ``audit`` with the bundled catalog."""

    name = "audit-trace"

    def __init__(self, work, meta, plan):
        super().__init__(work, meta, plan)
        self.output = work / "audit.json"
        self.argv = ["audit", str(self.input), "-o", str(self.output)]
        self.items = meta["records"]
        self.catalog = cookies.bundled_catalog()

    def run(self):
        return cli.main(self.argv)

    def check(self, code):
        if code != 0:
            return 1, [f"audit exited with {code}"]
        failures = self.same_bytes(
            self.output.read_bytes(), (self.work / "audit.services.csv").read_bytes()
        )
        made, found = checks.check_audit(json.loads(self.output.read_text()), self.meta, self.catalog)
        return made + 1, failures + found

    def extras(self, wall_s):
        return {"audit_records_per_s": (self.items / wall_s, "1/s")}


CLASSES = {cls.name: cls for cls in (EvalSynth, CurveAol, AuditTrace)}


def timed(workload):
    start = time.perf_counter()
    result = workload.run()
    return time.perf_counter() - start, result


class Measured:
    """What one run measured. ``walls`` are untraced batch seconds without
    the reference samples, and ``refs`` the mean reference-loop seconds of
    each. ``setup`` holds the (set-up, reference) seconds of each probe.
    ``traced_walls`` and ``layers`` come from traced repeats. ``made`` and
    ``failures`` count output checks."""

    def __init__(self):
        self.walls, self.refs, self.setup = [], [], []
        self.traced_walls, self.layers, self.tracer = [], [], None
        self.made, self.failures = 0, []

    def checked(self, workload, result) -> None:
        made, failures = workload.check(result)
        self.made += made
        self.failures += failures


def measure(workload, seconds: float, trace: bool) -> Measured:
    """Repeat the batch until ``seconds`` have passed. Untraced repeats run
    under the speed reference and give the end-to-end times. With ``trace``,
    each is followed by a traced one; without, ``SETUP_PROBES`` set-up probes
    are spread over the same interval, so that they see the same machine."""
    ref = reference.Reference()
    run = Measured()
    start = time.perf_counter()
    while True:
        wall, ref_s, result = ref.timed(workload.run)
        run.walls.append(wall)
        run.refs.append(ref_s)
        run.checked(workload, result)
        if trace:
            run.tracer = tracing.Tracer()
            with tracing.installed(run.tracer):
                wall, result = timed(workload)
            run.traced_walls.append(wall)
            run.checked(workload, result)
            run.layers.append(tracing.layer_metrics(run.tracer.spans, wall, workload.meta))
        elapsed = time.perf_counter() - start
        due = len(run.setup) < SETUP_PROBES and elapsed >= len(run.setup) * seconds / SETUP_PROBES
        if not trace and due:
            run.setup.append(probe_setup())
        if elapsed >= seconds:
            break
    while not trace and len(run.setup) < SETUP_PROBES:
        run.setup.append(probe_setup())
    return run


def traced_build_plan() -> float:
    """Median seconds of ``build_plan`` under tracing, over several calls."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for _ in range(5):
            planner.build_plan(planner.bundled_wordlist(), mass_fraction=PLAN_MASS)
    return statistics.median(
        s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.NAME] == "planner.build_plan"
    )


def load_spec() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CLASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": src_lines(),
    }
    print("context " + json.dumps(context, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        meta = generate(args.workload, args.seed, work)
        plan = planner.build_plan(planner.bundled_wordlist(), mass_fraction=PLAN_MASS)
        fixture = harness.run_batch(harness.bundled_volunteers(), AttackConfig(plan=plan))
        made, failures = checks.check_fixture(fixture.mean_recall)
        workload = CLASSES[args.workload](work, meta, plan)
        run = measure(workload, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
    made += run.made
    failures += run.failures

    wall_s = statistics.median(run.walls)
    shown = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (workload.items / wall_s, "1/s"),
        "wall_ref": (statistics.median(w / r for w, r in zip(run.walls, run.refs)), "ref"),
        "ref_ms": (statistics.median(run.refs) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_fraction": (len(failures) / made, "ratio"),
    }
    if run.setup:
        setup_ref = statistics.median(s / r for s, r in run.setup)
        shown["setup_s"] = (setup_ref * reference.LOOP_S, "s")
        shown["setup_raw_s"] = (statistics.median(s for s, _ in run.setup), "s")
    if not failures and not args.trace:
        shown.update(workload.extras(wall_s))
    print(f"{args.workload}: {len(run.walls)} untraced repeats of {workload.items} items"
          + (f", {len(run.traced_walls)} traced" if args.trace else "")
          + f", {len(run.setup)} set-up probes")
    for name, (value, unit) in shown.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")

    if args.trace:
        metrics = {
            name: statistics.median_low(layer[name] for layer in run.layers)
            for name in run.layers[0]
        }
        metrics["planner.build_plan.s"] = traced_build_plan()
        metrics["trace.wall_s"] = statistics.median(run.traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        print(f"per layer, median of {len(run.layers)} traced repeats:")
        for name in spec["per_layer"]:
            print(f"  {name:<42} {metrics[name]:>14.6g} {spec['per_layer'][name]}")
        run.tracer.write(OUT / f"spans-{args.workload}.jsonl")
        wanted = spec["per_layer"]
    else:
        metrics = {name: value for name, (value, _) in shown.items()}
        wanted = spec["end_to_end"]

    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    record = {
        "context": context,
        "walls": run.walls,
        "refs": run.refs,
        "traced_walls": run.traced_walls,
        "setup": run.setup,
        "shown": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "metrics": metrics,
        "failures": failures,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": made,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
