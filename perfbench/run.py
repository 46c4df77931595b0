"""Benchmark of the bloch_braids pipelines, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs a closed loop in this process: each operation is an
in-process ``bloch_braids.cli.main(["from-config", ...])`` on a generated
config, and the next starts only when the last has returned. Units of the
workload's pool (see workloads.py) repeat in whole passes over the pool
until ``--seconds`` have passed; the first unit is also run once before,
untimed and uncounted, as a warm-up. Every output is checked afterwards
(checks.py). With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics; with ``--trace 1`` one untimed pass over the
pool runs under the span tracer (spans.py) and the per-layer metrics are
printed instead, with the spans written to ``perfbench/results/``.

``--save-outputs DIR`` makes one untimed pass over the pool, as the traced
run does, and copies every CLI output and stdout summary into DIR, for
``perfbench/outdiff.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11


class Terminated(BaseException):
    """SIGTERM, raised so that the finally blocks remove the work directory.

    A BaseException, so neither the CLI nor the runner's SystemExit guard
    swallows it."""


def _terminate(signum, frame):
    raise Terminated()


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "bloch_braids" / "__init__.py").is_file():
        _fail(f"no bloch_braids sources under {SRC}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bloch_braids
    import bloch_braids.cli
    if Path(bloch_braids.__file__).resolve().parent != SRC / "bloch_braids":
        _fail(f"imported bloch_braids from {bloch_braids.__file__}, not from {SRC}")
    return bloch_braids


def setup(workload: str, seed: int, work: Path):
    """Everything before the first operation: imports, configs, models."""
    bb = _import_package()
    import workloads
    pool = workloads.generate(workload, seed)
    workloads.materialize(pool, work)
    for unit in pool:
        for op in unit:
            bb.ModelSpec.from_json_dict(op.doc["model"])
    return bb, pool


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first operation being ready."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                 "--workload", workload, "--seed", str(seed)],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            _fail(f"setup probe failed (exit {proc.returncode}, said {line!r})")
        out.append(ready - start)
    return out


class Runner:
    """Runs operations and records, per operation name, exit codes and output digests."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.executions: dict[str, list[int]] = {}     # name -> exit codes
        self.first: dict[str, tuple[str, str]] = {}    # name -> (digest, summary)
        self.mismatched: dict[str, int] = {}

    def run_unit(self, unit) -> list[tuple]:
        results = []
        for op in unit:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = self.cli.main(["from-config", op.path.name])
                except SystemExit as exc:       # argparse rejects the arguments
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception:               # a CLI process would exit 1 here
                    traceback.print_exc()
                    rc = 1
            results.append((op, rc, stdout.getvalue(), stderr.getvalue()))
        return results

    def record(self, results) -> None:
        """Outside the timed region: digest outputs so repeats can be compared."""
        for op, rc, summary, err in results:
            self.attempted += 1
            self.executions.setdefault(op.name, []).append(rc)
            if rc != 0:
                print(f"op {op.name} exited {rc}: {err.strip()}", file=sys.stderr)
                continue
            digest = hashlib.blake2b(op.out.read_bytes()).hexdigest()
            if op.name not in self.first:
                self.first[op.name] = (digest, summary)
            elif self.first[op.name] != (digest, summary):
                self.mismatched[op.name] = self.mismatched.get(op.name, 0) + 1


def check_outputs(runner: Runner, ops) -> tuple[int, bool]:
    """(failed executions, whether every output check held)."""
    import checks
    failed = 0
    correct = True
    for op in ops:
        codes = runner.executions.get(op.name)
        if not codes:
            continue
        failed += sum(1 for rc in codes if rc != 0)
        if op.name not in runner.first:
            continue
        problems = checks.CHECKS[op.check](op, runner.first[op.name][1])
        if runner.mismatched.get(op.name):
            problems.append(f"{runner.mismatched[op.name]} repeats gave different output")
        if problems:
            correct = False
            failed += sum(1 for rc in codes if rc == 0)
            for p in problems[:5]:
                print(f"check {op.name}: {p}", file=sys.stderr)
    return failed, correct


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "bloch_braids").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="BLOCH_BRAIDS_THREADS for the run (0: the workload's own choice)")
    parser.add_argument("--save-outputs", metavar="DIR", default=None)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    threads = (args.threads or workloads.THREADS.get(args.workload)
               or len(os.sched_getaffinity(0)))
    os.environ["BLOCH_BRAIDS_THREADS"] = str(threads)

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGTERM, _terminate)
    if args.setup_probe:
        try:
            setup(args.workload, args.seed, work)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    _import_package()
    save = Path(args.save_outputs).resolve() if args.save_outputs else None
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    try:
        bb, pool = setup(args.workload, args.seed, work)
        os.chdir(work)
        runner = Runner(bb.cli)
        warmup = pool[0] if args.workload != "braid_index" else \
            [op for op in pool[0] if op.doc["model"]["kind"] == "dimer"]
        runner.run_unit(warmup)     # not counted: each run counts whole passes only

        unit_times = []
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        start = time.perf_counter()
        i = 0
        while True:
            unit = pool[i % len(pool)]
            t0 = time.perf_counter()
            results = runner.run_unit(unit)
            unit_times.append(time.perf_counter() - t0)
            runner.record(results)
            i += 1
            # stop only at the end of a pass, so every unit counts equally
            if i % len(pool) == 0 and (args.trace or save
                                       or time.perf_counter() - start >= args.seconds):
                break
        if tracer:
            tracer.uninstall()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        ops = [op for unit in pool for op in unit]
        t_check = time.perf_counter()
        failed, correct = check_outputs(runner, ops)
        t_check = time.perf_counter() - t_check
        if save:
            save.mkdir(parents=True, exist_ok=True)
            for op in ops:
                if op.name in runner.first:
                    shutil.copyfile(op.out, save / op.out.name)
            summaries = {name: s for name, (_, s) in sorted(runner.first.items())}
            (save / "summaries.json").write_text(json.dumps(summaries, indent=1) + "\n")

        wall = statistics.median(unit_times)
        q1, q3 = quartiles(unit_times)
        print(f"workload {args.workload}, seed {args.seed}, threads {threads}, "
              f"{'traced' if args.trace else 'untraced'}")
        print(f"wall_s {wall:.6f} s: median of {len(unit_times)} units "
              f"(quartiles {q1:.6f}, {q3:.6f})")
        if args.trace:
            layer = tracer.metrics()
            layer["design.src_lines"] = src_lines()
            spans_path = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                      "threads": threads, "unit_times": unit_times,
                                      "metrics": layer})
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in layer.items()}
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            print(f"setup_s {metrics['setup_s']['value']:.6f} s: median of {len(setup_times)} "
                  f"fresh interpreters")
            print(f"peak_rss_mb {peak_mb:.3f} MB")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']} {m['unit']}")
        print(f"operations attempted {runner.attempted}, failed {failed}, "
              f"checks {'passed' if correct else 'FAILED'} in {t_check:.1f} s")
        print(json.dumps({"correct": correct, "attempted": runner.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "design.src_lines":
        return "lines"
    if name == "io.bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
