"""Benchmark of the diraclab command line.

    python3 bench/run.py --workload ladders --seed 1 --seconds 60 --trace 0

Run it inside a source checkout.  It writes only to ``.bench_build/`` at the
checkout root and to the ``__pycache__`` directories of the package and of
``bench/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` installs the CLI from ``src/`` (byte-compiled, with a launcher
equivalent to the console script in ``pyproject.toml``), times
``diraclab ledger`` as the set-up cost, then runs whole passes of the
workload's invocations, one process after another, for about ``--seconds``
of pass time.  The set-up is timed before the first pass and after every
pass, so that its median sees the machine throughout the run.  It reports
the median over passes of wall and CPU time and of the largest resident set,
and the median set-up time.

``--trace 1`` runs three passes in process, the middle one traced (see
``tracing.py``), and reports the per-layer metrics plus the tracing overhead
against the mean of the two untraced passes.

Each CLI invocation is one operation: a nonzero exit fails it, and a report
that fails its check (see ``workloads.py``) fails it and clears ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import tomllib
from dataclasses import dataclass
from pathlib import Path

from workloads import LEDGER, WORKLOADS, Invocation, Workload, scipy_radial_check, write_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPEATS = 3  # set-up samples before the passes and after each one
RUN_LIMIT_S = 170.0  # every child is killed past this point; a run must end within 180 s


class BenchError(Exception):
    """The checkout cannot be built or the set-up command fails."""


def compile_package() -> tuple[str, str, dict]:
    """Byte-compile the package in place; return the console script's module and function and the child env."""
    try:
        meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        module, func = meta["project"]["scripts"]["diraclab"].split(":")
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no diraclab console script in {ROOT / 'pyproject.toml'}: {exc}") from exc
    package = SRC / module.partition(".")[0]
    if not package.is_dir():
        raise BenchError(f"no package sources at {package}")
    env = dict(os.environ)
    env.pop("DIRACLAB_MAX_WORKERS", None)  # the package default (1) applies
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing outside the checkout is written
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(package)], env=env, capture_output=True, text=True
    )
    if compiled.returncode != 0:
        raise BenchError(f"byte-compiling {package} failed:\n{compiled.stdout}{compiled.stderr}")
    return module, func, env


def install() -> tuple[Path, dict]:
    """Compile the package and write the `diraclab` console-script launcher for the CLI processes."""
    module, func, env = compile_package()
    launcher = BUILD / "bin" / "diraclab"
    launcher.parent.mkdir(parents=True, exist_ok=True)
    launcher.write_text(
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\nfrom {module} import {func}\nsys.exit({func}())\n",
        encoding="utf-8",
    )
    return launcher, env


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int


class Tally:
    """Operations attempted and failed, and whether every report checked out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def problem(self, text: str) -> None:
        self.correct = False
        sys.stderr.write(f"check failed: {text}\n")

    def record(self, inv: Invocation, code: int, report: Path) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            sys.stderr.write(f"{inv.name}: exit code {code}\n")
            return
        try:
            problems = inv.check(json.loads(report.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        if problems:
            self.failed += 1
            for text in problems:
                self.problem(f"{inv.name}: {text}")

    def identical(self, workload: Workload, work: Path) -> None:
        for a, b in workload.identical:
            try:
                texts = [
                    [line for line in _report(work, name).read_text(encoding="utf-8").splitlines()
                     if '"generated_at"' not in line]
                    for name in (a, b)
                ]
            except OSError as exc:
                self.problem(f"cannot compare reports {a} and {b}: {exc}")
                continue
            if texts[0] != texts[1]:
                self.problem(f"reports {a} and {b} differ for identical config and seed")


def _report(work: Path, name: str) -> Path:
    return work / f"{name}.report.json"


def _argv(inv: Invocation, work: Path) -> list[str]:
    return [inv.command, "--config", str(work / f"{inv.name}.json"), "--out", str(_report(work, inv.name))]


def run_cli(launcher: Path, env: dict, inv: Invocation, work: Path, deadline: float) -> Sample:
    """One CLI process, timed from spawn to reap; rusage comes from wait4 for this child alone."""
    _report(work, inv.name).unlink(missing_ok=True)
    with open(work / f"{inv.name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(launcher), *_argv(inv, work)],
            cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def run_pass(launcher: Path, env: dict, workload: Workload, work: Path, tally: Tally, deadline: float) -> list[Sample]:
    """The workload's invocations, one process after another, each checked."""
    samples = []
    for inv in workload.invocations:
        sample = run_cli(launcher, env, inv, work, deadline)
        tally.record(inv, sample.code, _report(work, inv.name))
        samples.append(sample)
    tally.identical(workload, work)
    return samples


def measure(workload: Workload, seconds: float, work: Path, tally: Tally, deadline: float) -> dict[str, float]:
    launcher, env = install()

    def ledger() -> float:
        sample = run_cli(launcher, env, LEDGER, work, deadline)
        if sample.code != 0 or LEDGER.check(json.loads(_report(work, LEDGER.name).read_text(encoding="utf-8"))):
            raise BenchError(f"set-up command failed; see {work / 'ledger.stderr'}")
        return sample.wall

    ledger()  # warm the file cache for the interpreter, numpy and the package
    setup = [ledger() for _ in range(SETUP_REPEATS)]

    passes: list[list[Sample]] = []
    measured = 0.0  # pass time so far; the set-up samples between passes do not count
    while True:
        start = time.monotonic()
        samples = run_pass(launcher, env, workload, work, tally, deadline)
        measured += time.monotonic() - start
        passes.append(samples)
        sys.stderr.write(
            f"pass {len(passes)}: wall {sum(s.wall for s in samples):.3f} s, cpu {sum(s.cpu for s in samples):.3f} s, "
            f"invocations {' '.join(f'{s.wall:.3f}' for s in samples)}\n"
        )
        setup += [ledger() for _ in range(SETUP_REPEATS)]
        # whole passes only; stop before one that would overrun the run length
        typical = statistics.median(sum(s.wall for s in p) for p in passes)
        if measured + typical > seconds or time.monotonic() + typical > deadline:
            break
    sys.stderr.write(f"setup: {' '.join(f'{t:.3f}' for t in setup)}\n")
    return {
        "wall_s": statistics.median(sum(s.wall for s in p) for p in passes),
        "cpu_s": statistics.median(sum(s.cpu for s in p) for p in passes),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in passes),
        "setup_s": statistics.median(setup),
    }


def in_process_pass(cli, workload: Workload, work: Path, tally: Tally) -> float:
    """Wall time of one pass through `cli.main` in this process."""
    start = time.perf_counter()
    for inv in workload.invocations:
        _report(work, inv.name).unlink(missing_ok=True)
        try:
            code = cli.main(_argv(inv, work))
        except Exception as exc:  # an escaped traceback is a failed operation
            sys.stderr.write(f"{inv.name}: {exc!r}\n")
            code = -1
        tally.record(inv, code, _report(work, inv.name))
    tally.identical(workload, work)
    return time.perf_counter() - start


def traced(workload: Workload, seed: int, work: Path, tally: Tally) -> dict[str, float]:
    from tracing import Tracer

    compile_package()  # the in-process passes need no launcher
    os.environ.pop("DIRACLAB_MAX_WORKERS", None)
    from diraclab import cli

    # untraced passes on both sides of the traced one, so that a warm-up
    # effect or a drift in machine speed does not land in the overhead
    before = in_process_pass(cli, workload, work, tally)
    tracer = Tracer()
    tracer.install()
    if tracer.missing:
        tracer.uninstall()
        raise BenchError(f"trace targets not found, so their layers cannot be measured: {', '.join(tracer.missing)}")
    try:
        with_spans = in_process_pass(cli, workload, work, tally)
    finally:
        tracer.uninstall()
    plain = (before + in_process_pass(cli, workload, work, tally)) / 2.0
    sys.stderr.write(f"in-process passes: untraced {plain:.3f} s (mean of two), traced {with_spans:.3f} s\n")
    tracer.write(BUILD / "trace" / f"{workload.name}-seed{seed}.json")
    metrics = tracer.metrics()
    metrics["cli.report_bytes"] = sum(_report(work, inv.name).stat().st_size for inv in workload.invocations)
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_ratio"] = (with_spans - plain) / plain
    return metrics


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))  # for the in-process runs and the radial reference check

    workload = WORKLOADS[args.workload](args.seed)
    work = BUILD / "runs" / f"{workload.name}-seed{args.seed}"
    write_configs(workload, work)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced(workload, args.seed, work, tally)
        else:
            metrics = measure(workload, args.seconds, work, tally, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if workload.radial_reference:
        try:
            problems = scipy_radial_check()
        except ImportError as exc:
            problems = [f"cannot compare with scipy.special: {exc}"]
        for text in problems:
            tally.problem(text)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
