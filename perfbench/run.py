"""End-to-end benchmark of ``mkteff all``, with an optional traced pass.

Run from the repository root::

    python3 perfbench/run.py --workload paper-bands --seed 0 --seconds 50 --trace 0

Each invocation writes the seeded inputs of one workload (``workloads.py``),
then runs ``python -m mkteff.cli all --config ...`` as a fresh process, one at
a time in a closed loop, for about ``--seconds`` (at least one run). Before each
run it times ``python -m mkteff.cli --version`` as the set-up cost. Every run's
outputs are checked against the recorded reference (``check.py``). Wall time
is taken from spawn to exit; CPU time and peak RSS come from that child's own
``os.wait4`` rusage, which folds in the bootstrap pool workers it reaped.

The shared host this runs on switches between fast and slow states (up to
about 2x slower, for phases of seconds to minutes), and every raw time moves
with it. So before the first cycle and after each run a helper process
(``pace.py``) times a fixed scalar Python loop for about a third of a second
and reports the host's pace against a reference pace (1.0 at the reference,
larger when slower). Each set-up and run sample is divided by the mean of the
two paces that bracket its cycle, and the reported ``run_s``, ``cpu_s`` and
``setup_s`` are the medians of these scaled samples, in seconds at the
reference pace. The raw medians and the mean pace are printed too, and
reported as the ``raw.*`` and ``host.pace`` per-layer metrics. With
``--trace 1`` the same loop runs, followed by traced in-process passes
(``tracer.py``) that give the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, ``fail_ratio`` and the environment.
Everything the benchmark writes goes under ``.perfbench/``.

Other modes: ``--smoke`` runs tiny variants of the workloads (for
``test_smoke.py``); ``--write-reference`` re-records every reference output
and is only for a change that alters the outputs on purpose.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here and passed to every child: OpenBLAS would
# otherwise start one thread per core in each process, pool workers included.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

POOL_JOBS = 2  # workers of the traced pool pass behind bootstrap.parallel_eff
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
WORK = ".perfbench"
PYTHON = sys.executable

def child_env() -> dict:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log_path: str) -> tuple[float, int, float, float]:
    """Run one child to completion: (wall s, exit code, cpu s, peak RSS MB).

    The child's peak RSS is at least the high-water mark of this process at the
    fork, so everything large (writing the inputs, numpy) runs in other child
    processes, and this one stays far below the program's own peak.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


class Bench:
    """One workload on one input panel: inputs, reference and run records."""

    def __init__(self, workload, bank: int, smoke: bool, reference: dict | None):
        self.w = workload
        self.reference = reference
        self.root = os.path.join(WORK, "smoke" if smoke else "full", workload.name, str(bank))
        argv = [PYTHON, os.path.join(HERE, "workloads.py"), workload.name, str(bank), self.root]
        self.config = subprocess.run(argv + ["--smoke"] * smoke, env=child_env(), check=True,
                                     stdin=subprocess.DEVNULL, capture_output=True,
                                     text=True).stdout.strip()
        self.out = os.path.join(self.root, "out")
        self.runs: list[dict] = []
        self.probes: list[float] = []
        self._seen_log_lines: set[str] = set()

    def mkteff(self, tag: str, *extra: str, traced_spans: str | None = None) -> dict:
        """Run ``mkteff all`` once (optionally under the tracer) and check it."""
        from check import OutputMismatch, check

        shutil.rmtree(self.out, ignore_errors=True)
        prefix = [PYTHON, os.path.join(HERE, "tracer.py"), traced_spans] if traced_spans else [PYTHON, "-m", "mkteff.cli"]
        log = os.path.join(self.root, f"{tag}.log")
        wall, code, cpu, rss = spawn(prefix + ["all", "--config", self.config, *extra], log)
        with open(log, encoding="utf-8", errors="replace") as fh:
            for line in fh.read().splitlines():  # child warnings, once each
                if line not in self._seen_log_lines:
                    self._seen_log_lines.add(line)
                    print(line, file=sys.stderr)
        run = {"tag": tag, "run_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "exit_code": code,
               "ok": False, "byte_identical": False}
        if code != 0:
            run["error"] = f"exit code {code}; see {log}"
        elif self.reference is None:
            run["ok"] = True
        else:
            try:
                run["byte_identical"] = check(self.out, self.reference)
                run["ok"] = True
            except (OutputMismatch, OSError, ValueError) as exc:
                run["error"] = str(exc)
        if "error" in run:
            print(f"run {tag} failed: {run['error']}", file=sys.stderr)
        self.runs.append(run)
        return run

    def traced(self, tag: str, *extra: str) -> tuple[dict, dict[str, float]]:
        """One run under the tracer: its run record and its per-layer metrics."""
        from tracer import layer_metrics

        spans = os.path.join(self.root, f"spans_{tag}.json")
        if os.path.exists(spans):
            os.unlink(spans)
        run = self.mkteff(tag, *extra, traced_spans=spans)
        doc = {"spans": [], "counts": {}}  # a failed pass reports zeros and counts as failed
        if os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                doc = json.load(fh)
        return run, layer_metrics(doc)


def load_reference(name: str, bank: int, smoke: bool) -> dict:
    path = os.path.join(HERE, "reference", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["smoke" if smoke else "full"][str(bank)]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})",
        "threads": THREAD_VARS,
    }


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, float]:
    version = [PYTHON, "-m", "mkteff.cli", "--version"]
    log = os.path.join(bench.root, "setup.log")
    spawn(version, log)  # warm-up: byte-compiles the package once
    # One set-up sample before each run and a pace probe after each, so that
    # every cycle lies between two probes. No run starts that would, at the
    # mean pace so far, end past the window.
    probe = subprocess.Popen([PYTHON, os.path.join(HERE, "pace.py")], env=child_env(),
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def pace() -> float:
        probe.stdin.write("\n")
        probe.stdin.flush()
        return float(probe.stdout.readline())

    try:
        setup, probes = [], [pace()]
        start = time.perf_counter()
        while True:
            wall, code, _, _ = spawn(version, log)
            if code != 0:
                raise RuntimeError(f"mkteff --version exited with {code}; see {log}")
            setup.append(wall)
            bench.mkteff(f"run{len(bench.runs)}")
            probes.append(pace())
            elapsed = time.perf_counter() - start
            if elapsed * (len(setup) + 1) / len(setup) > seconds:
                break
    finally:
        probe.stdin.close()
        probe.wait()
    bench.probes = probes
    mean_pace = statistics.mean(probes)
    scale = [2 / (a + b) for a, b in zip(probes, probes[1:])]
    for run, f in zip(bench.runs, scale):
        run["pace_scale"] = f
    timed = [r for r in bench.runs if r["ok"]] or bench.runs
    raw = {k: statistics.median(r[k] for r in timed) for k in ("run_s", "cpu_s")}
    raw["setup_s"] = statistics.median(setup)
    m = {k: statistics.median(r[k] * r["pace_scale"] for r in timed) for k in ("run_s", "cpu_s")}
    m["setup_s"] = statistics.median(t * f for t, f in zip(setup, scale))
    m["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
    print("# raw (unscaled) medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
          + f"; host pace {mean_pace:.4f} (reference 1)")
    if not trace:
        return m

    own, layers = bench.traced("traced-serial", "--n-jobs", "1")
    layers["bootstrap.bands_njobs_s"] = layers["bootstrap.bands_s"]
    if bench.w.replications:  # the pool, on every bands workload
        pool_run, pool = bench.traced("traced-pool", "--n-jobs", str(POOL_JOBS))
        layers["bootstrap.bands_njobs_s"] = pool["bootstrap.bands_s"]
        if bench.w.n_jobs > 1:  # the pass run as the untraced runs were
            own = pool_run
    njobs_bands = layers["bootstrap.bands_njobs_s"]
    layers["bootstrap.parallel_eff"] = (
        layers["bootstrap.bands_s"] / (POOL_JOBS * njobs_bands) if njobs_bands else 0.0)
    layers["trace.untraced_work_s"] = raw["run_s"] - raw["setup_s"]
    # One traced run against the untraced median: host noise can make it negative.
    layers["trace.overhead_s"] = own["run_s"] - raw["run_s"]
    layers.update({f"raw.{k}": v for k, v in raw.items()})
    layers["host.pace"] = mean_pace
    layers["outputs.byte_identical"] = int(all(r["byte_identical"] for r in bench.runs))
    return layers


def write_references() -> None:
    """Record reference outputs for every workload and input panel."""
    from check import record
    from workloads import BANK_SIZE, SMOKE_WORKLOADS, WORKLOADS

    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in WORKLOADS:
        doc = {}
        for kind, table, banks in (("full", WORKLOADS, BANK_SIZE), ("smoke", SMOKE_WORKLOADS, 1)):
            doc[kind] = {}
            for bank in range(banks):
                bench = Bench(table[name], bank, kind == "smoke", None)
                run = bench.mkteff("reference")
                if not run["ok"]:
                    raise RuntimeError(f"{name} panel {bank}: {run['error']}")
                doc[kind][str(bank)] = record(bench.out)
                print(f"recorded {kind} {name} panel {bank}", file=sys.stderr)
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, on panel 0 whatever the seed")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mkteff", "__init__.py")):
        print(f"error: run from the repository root; {SRC}/mkteff not found", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.abspath(SRC)]
    from workloads import BANK_SIZE, SMOKE_WORKLOADS, WORKLOADS

    if args.write_reference:
        write_references()
        return 0
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.workload not in table:
        ap.error(f"--workload must be one of {', '.join(table)}")
    bank = 0 if args.smoke else args.seed % BANK_SIZE
    bench = Bench(table[args.workload], bank, args.smoke,
                  load_reference(args.workload, bank, args.smoke))
    metrics = measure(bench, args.seconds, bool(args.trace))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    unit = {d["name"]: d["unit"] for d in declared}
    if set(unit) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(unit) ^ set(metrics))}")
    failed = sum(not r["ok"] for r in bench.runs)
    env = environment()
    print(f"# workload {args.workload} seed {args.seed} (input panel {bank}), "
          f"{len(bench.runs)} runs, closed loop, one at a time")
    print("# env " + json.dumps(env, sort_keys=True))
    for name in unit:
        print(f"{name:32s} {metrics[name]:>14.6g} {unit[name]}")
    print(f"{'fail_ratio':32s} {failed / len(bench.runs):>14.6g} ratio  ({failed}/{len(bench.runs)})")
    with open(os.path.join(bench.root, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "runs": bench.runs, "pace_probes": bench.probes,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
