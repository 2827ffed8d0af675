#!/usr/bin/env python3
"""liftcert benchmark: one workload per process, a single closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and driven in process through ``liftcert.cli.main``, one
invocation at a time, with BLAS pinned to one thread.  The seed makes every
input (trial seeds, family files); see ``workloads.py``.

Untraced (``--trace 0``): set-up is measured ``SETUP_REPS`` times (import in
a fresh interpreter plus input generation and family build/load), then whole
jobs run back to back for ``--seconds`` (at least ``MIN_REPS``); workloads
with random inputs take fresh inputs each job.  Every report is checked
right after its call, outside the timed interval (each distinct report once),
and one configuration is run twice to confirm the reports are byte-identical.

Job and set-up times are reported at a reference speed.  While a call runs,
a timer signal interrupts it every ``PROBE_INTERVAL_S`` to time a fixed probe
kernel; the probe's own time is taken out of the call's, and the job's time
is scaled by ``PROBE_REF_S`` over the mean probe time of the job.  The machine this was
written on changes speed by up to 1.7x within seconds, so plain times spread
by 0.15-0.4 between runs, and a kernel timed only between calls cannot follow
a call that lasts seconds.  Plain times stay in the detail line.

Traced (``--trace 1``): jobs on one configuration run untraced for half the
time, then set-up plus one job run twice under the span tracer.  The two
traced passes must give identical call counts, and every per-layer metric of
BENCHMARK.json must name a function the tracer wrapped (one that no longer
exists fails the run instead of reading 0).

The last line of stdout is the result object; the line before it carries
provenance, sample counts and the full span table.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 15
#: Interval of the speed probe inside calls.  A probe takes about 1.2 ms, so
#: it adds about 5% to a call's time, which is then taken out again.
PROBE_INTERVAL_S = 0.025
#: Probe samples per job at least; a job with fewer inside its calls (short
#: calls, smoke runs) is topped up right after it.
MIN_PROBES = 8
#: Reference speed: scaled times are seconds on a machine where probe_kernel()
#: takes this long inside a call (about its time on the 2-core machine the
#: benchmark was written on, when that machine runs at its faster speed).
PROBE_REF_S = 0.0012
MIN_REPS = 2
TRACED_PASSES = 2
IMPORT_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import liftcert.cli; "
    "print(time.perf_counter() - t)"
)


def load_program():
    """Import the CLI from this checkout's src/, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import liftcert.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import liftcert from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent != SRC / "liftcert":
        raise SystemExit(f"error: liftcert imported from {cli.__file__}, not {SRC}")
    return cli


def read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- running calls ------------------------------------------------------------


@dataclass
class Ledger:
    """Outcomes of every invocation; each distinct report is checked once."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    verdicts: dict[tuple, str | None] = field(default_factory=dict)  # key -> error
    digests: dict[tuple, list[str]] = field(default_factory=dict)  # (config, call) -> digests

    def record(self, config: int, call_index: int, call, code: int | str,
               stdout: str) -> None:
        """Check one invocation's report (cached by digest) and keep its digest."""
        if call.out is not None:
            data = call.out.read_bytes() if call.out.exists() else b""
        else:
            data = stdout.encode()
        digest = hashlib.sha256(data).hexdigest()
        key = (call.argv, code, digest)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(call, code, data)
        self.attempted += 1
        if self.verdicts[key] is not None:
            self.fail(f"{' '.join(call.argv)}: {self.verdicts[key]}")
        self.digests.setdefault((config, call_index), []).append(digest)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_reruns(self) -> None:
        """Fail every configuration whose reruns produced a different report."""
        for (config, index), digests in self.digests.items():
            if len(set(digests)) > 1:
                self.fail(f"config {config} call {index}: report differs on rerun")

    def repeated(self) -> bool:
        return any(len(d) > 1 for d in self.digests.values())

    @staticmethod
    def _verdict(call, code: int | str, data: bytes) -> str | None:
        if code != call.exit_code:
            return f"exit code {code}, expected {call.exit_code}"
        try:
            call.check(data.decode())
        except Exception as exc:  # any malformed report is a failed check
            return f"{type(exc).__name__}: {exc}"
        return None


_PROBE_MATS = [a @ a.T for a in np.random.default_rng(0).standard_normal((16, 3, 3))]


def probe_kernel() -> float:
    """Seconds taken by a fixed kernel of dict churn, JSON encoding and 3 x 3
    dense linear algebra, the mix of work the program does.  Its time tracks
    the machine's current speed.  Its memory is a few kilobytes, far below
    the program's, so it does not set peak_rss_mb."""
    t0 = time.perf_counter()
    for r in range(5):
        table = {(i, i & 7): (i * i + r) % 97 for i in range(300)}
        json.dumps(sorted(table.items())[:50])
    for m in _PROBE_MATS:
        _, vecs = np.linalg.eigh(m)
        q, _ = np.linalg.qr(vecs)
        np.linalg.svd(q)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times probe_kernel() every PROBE_INTERVAL_S while the block runs, from a
    timer signal; the signal handler runs between the program's bytecodes."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference(seconds: float, samples: list[float]) -> float:
    """`seconds` at the reference speed, from the probe samples taken during
    them, topped up to MIN_PROBES right after."""
    samples = samples + [probe_kernel() for _ in range(MIN_PROBES - len(samples))]
    return seconds * PROBE_REF_S / statistics.fmean(samples)


def run_jobs(cli, plan, configs, ledger: Ledger, scaled: bool = False):
    """Run one job per configuration; return the seconds spent inside cli.main,
    raw and scaled to the reference speed (probing inside every call when
    `scaled`, else the raw figure twice).  Each report is checked after its
    call, outside the timed interval."""
    raw = 0.0
    samples: list[float] = []
    for config in configs:
        for index, call in enumerate(plan.calls(config)):
            if call.out is not None:
                call.out.unlink(missing_ok=True)  # a stale file must not pass
            out, err = io.StringIO(), io.StringIO()
            probe = SpeedProbe() if scaled else nullcontext(SpeedProbe())
            t0 = time.perf_counter()
            try:
                with probe as probed, redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(call.argv))
            except Exception as exc:  # a crash is a failed operation, not the end
                code = f"raised {type(exc).__name__}: {exc}"
            raw += time.perf_counter() - t0 - sum(probed.samples)
            samples += probed.samples
            ledger.record(config, index, call, code, out.getvalue())
    return raw, at_reference(raw, samples) if scaled else raw


def timed(seconds: float, min_reps: int, rep) -> list:
    """Call rep(i) back to back until `seconds` have passed and `min_reps` are done."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < seconds:
        gc.collect()
        times.append(rep(len(times)))
    return times


# --- set-up -------------------------------------------------------------------


def import_seconds() -> float:
    """Import time of the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, work: Path, seed: int, smoke: bool, reps: int):
    """`reps` fresh set-ups; returns their seconds, raw and at the reference
    speed, and the plan of the first.  The import runs in a fresh process, so
    the speed during it is probed right before and after it."""
    raw, at_ref, plan = [], [], None
    for rep in range(reps):
        rep_dir = work / f"setup-{rep}"
        rep_dir.mkdir()
        samples = [probe_kernel() for _ in range(MIN_PROBES // 2)]
        imported = import_seconds()
        with SpeedProbe() as probed:
            t0 = time.perf_counter()
            p = workload.setup(rep_dir, seed, smoke)
            built = time.perf_counter() - t0 - sum(probed.samples)
        raw.append(imported + built)
        at_ref.append(at_reference(raw[-1], samples + probed.samples))
        plan = plan or p
    return raw, at_ref, plan


# --- traced passes -----------------------------------------------------------


def traced_pass(cli, workload, work: Path, seed: int, smoke: bool,
                ledger: Ledger) -> dict:
    """Set-up plus the jobs of configurations 0 .. traced_jobs - 1 under the
    tracer."""
    from liftcert import atoms, bitcore

    tracer = spans.Tracer()
    work.mkdir()
    tracer.install("liftcert")
    try:
        plan = workload.setup(work, seed, smoke)
        job_lo = tracer.mark()
        gc.collect()
        wall, _ = run_jobs(cli, plan, range(plan.traced_jobs), ledger)
    finally:
        tracer.uninstall()
    all_spans = tracer.summary()
    job_spans = tracer.summary(job_lo)
    counts = {k: c[0] for k, c in tracer.counts.items()}
    trials = tracer.trial_ms(job_lo)
    try:
        vals = [bitcore.val(atoms.evaluate(f)) for f in tracer.samples]
    except Exception as exc:  # the program's own evaluate failed on its samples
        ledger.fail(f"val of sampled atoms raised {type(exc).__name__}: {exc}")
        vals = []
    return {
        "wall_s": wall,
        "spans": all_spans,
        "job_spans": job_spans,
        "counts": counts,
        "contains": tracer.contains and list(tracer.contains),
        "timed": set(tracer.names),
        "trial_ms": trials,
        "val0": sum(v == 0 for v in vals),
        "sampled": len(vals),
    }


def call_counts(p: dict) -> dict:
    out = {f"{k}.calls": row["calls"] for k, row in p["spans"].items()}
    out.update({f"{k}.calls": c for k, c in p["counts"].items()})
    if p["contains"] is not None:
        out["covering.Rectangle.contains.calls"] = p["contains"][0]
        out["covering.Rectangle.contains.hits"] = p["contains"][1]
    return out


def layer_metrics(p: dict, base_wall: float) -> dict[str, float]:
    """Every per-layer figure the traced pass yields.  A figure that rests on a
    function the tracer did not find is left out, never set to 0."""
    m: dict[str, float] = {}
    for k, row in p["spans"].items():
        for stat, v in row.items():
            m[f"{k}.{stat}"] = v
    m.update(call_counts(p))
    if p["contains"] is not None:
        calls, hits = p["contains"]
        m["covering.contains.hit_ratio"] = hits / calls if calls else 0.0
    if spans.SAMPLER in p["timed"]:
        m["atoms.val0_frac"] = p["val0"] / p["sampled"] if p["sampled"] else 0.0
        if p["timed"] & spans.ORACLE_RUNNERS:
            m["atoms.trial_ms.p50"] = spans.percentile(p["trial_ms"], 50)
            m["atoms.trial_ms.p99"] = spans.percentile(p["trial_ms"], 99)
    m["trace_overhead_frac"] = p["wall_s"] / base_wall
    return m


def module_shares(job_spans: dict, wall: float) -> dict[str, float]:
    """Share of the traced job's wall time per function (inclusive) and per
    module (self time)."""
    out = {k: row["s"] / wall for k, row in job_spans.items()}
    for layer in spans.LAYERS:
        out[f"{layer}.self_share"] = sum(
            row["self_s"] for k, row in job_spans.items() if k.startswith(layer + ".")
        ) / wall
    return out


# --- provenance --------------------------------------------------------------


def provenance() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "liftcert").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_rev = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_rev": git_rev,
        "src_sha256": src_hash.hexdigest(),
    }


# --- one run -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result object, detail object)."""
    cli = load_program()
    import workloads

    spec = read_spec()
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup_reps = 1 if smoke or trace else SETUP_REPS
        setup_raw, setup_times, plan = measure_setup(workload, work, seed, smoke,
                                                     setup_reps)
        ledger = Ledger()
        detail: dict = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "why": workload.why, "provenance": provenance(),
            "items_per_job": plan.items, "item": plan.item,
        }
        if not trace:
            jobs = timed(seconds, MIN_REPS, lambda i: run_jobs(
                cli, plan, [i if plan.cycles else 0], ledger, scaled=True))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not ledger.repeated():
                run_jobs(cli, plan, [0], ledger)
            ledger.check_reruns()
            times = [at_ref for _, at_ref in jobs]
            values = {
                "wall_s": statistics.median(times),
                "items_per_s": statistics.median(plan.items / t for t in times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_mb,
            }
            detail["samples"] = {"wall_s": len(times), "items_per_s": len(times),
                                 "setup_s": len(setup_times), "peak_rss_mb": 1}
            detail["items_done"] = plan.items * len(times)
            detail["job_s"] = {"raw": [r for r, _ in jobs], "at_ref": times}
            detail["setup_samples_s"] = {"raw": setup_raw, "at_ref": setup_times}
            detail["unscaled_wall_s"] = statistics.median(r for r, _ in jobs)
            wanted = spec["end_to_end"]
        else:
            base = timed(seconds / 2, 1, lambda i: run_jobs(
                cli, plan, range(plan.traced_jobs), ledger)[0])
            passes = [traced_pass(cli, workload, work / f"traced-{k}", seed, smoke,
                                  ledger)
                      for k in range(TRACED_PASSES)]
            ledger.check_reruns()
            if any(call_counts(p) != call_counts(passes[0]) for p in passes[1:]):
                ledger.fail("call counts differ between traced passes")
            first = passes[0]
            values = layer_metrics(first, statistics.median(base))
            detail["untraced_job_s"] = base
            detail["traced_job_s"] = [p["wall_s"] for p in passes]
            detail["trial_samples"] = len(first["trial_ms"])
            detail["spans"] = first["spans"]
            detail["job_shares"] = module_shares(first["job_spans"], first["wall_s"])
            wanted = spec["per_layer"]
        for m in wanted:
            if m["name"] not in values:
                ledger.fail(f"metric {m['name']} names nothing the program still has")
        detail["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
        detail["errors"] = ledger.errors
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted if m["name"] in values},
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def smoke() -> dict[tuple[str, int], tuple[dict, dict]]:
    """Every workload, untraced and traced, at reduced size (a few seconds)."""
    return {(w["name"], trace): run_workload(w["name"], seed=0, seconds=0,
                                             trace=bool(trace), smoke=True)
            for w in read_spec()["workloads"] for trace in (0, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=read_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check at reduced size")
    args = parser.parse_args(argv)
    if args.smoke:
        results = smoke()
        ok = all(r["correct"] for r, _ in results.values())
        for (name, trace), (result, _) in results.items():
            print(json.dumps({"workload": name, "trace": trace, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"]}))
        return 0 if ok else 1
    names = [w["name"] for w in read_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
