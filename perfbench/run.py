"""semnet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-c10-d20 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The run writes its seeded inputs
under ``.perfbench_work/`` (removed again at the end), then starts every
measured process fresh, one at a time, with BLAS pinned to
``BLAS_THREADS`` threads:

* ``--trace 0``: ``SETUP_SAMPLES - 1`` set-up-only processes, then one
  measured run; prints every end-to-end metric of ``BENCHMARK.json``.
* ``--trace 1``: one traced run, then an untraced reference run of the same
  number of operations; prints every per-layer metric, after checking that
  the traced run's losses equal the reference's bit for bit and that the
  per-step counts repeat exactly. The traced run alternates traced and
  untraced steps; ``trace.overhead_share`` compares the two.

The last line of standard output is the result object; the line before it
reports the environment, sample counts and quartiles. The exit code is 0
only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

from workloads import BLAS_THREADS, MIN_OPS, WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)


class Runner:
    def __init__(self, args, work_dir: str, deadline: float):
        self.args = args
        self.work_dir = work_dir
        self.deadline = deadline
        self.data_dir = os.path.join(work_dir, "data")
        self.checkpoint = None

    def worker(self, mode: str, **extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next worker")
        out_dir = os.path.join(self.work_dir, mode)
        os.makedirs(out_dir, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--data", self.data_dir,
               "--out", out_dir]
        if self.checkpoint:
            cmd += ["--checkpoint", self.checkpoint]
        for key, value in extra.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker did not finish within {remaining:.0f} s") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.stderr.write(proc.stderr[-4000:])
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(runner: Runner) -> tuple[dict, dict, bool, int, int]:
    setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = runner.worker("run")
    setups.append(main["setup_s"])
    raise_if_empty(main)
    op_s = main["op_s"]
    ok = main["failed"] == 0
    per_op = statistics.median(op_s) + main["finish"].get("amortised_s", 0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "img_per_s": main["batch"] / per_op,
        "peak_rss_mib": main["peak_rss_mib"],
        "loss_mean": statistics.fmean(main["losses"][:MIN_OPS]),
    }
    report = {
        "env": main["env"],
        "samples": {"setup_s": len(setups), "img_per_s": len(op_s),
                    "loss_mean": min(MIN_OPS, len(op_s)), "peak_rss_mib": 1},
        "setup_s": setups,
        "op_s_quartiles": quartiles(op_s),
        "warmup_s": main["warmup_s"],
        "finish": main["finish"],
        "errors": main["errors"],
    }
    return metrics, report, ok, main["attempted"], main["failed"]


def run_traced(runner: Runner) -> tuple[dict, dict, bool, int, int]:
    traced = runner.worker("trace", trace_out=os.path.join(
        WORK, f"trace-{runner.args.workload}-seed{runner.args.seed}.json"))
    raise_if_empty(traced)
    ref = runner.worker("ref", ops=len(traced["op_s"]))
    raise_if_empty(ref)
    same_losses = ([traced["warmup_loss"]] + traced["losses"]
                   == [ref["warmup_loss"]] + ref["losses"])
    ok = (traced["failed"] == 0 and ref["failed"] == 0
          and same_losses and traced["counts_repeated"])
    metrics = traced["layers"]
    report = {
        "env": traced["env"],
        "samples": {"traced_ops": len(traced["op_s"]), "reference_ops": len(ref["op_s"])},
        "losses_bit_identical": same_losses,
        "counts_repeated": traced["counts_repeated"],
        "attention_share_base": "median traced step time (trace.step_s)",
        "errors": traced["errors"] + ref["errors"],
    }
    return (metrics, report, ok, traced["attempted"] + ref["attempted"],
            traced["failed"] + ref["failed"])


def raise_if_empty(result: dict) -> None:
    if not result["op_s"]:
        raise BenchError(f"no operation succeeded ({result['failed']} of "
                         f"{result['attempted']} failed): {result['errors']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="semnet benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "semnet", "__init__.py")):
        print(f"perfbench: no semnet sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    # Every process the run starts inherits the BLAS pinning.
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    import inputs

    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps
    # the running worker, the input generators are killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = WORKLOADS[args.workload]
    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        runner = Runner(args, work_dir, deadline)
        runner.checkpoint = inputs.prepare(spec.variant, args.seed, runner.data_dir,
                                           checkpoint=spec.kind == "eval")
        run = run_traced if args.trace else run_untraced
        metrics, report, ok, attempted, failed = run(runner)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    report.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
