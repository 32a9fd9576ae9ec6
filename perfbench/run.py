"""Benchmark of logint: goodput, latency, failures, set-up time and memory.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Runs one workload (or all four) from the root of a source checkout; the
package is used from ``src/`` and never installed.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a JSON report
with the details: failure causes, tail percentile and sample count, the
machine's core count and load, and, when traced, per-layer self times.
See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 21  # set-up is timed this many times per run; the median counts
STARTUP_PROBES = 5
WORKER_TIMEOUT_S = 150
IMPORT_LAYERS = ("logint.specfun", "logint.quadrature", "logint.routes", "logint.cli")
# the parts of the program that the full-range probe's failures are counted by
PROBE_PARTS = (
    "raise", "cli", "numeric_I", "closed_form_trig", "closed_form_trigamma", "closed_form_gamma_derivative",
    "verify_lemma1", "verify_lemma2", "verify_lemma3", "verify_theorem",
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "full_range_correct_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_share", "share"), ("_ratio", "ratio"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.endswith((".calls", ".evals", "_per_op")):
        return "count/op"
    return "count"  # .fail and .dishonest: per pass over the input pool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], env: dict, stdin: str = "", timeout: float = 60) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, input=stdin, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done


def setup_seconds(workload: str, first_item: object, env: dict) -> tuple[float, float]:
    """Median set-up time over the probes: scaled by each probe's calibration, and as measured."""
    argv = [sys.executable, str(HERE / "probe_setup.py"), workload]
    stdin = json.dumps(first_item)
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        seconds, calibration_ns = run_child(argv, env, stdin).stdout.split()
        measured.append(float(seconds))
        scaled.append(float(seconds) * calibration.REFERENCE_NS / int(calibration_ns))
    return statistics.median(scaled), statistics.median(measured)


def startup_metrics(env: dict) -> dict:
    """Interpreter start, and import self time per logint module."""
    starts = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        run_child([sys.executable, "-c", "pass"], env)
        starts.append(perf_counter() - t0)
    imports: dict[str, list[float]] = {name: [] for name in IMPORT_LAYERS}
    for _ in range(STARTUP_PROBES):
        err = run_child([sys.executable, "-X", "importtime", "-c", "import logint.cli"], env).stderr
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in imports:
                imports[fields[2].strip()].append(int(fields[0]) / 1e6)
    metrics = {"startup.interpreter_s": statistics.median(starts)}
    for name, values in imports.items():
        metrics[f"import.{name}_s"] = statistics.median(values)
    return metrics


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Return (the contract line, the report) for one workload."""
    import oracle  # mpmath stays out of every process that imports logint

    env = child_env()
    inputs = wl.make_inputs(workload, seed)
    probe = wl.make_probe(workload, seed)
    refs = oracle.references(
        wl.exponents_needing_reference(workload, inputs + probe), wl.lemma1_points(workload, inputs)
    )
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "machine_start": machine()}
    run_child([sys.executable, "-c", "import logint.cli"], env)  # writes bytecode caches, untimed
    job = {
        "workload": workload, "inputs": inputs, "probe": probe, "refs": refs,
        "seconds": seconds, "trace": trace, "cli_env": env,
    }
    done = run_child([sys.executable, str(HERE / "worker.py")], env, json.dumps(job), WORKER_TIMEOUT_S)
    result = json.loads(done.stdout)
    plain = result["plain"]
    report["plain"] = plain
    report["full_range_probe"] = probe_result = result["probe"]
    full_range_correct_share = 1.0 - probe_result["failed"] / probe_result["inputs"]
    for key in ("untraced_evals_per_op", "untraced_dishonest"):
        if key in result:
            report[key] = result[key]
    if trace:
        traced = result["traced"]
        window = traced["window"]
        metrics = dict(traced["per_layer"])
        metrics.update(startup_metrics(env))
        for part in PROBE_PARTS:
            metrics[f"full_range.{part}.fail_share"] = probe_result["parts"].get(part, 0) / probe_result["inputs"]
        report["traced"] = window
        report["trace_identical"] = traced["trace_identical"]
        report["span_sample"] = traced["span_sample"]
        attempted = plain["attempted"] + window["attempted"]
        failed = plain["failed"] + window["failed"]
        correct = failed == 0 and not plain["unstable"] and not window["unstable"] and traced["trace_identical"]
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        setup_s, plain["measured"]["setup_s"] = setup_seconds(workload, inputs[0], env)
        metrics = {
            "ops_per_s": plain["ops_per_s"],
            "op_p50_ms": plain["op_p50_ms"],
            "op_tail_ms": plain["op_tail_ms"],
            "full_range_correct_share": full_range_correct_share,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        attempted, failed = plain["attempted"], plain["failed"]
        correct = failed == 0 and not plain["unstable"]
        units = END_TO_END_UNITS
    report["fail_share"] = plain["failed"] / plain["attempted"]
    report["machine_end"] = machine()
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return line, report


def print_summary(workload: str, line: dict, report: dict) -> None:
    plain = report["plain"]
    print(
        f"{workload}: {plain['attempted']} ops in {plain['passes']} passes, "
        f"fail_share {report['fail_share']:.4f}, causes {json.dumps(plain['causes'], sort_keys=True)}, "
        f"full-range probe: {report['full_range_probe']['failed']} of {report['full_range_probe']['inputs']} "
        f"fail, causes {json.dumps(report['full_range_probe']['causes'], sort_keys=True)}, "
        f"tail percentile {plain['tail_percentile']} of {plain['inputs']} inputs, "
        f"calibration best {plain['calibration_ms'][0]:.3f} ms, median {plain['calibration_ms'][1]:.3f} ms "
        f"(reference {plain['calibration_reference_ms']:g} ms)"
    )
    for name, metric in line["metrics"].items():
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "logint" / "__init__.py").is_file():
        print(f"error: no logint source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            line, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_summary(args.workload, line, report)
            print(json.dumps(report))
            print(json.dumps(line))
            return 0
        results = {}
        for workload in wl.WORKLOADS:
            for trace in (False, True):
                line, report = run_workload(workload, args.seed, args.seconds, trace)
                print_summary(workload + (" (traced)" if trace else ""), line, report)
                results.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = line
        print(json.dumps(results))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
