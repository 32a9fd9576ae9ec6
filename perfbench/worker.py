"""The measuring process: times one workload's ops in a closed loop.

Reads a job (workload, input pool, references, seconds, trace flag) as JSON
on stdin and writes one JSON result on stdout.  It runs in its own
interpreter so that its peak memory is logint's and the harness's, not the
oracle's.  Ops run one at a time, back to back, in whole passes over the
pool; every output is checked against the references after its pass, off
the clock.  With tracing on, the first half of the time is measured plain
and the second half traced, so the tracing overhead and the bit-identity of
traced outputs come from the same process.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

import calibration
import workloads as wl
from tracer import TRACE_MARK, Tracer

TRACED_FUNCTIONS = (
    "quadrature.integrate_finite",
    "quadrature.integrate_semi_infinite",
    "quadrature.integrate_bilateral",
    "specfun.hurwitz_zeta",
    "specfun.lgamma",
    "specfun.polygamma",
    "specfun.trigamma",
    "specfun.cot_derivative",
    "routes.numeric_I",
    "routes.closed_form_trig",
    "routes.closed_form_trigamma",
    "routes.closed_form_gamma_derivative",
    "routes.intermediate_form",
    "routes.evaluate_all_routes",
    "routes.verify_lemma1",
    "routes.verify_lemma2",
    "routes.verify_lemma3",
    "routes.verify_theorem",
    "cli.main",
)
FAIL_ROUTES = tuple(name for name in TRACED_FUNCTIONS if name.startswith("routes."))


def one_pass(
    op: Callable, inputs: list, calibrator: calibration.Calibrator | None = None
) -> tuple[list[int], list, list[int]]:
    """Run every input once; a raising op is recorded, not propagated.

    Returns each op's time in nanoseconds, its result, and the time of the
    calibration that ran after the op's block, off the clock (0 without a
    calibrator).
    """
    clock = perf_counter_ns
    size = len(inputs)
    op_ns, results, calibration_ns = [0] * size, [None] * size, [0] * size
    block_start, block_ns = 0, 0
    for i, item in enumerate(inputs):
        start = clock()
        try:
            results[i] = op(item)
        except Exception as exc:
            results[i] = exc
        op_ns[i] = clock() - start
        block_ns += op_ns[i]
        if calibrator is not None and (block_ns >= calibrator.block_ns or i == size - 1):
            calibration_ns[block_start : i + 1] = [calibrator.sample_ns()] * (i + 1 - block_start)
            block_start, block_ns = i + 1, 0
    return op_ns, results, calibration_ns


def measure(
    workload: str,
    op: Callable,
    inputs: list,
    refs: dict,
    seconds: float,
    min_passes: int = wl.MIN_PASSES,
    after_first_pass: Callable[[], None] | None = None,
    output_of: Callable[[Any], Any] = lambda result: result,
    calibrator: calibration.Calibrator = calibration.IN_PROCESS,
) -> dict:
    """Whole passes over the pool, at least ``min_passes``, then until the
    next one would overrun ``seconds``.

    Each pass runs the pool in a new order, fixed by the pass number, so
    that a garbage collection or other periodic cost does not land on the
    same input in every pass.  Each op time is scaled by the calibration
    that ran right after its block (see calibration.py), and each input
    keeps the median of its scaled times over the passes.  The report keeps
    the median unscaled times under ``measured``.
    """
    size = len(inputs)
    op_samples: list[list[int]] = [[] for _ in range(size)]
    scaled_samples: list[list[float]] = [[] for _ in range(size)]
    calibrations: list[int] = []
    pass_ns: list[int] = []
    ok_per_pass: list[int] = []
    first_sigs: list[str] = []
    first_causes: list[list[str]] = []
    unstable = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        order = list(range(size))
        random.Random(len(pass_ns)).shuffle(order)
        op_ns, shuffled, calibration_ns = one_pass(op, [inputs[i] for i in order], calibrator)
        calibrations.extend(calibration_ns)
        results: list[Any] = [None] * size
        for k, i in enumerate(order):
            results[i] = shuffled[k]
            op_samples[i].append(op_ns[k])
            scaled_samples[i].append(op_ns[k] * calibrator.reference_ns / calibration_ns[k])
        sigs = [wl.signature(workload, output_of(r)) for r in results]
        if after_first_pass is not None and not pass_ns:
            after_first_pass()
        if not pass_ns:
            first_sigs = [repr(s) for s in sigs]
            first_causes = [wl.check(workload, item, s, refs) for item, s in zip(inputs, sigs)]
            causes = first_causes
        else:
            causes = []
            for i, s in enumerate(sigs):
                if repr(s) == first_sigs[i]:
                    causes.append(first_causes[i])
                else:
                    unstable += 1
                    causes.append(wl.check(workload, inputs[i], s, refs))
        ok_per_pass.append(sum(1 for c in causes if not c))
        pass_ns.append(sum(op_ns))
        if len(pass_ns) >= min_passes and perf_counter() - start + (perf_counter() - pass_start) > seconds:
            break
    attempted = len(pass_ns) * size
    tail_pct = wl.tail_percentile(size)

    def summary(samples: list[list[float]]) -> dict:
        kept = [statistics.median(s) for s in samples]
        ordered = sorted(kept)
        return {
            # correct ops per second of a pass with every op at its kept time
            "ops_per_s": min(ok_per_pass) * 1e9 / sum(kept),
            "op_p50_ms": wl.percentile(ordered, 50.0) / 1e6,
            "op_tail_ms": wl.percentile(ordered, tail_pct) / 1e6,
        }

    return {
        **summary(scaled_samples),
        "measured": summary(op_samples),
        "calibration_ms": [min(calibrations) / 1e6, statistics.median(calibrations) / 1e6],
        "calibration_reference_ms": calibrator.reference_ns / 1e6,
        "tail_percentile": tail_pct,
        "inputs": size,
        "passes": len(pass_ns),
        "pass_s_median": statistics.median(pass_ns) / 1e9,
        "op_ns_total": sum(pass_ns),
        "attempted": attempted,
        "failed": attempted - sum(ok_per_pass),
        "unstable": unstable,
        "causes": dict(Counter(c for cs in first_causes for c in cs)),
        "failed_inputs_per_pass": sum(1 for c in first_causes if c),
        "signatures": first_sigs,
    }


def full_range_probe(workload: str, op: Callable, probe: list, refs: dict) -> dict:
    """One untimed pass over the full-range probe, checked like a timed pass."""
    _, results, _ = one_pass(op, probe)
    causes = [wl.check(workload, item, wl.signature(workload, r), refs) for item, r in zip(probe, results)]
    return {
        "inputs": len(probe),
        "failed": sum(1 for c in causes if c),
        "causes": dict(Counter(c for cs in causes for c in cs)),
        # failing inputs by the part of the program named before a cause's
        # colon: a route, a verifier, "cli" or "raise"
        "parts": dict(Counter(part for cs in causes for part in {c.split(":", 1)[0] for c in cs})),
    }


def calibrator_for(workload: str, cli_env: dict) -> calibration.Calibrator:
    return calibration.interpreter_start(cli_env) if workload == "cli_cold" else calibration.IN_PROCESS


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def sweep_counts(routes: Any, inputs: list, refs: dict) -> dict:
    """Evaluations per op and dishonest outcomes, from QuadratureOutcome alone."""
    evals = 0
    dishonest = 0
    for n in inputs:
        try:
            q = routes.evaluate_all_routes(n).quadrature
        except Exception:
            continue
        evals += q.evaluations
        dishonest += wl.is_dishonest(q.value, q.error_estimate, q.converged, refs["I"][repr(n)])
    return {"untraced_evals_per_op": evals / len(inputs), "untraced_dishonest": dishonest}


# ------------------------------------------------------------- traced runs


class ChildTraces:
    """Collects what traced CLI processes report on their last stderr line."""

    def __init__(self) -> None:
        self.reports: list[dict] = []

    def strip(self, result: Any) -> Any:
        if isinstance(result, BaseException):
            return result
        code, out, err = result
        head, mark, tail = err.rpartition(TRACE_MARK)
        if mark:
            self.reports.append(json.loads(tail))
            err = head
        return code, out, err


def classify_records(records: list, refs: dict) -> tuple[Counter, int]:
    """Route failures and dishonest quadrature outcomes among recorded results."""
    fails: Counter = Counter()
    dishonest = 0
    for name, key, summary in records:
        failed_call = isinstance(summary, dict)  # {"raise": type name}
        if name == "quadrature.integrate_bilateral":
            ref = refs["lemma1"].get(f"{key[0]}:{key[1]!r}") if key else None
            if ref is not None and not failed_call and wl.is_dishonest(summary[0], summary[1], summary[3], ref):
                dishonest += 1
            continue
        if name not in FAIL_ROUTES:
            continue
        ref = refs["I"].get(repr(key))
        if failed_call:
            fails[name] += 1
        elif name in ("routes.verify_lemma1", "routes.verify_lemma2", "routes.verify_lemma3", "routes.verify_theorem"):
            fails[name] += summary is not True
        elif ref is None:
            continue
        elif name == "routes.numeric_I":
            value, error, _, converged = summary
            fails[name] += bool(wl.quadrature_causes(value, error, converged, ref))
            dishonest += wl.is_dishonest(value, error, converged, ref)
        elif name == "routes.evaluate_all_routes":
            trig, trigamma, gd, (value, error, _, converged) = summary
            sig = [trig, trigamma, gd, value, error, 0, converged]
            fails[name] += bool(wl.check("sweep", key, sig, refs))
        else:
            fails[name] += wl.route_error(summary, ref) > wl.ROUTE_TOL[name.split(".", 1)[1]]
    return fails, dishonest


def layer_metrics(
    pool: int,
    total_ns: int,
    ops: int,
    times: dict,
    counts: dict,
    records: list,
    refs: dict,
    import_ns: int = 0,
    outside_ns: int = 0,
) -> dict:
    """Per-layer metrics: time shares of the traced op time, counts per op.

    ``outside_ns`` is op time spent outside the traced process (interpreter
    start and exit of a CLI child), ``import_ns`` the child's import time.
    """
    share = lambda ns: ns / total_ns
    m: dict[str, float] = {"trace.op_ms": total_ns / ops / 1e6}
    layer_ns = {
        layer: sum(ns for name, ns in times.items() if name.startswith(layer + ".") and name != "quadrature.integrand")
        for layer in ("specfun", "quadrature", "routes", "cli")
    }
    for layer in ("specfun", "quadrature", "routes"):
        m[f"{layer}.self_share"] = share(layer_ns[layer])
    m["quadrature.integrand_share"] = share(times.get("quadrature.integrand", 0))
    m["import.self_share"] = share(import_ns)
    m["startup.self_share"] = share(outside_ns)
    attributed = sum(layer_ns.values()) + times.get("quadrature.integrand", 0) + import_ns + outside_ns
    m["bench.self_share"] = share(total_ns - attributed)
    for name in TRACED_FUNCTIONS:
        m[f"{name}.self_share"] = share(times.get(name, 0))
    calls = counts["calls"]
    for name in TRACED_FUNCTIONS:
        m[f"{name}.calls"] = calls.get(name, 0) / pool
    m["quadrature.evals_per_op"] = counts["integrand_evals"] / pool
    m["quadrature.integrate_finite.evals"] = counts["evals"]["quadrature.integrate_finite"] / pool
    m["quadrature.integrate_semi_infinite.evals"] = counts["evals"]["quadrature.integrate_semi_infinite"] / pool
    results, converged, _ = counts["outcomes"]["quadrature.integrate_finite"]
    m["quadrature.integrate_finite.converged_share"] = converged / results if results else 0.0
    fails, dishonest = classify_records(records, refs)
    m["quadrature.dishonest"] = dishonest
    for name in FAIL_ROUTES:
        m[f"{name}.fail"] = fails.get(name, 0)
    return m


def merge_counts(reports: list[dict]) -> dict:
    merged = {"calls": Counter(), "evals": Counter(), "outcomes": {}, "integrand_evals": 0}
    for r in reports:
        c = r["counts"]
        merged["calls"].update(c["calls"])
        merged["evals"].update(c["evals"])
        merged["integrand_evals"] += c["integrand_evals"]
        for name, tally in c["outcomes"].items():
            merged["outcomes"][name] = [a + b for a, b in zip(merged["outcomes"].get(name, [0, 0, 0]), tally)]
    return merged


def traced_run(job: dict, modules: tuple, op: Callable, plain: dict) -> dict:
    workload, inputs, refs = job["workload"], job["inputs"], job["refs"]
    half = job["seconds"] / 2.0
    if workload == "cli_cold":
        bootstrap = [sys.executable, str(Path(__file__).with_name("cli_traced.py"))]
        children = ChildTraces()
        traced_op = wl.build_op(workload, modules[2], job["cli_env"], cli_prefix=bootstrap)
        first_pass: list[dict] = []
        window = measure(
            workload, traced_op, inputs, refs, half, min_passes=1,
            after_first_pass=lambda: first_pass.extend(children.reports),
            output_of=children.strip, calibrator=calibrator_for(workload, job["cli_env"]),
        )
        times: Counter = Counter()
        for r in children.reports:
            times.update(r["times"])
        import_ns = sum(r["import_ns"] for r in children.reports)
        inside_ns = sum(r["elapsed_ns"] for r in children.reports)
        layers = layer_metrics(
            len(inputs), window["op_ns_total"], window["attempted"], times, merge_counts(first_pass),
            [rec for r in first_pass for rec in r["records"]], refs,
            import_ns=import_ns, outside_ns=window["op_ns_total"] - inside_ns,
        )
        spans = [s for r in first_pass[:1] for s in r["spans"]]
    else:
        tracer = Tracer()
        tracer.install(*modules)
        tracer.recording = True
        snapshot: dict = {}

        def after_first_pass() -> None:
            tracer.recording = False
            snapshot.update(counts=tracer.counts(), records=tracer.records, spans=tracer.spans[:200])

        try:
            window = measure(workload, op, inputs, refs, half, min_passes=1, after_first_pass=after_first_pass)
        finally:
            tracer.uninstall()
        layers = layer_metrics(
            len(inputs), window["op_ns_total"], window["attempted"], tracer.times(), snapshot["counts"],
            snapshot["records"], refs,
        )
        spans = snapshot["spans"]
    layers["trace.overhead_ratio"] = window["ops_per_s"] / plain["ops_per_s"] if plain["ops_per_s"] else 0.0
    return {
        "window": window,
        "per_layer": layers,
        "trace_identical": window["signatures"] == plain["signatures"],
        "span_sample": spans[:200],
    }


def main() -> int:
    job = json.load(sys.stdin)
    workload, inputs, refs = job["workload"], job["inputs"], job["refs"]
    from logint import cli, quadrature, routes, specfun

    modules = (specfun, quadrature, routes, cli)
    op = wl.build_op(workload, routes, job["cli_env"])
    calibrator = calibrator_for(workload, job["cli_env"])
    # An untimed warm-up: one pass of the pool, or for cli_cold two
    # processes, the first of which writes the bytecode caches.
    one_pass(op, inputs[:2] if workload == "cli_cold" else inputs)
    # Peak memory once logint has run every input: later the harness's own
    # per-pass records grow with the number of passes, which the host's
    # speed sets.
    rss_mb = peak_rss_mb(workload)
    if job["trace"]:  # the plain half only sets the base of the tracing overhead
        plain = measure(workload, op, inputs, refs, job["seconds"] / 2.0, min_passes=1, calibrator=calibrator)
    else:
        plain = measure(workload, op, inputs, refs, job["seconds"], calibrator=calibrator)
    out: dict[str, Any] = {"plain": plain, "peak_rss_mb": rss_mb}
    out["probe"] = full_range_probe(workload, wl.build_probe_op(workload, routes, cli), job["probe"], refs)
    if workload == "sweep":
        out.update(sweep_counts(routes, inputs, refs))
    if job["trace"]:
        out["traced"] = traced_run(job, modules, op, plain)
    for window in (out["plain"], out.get("traced", {}).get("window")):
        if window:
            window.pop("signatures")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
