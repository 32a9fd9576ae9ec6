"""Spans around logint's public functions, attached from outside the program.

``Tracer.install`` replaces every public function of ``specfun``,
``quadrature``, ``routes`` and ``cli`` by a wrapper, in every one of those
module namespaces that holds it (``routes`` binds ``integrate_finite`` and
``integrate_bilateral`` by name, so those names are patched there too).
The program's source is not touched; ``uninstall`` puts the originals back.

Each call opens a span with a name, a start, an end and a parent.  A span's
self time is its duration minus the time covered by its children.  The
integrand that a caller hands to a quadrature engine is wrapped too, so
integrand time is split from node generation; integrand calls are only
aggregated, never logged one by one, because there are hundreds per
integral.  While ``recording`` is on, the tracer also keeps every span and
a summary of every route result, which is how the benchmark counts calls
and failures per layer from a single pass of the input pool.
"""

from __future__ import annotations

import types
from time import perf_counter_ns
from typing import Any, Callable

# Marks the line on which a traced CLI process reports its trace on stderr.
TRACE_MARK = "perfbench-trace:"
ENGINES = ("quadrature.integrate_finite", "quadrature.integrate_semi_infinite", "quadrature.integrate_bilateral")


def summarize(result: Any) -> Any:
    """A JSON-able summary of a route or engine result."""
    if isinstance(result, BaseException):
        return {"raise": type(result).__name__}
    if isinstance(result, float):
        return result
    if hasattr(result, "error_estimate"):
        return [result.value, result.error_estimate, result.evaluations, result.converged]
    if hasattr(result, "quadrature"):
        return [result.trig_form, result.trigamma_form, result.gamma_derivative_form, summarize(result.quadrature)]
    if hasattr(result, "passed"):
        return bool(result.passed)
    return None


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # span name -> [calls, self ns]
        self.evals: dict[str, int] = {name: 0 for name in ENGINES}  # by innermost engine
        # per engine: [results returned, converged, their evaluations]
        self.outcomes: dict[str, list[int]] = {name: [0, 0, 0] for name in ENGINES}
        self.integrand = [0, 0]  # [evaluations, self ns]
        self.recording = False
        self.spans: list[tuple[int, int, str, int, int]] = []  # (id, parent id, name, start, end)
        self.records: list[list] = []  # [span name, key, result summary]
        self._stack: list[list[int]] = []  # open spans: [child ns, id]
        self._engines: list[str] = []
        self._in_integrand = False
        self._next_id = 1
        self._lemma1_args: dict[Callable, list] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ attaching

    def install(self, *modules: Any) -> None:
        """Wrap the public functions of the given logint modules."""
        wrappers: dict[int, Callable] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- spans

    def _open(self) -> list[int]:
        frame = [0, 0]
        if self.recording:
            frame[1] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[int], name: str, start: int, end: int) -> int:
        """Pop a span; return its self time."""
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        if frame[1]:
            self.spans.append((frame[1], stack[-1][1] if stack else 0, name, start, end))
        return duration - frame[0]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0])
        engine = name in ENGINES
        lemma1 = name == "routes.lemma1_integrand"
        recorded = engine or name.startswith("routes.")

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = None
            if self.recording and recorded:
                key = self._key(args)
            if engine:
                args = (self._timed_integrand(args[0]),) + args[1:]
                self._engines.append(name)
            frame = self._open()
            start = perf_counter_ns()
            result: Any = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                stat[1] += self._close(frame, name, start, perf_counter_ns())
                stat[0] += 1
                if engine:
                    self._engines.pop()
                    tally = self.outcomes[name]
                    tally[0] += 1  # a raising call counts as a result that did not converge
                    if hasattr(result, "evaluations"):
                        tally[1] += result.converged
                        tally[2] += result.evaluations
                if self.recording and recorded:
                    if lemma1:
                        self._lemma1_args[result] = [args[0], args[1]]
                    else:
                        self.records.append([name, key, summarize(result)])

        wrapper.__wrapped__ = fn
        return wrapper

    def _key(self, args: tuple) -> Any:
        """What a recorded result is looked up by: n, or lemma1's (m, z)."""
        if not args:
            return None
        first = getattr(args[0], "n", args[0])  # an Exponent carries n
        if isinstance(first, (int, float)):
            return first
        if callable(first):
            return self._lemma1_args.get(first)
        return None

    def _timed_integrand(self, f: Callable[[float], float]) -> Callable[[float], float]:
        if getattr(f, "_perfbench_integrand", False):
            return f

        def timed(x: float) -> float:
            if self._in_integrand:  # already inside an outer integrand wrapper
                return f(x)
            self._in_integrand = True
            frame = [0, 0]  # never logged as a span of its own
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                return f(x)
            finally:
                self.integrand[1] += self._close(frame, "quadrature.integrand", start, perf_counter_ns())
                self.integrand[0] += 1
                self.evals[self._engines[-1]] += 1
                self._in_integrand = False

        timed._perfbench_integrand = True
        return timed

    def counts(self) -> dict:
        """Call and evaluation counters, which repeat exactly for fixed inputs."""
        return {
            "calls": {name: stat[0] for name, stat in self.stats.items()},
            "evals": dict(self.evals),
            "outcomes": {name: list(t) for name, t in self.outcomes.items()},
            "integrand_evals": self.integrand[0],
        }

    def times(self) -> dict:
        """Self nanoseconds per span name, the integrand included."""
        times = {name: stat[1] for name, stat in self.stats.items()}
        times["quadrature.integrand"] = self.integrand[1]
        return times
