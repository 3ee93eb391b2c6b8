"""The closed loop shared by the timed and the traced run.

One iteration runs each of the workload's solves once, back to back, in
this process.  Only the algorithm calls are inside the timed interval; the
correctness gate runs after each call, outside it.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
import traceback

import gate
from regsubmax.core import Solution
from tracer import timed_stream

perf = time.perf_counter
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.1  # of a run's seconds spent on repeated set-ups


class Ledger:
    """Solve outcomes and selections of one run."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.selections: dict[str, str] = {}

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)

    def gate(self, solve, out) -> float:
        """Check one output; returns its reported f (0.0 when it failed)."""
        if isinstance(out, Solution):
            S, reported = out.elements, (out.f_value, out.g_value, out.ell_value)
        else:
            S = tuple(out)
            g = solve.instance.oracle.value(S)
            ell = solve.instance.cost(S)
            reported = (g - ell, g, ell)
        problems = gate.check(S, solve.instance.k, solve.ref, reported,
                              self.golden.get(solve.label))
        self.selections[solve.label] = gate.fingerprint(S)
        if problems:
            self.fail(solve.label, "; ".join(problems))
            return 0.0
        return float(reported[0])


def run_iteration(solves, ledger: Ledger, tracer=None, diag: dict | None = None,
                  instances: dict | None = None, calibrator=None) -> dict:
    """Run every solve once and gate its output.

    Returns the summed wall time of the calls, each call's wall time by
    solve label, the summed reported f, and per streaming solve the time
    from stream exhaustion to return and one latency sample per element
    (pull to next pull), in ms.  With a calibrator the kernel runs before
    the first call and after each call, ``scaled`` holds each call's time
    in reference-speed seconds and the element latencies are rescaled the
    same way.  With a tracer each call runs in a ``bench.solve`` span on
    the traced instance from ``instances``, and ``diag`` collects the
    algorithms' own diagnostics by solve label.
    """
    wall = f_sum = 0.0
    walls: dict[str, float] = {}
    scaled: dict[str, float] = {}
    finish: dict[str, float] = {}
    elements: dict[str, list[float]] = {}
    before = calibrator.measure() if calibrator else None
    for solve in solves:
        instance = instances[solve.label] if instances else solve.instance
        d = {} if diag is not None else None
        stamps: list[float] = []
        ledger.attempted += 1
        gc.collect()
        span = None
        if tracer:
            tracer.new_window()
            span = tracer.open("bench.solve")
        t0 = perf()
        try:
            stream = (timed_stream(solve.order, stamps, tracer)
                      if solve.order is not None else None)
            out = solve.algo(instance, stream, d)
        except Exception:
            traceback.print_exc()
            ledger.fail(solve.label, "raised")
            continue
        finally:
            t1 = perf()
            if span is not None:
                tracer.close(span)
        scale = 1.0
        if calibrator:
            after = calibrator.measure()
            scale, before = calibrator.scale(before, after), after
        wall += t1 - t0
        walls[solve.label] = t1 - t0
        scaled[solve.label] = scale * (t1 - t0)
        if solve.order is not None:
            if len(stamps) != len(solve.order) + 1:
                ledger.fail(solve.label, "stream not consumed exactly once")
                continue
            elements[solve.label] = [1e3 * scale * (b - a)
                                     for a, b in zip(stamps, stamps[1:])]
            finish[solve.label] = t1 - stamps[-1]
        if diag is not None:
            diag[solve.label] = d
        f_sum += ledger.gate(solve, out)
    return {"wall": wall, "walls": walls, "scaled": scaled, "f_sum": f_sum,
            "finish": finish, "elements": elements}


def closed_loop(solves, ledger: Ledger, seconds: float, minimum: int,
                calibrator=None) -> list[dict]:
    """Untraced iterations back to back until ``seconds`` pass and ``minimum`` ran."""
    out = []
    start = perf()
    while len(out) < minimum or perf() - start < seconds:
        out.append(run_iteration(solves, ledger, calibrator=calibrator))
    return out


def measure_setup(workload, inp, budget: float, tracer=None,
                  calibrator=None) -> tuple[list[float], object]:
    """Set up from scratch at least SETUP_MIN_REPS times and for ``budget``
    seconds; returns every set-up time (in reference-speed seconds with a
    calibrator, whose kernel then runs around each set-up) and the last
    set-up."""
    times = []
    start = perf()
    before = calibrator.measure() if calibrator else None
    while len(times) < SETUP_MIN_REPS or perf() - start < budget:
        ready = None  # the previous set-up is not alive while the next is built
        gc.collect()
        span = tracer.open("bench.setup") if tracer else None
        t0 = perf()
        ready = workload.setup(inp)
        dt = perf() - t0
        if span is not None:
            tracer.close(span)
        if calibrator:
            after = calibrator.measure()
            dt, before = dt * calibrator.scale(before, after), after
        times.append(dt)
    return times, ready


def peak_solve_kb(solves) -> float:
    """Largest heap peak of a ``mem`` solve above the heap at its start, in KiB.

    Python's tracemalloc sees every allocation of the interpreter and of
    numpy, so this is the memory the algorithm itself holds (ladder copies,
    stored elements, shards, Cholesky factors) without the interpreter,
    the imports or the inputs.  Each solve runs once on a plain iterator.
    """
    peak = 0
    tracemalloc.start()
    try:
        for solve in (s for s in solves if s.mem):
            gc.collect()
            stream = iter(solve.order) if solve.order is not None else None
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = solve.algo(solve.instance, stream, None)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del out
    finally:
        tracemalloc.stop()
    return peak / 1024.0
