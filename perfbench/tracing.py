"""Span tracing for the traced run.

Wrappers are installed around aaprox's public functions and class methods,
from outside the package: module attributes, class attributes, and the
fields of the term and kernel objects the benchmark builds. Each wrapped call
is a span (name, start, end, parent, job). Self time is a span's duration
minus the durations of its direct children, so within one job the self times
of all spans, the job's own root span included, add up to the job's duration.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np

from aaprox import anderson, bregman, cli, datasets, problems, solvers
from aaprox.anderson import AndersonEngine
from aaprox.problems import DomainError

# Calls that count as oracle calls for solvers.wasted_oracle_share.
ORACLES = frozenset({"problems.value", "problems.grad", "problems.prox",
                     "bregman.prox", "bregman.conj_grad",
                     "bregman.kernel_grad"})
GUARDED_DRIVERS = frozenset({"solvers.run_guarded_aa_pga",
                             "solvers.run_guarded_aa_bpg"})
LAYERS = ("problems", "anderson", "solvers", "bregman", "datasets", "cli",
          "bench")


class Tracer:
    """Records spans and per-name call counts, durations and self times."""

    def __init__(self, capture_limit: int = 0):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.keep_spans = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.reset()
        # residual streams of guarded solves, replayed through fresh engines
        self.capture_limit = capture_limit
        self.streams: dict[int, tuple[AndersonEngine, int, list]] = {}
        self.captured_pushes = 0
        self._capturing = 0

    def reset(self) -> None:
        """Clear the aggregates (not the kept spans or captured streams)."""
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.job_layer_self: dict[str, float] = {}
        self.oracle_calls = 0
        self.wasted_calls = 0
        self.domain_errors = 0
        self.engines: list[AndersonEngine] = []
        self.max_accounting_error = 0.0
        self._candidates: list = []
        self._candidate_calls = 0
        self._job = -1
        self._job_self: dict[str, float] = {}

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        index = -1
        if self.keep_spans:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_job.append(self._job)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, index = frame
        self._stack.pop()
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        self._job_self[layer] = self._job_self.get(layer, 0.0) + own
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end
        return dur

    def job(self, job_id: int, fn, *args):
        """Run fn(*args) as one job under a root span; returns (result, s).

        Checks that the layers' self times plus the job's own remainder add
        up to the job's traced duration.
        """
        self._job = job_id
        self._job_self: dict[str, float] = {}
        frame = self._enter("bench.job")
        try:
            result = fn(*args)
        finally:
            dur = self._exit(frame)
            accounted = sum(self._job_self.values())
            self.max_accounting_error = max(
                self.max_accounting_error,
                abs(accounted - dur) / max(dur, 1e-12))
            for layer, own in self._job_self.items():
                self.job_layer_self[layer] = (
                    self.job_layer_self.get(layer, 0.0) + own)
            self._job = -1
        return result, dur

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, arg: int | None = None):
        tracer = self
        oracle = name in ORACLES
        extrapolate = name == "anderson.extrapolate"
        guard = name in ("solvers.guard", "bregman.guard")
        capture = name in GUARDED_DRIVERS

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            tracer._capturing += capture
            try:
                result = fn(*args, **kwargs)
            except DomainError as exc:
                if not getattr(exc, "_counted", False):
                    exc._counted = True
                    tracer.domain_errors += 1
                raise
            finally:
                tracer._capturing -= capture
                tracer._exit(frame)
            if oracle:
                tracer.oracle_calls += 1
                cands = tracer._candidates
                if cands and any(args[arg] is c for c in cands):
                    tracer._candidate_calls += 1
                    cands.append(result)
            elif extrapolate:
                tracer._candidates = [result[0]]
                tracer._candidate_calls = 0
            elif guard:
                if not result:
                    tracer.wasted_calls += tracer._candidate_calls
                tracer._candidates = []
                tracer._candidate_calls = 0
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str,
               arg: int | None = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, arg))

    def _patch_term_factory(self, module, attr: str) -> None:
        factory = getattr(module, attr)
        tracer = self

        def traced_factory(*args, **kwargs):
            term = factory(*args, **kwargs)
            tracer.wrap_term(term)
            return term

        self._patches.append((module, attr, factory))
        setattr(module, attr, traced_factory)

    def wrap_term(self, term) -> None:
        """Trace a nonsmooth term's value and prox fields until uninstall."""
        self._patch(term, "value", "problems.hvalue")
        if term.prox is not None:
            self._patch(term, "prox", "problems.prox", 0)

    def install(self, terms=(), kernels=()) -> None:
        """Wrap the package's calls, plus the given term and kernel objects."""
        p = self._patch
        for cls in (problems.LogisticLoss, problems.LeastSquaresLoss,
                    problems.KlLoss):
            p(cls, "value", "problems.value", 1)
            p(cls, "grad", "problems.grad", 1)
        p(problems, "operator_norm_sq", "problems.opnorm")
        for module in (problems, cli):
            for factory in ("box_indicator", "nonneg_indicator", "zero_term"):
                self._patch_term_factory(module, factory)
        for term in terms:
            self.wrap_term(term)

        p(AndersonEngine, "push", "anderson.push")
        p(AndersonEngine, "extrapolate", "anderson.extrapolate")
        p(anderson, "solve_coefficients", "anderson.solve")
        p(anderson.ResidualHistory, "combine", "anderson.combine")
        p(anderson.QrWindow, "slide", "anderson.slide")
        self._hook_engines()

        for module in (solvers, cli):
            for driver in ("run_pga", "run_nesterov_pga", "run_aa_pga",
                           "run_guarded_aa_pga"):
                p(module, driver, "solvers." + driver)
        for module in (bregman, cli):
            for driver in ("run_bpg", "run_guarded_aa_bpg"):
                p(module, driver, "solvers." + driver)
        p(solvers, "descent_check", "solvers.guard")
        p(solvers.IterationTrace, "record", "solvers.record")

        for kernel in kernels:
            p(kernel, "value", "bregman.kernel_value")
            p(kernel, "grad", "bregman.kernel_grad", 0)
            p(kernel, "conj_grad", "bregman.conj_grad", 0)
        p(bregman, "bregman_prox", "bregman.prox", 3)
        p(bregman, "bregman_descent_check", "bregman.guard")

        for gen in ("generate_logreg_instance", "generate_nnls_instance",
                    "generate_kl_instance"):
            p(datasets, gen, "datasets.generate")
        p(datasets, "write_libsvm", "datasets.write")
        for module in (datasets, cli):
            p(module, "parse_libsvm", "datasets.parse")
        p(cli, "main", "cli.main")

    def _hook_engines(self) -> None:
        """Register every engine, and capture guarded solves' push streams."""
        tracer = self
        init = AndersonEngine.__init__
        push = AndersonEngine.push  # already the traced wrapper
        extrapolate = AndersonEngine.extrapolate

        def traced_init(engine, n, config):
            init(engine, n, config)
            tracer.engines.append(engine)

        def capturing_push(engine, g_val, y):
            if (tracer._capturing
                    and tracer.captured_pushes < tracer.capture_limit):
                # the engine is kept in the entry so that its id stays unique
                stream = tracer.streams.setdefault(
                    id(engine), (engine, g_val.size, []))[2]
                stream.append((g_val, y))
                tracer.captured_pushes += 1
            return push(engine, g_val, y)

        def capturing_extrapolate(engine):
            entry = tracer.streams.get(id(engine))
            # only extrapolations that follow a captured push
            if entry is not None and entry[2] and entry[2][-1] is not None:
                entry[2].append(None)
            return extrapolate(engine)

        for attr, fn, original in (("__init__", traced_init, init),
                                   ("push", capturing_push, push),
                                   ("extrapolate", capturing_extrapolate,
                                    extrapolate)):
            self._patches.append((AndersonEngine, attr, original))
            setattr(AndersonEngine, attr, fn)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._capturing = 0

    # -- results -------------------------------------------------------------

    def save_spans(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end))

    def replay(self) -> dict[str, float]:
        """Mean µs per push and per extrapolate, dense and QR paths.

        Each captured stream is pushed through new engines configured like
        the original except for use_qr_updates. The stream's map values and
        inputs are replayed as recorded; extrapolated points are discarded.
        """
        out = {}
        for label, use_qr in (("dense", False), ("qr", True)):
            spent = {"push": 0.0, "extrapolate": 0.0}
            count = {"push": 0, "extrapolate": 0}
            for source, n, events in self.streams.values():
                engine = AndersonEngine(
                    n, dataclasses.replace(source.config,
                                           use_qr_updates=use_qr))
                clock = time.perf_counter
                for event in events:
                    if event is None:
                        t0 = clock()
                        engine.extrapolate()
                        spent["extrapolate"] += clock() - t0
                        count["extrapolate"] += 1
                    else:
                        t0 = clock()
                        engine.push(*event)
                        spent["push"] += clock() - t0
                        count["push"] += 1
            for op in ("push", "extrapolate"):
                out["anderson.replay.%s.%s_us" % (label, op)] = (
                    1e6 * spent[op] / count[op] if count[op] else 0.0)
        return out
