"""Per-layer tracing from outside the program.

The tracer replaces the module-level functions one layer calls in the next
with timing wrappers, and puts the originals back on ``uninstall``.  Spans
nest on one stack, so a layer's self time is its duration minus the time of
the wrapped calls made inside it.  Everything stays in memory.

Layers and the names that are wrapped:

* ``cli``: ``nemus_icl.cli.main`` (the root span of a task);
* ``kb``: ``cli.parse_kb``; ``cli.render_clause``, ``cli.render_clause_atoms``,
  ``cli.render_ground_atom`` and ``engine.render_clause``;
* ``nemus``: ``cli.compile_kb``; ``engine.beta``, ``engine.atom_of``;
* ``engine``: ``cli.learn``;
* ``oracle``: ``engine.verify``, ``oracle.verify`` (the enumerator's calls),
  ``oracle.least_model`` and ``cli.enumerate_hypotheses``.
"""

from __future__ import annotations

import statistics
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # "cli" / "engine" / "oracle" -> module
        self._saved = []
        self.reset()

    def reset(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_ns: dict = {}
        self.counts: dict = {}
        self.verify_ns: list = []
        self.verify_keys: set = set()
        self.task_no = 0
        self._stack = [0]  # child time of each open span; slot 0 is the root
        self._walk_mark = None  # end of the last walk-side call inside learn
        self._learn_start = None

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- spans --

    def _enter(self):
        self._stack.append(0)
        return _now()

    def _exit(self, name: str, start: int) -> int:
        end = _now()
        dur = end - start
        child = self._stack.pop()
        self._stack[-1] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        return end

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._exit(name, start)
            if after is not None:
                after(args, result, end - start, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span_gen(self, name: str, fn):
        """Time each step of a generator; the consumer's work between steps
        is outside the span."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(name, start)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks --

    def _walk_call(self, args, result, dur, end):
        self._walk_mark = end

    def _engine_verify(self, args, result, dur, end):
        bk, hypothesis, positives, negatives = args
        if len(positives) > 1:
            self.count("merge_verify_calls")
        else:
            self._walk_mark = end
        self._oracle_verify(args, result, dur, end)

    def _oracle_verify(self, args, result, dur, end):
        bk, hypothesis, positives, negatives = args
        self.verify_ns.append(dur)
        self.verify_keys.add((self.task_no, frozenset(hypothesis),
                              tuple(positives), tuple(negatives)))

    def _model(self, args, result, dur, end):
        self.count("model_atoms", len(result))

    def _learn_begin(self, fn):
        def wrapper(*args, **kwargs):
            self._learn_start = _now()
            self._walk_mark = None
            return fn(*args, **kwargs)

        return wrapper

    def _learn_end(self, args, result, dur, end):
        s = result.stats
        self.count("candidates", s.candidates)
        self.count("pruned", s.pruned)
        self.count("dropped", s.dropped)
        self.count("sets_emitted", len(result.hypotheses))
        # the merge across positives runs after the last walk-side call
        self.count("merge_ns", end - (self._walk_mark or self._learn_start))

    def _main_begin(self, fn):
        def wrapper(*args, **kwargs):
            self.task_no += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall --

    def _patch(self, module_key: str, attr: str, wrapper):
        module = self.modules[module_key]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        cli, engine, oracle = (self.modules[k] for k in ("cli", "engine", "oracle"))
        wraps = [
            ("cli", "main", self._main_begin(self.span("cli", cli.main))),
            ("cli", "parse_kb", self.span("kb.parse", cli.parse_kb)),
            ("cli", "render_clause", self.span("kb.render", cli.render_clause)),
            ("cli", "render_clause_atoms", self.span("kb.render", cli.render_clause_atoms)),
            ("cli", "render_ground_atom", self.span("kb.render", cli.render_ground_atom)),
            ("cli", "compile_kb", self.span("nemus.compile", cli.compile_kb)),
            ("cli", "learn", self.span("engine.learn", self._learn_begin(cli.learn),
                                       self._learn_end)),
            ("cli", "enumerate_hypotheses", self.span_gen("oracle.enumerate",
                                                          cli.enumerate_hypotheses)),
            ("engine", "render_clause", self.span("kb.render", engine.render_clause)),
            ("engine", "beta", self.span("nemus.beta", engine.beta, self._walk_call)),
            ("engine", "atom_of", self.span("nemus.atom_of", engine.atom_of, self._walk_call)),
            ("engine", "verify", self.span("oracle.verify", engine.verify, self._engine_verify)),
            ("oracle", "verify", self.span("oracle.verify", oracle.verify, self._oracle_verify)),
            ("oracle", "least_model", self.span("oracle.model", oracle.least_model, self._model)),
        ]
        for module_key, attr, wrapper in wraps:
            self._patch(module_key, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results --

    def counts_and_times(self) -> tuple:
        """(counts, times in ms) of everything recorded since ``reset``."""
        def n(name):
            return self.calls.get(name, 0)

        def ms(table, *names):
            return sum(table.get(k, 0) for k in names) / 1e6

        verify_calls = n("oracle.verify")
        counts = {
            "kb.render_calls": n("kb.render"),
            "nemus.beta_calls": n("nemus.beta"),
            "nemus.atom_of_calls": n("nemus.atom_of"),
            "engine.candidates": self.counts.get("candidates", 0),
            "engine.pruned": self.counts.get("pruned", 0),
            "engine.dropped": self.counts.get("dropped", 0),
            "engine.sets_emitted": self.counts.get("sets_emitted", 0),
            "engine.merge_verify_calls": self.counts.get("merge_verify_calls", 0),
            "oracle.verify_calls": verify_calls,
            "oracle.verify_distinct": len(self.verify_keys),
            "oracle.verify_distinct_ratio": len(self.verify_keys) / verify_calls if verify_calls else 0.0,
            "oracle.model_calls": n("oracle.model"),
            "oracle.model_atoms": self.counts.get("model_atoms", 0),
        }
        times = {
            "kb.parse_ms": ms(self.total, "kb.parse"),
            "kb.render_ms": ms(self.total, "kb.render"),
            "nemus.compile_ms": ms(self.total, "nemus.compile"),
            "engine.learn_ms": ms(self.total, "engine.learn"),
            "engine.self_ms": ms(self.self_ns, "engine.learn"),
            "engine.merge_ms": self.counts.get("merge_ns", 0) / 1e6,
            "oracle.verify_ms": ms(self.total, "oracle.verify"),
            "oracle.verify_ms_p50": statistics.median(self.verify_ns) / 1e6 if self.verify_ns else 0.0,
            "oracle.model_ms": ms(self.total, "oracle.model"),
            "oracle.self_ms": ms(self.self_ns, "oracle.verify", "oracle.enumerate"),
            "cli.self_ms": ms(self.self_ns, "cli"),
        }
        return counts, times
