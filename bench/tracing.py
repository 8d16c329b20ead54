"""Per-layer tracing for the benchmark, installed from outside the package.

A ``Tracer`` replaces bridgekit functions with wrappers.  Public
functions get a span (name, start, end, parent span) kept in flat arrays
in memory; the search's per-node calls inside ``epim`` get a bare counter,
because a span per node would cost more than the node.  Every module
attribute that refers to a wrapped function is replaced, not only the
one in the defining module: ``epim`` and ``classify`` import
``enumerate_words`` and ``epi_targets`` by name and would otherwise call
the originals.  Nothing is recorded while ``active`` is false, so the
output checks the benchmark runs between operations leave no trace.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# Functions timed with a span, by module.
SPANNED = {
    "contfrac": ("eval_word", "to_reduced_even"),
    "knot": ("knot_from_word",),
    "census": ("brute_counts", "verify_row"),
    "epim": ("epi_targets", "is_minimal", "admits_epi", "epi_graph"),
    "classify": ("nonminimal_matches", "table1"),
    "cli": ("main",),
}
# The search entry points; their spans add up to epim.search.
SEARCHES = ("epim.epi_targets", "epim.is_minimal", "epim.admits_epi")
# Per-node calls of the search, counted only inside a search span so that
# each count is exact: compositions tried, compositions that passed the
# crossing filter, and witnesses audited.
HOT = {
    "ors_compose": "epim.ors_compose.calls",
    "canonical_word": "epim.canonical_word.calls",
    "audit_params": "epim.witnesses",
}
WORDS = "census.enumerate_words"
PACKAGE = "bridgekit"


class Tracer:
    def __init__(self):
        self.active = False
        self.originals: dict[str, object] = {}
        self.patches: list[tuple] = []
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.search_depth = 0
        self.epim_depth = 0
        self.counts: Counter = Counter()

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]

    def _module(self, name: str):
        return sys.modules[f"{PACKAGE}.{name}"]

    def install(self) -> None:
        """Wrap every traced function wherever a bridgekit module names it."""
        if not self.patches:
            self._build()
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def _build(self) -> None:
        modules = self._modules()

        def patch(key, original, wrapper, where=modules):
            self.originals[key] = original
            for module in where:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, attr, original, wrapper))

        for modname, funcs in SPANNED.items():
            module = self._module(modname)
            for func in funcs:
                key = f"{modname}.{func}"
                original = getattr(module, func)
                patch(key, original, self._span(key, original))
        census = self._module("census")
        patch(WORDS, census.enumerate_words, self._words(census.enumerate_words))
        # Only the epim namespace: these count the search's own calls.
        epim = self._module("epim")
        for func, key in HOT.items():
            original = getattr(epim, func)
            patch(f"epim.{func}", original, self._count(original, key), where=[epim])

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        calls = name + ".calls"
        search = name in SEARCHES
        epim_like = name.startswith(("epim.", "classify."))
        result_count = name == "census.brute_counts"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            self.counts[calls] += 1
            self.search_depth += search
            self.epim_depth += epim_like
            try:
                result = fn(*args, **kwargs)
            finally:
                self.search_depth -= search
                self.epim_depth -= epim_like
                self._close(idx)
            if result_count:
                self.counts["census.brute_counts.tk"] += result.tk
            return result

        return wrapper

    def _words(self, fn):
        def count(words, from_epim):
            for word in words:
                self.counts[WORDS + ".words"] += 1
                if from_epim:
                    self.counts[WORDS + ".from_epim.words"] += 1
                yield word

        def wrapper(*args, **kwargs):
            words = fn(*args, **kwargs)
            if not self.active:
                return words
            self.counts[WORDS + ".calls"] += 1
            return count(words, self.epim_depth > 0)

        return wrapper

    def _count(self, fn, key: str):
        def wrapper(*args, **kwargs):
            if self.search_depth:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def op(self, kind: str, fn, *args):
        """Run one benchmark operation traced, under a root span of its own."""
        nid = self._name_id("op." + kind)
        self.active = True
        idx = self._open(nid)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.active = False

    def self_seconds(self) -> Counter:
        """Total self time per span name: duration minus child-span time."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            totals[self.names[nid]] += self.end[i] - self.start[i] - child[i]
        return totals

    def dump(self, path, upto: int) -> None:
        """Write the first ``upto`` spans as JSON: a name table and parallel arrays."""
        payload = {
            "names": self.names,
            "name": list(self.span_name[:upto]),
            "start": list(self.start[:upto]),
            "end": list(self.end[:upto]),
            "parent": list(self.parent[:upto]),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# Self-check: the wrappers see every call a profiler sees
# ---------------------------------------------------------------------------


def _profile_calls(fn, codes):
    """Run fn under sys.setprofile; count entries into and yields out of each code."""
    calls, yields, frames = Counter(), Counter(), {}

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in codes:
            return
        generator = code.co_flags & inspect.CO_GENERATOR
        if event == "call":
            if not generator:
                calls[code] += 1
            elif id(frame) not in frames:
                # a generator frame is entered again on every resume;
                # holding it keeps its id from being reused
                frames[id(frame)] = frame
                calls[code] += 1
        elif event == "return" and generator and arg is not None:
            yields[code] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, yields


def self_check(tracer: Tracer, torus_15) -> tuple[list[str], dict[str, int]]:
    """Compare traced counts for two fixed queries with a profiler's counts.

    epi_targets on T(15,2) checks the per-node counter on ors_compose;
    epi_graph(8) checks that target enumeration reached through the
    names imported into epim is counted.  Returns the mismatches and
    the traced counts, so the run can report them.
    """
    epim, knot = tracer._module("epim"), tracer._module("knot")
    compose = tracer.originals["epim.ors_compose"].__code__
    words = tracer.originals[WORDS].__code__
    problems, seen = [], {}
    queries = (
        ("epi_targets(T(15,2))", lambda: epim.epi_targets(knot.knot_from_word(torus_15))),
        ("epi_graph(8)", lambda: epim.epi_graph(8)),
    )
    for label, query in queries:
        tracer.reset()
        calls, yields = _profile_calls(lambda: tracer.op("selfcheck", query), {compose, words})
        expected = {
            "epim.ors_compose.calls": calls[compose],
            WORDS + ".calls": calls[words],
            WORDS + ".from_epim.words": yields[words],
        }
        for key, want in expected.items():
            got = tracer.counts[key]
            seen[f"{label} {key}"] = got
            if got != want:
                problems.append(f"self-check {label}: traced {key} = {got}, profiler saw {want}")
    tracer.reset()
    return problems, seen
