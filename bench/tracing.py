"""Timing wrappers installed from outside the program.

The tracer patches the public functions and methods of each braidact
module with a wrapper that times the call, charges the caller with the
callee's time (so every module gets a self time) and, unless the call is
one of the very frequent ones, records a span (id, parent, name, start,
end).  `uninstall` puts the original objects back, so untraced rounds run
the unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from types import ModuleType

MODULES = ("words", "autf2", "localrep", "braid", "invariant", "snf", "groups", "cli")

# Calls made thousands to millions of times per round: counted and timed,
# but given no span of their own (a span each would cost more memory and
# time than the work it records).
_AGGREGATED_MODULES = {"words", "autf2"}
_AGGREGATED = {
    "localrep.check_quad",
    "localrep.catalog",
    "localrep.base_quad",
    "localrep.canonicalize",
    "localrep.symmetry_orbit",
    "localrep.quad_sort_key",
    "braid.local_endo",
}
_AGGREGATED_CLASSES = {"Quad", "FamilyId", "QuadReport", "Endo", "BraidWord", "FiniteGroupTable"}

# Safety cap; spans past it are only aggregated and counted as dropped.
MAX_SPANS = 200_000


def _qual(module: str, owner: str | None, name: str) -> str:
    return f"{module}.{owner}.{name}" if owner else f"{module}.{name}"


def _aggregated(module: str, owner: str | None, name: str) -> bool:
    return (
        module in _AGGREGATED_MODULES
        or owner in _AGGREGATED_CLASSES
        or f"{module}.{name}" in _AGGREGATED
    )


# -- counters derived from call arguments and results -----------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hook_substitute(t, parent, args, kwargs, result):
    t.counters["words.substitute.letters_out"] += len(result)


def _hook_is_basis(t, parent, args, kwargs, result):
    if result and parent == "localrep.classify_search":
        t.counters["classify.bases"] += 1


def _hook_canonicalize(t, parent, args, kwargs, result):
    if parent == "localrep.classify_search":
        t.counters["classify.canonicalize"] += 1


def _hook_catalog(t, parent, args, kwargs, result):
    if parent == "localrep.outgoing_cores":
        t.counters["outgoing_cores.catalog"] += 1


def _hook_outgoing(t, parent, args, kwargs, result):
    t.counters["outgoing_cores.returned"] += len(result)


def _hook_endo_of_braid(t, parent, args, kwargs, result):
    t.counters["braid.image_letters"] += sum(len(w) for w in result.images)


def _hook_presentation(t, parent, args, kwargs, result):
    t.counters["invariant.relator_letters"] += sum(len(r) for r in result.relators)


def _hook_tietze(t, parent, args, kwargs, result):
    t.counters["invariant.tietze.gens_out"] += result.ngens
    t.counters["invariant.tietze.letters_out"] += sum(len(r) for r in result.relators)


def _hook_count_homs(t, parent, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    group = _arg(args, kwargs, 1, "group")
    t.counters["invariant.count_homs.tuples"] += group.order**p.ngens


_HOOKS = {
    "words.Word.substitute": _hook_substitute,
    "autf2.is_basis": _hook_is_basis,
    "localrep.canonicalize": _hook_canonicalize,
    "localrep.catalog": _hook_catalog,
    "localrep.outgoing_cores": _hook_outgoing,
    "braid.endo_of_braid": _hook_endo_of_braid,
    "invariant.presentation": _hook_presentation,
    "invariant.tietze_simplify": _hook_tietze,
    "invariant.count_homs": _hook_count_homs,
}


class Tracer:
    """Spans and per-function totals kept in memory for one traced run."""

    def __init__(self, package: ModuleType) -> None:
        self.package = package
        self.stack: list[list] = []  # frames: [child seconds, qualified name]
        self.span_stack: list[int] = []
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.spans_dropped = 0
        self.stats: dict[str, list] = {}  # qual -> [calls, total s, self s]
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _open_span(self) -> int | None:
        if len(self.spans) + len(self.span_stack) >= MAX_SPANS:
            self.spans_dropped += 1
            return None
        sid = self._next_id
        self._next_id += 1
        self.span_stack.append(sid)
        return sid

    def _close_span(self, sid: int, name: str, t0: float, t1: float) -> None:
        self.span_stack.pop()
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append((sid, parent, name, t0, t1))

    def op(self, name: str, fn, *args):
        """Run one benchmark operation as a root span; returns fn's result."""
        frame = [0.0, name]
        sid = self._open_span()
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            if sid is not None:
                self._close_span(sid, name, t0, t1)

    def _wrap(self, fn, qual: str, span: bool):
        stats = self.stats.setdefault(qual, [0, 0.0, 0.0])
        stack = self.stack
        hook = _HOOKS.get(qual)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, qual]
            sid = tracer._open_span() if span else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if sid is not None:
                    tracer._close_span(sid, qual, t0, t1)
            if hook is not None:
                hook(tracer, stack[-1][1] if stack else None, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        # vars(), not getattr(): a classmethod must come back as itself,
        # not as the method bound on lookup.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the listed modules.

        A function is rebound in every braidact namespace that imported it,
        so calls across modules go through the wrapper too.
        """
        modules = {name: getattr(self.package, name) for name in MODULES}
        namespaces = [self.package, *modules.values()]
        for mname, module in modules.items():
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for name in public:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(mname, obj)
                elif inspect.isfunction(obj):
                    qual = _qual(mname, None, name)
                    wrapped = self._wrap(obj, qual, not _aggregated(mname, None, name))
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            self._patch(ns, name, wrapped)

    def _install_methods(self, mname: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = _qual(mname, cls.__name__, name)
            span = not _aggregated(mname, cls.__name__, name)
            if isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self._wrap(raw.__func__, qual, span)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(raw.__func__, qual, span)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(raw, qual, span))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for qual, (_, _, self_s) in self.stats.items():
            out[qual.split(".", 1)[0]] += self_s
        return out

    def calls(self, qual: str) -> int:
        return self.stats.get(qual, [0, 0.0, 0.0])[0]

    def seconds(self, qual: str) -> float:
        return self.stats.get(qual, [0, 0.0, 0.0])[1]
