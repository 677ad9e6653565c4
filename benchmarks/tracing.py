"""Span tracing of centauts' public functions, installed from outside the package.

Every traced function is replaced, for the duration of a ``with Tracer():``
block, by a wrapper that records one span (name, start, end, parent) in
memory.  A function is rebound under every name any ``centauts`` module holds
it by, because ``theory``, ``corpus`` and the package ``__init__`` import
functions from their defining modules; methods are replaced on the class.
Per-element helpers (``is_central_automorphism``, ``Automorphism.*``,
``Group.mul_rows``, ``Group.op``) are left alone: they run millions of times
and their cost belongs to the span that calls them.

A layer's time is the self time of its spans: duration minus the time
covered by child spans.  Counters are taken from arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# metric -> functions whose self time it sums.  A name is "module.function"
# for module-level functions and "module.Class.method" for methods.
TIMED = {
    "automorphisms.aut_search_s": ("automorphisms.all_automorphisms",),
    "automorphisms.autcent_s": ("automorphisms.autcent",),
    "automorphisms.filter_s": (
        "automorphisms.aut_fixing_quotient",
        "automorphisms.aut_fixing_subgroup",
    ),
    "automorphisms.hom_search_s": (
        "automorphisms.enumerate_homs",
        "automorphisms.homs_to_central_subgroup",
    ),
    "automorphisms.other_s": (
        "automorphisms.inner_automorphisms",
        "automorphisms.abelian_factor_split",
        "automorphisms.minimal_generating_set",
        "automorphisms.alpha_from_f",
        "automorphisms.verify_lemma0",
        "automorphisms.verify_lemma0a",
    ),
    "groups.build_s": ("groups.Group.__init__", "groups.Subgroup.as_group"),
    "groups.invariants_s": (
        "groups.Group.center",
        "groups.Group.commutator_subgroup",
        "groups.Group.frattini_subgroup",
        "groups.Group.nilpotency_class",
        "groups.Group.quotient",
        "groups.Group.abelianization",
        "groups.Group.center_quotient",
        "groups.Group.generating_set",
        "groups.Group.p_group_prime",
    ),
    "groups.subgroups_s": ("groups.Group.normal_subgroups", "groups.Subgroup.all_subgroups"),
    "abelian.invariants_s": ("abelian.invariants", "abelian.class_two_invariants"),
    "abelian.hom_order_s": ("abelian.hom_order",),
    "theory.verify_s": (
        "theory.verify_theorem",
        "theory.verify_proposition1",
        "theory.verify_corollary1",
        "theory.verify_lemma3",
        "theory.verify_lemma4_sweep",
        "theory.verify_attar",
    ),
    "corpus.scan_self_s": ("corpus.scan_corpus", "corpus.analyze_group"),
    "corpus.emit_s": ("corpus.emit_report",),
    "corpus.parse_s": ("corpus.parse_group_text", "corpus.parse_group_file"),
}

def _size(args, kwargs, result):
    return len(result)


def _within(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["within"])


# function -> (metric, measure(args, kwargs, result), once).  Cached functions
# return the same object on every call after the first; with ``once`` their
# result is counted once per object (see Tracer._once).
COUNTED = {
    "automorphisms.all_automorphisms": (("automorphisms.aut_found", _size, True),),
    "automorphisms.autcent": (("automorphisms.autcent_found", _size, True),),
    "automorphisms.aut_fixing_quotient": (
        ("automorphisms.filter_examined", _within, False),
        ("automorphisms.filter_kept", _size, False),
    ),
    "automorphisms.aut_fixing_subgroup": (
        ("automorphisms.filter_examined", _within, False),
        ("automorphisms.filter_kept", _size, False),
    ),
    "automorphisms.enumerate_homs": (("automorphisms.homs_found", _size, False),),
    "groups.Group.normal_subgroups": (("groups.subgroups_found", _size, True),),
    "groups.Subgroup.all_subgroups": (("groups.subgroups_found", _size, True),),
    "theory.verify_lemma4_sweep": (
        ("theory.sweep_triples", lambda a, k, r: r.triples_checked, False),
    ),
    "corpus.emit_report": (("corpus.report_bytes", lambda a, k, r: len(r.encode("utf-8")), False),),
}

# metric -> functions whose spans it counts, raising calls included.
CALLS = {
    "groups.build_calls": ("groups.Group.__init__",),
    "abelian.hom_order_calls": ("abelian.hom_order",),
    "theory.calls": TIMED["theory.verify_s"],
    "corpus.analyze_calls": ("corpus.analyze_group",),
}

TRACED = tuple(name for names in TIMED.values() for name in names)


def _resolve(name: str):
    """(owner, attribute, function) of a traced name, owner a module or class;
    None when the program no longer defines it, so that it simply records no spans."""
    module_name, _, attr = name.rpartition(".")
    parts = module_name.split(".")
    owner = sys.modules.get(f"centauts.{parts[0]}")
    for part in parts[1:]:
        owner = getattr(owner, part, None)
    original = vars(owner).get(attr) if owner is not None else None
    return None if original is None else (owner, attr, original)


class Tracer:
    """Context manager that traces every function in ``TRACED``.

    Spans are kept in flat arrays: ``names[i]`` indexes ``TRACED``,
    ``parents[i]`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._seen: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _once(self, result) -> bool:
        """True the first time a cached result object is reported.

        The analysis of one group holds every cached result alive, so ids
        stay unique until ``analyze_group`` returns and the set is cleared.
        """
        if id(result) in self._seen:
            return False
        self._seen[id(result)] = result
        return True

    def _wrap(self, index: int, name: str, fn):
        counters = COUNTED.get(name, ())
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts
        clears_seen = name == "corpus.analyze_group"

        def traced(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            for metric, measure, once in counters:
                if once and not self._once(result):
                    continue
                counts[metric] = counts.get(metric, 0) + measure(args, kwargs, result)
            if clears_seen:
                self._seen.clear()
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "centauts" or key.startswith("centauts."))
        ]
        for index, name in enumerate(TRACED):
            found = _resolve(name)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(index, name, original)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._seen.clear()

    def self_times(self) -> np.ndarray:
        """Summed self time (s) per entry of ``TRACED``."""
        if not self.names:
            return np.zeros(len(TRACED))
        names = np.frombuffer(self.names, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        durations = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(durations)
        )
        return np.bincount(names, weights=durations - children, minlength=len(TRACED))

    def calls(self, name: str) -> int:
        """Number of spans recorded for one entry of ``TRACED``."""
        return self.names.count(TRACED.index(name))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counters of everything traced so far."""
        per_name = dict(zip(TRACED, self.self_times().tolist()))
        out = {metric: sum(per_name[n] for n in names) for metric, names in TIMED.items()}
        out.update({metric: sum(map(self.calls, names)) for metric, names in CALLS.items()})
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped columnar JSON."""
        doc = {
            "names": list(TRACED),
            "name": self.names.tolist(),
            "parent": self.parents.tolist(),
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle)
