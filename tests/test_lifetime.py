"""A group and what it derives live exactly as long as the group is referenced.

Subgroups, quotient maps and automorphism sets are views that hold their
group, and a group's caches hold plain data only, so a view alone keeps its
group alive, and a dropped group is freed by reference counting, with no
cycle left for the collector.
"""

import gc
import random
from collections import Counter

from centauts import (
    all_automorphisms,
    autcent,
    from_cayley_table,
    inner_automorphisms,
)
from centauts.automorphisms import Automorphism, AutSet
from centauts.corpus import (
    CHECK_NAMES,
    RunConfig,
    analyze_group,
    catalog,
    catalog_group,
    scan_corpus,
)
from centauts.errors import CentautsError
from centauts.groups import Group, QuotientMap, Subgroup
from centauts.theory import build_factor_witness
from oracles import relabel

DERIVED = (Group, Subgroup, QuotientMap, AutSet, Automorphism)


class TestViewsKeepTheirGroup:
    def test_center(self):
        z = catalog_group("D8").center()
        gc.collect()
        assert z.parent.n == 8
        assert z.is_central()
        assert z.as_group().n == 2

    def test_abelianization(self):
        q = catalog_group("Q8").abelianization()
        gc.collect()
        assert q.source.n == 8 and q.target.n == 4

    def test_inner_automorphisms(self):
        inn = inner_automorphisms(catalog_group("D8"))
        gc.collect()
        assert inn.group.n == 8 and len(inn) == 4


def test_as_group_is_one_group_per_subgroup():
    # Hom counts are cached under the target group, so its identity must hold
    g = catalog_group("D8xC2")
    assert g.center().as_group() is g.center().as_group()


def _exercise(group: Group) -> None:
    analyze_group(group, CHECK_NAMES)
    if group.n <= 32:
        for derive in (autcent, build_factor_witness, all_automorphisms):
            try:
                derive(group)
            except CentautsError:
                pass


def test_dropped_groups_leave_nothing_for_the_collector():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rng = random.Random(18)
        for make in catalog().values():
            group = make()
            _exercise(group)
            perm = list(range(group.n))
            rng.shuffle(perm)
            _exercise(from_cayley_table(relabel(group.mul.tolist(), perm), name=group.name))
        del group
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage if isinstance(obj, DERIVED))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not left


def test_scans_leave_nothing_for_the_collector(tmp_path):
    """A cold and then a warm scan leave no reference cycle of any type: not in
    the cache writes, nor in the table steps a scan shares between entries."""
    # the first numpy calls in a process leave objects of their own
    scan_corpus(RunConfig(max_order=16, primes=(2,)))
    cfg = RunConfig(max_order=81, primes=(2, 3), cache_dir=str(tmp_path))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in ("fill", "read"):
            scan_corpus(cfg)
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert len(list(tmp_path.glob("*.json"))) == 47
    assert not left
