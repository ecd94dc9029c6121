"""Differential tests: the run-granular LRU against a page-dict LRU.

``repro.core.devices`` stores both device caches -- the per-disk
prefetch cache and the buffer pool's LRU region -- as runs of
consecutive pages in recency order.  The reference model here is the
plain page-granular form: one insertion-ordered dict entry per page,
recency refreshed by delete-and-reinsert, eviction from the front.
Seeded random operations drive both side by side (overlapping and
partial ranges, hits spanning several runs, touches, capacity shrink
and growth down to 0, ``invalidate_all``); after every operation the
cached pages, their LRU order, ``len``, ``hits`` and ``misses`` must
agree.  A multitenant scenario then runs through the DES with every
cache operation mirrored into a reference model, so the overlap path
also runs inside a real simulation.
"""

import random
from itertools import islice

import pytest

from repro.core.devices import LRUDataCache, PrefetchCache
from repro.rtdbs.system import RTDBSystem
from repro.scenarios import ScenarioGenerator

SHIFT = LRUDataCache._DISK_SHIFT


class PagePrefetchCache:
    """Reference :class:`PrefetchCache`: one dict entry per page."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pages = {}
        self.hits = 0
        self.misses = 0

    def contains_all(self, start, npages):
        return all(page in self.pages for page in range(start, start + npages))

    def touch(self, start, npages):
        self.hits += 1
        for page in range(start, start + npages):
            del self.pages[page]
            self.pages[page] = None

    def insert(self, start, npages):
        self.misses += 1
        self._install(range(start, start + npages))

    def _install(self, keys):
        for key in keys:
            self.pages.pop(key, None)
            self.pages[key] = None
        self._evict()

    def _evict(self):
        excess = len(self.pages) - self.capacity
        for key in list(islice(self.pages, max(0, excess))):
            del self.pages[key]


class PageDataCache(PagePrefetchCache):
    """Reference :class:`LRUDataCache`: packed ``disk << 48 | page``
    keys, probes count hits and misses, installs count nothing."""

    def set_capacity(self, capacity):
        self.capacity = capacity
        self._evict()

    def contains_all(self, disk, start, npages):
        base = (disk << SHIFT) + start
        if all(key in self.pages for key in range(base, base + npages)):
            self.hits += 1
            self._install(range(base, base + npages))
            return True
        self.misses += 1
        return False

    def insert(self, disk, start, npages):
        if self.capacity:
            base = (disk << SHIFT) + start
            self._install(range(base, base + npages))

    def invalidate_all(self):
        self.pages.clear()


def assert_same(cache, reference):
    assert list(cache) == list(reference.pages)
    assert len(cache) == len(reference.pages)
    assert cache.hits == reference.hits
    assert cache.misses == reference.misses
    assert len(cache) <= cache.capacity


def random_range(rng, span, longest):
    npages = rng.randint(1, longest)
    return rng.randrange(0, span), npages


@pytest.mark.parametrize("seed", range(60))
def test_prefetch_cache_matches_page_dict(seed):
    rng = random.Random(seed)
    cache, reference = PrefetchCache(32), PagePrefetchCache(32)
    span = rng.choice((48, 96, 400))  # small spans force overlaps
    for _ in range(300):
        start, npages = random_range(rng, span, rng.choice((6, 12, 40)))
        if rng.random() < 0.3 and reference.contains_all(start, npages):
            cache.touch(start, npages)
            reference.touch(start, npages)
        elif rng.random() < 0.2 and len(reference.pages):
            # A probe that starts on a cached page: spans runs often.
            start = rng.choice(list(reference.pages))
            assert cache.contains_all(start, npages) == reference.contains_all(
                start, npages
            )
        else:
            assert cache.contains_all(start, npages) == reference.contains_all(
                start, npages
            )
            cache.insert(start, npages)
            reference.insert(start, npages)
        assert_same(cache, reference)


@pytest.mark.parametrize(
    "capacity, trials", [(32, 40), (1000, 12)], ids=["32", "1000"]
)
def test_data_cache_matches_page_dict(capacity, trials):
    for seed in range(trials):
        rng = random.Random(capacity * 1000 + seed)
        cache, reference = LRUDataCache(capacity), PageDataCache(capacity)
        span = capacity * rng.choice((1, 2, 4))
        for _ in range(300):
            roll = rng.random()
            disk = rng.randrange(3)
            start, npages = random_range(rng, span, rng.choice((6, 12, 64)))
            if roll < 0.05:
                new = rng.choice((0, 1, capacity // 3, capacity, 2 * capacity))
                new = rng.choice((new, rng.randrange(0, 2 * capacity + 1)))
                cache.capacity = new
                reference.set_capacity(new)
            elif roll < 0.07:
                cache.invalidate_all()
                reference.invalidate_all()
            elif roll < 0.45:
                if reference.pages and rng.random() < 0.5:
                    key = rng.choice(list(reference.pages))
                    disk, start = key >> SHIFT, key & ((1 << SHIFT) - 1)
                assert cache.contains_all(disk, start, npages) == (
                    reference.contains_all(disk, start, npages)
                )
            else:
                cache.insert(disk, start, npages)
                reference.insert(disk, start, npages)
            assert_same(cache, reference)


def test_range_inside_one_run_splits_it_in_recency_order():
    """Refreshing the middle of a run leaves its two ends where they
    were in the LRU order and makes the middle newest."""
    cache = LRUDataCache(20)
    cache.insert(0, 0, 10)
    cache.insert(0, 100, 2)
    assert cache.contains_all(0, 4, 2)
    assert list(cache) == [0, 1, 2, 3, 6, 7, 8, 9, 100, 101, 4, 5]
    cache.capacity = 3
    assert list(cache) == [101, 4, 5]


def test_hit_spanning_runs_and_extension():
    cache = PrefetchCache(32)
    cache.insert(6, 6)
    cache.insert(0, 6)  # key-adjacent, but older in recency: two runs
    assert cache.contains_all(2, 8)
    cache.touch(2, 8)
    assert list(cache) == [10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    cache.insert(10, 6)  # continues the newest run
    assert list(cache) == [0, 1] + list(range(2, 16))
    assert (cache.hits, cache.misses, len(cache)) == (1, 3, 16)


def test_capacity_zero_holds_nothing():
    cache = LRUDataCache(0)
    cache.insert(1, 0, 6)
    assert len(cache) == 0 and not cache.contains_all(1, 0, 6)
    cache.capacity = 6
    cache.insert(1, 0, 12)  # wider than the region: keep the newest 6
    assert list(cache) == [(1 << SHIFT) + page for page in range(6, 12)]
    with pytest.raises(ValueError):
        cache.capacity = -1


def test_multitenant_des_run_matches_page_dict(monkeypatch):
    """Mirror every cache operation of a pool-hit-heavy DES run into a
    page-dict reference: every answer and the final page order agree,
    and the run really takes the refresh-on-hit (overlap) path."""
    shadows = {}

    def shadow(cache):
        if id(cache) not in shadows:
            if isinstance(cache, LRUDataCache):
                shadows[id(cache)] = PageDataCache(cache.capacity)
            else:
                shadows[id(cache)] = PagePrefetchCache(cache.capacity)
        return shadows[id(cache)]

    def mirror(cls, name):
        real = getattr(cls, name)

        def both(self, *args):
            expected = getattr(shadow(self), name)(*args)
            got = real(self, *args)
            assert got == expected, (cls.__name__, name, args)
            return got

        monkeypatch.setattr(cls, name, both)

    for name in ("contains_all", "touch", "insert"):
        mirror(PrefetchCache, name)
    for name in ("contains_all", "insert"):
        mirror(LRUDataCache, name)
    capacity = LRUDataCache.capacity

    def set_capacity(self, value):
        shadow(self).set_capacity(value)
        capacity.fset(self, value)

    monkeypatch.setattr(
        LRUDataCache, "capacity", property(capacity.fget, set_capacity)
    )

    scenario = ScenarioGenerator(0).generate("multitenant", 3)
    system = RTDBSystem(scenario.config, "minmax")
    caches = [system.buffers.cache] + [disk.cache for disk in system.disks]
    for cache in caches:  # created before the mirror saw them
        shadow(cache)
    result = system.run()
    assert result.served > 20
    assert system.buffers.cache.hits > 50, "the run must hit the pool"
    for cache in caches:
        assert_same(cache, shadows[id(cache)])
