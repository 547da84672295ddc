"""ExperimentSpec: stable, collision-free content addresses."""

import dataclasses

import pytest

from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.config import CacheConfig
from repro.core.runner import experiment_key
from repro.exec import experiments
from repro.exec.experiments import UnknownExperimentKind, get_kind
from repro.exec.keys import ExperimentSpec


def test_digest_is_stable_and_hex():
    key = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    again = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    assert key.digest() == again.digest()
    assert len(key.digest()) == 64
    int(key.digest(), 16)


def test_digest_depends_on_every_component():
    base = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    variants = [
        experiment_key("cache", "grr", CacheConfig(), 1.0, 1991),
        experiment_key("cache", "ccom", CacheConfig(), 0.5, 1991),
        experiment_key("cache", "ccom", CacheConfig(), 1.0, 7),
        experiment_key("cache", "ccom", CacheConfig(size="16KB"), 1.0, 1991),
        experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991, flush=False),
    ]
    digests = {base.digest()} | {variant.digest() for variant in variants}
    assert len(digests) == len(variants) + 1


def test_close_scales_do_not_collide():
    a = experiment_key("cache", "ccom", CacheConfig(), 0.1, 1991)
    b = experiment_key("cache", "ccom", CacheConfig(), 0.1 + 1e-12, 1991)
    assert a.digest() != b.digest()


def test_config_name_does_not_affect_digest():
    named = experiment_key("cache", "ccom", CacheConfig(name="anything"), 1.0, 1991)
    plain = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    assert named.digest() == plain.digest()


def test_flush_is_part_of_the_address():
    flushed = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    cold = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991, flush=False)
    assert flushed.flush and not cold.flush
    assert flushed.digest() != cold.digest()
    assert "flush=1" in flushed.canonical()
    assert "flush=0" in cold.canonical()


def test_engine_version_invalidates(monkeypatch):
    key = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    before = key.digest()
    bumped = dataclasses.replace(get_kind("cache"), engine_version="999")
    monkeypatch.setitem(experiments._REGISTRY, "cache", bumped)
    assert key.digest() != before


def test_engine_version_is_per_kind(monkeypatch):
    cache_key = experiment_key("cache", "ccom", CacheConfig(), 1.0, 1991)
    wc_spec = ExperimentSpec("write_cache", "ccom", 1.0, 1991, WriteCacheConfig())
    wc_before = wc_spec.digest()
    bumped = dataclasses.replace(get_kind("cache"), engine_version="999")
    monkeypatch.setitem(experiments._REGISTRY, "cache", bumped)
    assert cache_key.canonical().endswith("engine=999")
    assert wc_spec.digest() == wc_before


def test_same_workload_different_kinds_never_collide():
    # A write-cache config and a cache config could in principle render
    # the same canonical fragment; the kind tag keeps the addresses apart.
    a = ExperimentSpec("cache", "ccom", 1.0, 1991, CacheConfig())
    b = ExperimentSpec("system", "ccom", 1.0, 1991, CacheConfig())
    assert a.digest() != b.digest()


def test_unknown_kind_fails_at_canonicalization():
    spec = ExperimentSpec("no_such_kind", "ccom", 1.0, 1991, CacheConfig())
    with pytest.raises(UnknownExperimentKind):
        spec.canonical()


def test_key_is_hashable_memo_key():
    a = experiment_key("cache", "ccom", CacheConfig(name="x"), 1.0, 1991)
    b = experiment_key("cache", "ccom", CacheConfig(name="y"), 1.0, 1991)
    assert a == b and len({a, b}) == 1
