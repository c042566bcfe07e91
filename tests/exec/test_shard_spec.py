"""Shard splitting, context resolution and cache discovery of a plan."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.artifacts import save_channel
from repro.channel import SimulatorChannel
from repro.channel.cache import ConditionCache
from repro.exec import ChannelRef, MonteCarloPlan
from repro.exec.plan import collect_cache_bearers
from repro.flash import FlashParameters


def _draw(unit, rng, **context):
    return (unit, float(rng.random()))


def _plan(num_units=10, **context):
    return MonteCarloPlan(task=_draw, units=tuple(range(num_units)),
                          seed=(3, 1), context=context)


class TestSubspec:
    @pytest.mark.parametrize("lo, hi", [(0, 10), (3, 7), (9, 10), (4, 4)])
    def test_units_keep_their_global_generators(self, lo, hi):
        shard = _plan().shards(1)[0]
        sub = shard.subspec(lo, hi)
        assert sub.units == shard.units[lo:hi]
        assert sub.start == shard.start + lo
        for offset in range(hi - lo):
            assert sub.unit_rng(offset).random() == \
                shard.unit_rng(lo + offset).random()

    def test_split_runs_concatenate_to_the_whole_run(self):
        shard = _plan().shards(2)[1]
        whole = shard.run().results
        head = shard.subspec(0, 2).run().results
        tail = shard.subspec(2, len(shard.units)).run().results
        assert head + tail == whole

    def test_index_is_kept_unless_overridden(self):
        shard = _plan().shards(3)[2]
        assert shard.subspec(0, 1).index == 2
        assert shard.subspec(0, 1, index=7).index == 7

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 11)])
    def test_rejects_bounds_outside_the_shard(self, lo, hi):
        with pytest.raises(ValueError, match="subspec bounds"):
            _plan().shards(1)[0].subspec(lo, hi)


class TestCollectCacheBearers:
    def test_finds_caches_and_cache_attributes_only(self):
        cache = ConditionCache()
        channel = SimulatorChannel(rng=np.random.default_rng(0))

        class FakeCache:
            cache = {"not": "a ConditionCache"}

        bearers = collect_cache_bearers({"cache": cache, "channel": channel,
                                         "other": FakeCache(), "n": 3})
        assert bearers == {"cache": cache, "channel": channel.cache}

    def test_empty_context(self):
        assert collect_cache_bearers({}) == {}


@pytest.fixture(scope="module")
def simulator_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("zoo") / "simulator"
    save_channel(SimulatorChannel(FlashParameters(),
                                  rng=np.random.default_rng(6)), path)
    return path


class TestChannelRefResolution:
    def test_context_without_refs_is_returned_as_is(self):
        shard = _plan(scale=2).shards(1)[0]
        assert shard.resolved_context() is shard.context

    def test_refs_are_replaced_by_live_backends(self, simulator_checkpoint):
        ref = ChannelRef("simulator", simulator_checkpoint)
        shard = _plan(channel=ref, scale=2).shards(1)[0]
        context = shard.resolved_context()
        assert isinstance(context["channel"], SimulatorChannel)
        assert context["scale"] == 2
        assert shard.context["channel"] is ref

    def test_peek_loads_nothing_until_resolved(self, simulator_checkpoint):
        ref = ChannelRef("simulator", simulator_checkpoint, apply_ici=False)
        assert ref.peek() is None
        assert ref.cache is None
        channel = ref.resolve()
        assert ref.peek() is channel
        assert ref.resolve() is channel
        assert ref.cache is channel.cache

    def test_resolution_is_private_to_each_thread(self, simulator_checkpoint):
        ref = ChannelRef("simulator", simulator_checkpoint)
        mine = ref.resolve()
        seen = {}

        def worker():
            seen["peek"] = ref.peek()
            seen["resolved"] = ref.resolve()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["peek"] is None
        assert seen["resolved"] is not mine

    def test_from_checkpoint_reads_the_registry_name(self,
                                                     simulator_checkpoint):
        ref = ChannelRef.from_checkpoint(simulator_checkpoint)
        assert ref.name == "simulator"
        assert ref.checkpoint == str(simulator_checkpoint)

    def test_array_options_are_keyed_by_content(self):
        """Arrays whose reprs coincide must still name different builds."""
        base = np.zeros(5000)
        changed = base.copy()
        changed[2500] = 1.0
        assert repr(base) == repr(changed)
        assert ChannelRef("simulator", "zoo", weights=base).key() != \
            ChannelRef("simulator", "zoo", weights=changed).key()
        assert ChannelRef("simulator", "zoo", weights=base).key() == \
            ChannelRef("simulator", "zoo", weights=base.copy()).key()
