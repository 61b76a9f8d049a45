"""Unit tests for the Auxiliary Tag Directory with set sampling."""

import random

import pytest

from repro.cache.atd import AuxiliaryTagDirectory
from repro.config import CacheConfig
from repro.errors import ConfigurationError

KB = 1024


class _ReferenceATD:
    """The seed's sampled-set membership machinery (set + dict lookups).

    Kept as an executable specification: the stride shift/mask test in
    AuxiliaryTagDirectory must be behaviourally identical to this
    implementation.
    """

    def __init__(self, llc_config: CacheConfig, sampled_sets: int = 32):
        self.num_llc_sets = llc_config.num_sets
        self.associativity = llc_config.associativity
        self.line_bytes = llc_config.line_bytes
        self.sampled_sets = min(sampled_sets, self.num_llc_sets)
        stride = max(1, self.num_llc_sets // self.sampled_sets)
        self._sampled_indices = {stride * i for i in range(self.sampled_sets)}
        self._stacks = {index: [] for index in self._sampled_indices}
        self.hit_position_histogram = [0.0] * self.associativity
        self.sampled_misses = 0.0
        self.sampled_accesses = 0.0

    def access(self, address):
        index = (address // self.line_bytes) % self.num_llc_sets
        stack = self._stacks.get(index)
        if stack is None:
            return None
        tag = address // (self.line_bytes * self.num_llc_sets)
        self.sampled_accesses += 1
        try:
            position = stack.index(tag)
        except ValueError:
            self.sampled_misses += 1
            stack.insert(0, tag)
            if len(stack) > self.associativity:
                stack.pop()
            return False
        self.hit_position_histogram[position] += 1
        del stack[position]
        stack.insert(0, tag)
        return True


def make_atd(sampled_sets=8, associativity=4, sets=64):
    config = CacheConfig(
        size_bytes=associativity * sets * 64,
        associativity=associativity,
        latency=16,
        mshrs=32,
    )
    return AuxiliaryTagDirectory(config, sampled_sets=sampled_sets)


def sampled_address(atd, ordinal=0, tag=0):
    """Return an address mapping to the ordinal-th sampled set with a given tag."""
    index = sorted(atd._sampled_indices)[ordinal]
    return (tag * atd.num_llc_sets + index) * atd.line_bytes


class TestSampling:
    def test_requires_positive_sample_count(self):
        config = CacheConfig(size_bytes=64 * KB, associativity=4, latency=16, mshrs=32)
        with pytest.raises(ConfigurationError):
            AuxiliaryTagDirectory(config, sampled_sets=0)

    def test_sample_count_capped_at_total_sets(self):
        atd = make_atd(sampled_sets=1_000, sets=64)
        assert atd.sampled_sets == 64

    def test_unsampled_addresses_return_none_and_do_not_count(self):
        atd = make_atd(sampled_sets=2, sets=64)
        unsampled = None
        for set_index in range(atd.num_llc_sets):
            if set_index not in atd._sampled_indices:
                unsampled = set_index * atd.line_bytes
                break
        assert atd.access(unsampled) is None
        assert atd.sampled_accesses == 0

    def test_sampling_factor(self):
        atd = make_atd(sampled_sets=8, sets=64)
        assert atd.sampling_factor == pytest.approx(8.0)

    def test_samples_predicate_matches_access_behaviour(self):
        atd = make_atd(sampled_sets=4, sets=64)
        address = sampled_address(atd)
        assert atd.samples(address)
        assert atd.access(address) is not None


class TestLRUStackBehaviour:
    def test_first_access_misses_then_hits(self):
        atd = make_atd()
        address = sampled_address(atd)
        assert atd.access(address) is False
        assert atd.access(address) is True

    def test_hit_position_histogram_records_stack_depth(self):
        atd = make_atd(associativity=4)
        a = sampled_address(atd, tag=1)
        b = sampled_address(atd, tag=2)
        atd.access(a)
        atd.access(b)
        # Re-access a: it sits at stack position 1 (b is MRU).
        atd.access(a)
        assert atd.hit_position_histogram[1] == 1

    def test_stack_is_bounded_by_associativity(self):
        atd = make_atd(associativity=2)
        first = sampled_address(atd, tag=1)
        atd.access(first)
        atd.access(sampled_address(atd, tag=2))
        atd.access(sampled_address(atd, tag=3))
        # The first tag was pushed out of the 2-deep stack.
        assert atd.access(first) is False

    def test_would_hit_is_non_destructive(self):
        atd = make_atd()
        address = sampled_address(atd)
        atd.access(address)
        assert atd.would_hit(address) is True
        assert atd.would_hit(sampled_address(atd, tag=9)) is False
        # Probing did not change hit statistics.
        assert atd.sampled_accesses == 1


class TestMissCurves:
    def test_miss_curve_scaled_to_full_cache(self):
        atd = make_atd(sampled_sets=8, sets=64)
        address = sampled_address(atd)
        atd.access(address)
        atd.access(address)
        curve = atd.miss_curve(scale_to_full_cache=True)
        assert curve.total_accesses == pytest.approx(2 * atd.sampling_factor)

    def test_miss_curve_reflects_reuse(self):
        atd = make_atd(associativity=4)
        addresses = [sampled_address(atd, tag=t) for t in range(2)]
        for _ in range(3):
            for address in addresses:
                atd.access(address)
        curve = atd.miss_curve(scale_to_full_cache=False)
        # With 2 ways the working set fits: only the 2 cold misses remain.
        assert curve.misses_at(2) == pytest.approx(2.0)
        assert curve.misses_at(4) == pytest.approx(2.0)
        assert curve.misses_at(0) == pytest.approx(6.0)

    def test_reset_statistics_keeps_tag_state(self):
        atd = make_atd()
        address = sampled_address(atd)
        atd.access(address)
        atd.reset_statistics()
        assert atd.sampled_accesses == 0
        # Tag state survived the reset: the next access is still a hit.
        assert atd.access(address) is True

    def test_storage_bits_scale_with_sampled_sets(self):
        small = make_atd(sampled_sets=4)
        large = make_atd(sampled_sets=16)
        assert large.storage_bits() == 4 * small.storage_bits()


class TestStrideEquivalence:
    """The stride shift/mask membership test must match the seed's set lookups."""

    @pytest.mark.parametrize("sets,sampled,assoc", [
        (64, 8, 4),      # power-of-two stride (mask/shift fast path)
        (64, 64, 4),     # every set sampled, stride 1
        (64, 24, 2),     # 24 does not divide 64: stride 2, slots 24..31 unsampled
        (96, 7, 4),      # non-power-of-two set count and stride (divmod fallback)
        (128, 3, 8),     # stride 42, non-power-of-two
    ])
    def test_randomized_stream_identical_to_reference(self, sets, sampled, assoc):
        config = CacheConfig(
            size_bytes=assoc * sets * 64,
            associativity=assoc,
            latency=16,
            mshrs=32,
        )
        new = AuxiliaryTagDirectory(config, sampled_sets=sampled)
        ref = _ReferenceATD(config, sampled_sets=sampled)
        assert new.sampled_sets == ref.sampled_sets
        rng = random.Random(sets * 1_000 + sampled)
        for _ in range(5_000):
            address = rng.randrange(0, sets * 64 * assoc * 8)
            assert new.access(address) == ref.access(address), address
        assert new.sampled_accesses == ref.sampled_accesses
        assert new.sampled_misses == ref.sampled_misses
        assert new.hit_position_histogram == ref.hit_position_histogram
        # The dense slot-indexed stacks hold the same tags as the reference's
        # per-set dict, and the membership predicate agrees on every index.
        for set_index in range(sets):
            stack = new.stack_for(set_index)
            if set_index in ref._sampled_indices:
                assert stack == ref._stacks[set_index]
            else:
                assert stack is None

    def test_samples_agrees_with_membership_set(self):
        atd = make_atd(sampled_sets=8, sets=64)
        for set_index in range(atd.num_llc_sets):
            address = set_index * atd.line_bytes
            assert atd.samples(address) == (set_index in atd._sampled_indices)


def test_lookup_moves_stacks_and_record_counts():
    """access() is lookup() (stack only) followed by record() (statistics
    only); the memory path's front end and back end call them separately."""
    split, whole = make_atd(sampled_sets=8, sets=64), make_atd(sampled_sets=8, sets=64)
    rng = random.Random(3)
    for _ in range(3_000):
        address = rng.randrange(0, 64 * 64 * 4 * 4)
        position = split.lookup(address)
        outcome = whole.access(address)
        if position is None:
            assert outcome is None
        else:
            assert outcome == (position >= 0)
            assert split.record(position) == outcome
    assert (split.sampled_accesses, split.sampled_misses) == (
        whole.sampled_accesses, whole.sampled_misses)
    assert split.hit_position_histogram == whole.hit_position_histogram
    assert split._stacks == whole._stacks
    before = list(split._stacks[0])
    split.record(-1)
    assert split._stacks[0] == before and split.sampled_misses == whole.sampled_misses + 1
