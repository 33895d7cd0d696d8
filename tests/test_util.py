"""Unit tests for the util package: seeded RNG and error hierarchy."""

import hashlib
import pickle
import random

import pytest

from repro.util.errors import (
    AddressError,
    BindError,
    ConnectionError_,
    ProtocolError,
    ReproError,
    RoutingError,
    TimeoutError_,
)
from repro.util.rng import SeededRng


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a, b = SeededRng(42), SeededRng(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_children_are_independent_namespaces(self):
        parent = SeededRng(7)
        x, y = parent.child("x"), parent.child("y")
        assert x.random() != y.random()
        # Re-deriving gives the same stream.
        assert parent.child("x").random() == SeededRng(7).child("x").random()

    def test_child_does_not_perturb_parent(self):
        a, b = SeededRng(5), SeededRng(5)
        a.child("anything")
        assert a.random() == b.random()

    def test_randint_bounds(self):
        rng = SeededRng(1)
        values = [rng.randint(3, 5) for _ in range(100)]
        assert set(values) <= {3, 4, 5}
        assert len(set(values)) == 3

    def test_uniform_bounds(self):
        rng = SeededRng(1)
        assert all(1.0 <= rng.uniform(1.0, 2.0) <= 2.0 for _ in range(50))

    def test_chance_extremes(self):
        rng = SeededRng(1)
        assert all(rng.chance(1.0) for _ in range(10))
        assert not any(rng.chance(0.0) for _ in range(10))

    def test_bytes_length(self):
        rng = SeededRng(1)
        assert len(rng.bytes(16)) == 16
        assert rng.bytes(0) == b""

    def test_nonces_in_range(self):
        rng = SeededRng(1)
        assert 0 <= rng.nonce32() < (1 << 32)
        assert 0 <= rng.nonce64() < (1 << 64)

    def test_choice_and_shuffle_deterministic(self):
        items = list(range(20))
        a, b = SeededRng(3), SeededRng(3)
        la, lb = list(items), list(items)
        a.shuffle(la)
        b.shuffle(lb)
        assert la == lb
        assert a.choice(items) == b.choice(items)

    def test_sample(self):
        rng = SeededRng(1)
        s = rng.sample(range(100), 10)
        assert len(s) == len(set(s)) == 10


def eager_random(seed, name):
    """The generator ``SeededRng(seed, name)`` is defined to wrap."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def draw_mix(rng):
    """A fixed mix of draws, through either wrapper or a bare Random."""
    items = list(range(17))
    out = []
    for _ in range(5):
        if isinstance(rng, SeededRng):
            out += [rng.random(), rng.randint(0, 1000), rng.bytes(5),
                    rng.nonce64(), rng.choice(items)]
        else:
            out += [rng.random(), rng.randint(0, 1000),
                    rng.getrandbits(40).to_bytes(5, "big"),
                    rng.getrandbits(64), rng.choice(items)]
    return out


class TestLazySeeding:
    """``SeededRng`` seeds its ``random.Random`` on the first draw; the
    streams must equal eager seeding."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3, -7])
    @pytest.mark.parametrize("name", ["root", "network", "nat/NAT-DUT", "stack/client"])
    def test_streams_equal_eager_seeding(self, seed, name):
        assert draw_mix(SeededRng(seed, name)) == draw_mix(eager_random(seed, name))

    def test_child_of_parent_that_never_drew(self):
        parent = SeededRng(9, "network")
        child = parent.child("dut").child("tcp")
        assert "_random" not in vars(parent)
        assert draw_mix(child) == draw_mix(eager_random(9, "network/dut/tcp"))
        assert draw_mix(parent) == draw_mix(eager_random(9, "network"))

    def test_construction_does_not_seed(self):
        rng = SeededRng(3, "idle")
        assert "_random" not in vars(rng)
        rng.random()
        assert "_random" in vars(rng)

    def test_missing_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            SeededRng(1).no_such_attribute

    @pytest.mark.parametrize("draws_first", [False, True])
    def test_pickle_round_trip_keeps_stream(self, draws_first):
        rng = SeededRng(11, "pickled")
        if draws_first:
            rng.random()
        clone = pickle.loads(pickle.dumps(rng))
        assert draw_mix(clone) == draw_mix(rng)

    def test_check_device_seeds_fewer_generators_than_it_builds(self, monkeypatch):
        from repro.nat.behavior import WELL_BEHAVED
        from repro.natcheck.fleet import check_device

        counts = {"built": 0, "seeded": 0}
        build, seed = SeededRng.__init__, random.Random.__init__

        def counting_build(self, *args, **kwargs):
            counts["built"] += 1
            build(self, *args, **kwargs)

        def counting_seed(self, *args, **kwargs):
            counts["seeded"] += 1
            seed(self, *args, **kwargs)

        monkeypatch.setattr(SeededRng, "__init__", counting_build)
        monkeypatch.setattr(random.Random, "__init__", counting_seed)
        report = check_device(WELL_BEHAVED, seed=3)
        assert report.udp_punch_ok
        assert counts["built"] > 0
        assert counts["seeded"] < counts["built"]


class TestErrors:
    def test_all_derive_from_repro_error(self):
        for exc in (
            AddressError("x"),
            BindError("x"),
            ConnectionError_("reset"),
            ProtocolError("x"),
            RoutingError("x"),
            TimeoutError_("x"),
        ):
            assert isinstance(exc, ReproError)

    def test_connection_error_reason(self):
        e = ConnectionError_("reset", "connection reset by peer")
        assert e.reason == "reset"
        assert "reset by peer" in str(e)

    def test_connection_error_defaults_message_to_reason(self):
        assert str(ConnectionError_("unreachable")) == "unreachable"

    def test_builtin_compatibility(self):
        assert isinstance(AddressError("x"), ValueError)
        assert isinstance(BindError("x"), OSError)
        assert isinstance(TimeoutError_("x"), OSError)
