"""Tests for deterministic random streams."""

from repro.simulation import RandomStreams


def test_same_name_same_stream_values():
    a = RandomStreams(seed=7).get("disk").random(5)
    b = RandomStreams(seed=7).get("disk").random(5)
    assert (a == b).all()


def test_different_names_independent():
    streams = RandomStreams(seed=7)
    a = streams.get("disk").random(5)
    b = streams.get("nic").random(5)
    assert not (a == b).all()


def test_different_seeds_differ():
    a = RandomStreams(seed=1).get("x").random(5)
    b = RandomStreams(seed=2).get("x").random(5)
    assert not (a == b).all()


def test_get_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.get("a") is streams.get("a")


def test_creation_order_does_not_matter():
    s1 = RandomStreams(seed=3)
    s1.get("first")
    x = s1.get("second").random(3)

    s2 = RandomStreams(seed=3)
    y = s2.get("second").random(3)  # created without "first"
    assert (x == y).all()


def test_spawn_namespaces_are_disjoint_from_flat_names():
    # A spawned child's streams must NOT alias any flat name of the
    # parent: segment boundaries are part of the stream identity.
    parent = RandomStreams(seed=5)
    child = parent.spawn("machine0")
    a = child.get("disk").random(3)
    b = parent.get("machine0/disk").random(3)
    assert not (a == b).all()


def test_spawned_children_disjoint():
    parent = RandomStreams(seed=5)
    a = parent.spawn("m0").get("disk").random(3)
    b = parent.spawn("m1").get("disk").random(3)
    assert not (a == b).all()


def test_no_collision_across_segment_boundaries():
    # Regression: the old per-character key encoding collapsed these
    # three paths onto the characters of "a/b/c" and returned the SAME
    # stream for all of them.
    root = RandomStreams(seed=11)
    draws = [
        RandomStreams(seed=11).spawn("a").get("b/c").random(8),
        RandomStreams(seed=11).spawn("a/b").get("c").random(8),
        root.get("a/b/c").random(8),
    ]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not (draws[i] == draws[j]).all()


def test_spawn_is_reproducible_and_order_independent():
    # Replica k's streams are a pure function of (seed, path) — the
    # property the sharded fleet runner depends on for bit-identical
    # results regardless of worker count or creation order.
    a = RandomStreams(seed=9).spawn("replica").spawn("3").get("workload").random(5)
    other = RandomStreams(seed=9)
    other.spawn("replica").spawn("0").get("workload")
    b = other.spawn("replica").spawn("3").get("workload").random(5)
    assert (a == b).all()


def test_prefix_kwarg_matches_spawn():
    # RandomStreams(seed, prefix="x") is the same namespace as
    # RandomStreams(seed).spawn("x") (used by e.g. the replay harness).
    a = RandomStreams(seed=4, prefix="replay").get("disk").random(3)
    b = RandomStreams(seed=4).spawn("replay").get("disk").random(3)
    assert (a == b).all()


# -- block-prefetched (buffered) streams --------------------------------------


def _canonical(state):
    import json

    return json.dumps(state, sort_keys=True, default=str)


def test_buffered_draws_match_scalar_draws_across_kinds():
    # The prefetched block consumes the identical bit-generator
    # sequence as scalar draws, including across kind switches and
    # fallback methods — values AND post-draw generator state agree.
    buffered = RandomStreams(seed=13).buffered("dev")
    scalar = RandomStreams(seed=13).get("dev")

    got = [buffered.random() for _ in range(3)]
    want = [scalar.random() for _ in range(3)]
    got += [buffered.exponential(0.25) for _ in range(4)]
    want += [scalar.exponential(0.25) for _ in range(4)]
    got += [buffered.normal(2.0, 0.5) for _ in range(4)]
    want += [scalar.normal(2.0, 0.5) for _ in range(4)]
    got += [buffered.uniform(1.0, 9.0) for _ in range(3)]
    want += [scalar.uniform(1.0, 9.0) for _ in range(3)]
    got.append(float(buffered.integers(0, 1 << 20)))  # delegated fallback
    want.append(float(scalar.integers(0, 1 << 20)))
    got.append(buffered.random())
    want.append(scalar.random())
    assert got == want

    assert _canonical(buffered.generator.bit_generator.state) == _canonical(
        scalar.bit_generator.state
    )


def test_buffered_never_drawn_round_trips():
    # A buffered stream that was created but never drawn from must
    # snapshot to exactly the fresh-derivation state (the wrapper
    # rewinds its untouched block), and a restored factory must draw
    # the same first value whether accessed buffered or raw.
    streams = RandomStreams(seed=3)
    streams.buffered("hot")
    fresh = RandomStreams(seed=3)
    fresh.get("hot")
    assert _canonical(streams.state()) == _canonical(fresh.state())

    restored = RandomStreams.from_state(streams.state())
    assert restored.buffered("hot").random() == RandomStreams(seed=3).get(
        "hot"
    ).random()


def test_buffered_mid_block_snapshot_continues_exactly():
    # state() mid-block rewinds to the logically-consumed position: a
    # factory restored from the snapshot continues the draw sequence
    # exactly where the original's buffered stream left off.
    streams = RandomStreams(seed=21)
    hot = streams.buffered("arrivals")
    consumed = [hot.exponential(2.0) for _ in range(7)]

    restored = RandomStreams.from_state(streams.state())
    continued = [restored.buffered("arrivals").exponential(2.0) for _ in range(5)]

    scalar = RandomStreams(seed=21).get("arrivals")
    want = [scalar.exponential(2.0) for _ in range(12)]
    assert consumed + continued == want

    # ...and the original keeps drawing correctly after its own sync.
    assert [hot.exponential(2.0) for _ in range(5)] == continued


def test_buffered_is_memoized_and_shares_the_raw_generator():
    streams = RandomStreams(seed=8)
    wrapper = streams.buffered("disk")
    assert streams.buffered("disk") is wrapper
    assert wrapper.generator is streams.get("disk")
