"""Shard messaging."""

import pickle

import pytest

from repro.sim.shard import (
    COORDINATOR,
    ShardMessage,
    route_messages,
)
from repro.util.errors import ConfigError


def _msg(time, src, seq, dst=0, kind="k"):
    return ShardMessage(time=time, src_shard=src, seq=seq, kind=kind,
                        dst_shard=dst)


def test_message_ordering_ignores_payload():
    # (time, src_shard, seq) totally orders; kind/payload never compared.
    a = _msg(5, 1, 1, kind="zzz")
    b = _msg(5, 2, 1, kind="aaa")
    c = _msg(4, 9, 9)
    assert sorted([b, a, c]) == [c, a, b]


def test_route_messages_partitions_and_sorts():
    msgs = [
        _msg(2, 1, 1, dst=0),
        _msg(1, 0, 1, dst=1),
        _msg(1, 0, 2, dst=COORDINATOR),
        _msg(1, 1, 1, dst=0),
    ]
    inboxes, coord = route_messages(msgs, shards=2)
    assert [(m.time, m.src_shard, m.seq) for m in inboxes[0]] == [
        (1, 1, 1), (2, 1, 1)]
    assert [m.dst_shard for m in inboxes[1]] == [1]
    assert len(coord) == 1 and coord[0].seq == 2


def test_route_messages_rejects_unknown_shard():
    with pytest.raises(ConfigError, match="shard 7"):
        route_messages([_msg(1, 0, 1, dst=7)], shards=2)


def test_message_pickles():
    msg = ShardMessage(time=1, src_shard=0, seq=1, kind="arrive",
                       dst_shard=1, payload=("vm", "host"))
    assert pickle.loads(pickle.dumps(msg)) == msg
