"""One malformed agreement message must not crash a correct member.

Every vector-consensus message is shape-checked once, in
``VectorConsensus.on_message``: a payload that is not a tuple, has an
unknown kind, the wrong arity or a non-integer round is reported as
misbehaviour and dropped.  Both hosts of the consensus -- total ordering
(directly and through the fast path) and membership -- rely on it.
"""

import pytest
from tests.helpers import cast_payloads

from repro import Group, StackConfig
from repro.consensus.fastpath import FastPathConsensus
from repro.consensus.vector import VectorConsensus
from repro.core import message as mk
from repro.core.message import Message

MEMBERS = list(range(7))
BAD_PAYLOADS = [7, (), ("dec",), ("dec", (1,), 2), ("val", [1], (1,)),
                ("coord", [1], (1,)), ("val", 1), ("coord", "r", (1,)),
                ("equiv", ("val", 1, (1,)), 3)]


def _instance(cls):
    reports = []
    instance = cls("t", MEMBERS, 0, 1, ((1,),), lambda payload: None,
                   on_misbehavior=lambda m, reason: reports.append(reason))
    return instance, reports


@pytest.mark.parametrize("payload", BAD_PAYLOADS, ids=repr)
def test_vector_consensus_reports_malformed_payloads(payload):
    instance, reports = _instance(VectorConsensus)
    instance.start()
    instance.on_message(1, payload)
    assert reports and all(r.startswith("consensus:") for r in reports)
    assert not instance.decided


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("payload", BAD_PAYLOADS, ids=repr)
def test_fast_path_reports_malformed_payloads(payload, fast):
    instance, reports = _instance(FastPathConsensus)
    instance.start(fast=fast)
    instance.on_message(1, payload)
    assert reports
    assert not instance.decided


def _group(fast):
    config = StackConfig.byz(total_order=True, ordering_fast_path=fast)
    group = Group.bootstrap(7, config=config, seed=5)
    group.run(0.05)
    return group


def _inject(process, layer, kind, payload, origin=1):
    msg = Message(kind, origin, process.view.vid, payload)
    msg.sender = origin
    layer.handle_up(msg)


@pytest.mark.parametrize("fast", [False, True])
def test_ordering_survives_malformed_order_payload(fast):
    group = _group(fast)
    victim = group.processes[0]
    before = victim.verbose_detector.violations
    _inject(victim, victim.ordering, mk.KIND_ORDER,
            ("ord", victim.ordering.highest_instance + 1, 7))
    assert victim.verbose_detector.violations > before
    group.endpoints[2].cast("after")
    group.run(0.5)
    assert all("after" in cast_payloads(ep)
               for ep in group.endpoints.values())
    group.stop()


def test_membership_survives_malformed_consensus_payload():
    group = _group(False)
    victim = group.processes[0]
    membership = victim.membership
    before = victim.verbose_detector.violations
    instance_id = ("vc", victim.view.vid.key(), membership._epoch + 1)
    _inject(victim, membership, mk.KIND_CONSENSUS, (instance_id, 7))
    assert victim.verbose_detector.violations > before
    group.run(0.5)
    group.stop()
