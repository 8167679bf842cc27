"""Golden ordering corpus: seed-pinned fingerprints of total-order runs.

Each entry of ``golden/ordering.json`` fingerprints one seed-pinned run
with total ordering on, under either value of the ``ordering_fast_path``
knob:

* ``fuzz-<seed>-<off|on>`` -- a :class:`ScenarioFuzzer` scenario
  (``obs=True, ops=8``) from seed 606 up;
* ``chaos-<seed>-<off|on>`` -- a ``random_plan(seed, ops=8,
  allow=ADVERSARY_OPS)`` chaos plan from seed 200 up: crashes, leaves,
  partitions, link faults and mid-run Byzantine episodes.

A fingerprint is the SHA-256 of every node's ``history.events``, the
SHA-256 of the metrics state behind the ``group.metrics.rows()`` export,
and ``sim.events_processed``.  The metrics digest covers every
instrument in export order with its exact value, and a histogram's exact
samples in place of its summary: every summary field is a function of the
samples, and the ``mean`` field's last digits depend on the interpreter
(Python 3.12's ``sum`` rounds float sums differently).  Equality with the committed corpus proves a
refactor of the ordering engine left the simulated behaviour untouched,
across changes and not only within one process.

The tier-1 test replays a subset; the whole corpus is checked or
re-recorded from the command line::

    PYTHONPATH=src python tests/test_golden_ordering.py           # check all
    PYTHONPATH=src python tests/test_golden_ordering.py --write   # re-record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import StackConfig
from repro.chaos import ADVERSARY_OPS, ChaosEngine, random_plan
from repro.tools.fuzzer import ScenarioFuzzer

GOLDEN = Path(__file__).with_name("golden") / "ordering.json"

FUZZ_SEEDS = range(606, 618)
CHAOS_SEEDS = range(200, 215)

#: the runs replayed by the tier-1 suite (both knob values of each)
TIER1 = ("fuzz-606", "fuzz-608", "fuzz-609", "fuzz-612", "fuzz-615",
         "chaos-200", "chaos-201", "chaos-208", "chaos-211", "chaos-214")


def _digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def metrics_state(metrics):
    instruments = metrics.select()
    state = []
    for key in sorted(instruments,
                      key=lambda k: (repr(k[0]), str(k[1]), str(k[2]))):
        instrument = instruments[key]
        value = (tuple(instrument.samples) if instrument.kind == "histogram"
                 else instrument.value)
        state.append((repr(key[0]), key[1], key[2], instrument.kind, value))
    return tuple(state)


def fingerprint(group):
    history = tuple(
        (repr(node), tuple(map(repr, group.processes[node].history.events)))
        for node in sorted(group.processes, key=repr))
    return {"history": _digest(history),
            "metrics": _digest(metrics_state(group.metrics)),
            "events": group.sim.events_processed}


def run_fuzz(seed, fast):
    config = StackConfig.byz(crypto="sym", total_order=True,
                             ordering_fast_path=fast)
    fuzzer = ScenarioFuzzer(seed, config=config, obs=True, ops=8).execute()
    try:
        return fingerprint(fuzzer.group)
    finally:
        fuzzer.group.stop()


def run_chaos(seed, fast):
    plan = random_plan(seed, ops=8, allow=ADVERSARY_OPS,
                       config={"byzantine": True, "crypto": "sym",
                               "total_order": True, "obs": True,
                               "ordering_fast_path": fast})
    engine = ChaosEngine(plan)
    try:
        engine.run()
        return fingerprint(engine.group)
    finally:
        if engine.group is not None:
            engine.group.stop()


def run_entry(name):
    kind, seed, knob = name.split("-")
    runner = run_fuzz if kind == "fuzz" else run_chaos
    return runner(int(seed), knob == "on")


def entry_names():
    return ["%s-%d-%s" % (kind, seed, knob)
            for kind, seeds in (("fuzz", FUZZ_SEEDS), ("chaos", CHAOS_SEEDS))
            for seed in seeds for knob in ("off", "on")]


def load_golden():
    with GOLDEN.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("knob", ["off", "on"])
@pytest.mark.parametrize("run", TIER1)
def test_golden_ordering(run, knob):
    name = "%s-%s" % (run, knob)
    assert run_entry(name) == load_golden()[name], \
        "%s drifted from tests/golden/ordering.json" % (name,)


def test_golden_corpus_is_complete():
    assert sorted(load_golden()) == sorted(entry_names())


def main(argv):
    write = "--write" in argv
    golden = {} if write else load_golden()
    drifted = []
    for name in entry_names():
        got = run_entry(name)
        if write:
            golden[name] = got
        elif got != golden.get(name):
            drifted.append(name)
        print("%s %s" % (name, "DRIFT" if name in drifted else "ok"))
    if write:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print("wrote %d entries to %s" % (len(golden), GOLDEN))
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
