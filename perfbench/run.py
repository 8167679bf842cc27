"""The repository benchmark's one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring_sym --seed 1 --seconds 10 \\
        --trace 0

Prints readable lines, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits 1 when an output check fails and 2 when the run
cannot measure at all (for example outside a checkout holding ``src/``).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    # the program is built from this checkout's source tree, never from
    # an installed copy
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from the root of a "
              "checkout" % os.getcwd(), file=sys.stderr)
        return 2
    sys.path[:0] = [source, HERE]
    from gcsbench import RunFailed, runner
    if args.workload not in runner.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(runner.WORKLOADS))),
              file=sys.stderr)
        return 2
    run = runner.run_traced if args.trace else runner.run_untraced
    try:
        result, notes = run(args.workload, args.seed, args.seconds)
    except (RunFailed, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    for key, metric in sorted(result["metrics"].items()):
        print("%-40s %16.6f %s" % (key, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
