"""Regenerate ``gen_pool.json``, the fixed task pool of the gen-oracle workload.

The pool is a prefix of the seeded ``repro.gen`` trial stream, stored in
concrete syntax so that the workload does not shift when the generator
changes.  Each task carries the verdict of the naive Def. 5 reference
(``checker.validity.naive_check_triple``), which is independent of the
backend chain; some tasks take it tens of seconds, which is why it runs
here once and not in every benchmark run.

Usage::

    PYTHONPATH=src python3 perfbench/make_pool.py    # minutes; rewrites the file
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.assertions.parser import format_assertion, parse_assertion  # noqa: E402
from repro.checker import Universe  # noqa: E402
from repro.checker.validity import naive_check_triple  # noqa: E402
from repro.gen import GenConfig, trials  # noqa: E402
from repro.lang import parse_command, pretty  # noqa: E402
from repro.values import IntRange  # noqa: E402

POOL_PATH = os.path.join(HERE, "gen_pool.json")
GENERATOR = {
    "pvars": ["w", "x", "y", "z"],
    "lo": 0,
    "hi": 1,
    "seed": 0,
    "count": 100,
    "straightline_bias": 0.0,
    "loop_bias": 0.0,
}


def main():
    config = GenConfig(
        pvars=tuple(GENERATOR["pvars"]), lo=GENERATOR["lo"], hi=GENERATOR["hi"]
    )
    universe = Universe(GENERATOR["pvars"], IntRange(GENERATOR["lo"], GENERATOR["hi"]))
    tasks = []
    for trial in trials(
        GENERATOR["seed"],
        GENERATOR["count"],
        config,
        straightline_bias=GENERATOR["straightline_bias"],
        loop_bias=GENERATOR["loop_bias"],
    ):
        triple = trial.triple
        pre, program, post = (
            format_assertion(triple.pre),
            pretty(triple.command),
            format_assertion(triple.post),
        )
        started = time.perf_counter()
        expected = naive_check_triple(
            parse_assertion(pre), parse_command(program), parse_assertion(post), universe
        ).valid
        print(
            "trial %3d: %-5s (%.2fs)" % (trial.index, expected, time.perf_counter() - started),
            flush=True,
        )
        tasks.append({"pre": pre, "program": program, "post": post, "expected": expected})
    with open(POOL_PATH, "w") as handle:
        json.dump({"generator": GENERATOR, "tasks": tasks}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
