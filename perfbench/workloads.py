"""The benchmark's workloads: their inputs, expected verdicts and order.

Every workload is made from the benchmark seed alone; the program under
test only ever sees the generated tasks.

- ``paper-hyper``: the paper's Sect. 2 security triples on C1-C4 over
  h, l, y in {0, 1, 2} (27 states).  The seed orders each round.
- ``gen-oracle``: the fixed 100-task pool in ``gen_pool.json`` (a prefix
  of the seeded ``repro.gen`` stream over w, x, y, z in {0, 1}, i.e. 16
  states and 65,536 candidate sets).  The seed orders each round.  The
  pool is fixed because tasks of that stream cost from 1 ms to 7 s, so
  20 s of two different seeds' streams differed 2.4x in tasks/s.
- ``serve-mixed``: a seeded stream of small-universe ``repro.gen``
  triples in which a fixed share of requests repeats an earlier task.
"""

import bisect
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

PAPER_PVARS = ("h", "l", "y")
PAPER_LO, PAPER_HI = 0, 2

PAPER_PROGRAMS = {
    "C1": "if (l > 0) { l := 1 } else { l := 0 }",
    "C2": "if (h > 0) { l := 1 } else { l := 0 }",
    "C3": "y := nonDet(); l := h xor y",
    "C4": "y := nonDet(); assume y <= 1; l := h + y",
}

#: (label, program, property, expected verdict on {0, 1, 2}).  Written by
#: hand and cross-checked once against the direct semantic checks of
#: ``repro.hyperprops`` (``selftest.py``).  Two verdicts differ from the
#: paper's {0, 1} reading: C3 GNI fails because the xor pad is not closed
#: on {0, 1, 2}, and C2's NI-violation triple fails because both highs
#: may be > 0.  The C4 GNI-violation task is Fig. 4.
PAPER_TASKS = (
    ("C1-NI", "C1", "ni", True),
    ("C2-NI", "C2", "ni", False),
    ("C2-NI-violation", "C2", "ni_violation", False),
    ("C3-GNI", "C3", "gni", False),
    ("C3-NI", "C3", "ni", False),
    ("C4-GNI", "C4", "gni", False),
    ("C4-GNI-violation", "C4", "gni_violation", True),
)

GEN_POOL_PATH = os.path.join(HERE, "gen_pool.json")

#: serve-mixed stream: triples over x, y, z in {0, 1} (the daemon's
#: default domain), of which REPEAT_SHARE repeat an earlier task.  The
#: distinct tasks come from one fixed repro.gen stream, which the seed
#: shuffles block by block, so that every run's novel requests cost
#: about the same; the seed also picks which requests repeat which task.
SERVE_PVARS = ("x", "y", "z")
SERVE_LO, SERVE_HI = 0, 1
SERVE_STREAM_SEED = 0
SERVE_BLOCK = 50
REPEAT_SHARE = 0.7
#: A repeat names a task first sent at least this many requests before,
#: so that its first reply is normally back (and stored) by then.
REPEAT_MIN_GAP = 64


def paper_tasks():
    """[(label, VerificationTask, expected)] in the table's order."""
    from repro.api import VerificationTask
    from repro.hyperprops import security
    from repro.lang import parse_command

    tasks = []
    for label, program, prop, expected in PAPER_TASKS:
        triple = getattr(security, prop + "_triple")
        pre, post = triple("l") if prop == "ni" else triple("l", "h")
        task = VerificationTask(
            pre=pre, command=parse_command(PAPER_PROGRAMS[program]), post=post, label=label
        )
        tasks.append((label, task, expected))
    return tasks


def gen_pool(path=GEN_POOL_PATH):
    """``(pvars, lo, hi, tasks)`` of the pool file, tasks as
    [(label, VerificationTask, expected)]."""
    from repro.api import VerificationTask
    from repro.assertions.parser import parse_assertion
    from repro.lang import parse_command

    with open(path) as handle:
        pool = json.load(handle)
    tasks = []
    for index, entry in enumerate(pool["tasks"]):
        task = VerificationTask(
            pre=parse_assertion(entry["pre"]),
            command=parse_command(entry["program"]),
            post=parse_assertion(entry["post"]),
            label="gen-%d" % index,
        )
        tasks.append((task.label, task, entry["expected"]))
    generator = pool["generator"]
    return tuple(generator["pvars"]), generator["lo"], generator["hi"], tasks


def session_workload(name):
    """``(pvars, lo, hi, tasks)`` of a Session workload."""
    if name == "paper-hyper":
        return PAPER_PVARS, PAPER_LO, PAPER_HI, paper_tasks()
    if name == "gen-oracle":
        return gen_pool()
    raise ValueError("not a Session workload: %r" % (name,))


def round_orders(seed, size):
    """An endless, seed-determined stream of task orders, one per round."""
    rng = random.Random(seed)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield order


def _serve_tasks(count, start=0):
    from repro.api import VerificationTask
    from repro.gen import GenConfig, trials

    config = GenConfig(pvars=SERVE_PVARS, lo=SERVE_LO, hi=SERVE_HI)
    return [
        VerificationTask(pre=t.triple.pre, command=t.triple.command, post=t.triple.post)
        for t in trials(
            SERVE_STREAM_SEED, count, config, straightline_bias=0.4, loop_bias=0.0, start=start
        )
    ]


def serve_stream(seed, count):
    """``(tasks, requests)``: the distinct tasks and, per request, the
    index of the task it sends."""
    rng = random.Random(seed)
    tasks = []
    block = []
    first_sent = []
    requests = []
    for position in range(count):
        eligible = bisect.bisect_right(first_sent, position - REPEAT_MIN_GAP)
        if eligible and rng.random() < REPEAT_SHARE:
            requests.append(rng.randrange(eligible))
            continue
        if not block:
            block = _serve_tasks(SERVE_BLOCK, start=len(tasks))
            rng.shuffle(block)
        tasks.append(block.pop())
        first_sent.append(position)
        requests.append(len(tasks) - 1)
    return tasks, requests


def serve_warmup_tasks(count):
    """Tasks that start the daemon's worker processes before timing; they
    come from far down the stream, so measured requests never meet them
    in the store."""
    return _serve_tasks(count, start=10**6)
