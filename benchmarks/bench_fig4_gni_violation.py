"""E10 — Fig. 4: the backward proof outline that C4 violates GNI.

The mechanized replay: start from the ∃∃∀ postcondition, apply AssignS,
AssumeS, HavocS backward, close with Cons — the entailment discharged by
the SAT backend over the 27-state universe (our Z3 stand-in).

Expected: derivation {Cons, Seq×2, HavocS, AssumeS, AssignS}; the
unstrengthened precondition low(l) does NOT entail the wp (the paper's
point about strengthening the pre to disprove).

Modes::

    python benchmarks/bench_fig4_gni_violation.py          # full: 27 states
    python benchmarks/bench_fig4_gni_violation.py --quick  # CI: 8 states

Full mode times the whole outline replay over ``IntRange(0, 2)`` (the
paper's universe) and prints the speedup against the pre-bitset/pre-JW
baseline wall time (``BASELINE_S``, measured on the same workload before
states were interned and the SAT solver branched statically) — run_all
captures that figure as this bench's ratio.  Quick mode shrinks the
domain to ``IntRange(0, 1)`` so the same derivation replays in well
under a second; both modes assert the derivation shape and the
strengthening asymmetry, so the CI smoke still checks the logic, not
just that the code runs.
"""

import argparse
import time

from repro.assertions import EntailmentOracle, differing_highs, gni_violation, low
from repro.checker import Universe
from repro.lang import parse_command
from repro.logic import verify_straightline, wp_syntactic
from repro.values import IntRange

#: Wall time of the full-size replay before the bitset core and the
#: static Jeroslow-Wang branch order landed (same machine class as CI).
BASELINE_S = 179.0

#: Full mode must beat the recorded baseline by at least this factor.
#: Before the binder-footprint memo the replay beat it 113-214x; with
#: the memo and cached formula hashes, 7.7k-15k x (2-CPU container).
MIN_SPEEDUP = 1000


def setup(quick=False):
    domain = IntRange(0, 1) if quick else IntRange(0, 2)
    uni = Universe(["h", "l", "y"], domain)
    c4 = parse_command("y := nonDet(); assume y <= 1; l := h + y")
    pre = low("l") & differing_highs("h")
    post = gni_violation("h", "l")
    oracle = EntailmentOracle(uni.ext_states(), uni.domain, method="sat")
    return uni, c4, pre, post, oracle


def check_outline(proof):
    rules = proof.rules_used()
    assert rules.get("HavocS") == 1, rules
    assert rules.get("AssumeS") == 1, rules
    assert rules.get("AssignS") == 1, rules
    assert not proof.all_assumptions()
    return rules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="8-state universe (CI smoke) instead of the "
                        "paper's 27-state one")
    args = parser.parse_args(argv)

    uni, c4, pre, post, oracle = setup(quick=args.quick)
    n = len(uni.ext_states())

    started = time.perf_counter()
    proof = verify_straightline(pre, c4, post, oracle)
    verify_s = time.perf_counter() - started
    rules = check_outline(proof)
    print("Fig. 4 derivation over %d states (%d rule applications): %s"
          % (n, proof.size(), dict(sorted(rules.items()))))

    started = time.perf_counter()
    wp = wp_syntactic(c4, post)
    strengthened_ok = oracle.entails(pre, wp)
    weak_ok = oracle.entails(low("l"), wp)
    strengthen_s = time.perf_counter() - started
    assert strengthened_ok and not weak_ok
    print("low(l) ∧ ∃ differing highs |= wp: %s; low(l) alone: %s"
          % (strengthened_ok, weak_ok))

    print("  outline replay:       %8.3fs" % verify_s)
    print("  strengthening checks: %8.3fs" % strengthen_s)

    if not args.quick:
        speedup = BASELINE_S / verify_s if verify_s else float("inf")
        print("  vs %.0fs pre-bitset baseline:  %6.1fx" % (BASELINE_S, speedup))
        assert speedup >= MIN_SPEEDUP, (
            "full-size fig4 replay regressed: %.1fs is less than %.1fx over "
            "the %.0fs baseline" % (verify_s, MIN_SPEEDUP, BASELINE_S)
        )
        print("fig4 speedup >= %.0fx: OK" % MIN_SPEEDUP)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
