#!/usr/bin/env python3
"""The push-button verifier (the repository's Hypra analogue).

Programs and hyper-assertions in concrete syntax, SAT-backed entailments,
counterexamples on failure, Thm. 5 disproofs on demand — all through
the :class:`repro.api.Session` backend-chain API.

Run:  PYTHONPATH=src python examples/verifier_demo.py
"""

from repro import Session


def main():
    print("=" * 60)
    print("1. NI and GNI in two lines each")
    s = Session(["h", "l", "y"], 0, 1)

    ni = s.verify(
        "forall <a>, <b>. a(l) == b(l)",
        "if (l > 0) { l := 1 } else { l := 0 }",
        "forall <a>, <b>. a(l) == b(l)",
    )
    print("  NI of the secure branch:    verified=%s (%s)" % (ni.verified, ni.method))

    gni = s.verify(
        "forall <a>, <b>. a(l) == b(l)",
        "y := nonDet(); l := h xor y",
        "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)",
    )
    print("  GNI of the one-time pad:    verified=%s (%s)" % (gni.verified, gni.method))
    print("  proof rules:", dict(sorted(gni.proof.rules_used().items())))
    print("  backend chain:", [o.backend for o in gni.outcomes])

    print("=" * 60)
    print("2. a failing spec comes back with a counterexample")
    leak = s.verify(
        "forall <a>, <b>. a(l) == b(l)",
        "l := h",
        "forall <a>, <b>. a(l) == b(l)",
    )
    print("  NI of `l := h`: verified=%s" % leak.verified)
    print("  " + leak.counterexample.replace("\n", "\n  "))

    print("=" * 60)
    print("3. disproving is a first-class operation (Thm. 5)")
    disproof = s.disprove("true", "l := h", "forall <a>, <b>. a(l) == b(l)")
    print("  refuting initial set: %d states; {P'} C {¬Q} verified by the oracle"
          % len(disproof.witness))

    print("=" * 60)
    print("4. annotated loops go through the Fig. 5 rules")
    t = Session(["x"], 0, 2)
    loop = t.verify(
        "forall <a>, <b>. a(x) == b(x)",
        "while (x > 0) { x := x - 1 }",
        "forall <a>, <b>. a(x) == b(x)",
        invariant="forall <a>, <b>. a(x) == b(x)",
    )
    print("  low(x) preserved by the countdown loop: verified=%s (%s)"
          % (loop.verified, loop.method))

    print("=" * 60)
    print("5. underapproximate claims in the same session")
    w = Session(["x"], 0, 3)
    reach = w.verify(
        "exists <a>. true",
        "x := randInt(0, 3)",
        "forall n. 0 <= n <= 3 ==> exists <a>. a(x) == n",
    )
    print("  every value in [0,3] reachable: verified=%s (%s)"
          % (reach.verified, reach.method))


if __name__ == "__main__":
    main()
