#!/usr/bin/env python3
"""Group-valued link invariants: presentations, Markov moves, fingerprints.

Also demonstrates the one genuine negative result the test suite pins down:
the type-B action does not give a stabilization-invariant group.
"""

from braidact import (
    ARTIN_CORE,
    AutF2,
    abelianization,
    builtin_group,
    check_S1,
    constant_rep,
    count_homs,
    fingerprint,
    markov_conjugate,
    markov_stabilize,
    parse_braid,
    presentation,
    tietze_simplify,
)

groups = [builtin_group(n) for n in ("Z2", "Z3", "Z4", "Z5", "S3", "S4")]
artin2 = constant_rep(ARTIN_CORE, 2)
artin3 = constant_rep(ARTIN_CORE, 3)

print("== closed-braid groups under the classical action ==")
for name, text, rep in (
    ("unknot  (s1)", "1", artin2),
    ("trefoil (s1^3)", "1 1 1", artin2),
    ("figure-8 ((s1 s2^-1)^2)", "1 -2 1 -2", artin3),
    ("hopf    (s1^2)", "1 1", artin2),
):
    braid = parse_braid(text, rep.n)
    pres = presentation(rep, braid)
    print(f"{name:24s} {pres}")
    print(f"{'':24s} simplified: {tietze_simplify(pres)}")
    print(f"{'':24s} fingerprint: {fingerprint(rep, braid, groups).describe()}")

print()
print("== Markov moves leave the fingerprint alone ==")
trefoil = parse_braid("1 1 1", 2)
base = fingerprint(artin2, trefoil, groups)
conj = fingerprint(artin2, markov_conjugate(trefoil, parse_braid("-1 -1", 2)), groups)
stab = fingerprint(artin3, markov_stabilize(trefoil, +1), groups)
print("conjugated == base:", conj == base)
print("stabilized == base:", stab == base)

print()
print("== the S3 count sees the trefoil ==")
s3 = builtin_group("S3")
print("unknot :", count_homs(presentation(artin2, parse_braid("1", 2)), s3))
print("trefoil:", count_homs(presentation(artin2, trefoil), s3))
print("abelianizations:",
      abelianization(presentation(artin2, parse_braid("1", 2))),
      abelianization(presentation(artin2, trefoil)))

print()
print("== collapse behaviour of the cores ==")
for text in ("abA,a", "B,a", "ABa,bba", "a,b"):
    core = AutF2.parse(text)
    report = check_S1(core)
    print(f"core ({text}): {report.status}")

print()
print("== the type-B action is not stabilization invariant ==")
bcore = AutF2.parse("B,a")
b2, b3 = constant_rep(bcore, 2), constant_rep(bcore, 3)
one = fingerprint(b2, parse_braid("1", 2), groups)
two = fingerprint(b3, parse_braid("1 2", 3), groups)
print("unknot as closure of s1   :", one.describe())
print("unknot as closure of s1 s2:", two.describe())
print("equal:", one == two, " (the acceptance suite keeps this failure visible)")
