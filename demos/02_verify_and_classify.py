#!/usr/bin/env python3
"""Check the defining equations of local actions and re-derive the catalog
by bounded exhaustive search."""

from braidact import (
    FamilyId,
    Quad,
    canonicalize,
    catalog,
    check_pair_via_braid,
    check_quad,
    classify_search,
    identify_quad,
    quad_sort_key,
)

print("== checking quads ==")
for text in ("a,b,a,b", "abA,a,abA,a", "a,b,b,a"):
    quad = Quad.parse(text)
    report = check_quad(quad)
    fam = identify_quad(quad) if report.valid else None
    status = f"valid, family {fam}" if report.valid else f"invalid, fails {report.failures()}"
    print(f"({text}): {status}")

print()
print("== the cross-check through the braid relation ==")
quad = catalog(FamilyId("D2"))
print(f"D2 quad ({quad}) satisfies the braid relation:",
      check_pair_via_braid(quad.tau, quad.kappa))

print()
print("== exhaustive search at word length <= 1 ==")
for q in sorted(classify_search(1), key=quad_sort_key):
    print(f"  ({q})  ->  {identify_quad(q)}")

print()
print("== word length <= 3 ==")
classes = classify_search(3)
print(f"{len(classes)} canonical classes; two catalog names share an orbit:")
print("  canonicalize(D2) == canonicalize(D3):",
      canonicalize(catalog(FamilyId("D2"))) == canonicalize(catalog(FamilyId("D3"))))
