#!/usr/bin/env python3
"""Build the successor graph component by component and walk its edge-paths."""

from braidact import (
    ARTIN_CORE,
    component_graph,
    constant_rep,
    outgoing_cores,
    rep_from_cores,
)

print("== components of the classification graph ==")
for kind in ("T", "T'", "A", "B", "C", "D"):
    r = 1 if kind == "A" else None
    graph = component_graph(kind, r)
    tag = f"{kind} (r=1)" if kind == "A" else kind
    print(f"component {tag}: {len(graph.vertices)} vertices, {len(graph.edges)} edges")
    for e in graph.edges:
        print(f"    ({e.src}) -> ({e.dst})   [{e.label}]")

print()
print("== the r = 0 degeneration ==")
graph = component_graph("A", 0)
print(f"at r = 0 the component collapses to {len(graph.vertices)} vertices, "
      f"{len(graph.edges)} edges")

print()
print("== edge-paths are representations ==")
graph = component_graph("A", 1)
v1, v2 = graph.vertices[0], graph.vertices[1]
rep = rep_from_cores([v1, v1, v2])
print("path (v1, v1, v2) gives a representation on", rep.n, "strands")
print("extendable:", bool(outgoing_cores(rep.cores[-1])))
print("successors of the constant core:",
      [f"({c}) via {fid}" for c, fid in outgoing_cores(ARTIN_CORE)])

print()
print("== DOT export ==")
print(component_graph("B").to_dot(), end="")

print()
print("a constant path at the conjugation core recovers the classical action:")
print(constant_rep(ARTIN_CORE, 4))
