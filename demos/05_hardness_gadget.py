#!/usr/bin/env python3
"""Cover solvability is NP-complete: the exact-cover gadget in action.

An exact-cover-by-4-sets instance (ground set of size 4n, m four-element
subsets, does some choice of n subsets partition the ground set?) turns
into a pebbling instance: subset vertices hold 9 pebbles over their four
element vertices, a buffered chain lets each unused subset push exactly one
pebble to a collector at cost eight, and a drain path makes the count come
out only when the chosen subsets cover every element exactly once.

The negative direction exercises the exhaustive solver; expect the second
half of this script to run for about ten seconds.
"""

import time

import coverpebbling as cp

positive = cp.X4CInstance(8, [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]])
built = cp.build_reduction(positive)
print(f"gadget for a coverable instance: {built.graph.vertex_count} vertices, "
      f"{built.graph.edge_count} edges, {built.config.total} pebbles")
print("vertex roles:", " ".join(built.labels[v] for v in range(built.graph.vertex_count)))

witness = cp.exact_cover_bruteforce(positive)
print("\nexact cover found by brute force: subsets", witness)
certificate = cp.cover_witness_certificate(positive, witness)
print("witness pebbling certificate:", certificate.moves)
print("verifies:", cp.verify_certificate(built.graph, built.config, certificate))

report = cp.reduction_equivalence_check(positive)
print("equivalence check:", "cover" if report.cover_exists else "no cover",
      "| pebbling", report.pebbling_status, "| agree:", report.agree)

negative = cp.X4CInstance(8, [[0, 1, 2, 3], [3, 4, 5, 6], [0, 5, 6, 7]])
print("\nnegative instance (every element coverable, no disjoint choice):")
print("exact cover:", cp.exact_cover_bruteforce(negative))
built = cp.build_reduction(negative)
print("searching the gadget exhaustively (about ten seconds) ...")
start = time.time()
result = cp.solve(built.graph, built.config)
print(f"pebbling verdict: {result.status} after {result.nodes_expanded} node "
      f"expansions in {time.time() - start:.0f}s")
