#!/usr/bin/env python3
"""Deciding solvability and working with move certificates.

A certificate is a table of per-edge move counts n_ij.  It proves
solvability when every vertex k satisfies
    C(k) + (moves in) - 2 (moves out) >= 1,
and checking that takes linear time.  Certificates replay into concrete
move sequences: greedily perform any listed move whose source still holds
two pebbles; for a valid certificate this never gets stuck.
"""

import coverpebbling as cp

p3 = cp.path_graph(3)

print("P_3 with all seven pebbles on one end (lambda(P_3) = 7):")
c = cp.Configuration([7, 0, 0])
result = cp.solve(p3, c)
print("  status:", result.status, "| fast path:", result.fast_path)
print("  certificate:", result.certificate.moves)
print("  verified:", cp.verify_certificate(p3, c, result.certificate))
seq = cp.execute_certificate(p3, c, result.certificate)
print("  replay:", seq, "->", cp.apply_moves(p3, c, seq).pebbles)

print("\nOne pebble fewer cannot cover the far end:")
result = cp.solve(p3, cp.Configuration([6, 0, 0]))
print("  status:", result.status, f"({result.nodes_expanded} nodes searched)")

print("\nComplete graphs are decided by odd stacks + total >= 2n, no search:")
k4 = cp.complete_graph(4)
for pebbles in [(5, 2, 0, 0), (4, 2, 0, 0)]:
    c = cp.Configuration(pebbles)
    s = cp.odd_stack_summary(c)
    result = cp.solve(k4, c)
    print(f"  {pebbles}: odd stacks X={s.odd_count}, t={s.total}, "
          f"X+t={'>=' if s.odd_count + s.total >= 8 else '<'}2n -> {result.status}")

print("\nEvery answer agrees with the exhaustive oracle on small graphs:")
import random

rng = random.Random(0)
agree = 0
for _ in range(50):
    n = rng.randint(2, 5)
    edges = {(rng.randint(0, v - 1), v) for v in range(1, n)}
    g = cp.Graph(n, edges)
    c = cp.Configuration([rng.randint(0, 3) for _ in range(n)])
    agree += cp.solve(g, c).solvable == cp.solve_bruteforce(g, c)
print(f"  {agree}/50 random tree instances agree")

print("\nOrder of moves never matters: stopping a solution midway leaves a")
print("solvable position.")
c = cp.Configuration([7, 0, 0])
seq = cp.execute_certificate(p3, c, cp.solve(p3, c).certificate)
partial = cp.apply_moves(p3, c, seq[:2])
print(f"  after {seq[:2]}: {partial.pebbles} ->",
      cp.solve(p3, partial).status)
