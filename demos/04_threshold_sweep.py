#!/usr/bin/env python3
"""Monte Carlo phase transition of cover solvability on complete graphs.

Random configurations on K_n flip from almost-never to almost-always cover
solvable as t passes a model-dependent multiple of n: A0 = 1.52374... for
labeled (Maxwell-Boltzmann) pebbles and the golden ratio 1.61803... for
unlabeled (Bose-Einstein) pebbles.  Each trial only needs the odd-stack
count, so a sweep over a whole t-range takes seconds.  Runs at n = 400
to stay quick; push n up to sharpen the step.
"""

import coverpebbling as cp
from coverpebbling import RandomModel

N = 400
TRIALS = 1000
SEED = 20240811


def run(model, lo, hi, constant):
    curve = cp.sweep(model, N, lo, hi, 10, TRIALS, SEED)
    print(f"\n{model.value} sweep on K_{N} ({TRIALS} trials per point):")
    print(cp.curve_to_csv(curve, include_crossing=True), end="")
    crossing = curve.crossing
    print(f"predicted crossing near {constant:.5f} * n = {constant * N:.1f}; "
          f"measured t* = {crossing:.1f} (t*/n = {crossing / N:.4f})")


run(RandomModel.MAXWELL_BOLTZMANN, 520, 700, cp.mb_threshold_constant())
run(RandomModel.BOSE_EINSTEIN, 560, 740, cp.be_threshold_constant())

print("\nAnchors that hold for every n, model, and seed:")
for model in RandomModel:
    top = cp.sweep(model, N, 2 * N - 1, 2 * N - 1, 1, 500, SEED).records[0]
    bottom = cp.sweep(model, N, N - 1, N - 1, 1, 500, SEED).records[0]
    print(f"   {model.value}: p(2n-1) = {top.p_hat}   p(n-1) = {bottom.p_hat}")
