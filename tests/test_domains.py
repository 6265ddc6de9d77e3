"""Arguments outside a function's domain raise ValueError instead of computing junk."""

import pytest

import coverpebbling as cp
from coverpebbling.sampling import SeededStream

_S = SeededStream(1)


@pytest.mark.parametrize("call", [
    lambda: cp.Graph(-1, []),
    lambda: cp.path_graph(0),
    lambda: cp.random_tree(0, 1),
    lambda: cp.gnp_random_graph(-1, 0.5, 1),
    lambda: cp.complete_multipartite([]),
    lambda: cp.sample_mb(-1, 2, _S),
    lambda: cp.sample_be_polya(2, -1, _S),
    lambda: cp.mb_expected_odd_stacks(0, 1),
    lambda: cp.mb_variance_odd_stacks(1, 1),
    lambda: cp.be_expected_odd_stacks_exact(0, 1),
    lambda: cp.be_expected_odd_stacks_approx(0, 1),
    lambda: cp.complete_graph_solvable(3, cp.Configuration([1, 1])),
    # P_3 with 6 pebbles on an end is searched, K_3 with 5 on a vertex is screened
    lambda: cp.solve(cp.path_graph(3), cp.Configuration([6, 0, 0]), budget=-1),
    lambda: cp.solve(cp.path_graph(3), cp.Configuration([6, 0, 0]), budget=1.5),
    lambda: cp.solve(cp.complete_graph(3), cp.Configuration([5, 0, 0]), budget=-1),
    lambda: cp.solve(cp.complete_graph(3), cp.Configuration([5, 0, 0]), budget=1.5),
], ids=["graph-n-1", "path-0", "tree-0", "gnp-n-1", "multipartite-no-parts", "mb-n-1",
        "be-t-1", "mb-mean-n0", "mb-variance-n1", "be-mean-exact-n0", "be-mean-approx-n0",
        "complete-solvable-length", "solve-budget-negative-searched",
        "solve-budget-float-searched", "solve-budget-negative-screened",
        "solve-budget-float-screened"])
def test_out_of_domain_arguments_raise(call):
    with pytest.raises(ValueError):
        call()
