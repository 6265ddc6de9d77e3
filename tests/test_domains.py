"""Arguments outside a function's domain raise ValueError instead of computing junk."""

import numpy as np
import pytest

import coverpebbling as cp
from coverpebbling.graphs import integer_argument
from coverpebbling.sampling import SeededStream

_S = SeededStream(1)
_X = cp.X4CInstance(8, [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 2, 4]])

# calls that once computed junk or raised something else, and the start of
# the ValueError each raises now, which names the argument
_NAMED = {
    "path-float": (lambda: cp.path_graph(2.5), "n must be an integer"),
    "cube-float": (lambda: cp.cube_graph(2.5), "d must be an integer"),
    "tree-seed-float": (lambda: cp.random_tree(3, 1.5), "seed must be an integer"),
    "gnp-seed-float": (lambda: cp.gnp_random_graph(3, 0.5, 1.5), "seed must be an integer"),
    "gnp-p-str": (lambda: cp.gnp_random_graph(3, "0.5", 1), "p must be a real number"),
    "gnp-p-none": (lambda: cp.gnp_random_graph(3, None, 1), "p must be a real number"),
    "gnp-p-complex": (lambda: cp.gnp_random_graph(3, 1 + 0j, 1), "p must be a real number"),
    "mb-t-float": (lambda: cp.sample_mb(3, 2.5, _S), "t must be an integer"),
    "be-t-float": (lambda: cp.sample_be_polya(3, 2.5, _S), "t must be an integer"),
    "stream-seed-float": (lambda: SeededStream(1.5), "seed must be an integer"),
    "be-pmf-t-float": (lambda: cp.be_odd_stack_pmf(3, 2.5, 1), "t must be an integer"),
    "mb-mean-n-float": (lambda: cp.mb_expected_odd_stacks(2.5, 3), "n must be an integer"),
    "mb-mean-t-negative": (lambda: cp.mb_expected_odd_stacks(3, -2), "t must be at least 0"),
    "mb-variance-t-negative": (lambda: cp.mb_variance_odd_stacks(3, -2), "t must be at least 0"),
    "be-mean-approx-t-negative": (lambda: cp.be_expected_odd_stacks_approx(3, -2),
                                  "t must be at least 0"),
    "degree-float": (lambda: cp.path_graph(3).degree(1.5), "vertex must be an integer"),
    "degree-negative": (lambda: cp.path_graph(3).degree(-1), "vertex -1 is not in 0..2"),
    "instance-size-float": (lambda: cp.X4CInstance(8.0, [[0, 1, 2, 3]]),
                            "ground_set_size must be an integer"),
    "instance-sets-int": (lambda: cp.X4CInstance(8, 5), "sets must hold integers"),
    "instance-element-str": (lambda: cp.X4CInstance(8, [[0, 1, 2, "a"]]),
                             "sets must hold integers"),
    "certificate-count-float": (lambda: cp.MoveCertificate({(0, 1): 1.0}), "moves must map"),
    # sets 0 and 2 overlap, and there is no set 99
    "cover-overlapping": (lambda: cp.cover_witness_certificate(_X, [0, 2]), "cover"),
    "cover-out-of-range": (lambda: cp.cover_witness_certificate(_X, [99]), "cover"),
    "cover-int": (lambda: cp.cover_witness_certificate(_X, 5), "cover"),
    "cover-none": (lambda: cp.cover_witness_certificate(_X, None), "cover"),
    "moves-none": (lambda: cp.apply_moves(cp.path_graph(2), cp.Configuration([2, 0]), None),
                   "moves"),
    # _X has a cover, so no search runs that could check the budget
    "equivalence-budget-float": (lambda: cp.reduction_equivalence_check(_X, budget=1.5),
                                 "budget must be an integer"),
}


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
    *(call for call, _ in _NAMED.values()),
], ids=["graph-n-1", "path-0", "tree-0", "gnp-n-1", "multipartite-no-parts", "mb-n-1",
        "be-t-1", "mb-mean-n0", "mb-variance-n1", "be-mean-exact-n0", "be-mean-approx-n0",
        "complete-solvable-length", "solve-budget-negative-searched",
        "solve-budget-float-searched", "solve-budget-negative-screened",
        "solve-budget-float-screened", *_NAMED])
def test_out_of_domain_arguments_raise(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, message", _NAMED.values(), ids=list(_NAMED))
def test_refusals_name_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_integer_argument_rule():
    assert integer_argument("n", 7) == 7
    value = integer_argument("n", np.int32(7), least=7)  # other integer types pass, as ints
    assert value == 7 and type(value) is int
    for bad in (7.0, "7", None, 7 + 0j):
        with pytest.raises(ValueError, match=f"^n must be an integer, not {type(bad).__name__}$"):
            integer_argument("n", bad)
    with pytest.raises(ValueError, match="^n must be at least 8, got 7$"):
        integer_argument("n", 7, least=8)
    assert integer_argument("seed", -5) == -5  # no bound unless one is given
