"""The test oracles refuse out-of-domain scalars as the library does: each
numeric argument of a valid call gets every hostile value of test_domains
and must give a finite value or a refusal that names it, and a bad entry
of a probability row is refused naming the rows."""

import numpy as np
import pytest

from fanolab.discrete import DiscreteSpace, NeighborhoodProfile
from fanolab.info import MarkovChainSpec, ProbVector
from oracles import (
    ParamFamily,
    enumerate_decoders_min_tail,
    generalized_fano_minimax,
    kl_gaussian_shared_cov,
    mi_pairwise_kl_bound,
    mi_pairwise_kl_bound_discrete,
    random_chain,
    random_symmetric_space,
    reduce_estimator_to_test,
    separation_delta,
    square_loss,
)
from test_domains import (
    _case,
    check_probability_refused_naming_it,
    check_refused_naming_it,
    probes,
)

_CHAIN = MarkovChainSpec(ProbVector.uniform(3), np.full((3, 2), 0.5), np.full((2, 3), 1 / 3))
_FAMILY = ParamFamily(DiscreteSpace.zero_one(3), lambda i: np.eye(3)[i],
                      lambda a, b: float(np.linalg.norm(a - b)))

CASES = {
    "random_chain": _case(random_chain, seed=1, sizes=(2, 2, 2), stream_id=0),
    "random_symmetric_space": _case(random_symmetric_space, seed=1, k=3, stream_id=0),
    "enumerate_decoders_min_tail": _case(enumerate_decoders_min_tail, _CHAIN.prior,
                                         _CHAIN.channel, DiscreteSpace.zero_one(3), t=0.5),
    "square_loss": _case(square_loss, x=1.0, inf_ok=True),
    "separation_delta": _case(separation_delta, _FAMILY, t=0.5, inf_ok=True),
    "generalized_fano_minimax": _case(generalized_fano_minimax, _FAMILY, t=0.5,
                                      mi=0.0, card=3, profile=NeighborhoodProfile(0.5, 1, 1)),
    # delta is separation_delta's, +inf when no index pair is farther apart than t
    "reduce_estimator_to_test": _case(reduce_estimator_to_test, _FAMILY, t=0.5,
                                      theta_hat=[1.0, 0.0, 0.0], true_index=0, inf_ok=True),
    "kl_gaussian_shared_cov": _case(kl_gaussian_shared_cov, [0.0], [1.0], sigma2=1.0),
    "mi_pairwise_kl_bound": _case(mi_pairwise_kl_bound, [[0.0], [1.0]],
                                  sigma2=1.0, n_samples=1),
    "mi_pairwise_kl_bound_discrete": _case(mi_pairwise_kl_bound_discrete,
                                           [[0.5, 0.5], [0.25, 0.75]], n_samples=1),
}
PROBABILITY_ARRAYS = {
    "mi_pairwise_kl_bound_discrete-rows": (mi_pairwise_kl_bound_discrete,
                                           dict(rows=[[0.5, 0.5], [0.25, 0.75]])),
}


@pytest.mark.parametrize("name, arg, integer", list(probes(CASES)))
def test_out_of_domain_scalar_is_refused_naming_it(name, arg, integer):
    check_refused_naming_it(CASES, name, arg, integer)


@pytest.mark.parametrize("case", PROBABILITY_ARRAYS)
def test_out_of_domain_probability_entry_is_refused_naming_it(case):
    check_probability_refused_naming_it(PROBABILITY_ARRAYS, case)
