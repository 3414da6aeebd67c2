"""The test oracles refuse out-of-domain scalars as the library does: each
numeric argument of a valid call gets every hostile value of test_domains
and must give a finite value or a refusal that names it."""

import numpy as np
import pytest

from fanolab.discrete import DiscreteSpace
from fanolab.info import MarkovChainSpec, ProbVector
from oracles import enumerate_decoders_min_tail, random_chain, random_symmetric_space
from test_domains import _case, check_refused_naming_it, probes

_CHAIN = MarkovChainSpec(ProbVector.uniform(3), np.full((3, 2), 0.5), np.full((2, 3), 1 / 3))

CASES = {
    "random_chain": _case(random_chain, seed=1, sizes=(2, 2, 2), stream_id=0),
    "random_symmetric_space": _case(random_symmetric_space, seed=1, k=3, stream_id=0),
    "enumerate_decoders_min_tail": _case(enumerate_decoders_min_tail, _CHAIN.prior,
                                         _CHAIN.channel, DiscreteSpace.zero_one(3), t=0.5),
}


@pytest.mark.parametrize("name, arg, integer", list(probes(CASES)))
def test_out_of_domain_scalar_is_refused_naming_it(name, arg, integer):
    check_refused_naming_it(CASES, name, arg, integer)
