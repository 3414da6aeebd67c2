"""Every public callable either computes a finite value or refuses its input,
and every work budget refuses before it allocates.

For each public callable of the library (fanolab.__all__) that takes a
numeric scalar, each such argument in turn gets every value of HOSTILE,
and 1.5 as well when it is an integer, with valid values for the other
arguments. The call must return a finite value (or a +inf its docstring
documents), or raise DomainError, EnumerationLimitError or EstimationError
with the argument named. The inputs are enumerated, not drawn: the test is
the same on every run.
"""

import dataclasses
import inspect
import math
import numbers
import re
import tracemalloc
import types

import numpy as np
import pytest

import fanolab
from fanolab import (
    ContinuumSpace,
    DiscreteSpace,
    DomainError,
    EnumerationLimitError,
    EstimationError,
    ExperimentConfig,
    MarkovChainSpec,
    NeighborhoodProfile,
    ProbVector,
    continuum,
    discrete,
    info,
    l2_ball_space,
    lab,
    minimax,
    normal_mean_bound,
    prop1_groups,
    results,
    stats,
    streams,
)
from oracles import enumerate_decoders_min_tail

MODULES = (info, discrete, continuum, minimax, lab, stats, streams, results)
HOSTILE = (math.nan, math.inf, -math.inf, 0, -1, 1e308, 10**400, 5e-324, 10**5000)
REFUSALS = (DomainError, EnumerationLimitError, EstimationError)

_Z2, _Z3 = DiscreteSpace.zero_one(2), DiscreteSpace.zero_one(3)
_CHAIN = MarkovChainSpec(ProbVector.uniform(3), np.full((3, 2), 0.5), np.full((2, 3), 1 / 3))
_PROFILE = NeighborhoodProfile(1.0, 2, 2)
_DISK = l2_ball_space(2, 1.0)
_BOUND = normal_mean_bound(4, 1.0, 10)
_GROUP = next(prop1_groups(1, 4))


def _case(fn, *args, inf_ok=False, **kwargs):
    """A call of fn with valid arguments; inf_ok when its docstring documents
    a +inf result."""
    return fn, args, kwargs, inf_ok


# Each public callable with a numeric scalar argument: a valid call, whose
# numeric scalars are the arguments probed.
CASES = {
    "binary_entropy": _case(fanolab.binary_entropy, p=0.3),
    "NeighborhoodProfile": _case(NeighborhoodProfile, t=1.0, n_max=2, n_min=1),
    "neighborhood_sizes": _case(fanolab.neighborhood_sizes, _Z3, t=0.5),
    "sparse_sign_space": _case(fanolab.sparse_sign_space, d=4, s=2),
    "sparse_sign_cardinality": _case(fanolab.sparse_sign_cardinality, d=8, s=2),
    "sparse_sign_neighborhood_exact": _case(fanolab.sparse_sign_neighborhood_exact,
                                            d=8, s=2, t=1.0),
    "chain_tail": _case(fanolab.chain_tail, _CHAIN, _Z3, t=0.5),
    "fano_inequality_sides": _case(fanolab.fano_inequality_sides, _CHAIN, _Z3, t=0.5),
    "fano_tail_lower_bound": _case(fanolab.fano_tail_lower_bound, card=6, profile=_PROFILE,
                                   mi=0.0),
    "fano_conditional_form": _case(fanolab.fano_conditional_form, hvx=1.0, card=6,
                                   profile=_PROFILE),
    "ContinuumSpace": _case(ContinuumSpace, dim=2, contains=_DISK.contains,
                            bounding_box=_DISK.bounding_box, metric="l2"),
    "GridPartition": _case(fanolab.GridPartition, level=3, cell_width=0.125, cell_count=10,
                           touched_count=2),
    "l2_ball_space": _case(l2_ball_space, d=2, r=1.0),
    "ball_volume_ratio_analytic": _case(fanolab.ball_volume_ratio_analytic, r=2.0, t=1.0, d=2),
    "mc_volume_ratio": _case(fanolab.mc_volume_ratio, _DISK, t=0.5, points=100, seed=1),
    "continuum_fano_bound": _case(fanolab.continuum_fano_bound, log_ratio=2.0, mi=0.0),
    "grid_partition_counts": _case(fanolab.grid_partition_counts, _DISK, t=0.5, level=2),
    "sparse_location_bound": _case(fanolab.sparse_location_bound, d=8, s=2, sigma2=1.0, n=5),
    "compressed_sensing_bound": _case(fanolab.compressed_sensing_bound, 3.0 * np.eye(8),
                                      s=2, sigma2=1.0),
    "normal_mean_tail_integral": _case(fanolab.normal_mean_tail_integral, d=4, n=10),
    "normal_mean_tail_integral_floor": _case(fanolab.normal_mean_tail_integral_floor,
                                             d=4, n=10),
    "normal_mean_bound": _case(normal_mean_bound, d=4, sigma2=1.0, n=10),
    "hinge_integral": _case(fanolab.hinge_integral, c1=1.0, c2=1.0),
    "linear_regression_bound": _case(fanolab.linear_regression_bound, np.eye(4), sigma2=1.0),
    "ExperimentConfig": _case(ExperimentConfig, problem="sparse-location", reps=10, seed=1,
                              d=4, s=2, n=5, sigma2=1.0, eps=0.1),
    "MatchedBound": _case(fanolab.MatchedBound, "b", "tail", value=0.1, t=0.5),
    "OracleGroup": _case(fanolab.OracleGroup, block=0, index=_GROUP.index, t=_GROUP.t,
                         prior=_GROUP.prior, channel=_GROUP.channel, decoder=_GROUP.decoder,
                         dist=_GROUP.dist),
    "prop1_groups": _case(prop1_groups, seed=1, instances=4),
    "decoder_groups": _case(fanolab.decoder_groups, seed=1, instances=4),
    "hard_threshold": _case(fanolab.hard_threshold, np.array([0.5, -2.0]), tau=1.0),
    "audit_config": _case(fanolab.audit_config, _BOUND, reps=10, seed=1),
    "clopper_pearson": _case(fanolab.clopper_pearson, k=1, n=4, confidence=0.9),
    "mean_ci": _case(fanolab.mean_ci, [1.0, 2.0], confidence=0.9),
    "stream": _case(fanolab.stream, seed=1, stream_id=0),
    "MinimaxBound": _case(fanolab.MinimaxBound, value=0.5, pipeline="x", t=1.0, eps=0.1,
                          mi_bound=0.2, log_ratio=2.0),
}
# Records the library returns: built from checked values, they check nothing.
RECORDS = {"VolumeRatioEstimate", "TailEstimate", "RiskReport", "BoundAudit"}
# Constructors reached through a class rather than by name in __all__.
EXTRA = {
    "ProbVector.uniform": _case(ProbVector.uniform, k=3),
    "DiscreteSpace.zero_one": _case(DiscreteSpace.zero_one, k=3),
}


def _numeric_params(fn) -> dict[str, bool]:
    """{name: is an integer} of the parameters annotated int or float."""
    out = {}
    for p in inspect.signature(fn).parameters.values():
        kinds = str(p.annotation).split(" | ")
        if "int" in kinds or "float" in kinds:
            out[p.name] = "int" in kinds
    return out


def _finite(x, inf_ok: bool) -> bool:
    if isinstance(x, numbers.Integral):
        return True
    if isinstance(x, numbers.Real):
        return math.isfinite(x) or (inf_ok and x == math.inf)
    if isinstance(x, np.ndarray):
        return x.dtype.kind != "f" or bool(np.isfinite(x).all())
    if isinstance(x, (tuple, list)):
        return all(_finite(v, inf_ok) for v in x)
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name), inf_ok) for f in dataclasses.fields(x))
    return True  # spaces, generators of random streams, mappings of extras


def test_package_exports_the_union_of_the_module_lists():
    assert fanolab.__all__ == [name for m in MODULES for name in m.__all__]
    assert len(set(fanolab.__all__)) == len(fanolab.__all__)
    for name in fanolab.__all__:
        assert hasattr(fanolab, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_exported(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if obj.__module__ == module.__name__:
            assert name in module.__all__, f"{module.__name__}.{name}"
            assert name in fanolab.__all__, name


def test_every_callable_with_a_numeric_scalar_has_a_case():
    missing = []
    for name in fanolab.__all__:
        obj = getattr(fanolab, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        if _numeric_params(obj) and name not in CASES and name not in RECORDS:
            missing.append(name)
    assert not missing
    for name, (fn, _, kwargs, _) in {**CASES, **EXTRA}.items():
        assert set(_numeric_params(fn)) <= set(kwargs), name
    for name in RECORDS:
        assert not hasattr(getattr(fanolab, name), "__post_init__"), name


def probes(cases):
    """One pytest param (name, arg, is an integer) per numeric scalar of each case."""
    for name, (fn, args, kwargs, _) in cases.items():
        params = _numeric_params(fn)
        for arg in kwargs:
            if arg in params:
                yield pytest.param(name, arg, params[arg], id=f"{name}-{arg}")


def check_refused_naming_it(cases, name, arg, integer):
    """Every HOSTILE value of arg (and 1.5 for an integer) in the call of
    cases[name] gives a finite value or a refusal that names arg."""
    fn, args, kwargs, inf_ok = cases[name]
    for value in HOSTILE + ((1.5,) if integer else ()):
        try:
            out = fn(*args, **{**kwargs, arg: value})
            if isinstance(out, types.GeneratorType):
                out = next(out)
        except REFUSALS as exc:
            assert re.search(rf"\b{arg}\b", str(exc)), \
                f"{name}({arg}={value!r}): {type(exc).__name__} does not name {arg}: {exc}"
            continue
        assert _finite(out, inf_ok), f"{name}({arg}={value!r}) returned {out!r}"


@pytest.mark.parametrize("name, arg, integer", list(probes({**CASES, **EXTRA})))
def test_out_of_domain_scalar_is_refused_naming_it(name, arg, integer):
    check_refused_naming_it({**CASES, **EXTRA}, name, arg, integer)


# Each array-valued probability argument, in a valid call: its first entry
# gets each of BAD_PROBABILITIES in turn.
BAD_PROBABILITIES = (math.nan, -0.1, 1 + 1e-9)
_ORACLE = CASES["OracleGroup"][2]
PROBABILITY_ARRAYS = {
    "ProbVector-p": (ProbVector, dict(p=[0.5, 0.5])),
    "MarkovChainSpec-channel": (MarkovChainSpec, dict(prior=_CHAIN.prior, channel=_CHAIN.channel,
                                                      decoder=_CHAIN.decoder)),
    "MarkovChainSpec-decoder": (MarkovChainSpec, dict(prior=_CHAIN.prior, channel=_CHAIN.channel,
                                                      decoder=_CHAIN.decoder)),
    "mutual_information_exact-channel": (fanolab.mutual_information_exact,
                                         dict(prior=_CHAIN.prior, channel=_CHAIN.channel)),
    "OracleGroup-prior": (fanolab.OracleGroup, _ORACLE),
    "OracleGroup-channel": (fanolab.OracleGroup, _ORACLE),
    "OracleGroup-decoder": (fanolab.OracleGroup, _ORACLE),
}


def check_probability_refused_naming_it(arrays, case):
    """Each of BAD_PROBABILITIES as the first entry of the array argument that
    case names (after its last "-") in the call of arrays[case] is refused
    naming that argument."""
    fn, kwargs = arrays[case]
    arg = case.rsplit("-", 1)[1]
    fn(**kwargs)
    for value in BAD_PROBABILITIES:
        bad = np.array(kwargs[arg], dtype=np.float64)
        bad.flat[0] = value
        with pytest.raises(DomainError, match=rf"\b{arg}\b"):
            fn(**{**kwargs, arg: bad})


@pytest.mark.parametrize("case", PROBABILITY_ARRAYS)
def test_out_of_domain_probability_entry_is_refused_naming_it(case):
    """The scalar probes above never reach a probability array, which is how
    NaN probabilities went unrefused."""
    check_probability_refused_naming_it(PROBABILITY_ARRAYS, case)


# Refusals of integers past Python's limit on str() digits (4,300 by default).
BEYOND_STR = {
    "sparse_sign_space": (lambda: fanolab.sparse_sign_space(10**2200, 2),
                          "about 10**4400 sparse sign points"),
    "stream": (lambda: fanolab.stream(10**5000), "seed=about 10**5000"),
    "NeighborhoodProfile": (lambda: NeighborhoodProfile(0.0, 1, 10**5000),
                            "got about 10**5000, 1"),
    "NeighborhoodProfile-negative": (lambda: NeighborhoodProfile(0.0, 1, -10**5000),
                                     "got about -10**5000, 1"),
    "ExperimentConfig": (lambda: ExperimentConfig(problem="normal-mean", reps=10**5000, seed=0),
                         "reps: about 10**5000 replicates"),
    "mc_volume_ratio": (lambda: fanolab.mc_volume_ratio(_DISK, 0.5, points=10**5000),
                        "points=about 10**5000"),
}


@pytest.mark.parametrize("case", BEYOND_STR)
def test_an_integer_past_the_str_digit_limit_is_shown_by_its_size(case):
    """Each of these escaped as a bare ValueError from str() of the integer."""
    call, shown = BEYOND_STR[case]
    with pytest.raises(REFUSALS) as exc:
        call()
    assert shown in str(exc.value)


def test_a_cardinality_beyond_float64_is_divided_exactly():
    # card / n_max = 2**100 in exact integers: L = 100 ln 2, the bound 1 - 1/100
    bound = fanolab.fano_tail_lower_bound(2**1100, NeighborhoodProfile(1.0, 2**1000, 1), 0.0)
    assert bound.value == pytest.approx(0.99, rel=1e-12)
    assert bound.extras["card"] == 2**1100


def test_counts_beyond_int64_are_taken_exactly():
    assert fanolab.sparse_sign_cardinality(2**1100, 1) == 2**1101
    assert fanolab.sparse_location_bound(10**30, 2, 1.0, 10**30).valid
    lo, hi = fanolab.clopper_pearson(1, 2**63, 0.9)
    assert 0.0 < lo < hi < 1e-18


# (call with an int count, the same call with that count as a float)
INTEGRAL_FLOATS = {
    "n": (lambda n: fanolab.sparse_location_bound(8, 2, 1.0, n).value, 5),
    "card": (lambda c: fanolab.fano_tail_lower_bound(c, _PROFILE, 0.0).value, 6),
    "n_max": (lambda m: fanolab.fano_tail_lower_bound(6, NeighborhoodProfile(1.0, m, 1),
                                                      0.0).value, 2),
    "d": (lambda d: fanolab.ball_volume_ratio_analytic(2.0, 1.0, d), 3),
    "dim": (lambda d: fanolab.grid_partition_counts(ContinuumSpace(
        d, _DISK.contains, _DISK.bounding_box, _DISK.metric, _DISK.sup_center), 0.5, 3), 2),
    "level": (lambda lv: dataclasses.astuple(fanolab.grid_partition_counts(
        _DISK, 0.5, lv))[1:], 3),
    "normal_mean_bound-d": (lambda d: normal_mean_bound(d, 1.0, 10).value, 4),
    "normal_mean_bound-n": (lambda n: normal_mean_bound(4, 1.0, n).value, 10),
    "normal_mean_tail_integral-d": (lambda d: fanolab.normal_mean_tail_integral(d, 3), 4),
    "normal_mean_tail_integral_floor-n": (
        lambda n: fanolab.normal_mean_tail_integral_floor(4, n), 3),
}


@pytest.mark.parametrize("arg", INTEGRAL_FLOATS)
def test_an_integral_float_count_gives_the_int_result(arg):
    fn, count = INTEGRAL_FLOATS[arg]
    assert fn(float(count)) == fn(count)


# One call per row of info._BUDGETS, just past the row's limit (at limit + 1
# where the work can be sized that finely), and the argument its refusal must
# name. The inputs are built here, so the traced peak is the call's own.
_WIDE = DiscreteSpace.hamming(np.zeros((31_623, 1), dtype=np.int8))  # 31,623^2 > 10**9
_CHAIN_216 = MarkovChainSpec(ProbVector.uniform(216), np.full((216, 216), 1 / 216),
                             np.full((216, 216), 1 / 216))  # 216^3 > 10**7
_CHANNEL_2_20 = np.full((2, 20), 1 / 20)  # 2^20 decoders > 10**6
BUDGET_CASES = {
    "distance-matrix entries": (lambda: DiscreteSpace(range(3163), lambda a, b: 0.0),
                                "points"),
    "pairwise evaluations": (lambda: fanolab.neighborhood_sizes(_WIDE, 0.5), "space"),
    "sparse sign points": (lambda: fanolab.sparse_sign_space(20, 6), "d"),  # 64 C(20, 6)
    "joint-table entries": (lambda: fanolab.conditional_entropy(_CHAIN_216), "chain"),
    # the library enumerates no decoders; the row guards the test oracle
    "decoders": (lambda: enumerate_decoders_min_tail(ProbVector.uniform(2), _CHANNEL_2_20,
                                                     _Z2, 0.5), "channel"),
    "grid cells": (lambda: fanolab.grid_partition_counts(
        fanolab.box_space([0.0], [2.0**22 + 1]), 0.5, 0), "level"),
    "replicates": (lambda: ExperimentConfig(problem="normal-mean", reps=10**8 + 1, seed=0),
                   "reps"),
    "sampled points": (lambda: fanolab.mc_volume_ratio(_DISK, 0.5, points=5_000_000_001),
                       "points"),
    "oracle instances": (lambda: next(prop1_groups(1, 10**8 + 1)), "instances"),
}


@pytest.mark.parametrize("work", info._BUDGETS)
def test_work_past_its_budget_is_refused_before_allocating(work):
    call, arg = BUDGET_CASES[work]
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError) as exc:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(exc.value)
    assert re.search(rf"\b{arg}\b", message) and work in message, message
    assert f"the budget of {info._BUDGETS[work][0]}" in message
    assert peak < 1 << 20, f"{work}: {peak} bytes traced"
