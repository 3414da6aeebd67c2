"""Brute-force references for the tests: random chains and spaces, the
exhaustive decoder minimum that the Fano tail bounds are audited against,
and QUADPACK quadrature of the normal-mean tail integral.

No library path calls these. Each random instance is drawn from its own
stream (streams.stream, SFC64 seeded by SeedSequence), keyed by (seed,
CHAIN_STREAM or SPACE_STREAM + stream_id), namespaces that the library's
own stream ids leave free.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from fanolab.discrete import DiscreteSpace
from fanolab.info import LN2, DomainError, MarkovChainSpec, ProbVector, _budget, _require
from fanolab.streams import stream

CHAIN_STREAM = 5 << 40
SPACE_STREAM = 6 << 40


def random_chain(seed: int, sizes: tuple[int, int, int], *, stream_id: int = 0,
                 uniform_prior: bool = False) -> MarkovChainSpec:
    """Random chain with symmetric-Dirichlet(1) rows; deterministic in (seed, stream_id)."""
    nv, nx, nvhat = sizes
    _require("an integer in [1, 2**63)", nv=nv, nx=nx, nvhat=nvhat)
    g = stream(seed, CHAIN_STREAM + stream_id)
    prior = ProbVector(np.full(nv, 1.0 / nv)) if uniform_prior \
        else ProbVector(g.dirichlet(np.ones(nv)))
    channel = g.dirichlet(np.ones(nx), size=nv)
    decoder = g.dirichlet(np.ones(nvhat), size=nx)
    return MarkovChainSpec(prior=prior, channel=channel, decoder=decoder)


def random_symmetric_space(seed: int, k: int, *, stream_id: int = 0) -> DiscreteSpace:
    """Random symmetric distances U[0, 2) off the diagonal, zeros on it."""
    _require("an integer in [2, 2**63)", k=k)
    g = stream(seed, SPACE_STREAM + stream_id)
    m = np.zeros((k, k))
    iu = np.triu_indices(k, 1)
    m[iu] = g.random(len(iu[0])) * 2.0
    m += m.T
    return DiscreteSpace.from_matrix(m)


def enumerate_decoders_min_tail(prior: ProbVector, channel, space: DiscreteSpace,
                                t: float) -> float:
    """Exact min over all deterministic decoders g: X -> V of P(rho(g(X), V) > t).

    Brute-force enumeration over all |V|^|X| decoder functions, so no
    shortcut replaces the loop: it is the reference for the library's
    closed-form minimum. Guarded by the "decoders" budget of
    info._BUDGETS, the one caller of that row. t must be finite.
    """
    _require("finite", t=t)
    c = np.asarray(channel, dtype=np.float64)
    nv, nx = c.shape
    if nv != len(prior) or nv != space.n_points:
        raise DomainError("prior, channel and space must agree on |V|")
    _budget("decoders", space.n_points**nx,
            f"space and channel with |V|^|X| = {space.n_points}^{nx}")
    dmat = space.distance_matrix()
    weight = prior.p[:, None] * c           # (v, x)
    miss = (dmat.T > t).astype(np.float64)  # miss[vhat, v] = 1{rho(vhat, v) > t}
    cost = (miss @ weight).T                # cost[x, vhat] = P(X=x, rho(vhat, V) > t)
    xs = np.arange(nx)
    best = math.inf
    for g in itertools.product(range(space.n_points), repeat=nx):
        val = float(cost[xs, g].sum())
        if val < best:
            best = val
    return best


def quadpack_tail_integral(d: int, n: int) -> float:
    """integral_0^inf max(0, (d-1)/d - n*ln(1+t)/(2 d ln2)) dt by
    scipy.integrate.quad (epsrel 1e-12) on 120 log-spaced panels that end
    at the kink, which is found by bisection."""
    c = (d - 1) / d

    def f(t):
        return c - n * math.log1p(t) / (2 * d * LN2)

    hi = 1.0
    while f(hi) > 0:
        hi *= 2
    lo = hi / 2 if hi > 1 else 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    root = (lo + hi) / 2
    edges = np.concatenate([[0.0], np.logspace(-6, math.log10(max(root, 1e-6)), 120)])
    edges = np.append(edges[edges <= root], root)
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]) if b > a)
