"""Markov generators, exact steady states, observables, relaxation.

The generator acts on the 2^L configuration space with site 1 as the most
significant bit, matching the probability-vector layout (0...00, 0...01,
0...10, ...).  Everything except ``evolve`` is exact; ``evolve`` is the one
quarantined floating-point routine, returned as an ApproxDistribution.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .models import ModelDescriptor, RD, hop_rates, local_operators
from .tensor import SparseMatrix, embed_at_positions, exact_nullspace, \
    integer_vector


class KernelError(ValueError):
    """The stationary kernel is not one-dimensional."""


class Distribution(namedtuple("Distribution", "L weights Z")):
    """Exact stationary weights: probabilities are weights[i] / Z."""
    __slots__ = ()

    def probabilities(self) -> list:
        return [w / self.Z for w in self.weights]


def build_markov(model: ModelDescriptor, L: int) -> SparseMatrix:
    """M = B_1 + sum_l w_{l,l+1} + Bbar_L; at L=1 both boundaries act on
    the single site.  The local operators' int rows are embedded and
    summed as ints, over their common denominator."""
    if L < 1:
        raise ValueError("L must be >= 1")
    w, B, Bbar = local_operators(model)
    terms = [(B, (0,)), (Bbar, (L - 1,))] + \
        [(w, (s, s + 1)) for s in range(L - 1)]
    return embed_at_positions(terms, L)


def steady_state_exact(M: SparseMatrix) -> Distribution:
    """Normalized exact stationary distribution from the kernel of M."""
    L = M.dim.bit_length() - 1
    if 1 << L != M.dim:
        raise ValueError("dimension is not a power of two")
    kernel = exact_nullspace(M)
    if len(kernel) != 1:
        raise KernelError(f"kernel dimension {len(kernel)} != 1: "
                          "reducible or mis-built chain")
    vec = kernel[0]
    total = sum(vec)
    if total == 0:
        raise KernelError("kernel vector sums to zero")
    probs = [v / total for v in vec]
    # the signs of M are those of its int rows: den > 0
    nonneg_rates = all(v >= 0 for r, row in M._rows.items()
                       for c, v in row.items() if r != c)
    if nonneg_rates and any(p < 0 for p in probs):
        raise KernelError("internal error: negative stationary weight "
                          "with nonnegative rates")
    ints, den = integer_vector(probs)
    return Distribution(L=L, weights=tuple(map(Fraction, ints)),
                        Z=Fraction(den))


def observables(dist: Distribution, model: ModelDescriptor) -> dict:
    """Per-site densities and the two stationary currents.

    Lattice current counts right-minus-left hops between i and i+1; the
    evaporation current (pair annihilation minus pair creation) is nonzero
    only for the RD model.  The weights are put over one denominator and
    summed as ints, per site and per bond pattern, by halving the
    configuration index; each output cell is one Fraction.
    """
    L = dist.L
    weights, d = integer_vector(dist.weights)
    # a probability is weight * num / den; Z is the sum of the weights
    # where they come from a kernel, and then its denominator divides d
    g = math.gcd(d, dist.Z.denominator)
    num, den = dist.Z.denominator // g, d // g * dist.Z.numerator
    # totals[s][k]: the weight of the configurations whose index >> s is k
    totals = [weights]
    for _ in range(L - 1):
        last = totals[-1]
        totals.append([a + b for a, b in zip(last[::2], last[1::2])])
    density = [Fraction(sum(totals[L - 1 - i][1::2]) * num, den)
               for i in range(L)]
    # pairs[i][2 tau_i + tau_{i+1}]: the weight of each bond pattern
    pairs = [[sum(totals[L - 2 - i][pattern::4]) for pattern in range(4)]
             for i in range(L - 1)]
    if model.name == RD:
        eva = [Fraction((pp[3] - pp[0]) * num, den) for pp in pairs]
    else:
        eva = [Fraction(0)] * (L - 1)
    (right, left), e = integer_vector(hop_rates(model))
    lat = [Fraction((right * pp[2] - left * pp[1]) * num, e * den)
           for pp in pairs]
    return {"density": density, "current_lat": lat, "current_eva": eva}


class ApproxDistribution(namedtuple(
        "ApproxDistribution", "L probs t order uniformization_rate exact",
        defaults=(False,))):
    """Floating-point approximation from uniformized evolution. Inexact."""
    __slots__ = ()


def evolve(dist0, M: SparseMatrix, t, order: int) -> ApproxDistribution:
    """Uniformized master-equation propagation of dist0 by time t.

    P_t ~ sum_{k<=order} e^{-Lt}(Lt)^k/k! Pi^k P_0 with Pi = I + M/Lambda.
    Probability is conserved before the series truncation; the result is
    floating point and flagged inexact.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    dim = M.dim
    lam = max((abs(M.get(i, i)) for i in range(dim)), default=Fraction(0))
    if isinstance(dist0, Distribution):
        vec = [float(p) for p in dist0.probabilities()]
        L = dist0.L
    else:
        vec = [float(p) for p in dist0]
        L = dim.bit_length() - 1
    tf = float(t)
    if lam == 0 or tf == 0.0:
        return ApproxDistribution(L, tuple(vec), tf, order, float(lam))
    rows = [[] for _ in range(dim)]
    for r, row in M._rows.items():
        for c, v in row.items():
            rows[r].append((c, float(Fraction(v, M.den) / lam) +
                            (1.0 if r == c else 0.0)))
    for r in range(dim):
        if not any(c == r for c, _ in rows[r]):
            rows[r].append((r, 1.0))
    mu = float(lam) * tf
    # Poisson weights in log space to survive large mu
    logw = [k * math.log(mu) - mu - math.lgamma(k + 1) for k in range(order + 1)]
    out = [math.exp(logw[0]) * v for v in vec]
    cur = vec
    for k in range(1, order + 1):
        nxt = [0.0] * dim
        for r in range(dim):
            acc = 0.0
            for c, v in rows[r]:
                acc += v * cur[c]
            nxt[r] = acc
        cur = nxt
        wk = math.exp(logw[k])
        if wk:
            for r in range(dim):
                out[r] += wk * cur[r]
    return ApproxDistribution(L, tuple(out), tf, order, float(lam))
