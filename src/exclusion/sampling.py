"""Seeded rational sample points for the pointwise identity checks.

Draws rationals with small numerator and denominator (|num|, |den| <= 12),
rejecting anything that lands on a pole of the model's R/K families or of
the composed arguments a check will form.  Exactness at any non-pole point
is all the verifier needs; small rationals keep intermediate blow-up down.
"""

import random
from fractions import Fraction

from .models import ModelDescriptor, k_matrix, r_matrix

MAX_PART = 12


def model_safe(model: ModelDescriptor, x: Fraction) -> bool:
    """True when every catalogue matrix of the model is finite at x and at
    the reflected/inverted arguments single-point checks use."""
    conv, cr = model.convention, model.crossing
    try:
        pts = {x, conv.invert(x), conv.reflect_compose(x, x),
               conv.invert(conv.reflect_compose(x, x))}
        if cr is not None:
            pts.add(conv.cross_shift(x, cr.Q))
        for p in pts:
            r_matrix(model, p)
        for kind in ("K", "Kbar", "Ktilde"):
            k_matrix(model, kind, x)
            k_matrix(model, kind, conv.invert(x))
        if cr is not None and (cr.lam(x) == 0 or
                               cr.lam(conv.reflect_compose(x, x)) == 0):
            return False
    except ZeroDivisionError:
        return False
    return True


def pair_safe(model: ModelDescriptor, x1: Fraction, x2: Fraction) -> bool:
    """The composed arguments of two-point checks avoid poles.  They are
    compose(x1, x2), compose(x2, x1), reflect_compose(x1, x2) and its
    inverse, and reflect_compose commutes: the same set for both orders of
    the pair, so pair_safe is symmetric in x1 and x2."""
    conv = model.convention
    try:
        for p in (conv.compose(x1, x2), conv.compose(x2, x1),
                  conv.reflect_compose(x1, x2),
                  conv.invert(conv.reflect_compose(x1, x2))):
            r_matrix(model, p)
    except ZeroDivisionError:
        return False
    return True


def sample_points(model: ModelDescriptor, count: int, seed: int) -> list:
    """Deterministic pole-free sample points, pairwise compose-safe.  A
    candidate draws its numerator, its denominator, then its sign: that
    order fixes the points a seed gives.  ValueError when 5000 candidates
    in a row give no new point: the pool of |num|, |den| <= MAX_PART is
    finite."""
    rng = random.Random(seed)
    points = []
    # each candidate is judged once: a point stays a point, and a rejection
    # never reverts, since model_safe does not read the points and
    # pair_safe only meets more of them as the list grows
    tried = {model.identity_point}

    def ok(x):
        if x in tried:
            return False
        tried.add(x)
        return model_safe(model, x) and \
            all(pair_safe(model, x, y) for y in points)

    for _ in range(count):
        for _ in range(5000):
            x = Fraction(rng.randint(1, MAX_PART), rng.randint(1, MAX_PART))
            if rng.random() < 0.5:
                x = -x
            if ok(x):
                points.append(x)
                break
        else:
            raise ValueError(f"could not sample {count} pole-free points "
                             f"with |num|, |den| <= {MAX_PART}: found "
                             f"{len(points)}")
    return points
