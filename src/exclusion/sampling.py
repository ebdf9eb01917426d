"""Seeded rational sample points for the pointwise identity checks.

Draws rationals with small numerator and denominator (|num|, |den| <= 12),
rejecting anything that lands on a pole of the model's R/K families or of
the composed arguments a check will form.  Exactness at any non-pole point
is all the verifier needs; small rationals keep intermediate blow-up down.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .models import ModelDescriptor, UnsupportedError, k_matrix, r_matrix

MAX_PART = 12


class PointSampler:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def rational(self) -> Fraction:
        num = self._rng.randint(1, MAX_PART)
        den = self._rng.randint(1, MAX_PART)
        if self._rng.random() < 0.5:
            num = -num
        return Fraction(num, den)

    def draw(self, predicate) -> Fraction:
        for _ in range(5000):
            x = self.rational()
            if predicate(x):
                return x
        raise RuntimeError("could not sample a pole-free point")


def model_safe(model: ModelDescriptor, x: Fraction) -> bool:
    """True when every catalogue matrix of the model is finite at x and at
    the reflected/inverted arguments single-point checks use."""
    conv = model.convention
    if conv.kind == "multiplicative" and x == 0:
        return False
    try:
        pts = {x, conv.invert(x), conv.reflect_compose(x, x),
               conv.invert(conv.reflect_compose(x, x))}
        if model.crossing is not None:
            pts.add(conv.cross_shift(x, model.crossing.Q))
        for p in pts:
            r_matrix(model, p)
        for kind in ("K", "Kbar", "Ktilde"):
            k_matrix(model, kind, x)
            k_matrix(model, kind, conv.invert(x))
        if model.crossing is not None:
            lam = model.crossing.lam(x)
            if lam == 0:
                return False
            if model.crossing.lam(conv.reflect_compose(x, x)) == 0:
                return False
    except ZeroDivisionError:
        return False
    except UnsupportedError:
        pass
    return True


def pair_safe(model: ModelDescriptor, x1: Fraction, x2: Fraction) -> bool:
    """The composed arguments of two-point checks avoid poles."""
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
    """Deterministic pole-free sample points, pairwise compose-safe."""
    sampler = PointSampler(seed)
    points = []

    def ok(x):
        if x in points or x == model.identity_point:
            return False
        if not model_safe(model, x):
            return False
        return all(pair_safe(model, x, y) and pair_safe(model, y, x)
                   for y in points)

    for _ in range(count):
        points.append(sampler.draw(ok))
    return points
