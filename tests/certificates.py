"""Read the rows of the RD profile, and record the certificate behind each
float profile cell.

``rd_profile_rows`` yields one tuple per site; ``profile`` checks its shape
and hands the tests each row's cells keyed by column.  It draws each float
cell through one seam, ``ansatz._Enclosure.cell``, which pins it by one of
two certificates: a binary bracket [lo 2^e, hi 2^e], or saturation at 1/2.
A cell that neither pins is the exact quotient of its site.
"""

import contextlib
from fractions import Fraction

import pytest

import exclusion.ansatz as an


def exact(m: int, e: int) -> Fraction:
    """m 2^e as a Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


@contextlib.contextmanager
def recorded():
    """Yield a list that gains, in cell order, ("bracket", lo, hi) for each
    bracket drawn, its ends exact Fractions, and ("saturated", t1, t2) for
    each cell that saturation pins, t_j its (mantissa, exponent) terms, so
    each float cell has exactly one entry."""
    log = []
    cell = an._Enclosure.cell

    def recorded_cell(self, K, s0, m1, e1, m2, e2):
        out = cell(self, K, s0, m1, e1, m2, e2)
        _, lo, hi, e = out
        if lo is None:
            log.append(("saturated", (m1, e1), (m2, e2)))
        else:
            log.append(("bracket", exact(lo, e), exact(hi, e)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(an._Enclosure, "cell", recorded_cell)
        yield log


def pins(lo, hi) -> bool:
    """Ziv's rounding test: the bracket excludes 0 and both of its ends
    round to the same finite float.  An end beyond the float range pins
    nothing."""
    try:
        f, g = float(lo), float(hi)
    except OverflowError:
        return False
    return (lo > 0 or hi < 0) and f == g and abs(f) < float("inf")


def profile(*args, **kwargs):
    """The rows of ``rd_profile_rows(*args, **kwargs)``, drawn lazily, each
    the dict of its cells keyed by ``PROFILE_COLUMNS`` after the site.  Each
    row must be a tuple of those columns, the asymptotic one only when
    asked for, that starts at its own site number."""
    width = 5 if kwargs.get("asymptotics") else 4
    for i, row in enumerate(an.rd_profile_rows(*args, **kwargs), start=1):
        assert type(row) is tuple and len(row) == width and row[0] == i
        yield dict(zip(an.PROFILE_COLUMNS[1:], row[1:]))
