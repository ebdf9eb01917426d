"""Record the certificate behind each float profile cell.

``rd_profile_rows`` pins a float cell by one of two certificates, each
drawn through one seam of ``ansatz._Enclosure``: a decimal bracket
(``bracket``) or saturation at 1/2 (``saturated``).  A cell that neither
pins is the exact quotient of its site.
"""

import contextlib

import pytest

import exclusion.ansatz as an


@contextlib.contextmanager
def recorded():
    """Yield a list that gains, in cell order, ("bracket", lo, hi) for each
    bracket drawn and ("saturated", t1, t2) for each cell that saturation
    pins, so each float cell has exactly one entry."""
    log = []
    bracket, saturated = an._Enclosure.bracket, an._Enclosure.saturated

    def recorded_bracket(self, *args):
        lo, hi = bracket(self, *args)
        log.append(("bracket", lo, hi))
        return lo, hi

    def recorded_saturated(self, t1, t2):
        fired = saturated(self, t1, t2)
        if fired:
            log.append(("saturated", t1, t2))
        return fired

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(an._Enclosure, "bracket", recorded_bracket)
        mp.setattr(an._Enclosure, "saturated", recorded_saturated)
        yield log


def pins(lo, hi) -> bool:
    """Ziv's rounding test: the bracket excludes 0 and both of its ends
    round to the same finite float."""
    f = float(lo)
    return (lo > 0 or hi < 0) and f == float(hi) and abs(f) < float("inf")
