"""Hypothesis strategies shared by the test modules: models at random
rational rates."""

from hypothesis import strategies as st

import exclusion as ex

_rate = st.fractions(min_value=0, max_value=5, max_denominator=7)
_q = st.fractions(min_value=0, max_value=5, max_denominator=7).filter(
    lambda q: q not in (0, 1))
_kappa = st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(
    lambda k: k not in (0, 1, -1))  # kappa < 0 and 0 < |kappa| < 1 included
MODELS = {"asep": st.builds(ex.asep, _q, _rate, _rate, _rate, _rate),
          "tasep": st.builds(ex.tasep, _rate, _rate),
          "ssep": st.builds(ex.ssep, _rate, _rate, _rate, _rate),
          "rd": st.builds(ex.rd, _kappa, _rate, _rate, _rate, _rate)}
