"""The mirror: reflecting the chain and exchanging particles and holes maps
a model at (alpha, beta, gamma, delta) onto the same model at (beta, alpha,
delta, gamma).  Pi, the map on configurations, reverses the sites and
complements every bit."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import exclusion as ex
from exclusion.ansatz import rd_closed_forms
from exclusion.markov import KernelError, build_markov, steady_state_exact
from exclusion.models import mirror
from exclusion.scalars import float_repr
from exclusion.tensor import PoleError, SparseMatrix
from exclusion.transfer import TransferSpec, build_transfer
from certificates import profile
from strategies import MODELS, SIGNED_MODELS

J = SparseMatrix([[0, 1], [1, 0]])
_point = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _pi(index: int, L: int) -> int:
    """Pi of a configuration index, site 1 the most significant bit."""
    return int(format(index, f"0{L}b")[::-1], 2) ^ ((1 << L) - 1)


def _conjugated(M: SparseMatrix, L: int) -> SparseMatrix:
    """Pi M Pi."""
    rows = [[0] * M.dim for _ in range(M.dim)]
    for r, c, v in M.items():
        rows[_pi(r, L)][_pi(c, L)] = v
    return SparseMatrix(rows)


@pytest.mark.filterwarnings("ignore:negative rate")
@settings(max_examples=60, deadline=None)
@given(st.one_of(*SIGNED_MODELS.values()), st.integers(2, 4))
def test_the_mirror_conjugates_the_generator(model, L):
    assert _conjugated(build_markov(model, L), L) == \
        build_markov(mirror(model), L)


def _steady(model, L):
    try:
        return steady_state_exact(build_markov(model, L)).probabilities()
    except KernelError:
        return KernelError


@settings(max_examples=40, deadline=None)
@given(st.one_of(*MODELS.values()), st.integers(2, 4))
def test_the_mirror_permutes_the_steady_state(model, L):
    p, mirrored = _steady(model, L), _steady(mirror(model), L)
    if p is KernelError:
        assert mirrored is KernelError
    else:
        assert [p[_pi(i, L)] for i in range(1 << L)] == mirrored


@pytest.mark.filterwarnings("ignore:negative rate")
@settings(max_examples=60, deadline=None)
@given(st.one_of(*SIGNED_MODELS.values()), st.integers(2, 3), st.data())
def test_the_mirror_conjugates_the_transfer_matrix(model, L, data):
    # t(x; theta) at the model is Pi t(x; theta') Pi at the mirror, theta'
    # the reversed list of inverted inhomogeneities
    conv = model.convention
    nonzero = _point.filter(lambda t: t != 0)
    x = data.draw(_point)
    thetas = data.draw(st.lists(nonzero, min_size=L, max_size=L))
    inverted = [conv.invert(t) for t in reversed(thetas)]
    try:
        t = build_transfer(TransferSpec(model, L, thetas), x)
        tm = build_transfer(TransferSpec(mirror(model), L, inverted), x)
    except PoleError:
        assume(False)
    assert _conjugated(t, L) == tm


@pytest.mark.filterwarnings("ignore:negative rate")
@settings(max_examples=100, deadline=None)
@given(st.one_of(*SIGNED_MODELS.values()))
def test_the_right_boundary_is_the_mirrored_left_one(model):
    # J B J at the mirror is Bbar, and Kbar'(identity) = -2 rho Bbar
    _, B, _ = ex.local_operators(mirror(model))
    _, _, Bbar = ex.local_operators(model)
    assert J * B * J == Bbar
    _, kbar = ex.k_matrix(model, "Kbar", model.identity_point,
                          derivative=True)
    assert kbar == (-2 * model.rho) * Bbar


# (kappa, alpha, beta, gamma, delta): phi = (kappa-1)/(kappa+1) of either
# sign, a zero rate, and kappa < 0
_RD_RATES = [(F(3), F(1, 2), F(2, 3), F(1, 3), F(1, 5)),
             (F(2), F(1), F(1, 3), F(0), F(2, 5)),
             (F(1, 2), F(1, 3), F(2, 5), F(2, 5), F(1, 3)),
             (F(-3), F(1, 2), F(2), F(1, 3), F(1, 5))]


@pytest.mark.parametrize("L", [2, 3, 50, 10 ** 4])
@pytest.mark.parametrize("rates", _RD_RATES)
def test_the_rd_profile_of_the_mirror_is_the_reflected_profile(rates, L):
    kappa, al, be, ga, de = rates
    rows = list(profile(kappa, al, be, ga, de, L, exact=False))
    mirrored = list(profile(kappa, be, al, de, ga, L, exact=False))
    # bond i is bond L - i of the mirror; the evaporation current changes
    # sign with particles and holes
    for i in range(L - 1):
        here, there = rows[i], mirrored[L - 2 - i]
        assert float_repr(here["current_lat"]) == \
            float_repr(there["current_lat"])
        assert float_repr(here["current_eva"]) == \
            float_repr(-there["current_eva"])
    for i in sorted({1, 2, L // 2, L}):
        exact = 1 - rd_closed_forms(kappa, be, al, de, ga, L,
                                    L + 1 - i)["density"]
        assert rd_closed_forms(kappa, al, be, ga, de, L, i)["density"] == exact
        assert rows[i - 1]["density"] == float(exact)
