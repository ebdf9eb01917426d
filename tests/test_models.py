import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import exclusion as ex
import exclusion.models as m
import exclusion.verifier as vf
from exclusion.models import UnsupportedError, r_matrix_swapped
from exclusion.sampling import sample_points
from exclusion.tensor import PoleError, SparseMatrix, kron, \
    partial_trace_first, permutation_op
from reference import closed_rows, rows_apply, rows_at, sparse_rows, \
    twisted_k_rows
from strategies import MODELS, SIGNED_MODELS


def test_local_operators_ssep_is_swap_minus_identity():
    w, _, _ = ex.local_operators(ex.ssep(1, 1, 1, 1))
    assert w == permutation_op() - SparseMatrix.identity(4)


def test_local_operators_tasep():
    _, B, Bbar = ex.local_operators(ex.tasep(F(1, 2), F(1, 3)))
    assert B == SparseMatrix([[F(-1, 2), 0], [F(1, 2), 0]])
    assert Bbar == SparseMatrix([[0, F(1, 3)], [0, F(-1, 3)]])


def test_local_operators_rd():
    w, _, _ = ex.local_operators(ex.rd(3, 1, 1, 0, 0))
    assert w == SparseMatrix([[-1, 0, 0, 1], [0, -9, 9, 0],
                              [0, 9, -9, 0], [1, 0, 0, -1]])


def test_r_matrix_asep_values():
    mdl = ex.asep(2, 1, 1, 1, 1)
    R = ex.r_matrix(mdl, F(3))
    assert R == SparseMatrix([[1, 0, 0, 0],
                              [0, F(4, 5), F(3, 5), 0],
                              [0, F(1, 5), F(2, 5), 0],
                              [0, 0, 0, 1]])


def test_r_matrix_tasep_values():
    R = ex.r_matrix(ex.tasep(1, 1), F(2))
    assert R == SparseMatrix([[1, 0, 0, 0], [0, 0, 2, 0], [0, 1, -1, 0],
                              [0, 0, 0, 1]])


def test_r_matrix_regularity(all_models):
    for mdl in all_models:
        assert ex.r_matrix(mdl, mdl.identity_point) == permutation_op()


def test_r_matrix_pole():
    with pytest.raises(PoleError):
        ex.r_matrix(ex.asep(2, 1, 1, 1, 1), F(1, 2))
    with pytest.raises(PoleError):
        ex.r_matrix(ex.ssep(1, 1, 1, 1), F(-1))
    with pytest.raises(PoleError):
        ex.r_matrix(ex.rd(3, 1, 1, 0, 0), F(-1, 2))  # kappa(x+1)+x-1 = 0


def test_k_matrix_regularity(all_models):
    for mdl in all_models:
        for kind in ("K", "Kbar"):
            assert ex.k_matrix(mdl, kind, mdl.identity_point) == SparseMatrix.identity(2)


def test_k_matrix_ssep_value():
    K = ex.k_matrix(ex.ssep(1, 1, 0, 0), "K", F(1))
    assert K == SparseMatrix([[0, 0], [1, 1]])


def test_k_matrix_tasep_ktilde_value():
    Kt = ex.k_matrix(ex.tasep(1, F(1, 2)), "Ktilde", F(2))
    assert Kt == SparseMatrix([[F(1, 3), F(1, 3)], [0, F(2, 3)]])


def test_column_sums(all_models):
    ones4 = [F(1)] * 4
    ones2 = [F(1)] * 2
    for mdl in all_models:
        for x in sample_points(mdl, 3, seed=11):
            R = ex.r_matrix(mdl, x)
            assert [sum(R.get(i, j) for i in range(4)) for j in range(4)] == \
                ones4
            for kind in ("K", "Kbar"):
                K = ex.k_matrix(mdl, kind, x)
                assert [sum(K.get(i, j) for i in range(2))
                        for j in range(2)] == ones2


def test_derivative_identities(all_models):
    # P R'(id) = rho w; K'(id) = 2 rho B; Kbar'(id) = -2 rho Bbar
    P = permutation_op()
    for mdl in all_models:
        w, B, Bbar = ex.local_operators(mdl)
        idp = mdl.identity_point
        _, rp = ex.r_matrix(mdl, idp, derivative=True)
        assert P * rp == mdl.rho * w
        _, kp = ex.k_matrix(mdl, "K", idp, derivative=True)
        assert kp == (2 * mdl.rho) * B
        _, kbp = ex.k_matrix(mdl, "Kbar", idp, derivative=True)
        assert kbp == (-2 * mdl.rho) * Bbar


def test_crossing_scalar_asep():
    mdl = ex.asep(2, 1, 1, 1, 1)
    assert mdl.crossing.lam(F(3)) == F(22, 25)
    assert mdl.crossing.Q == 4


def test_markov_vector():
    a = ex.asep(2, 1, 1, 1, 1)
    assert ex.markov_vector(a, F(3)) == (F(3), F(1))
    s = ex.ssep(1, 1, 1, 1)
    assert ex.markov_vector(s, F(7)) == (F(1), F(1))
    with pytest.raises(UnsupportedError):
        ex.markov_vector(ex.rd(3, 1, 1, 0, 0), F(2))


def test_markov_vector_r_invariance():
    mdl = ex.asep(2, 1, 1, 1, 1)
    x1, x2 = F(2), F(3)
    v1 = ex.markov_vector(mdl, x1)
    v2 = ex.markov_vector(mdl, x2)
    vv = [v1[i] * v2[j] for i in range(2) for j in range(2)]
    R = ex.r_matrix(mdl, x1 / x2)
    assert rows_apply(sparse_rows(R), vv) == vv


def test_general_asep_k():
    mdl = ex.asep(2, 1, 1, F(1, 2), F(1, 3))
    plain = ex.general_asep_k(1, F(1, 2), 2, tau=1)
    for x in (F(2), F(5, 3)):
        assert plain(x) == ex.k_matrix(mdl, "K", x)
    twisted = ex.general_asep_k(1, F(1, 2), 2, tau=2)
    assert twisted(F(1)) == SparseMatrix.identity(2)
    with pytest.raises(ValueError):
        ex.general_asep_k(1, 1, 2, tau=0)


def test_ktilde_closed_form_equals_map(asep_model, ssep_model):
    for mdl in (asep_model, ssep_model):
        for x in sample_points(mdl, 3, seed=5):
            assert ex.ktilde_from_kbar(mdl, x) == ex.k_matrix(mdl, "Ktilde", x)


def test_kbar_roundtrip(ssep_model, rd_model):
    for mdl in (ssep_model, rd_model):
        for x in sample_points(mdl, 5, seed=3):
            assert ex.kbar_from_ktilde(mdl, x) == ex.k_matrix(mdl, "Kbar", x)


def _kbar_oracle(model, x, derivative=False):
    """Oracle, kept apart from the code it checks: the closed forms of Kbar
    written out per model, as models held them before Kbar was derived from
    K through the mirror, as k_matrix hands them out (with derivative the
    pair read at the dual point x + eps).  A vanishing denominator raises
    ZeroDivisionError."""
    return rows_at(lambda z: _kbar_oracle_rows(model, z), x, derivative)


def _kbar_oracle_rows(model, x):
    be, de = model.beta, model.delta
    if model.name == "asep":
        q = model.q
        d = -be * x * x + (q - de + be - 1) * x + de
        return [[x * (de * x - be * x + q - de + be - 1) / d,
                 -be * (x * x - 1) / d],
                [-de * (x * x - 1) / d,
                 (q * x - de * x + be * x - x + de - be) / d]]
    if model.name == "tasep":
        d = -be * x * x + be * x - x
        return [[1, -be * (x * x - 1) / d],
                [0, (be * x - x - be) / d]]
    if model.name == "ssep":
        d = x * (de + be) - 1
        return [[(x * (be - de) - 1) / d, 2 * x * be / d],
                [2 * x * de / d, (x * (de - be) - 1) / d]]
    k = model.kappa
    x2 = x * x
    d = 2 * x * (-(x2 - 1) * (de + be) + 2 * k * (x2 + 1))
    return [[(x2 + 1) * ((x2 - 1) * (de - be) + 4 * x * k) / d,
             (x2 - 1) * ((x2 + 1) * (de - be) - 2 * x * (de + be)) / d],
            [-(x2 - 1) * ((x2 + 1) * (de - be) + 2 * x * (de + be)) / d,
             -(x2 + 1) * ((x2 - 1) * (de - be) - 4 * x * k) / d]]


def _with_a_kbar_pole_at(model, x):
    """The model with delta (beta for TASEP) moved so that the oracle's
    denominator vanishes at x, or the model itself where no rate does."""
    be = model.beta
    if model.name == "tasep":
        return model if x == 1 else model._replace(beta=1 / (1 - x))
    if model.name == "ssep":
        return model if x == 0 else model._replace(delta=1 / x - be)
    if model.name == "asep":
        return model if x == 1 else model._replace(
            delta=(be * x * x - (model.q + be - 1) * x) / (1 - x))
    return model if x * x == 1 else model._replace(
        delta=2 * model.kappa * (x * x + 1) / (x * x - 1) - be)


_SIGNED_MODELS = st.one_of(*SIGNED_MODELS.values())


def _kbar_or_pole(f, x, derivative):
    try:
        return f(x, derivative)
    except ZeroDivisionError as exc:
        return type(exc)


@pytest.mark.filterwarnings("ignore:negative rate")
@settings(max_examples=300, deadline=None)
@given(_SIGNED_MODELS, st.data())
def test_kbar_is_the_mirrored_k_and_matches_the_oracle(model, data):
    x = data.draw(st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.sampled_from([F(0), F(1), F(-1)])))
    if data.draw(st.booleans()):
        model = _with_a_kbar_pole_at(model, x)
    kbar = lambda z, derivative: ex.k_matrix(model, "Kbar", z, derivative)
    for derivative in (False, True):
        got = _kbar_or_pole(kbar, x, derivative)
        if model.name == "asep" and x == 0:     # 1/x is undefined at 0
            assert got is PoleError
        elif got is PoleError:
            assert _kbar_or_pole(lambda y, d: _kbar_oracle(model, y, d), x,
                                 derivative) is ZeroDivisionError
        else:
            assert got == _kbar_oracle(model, x, derivative)


def test_kbar_derivative_at_the_identity_point_matches_the_oracle(all_models):
    for mdl in all_models:
        x = mdl.identity_point
        assert ex.k_matrix(mdl, "Kbar", x, derivative=True) == \
            _kbar_oracle(mdl, x, derivative=True)


def test_kbar_pole_names_kbar_x_and_the_mirrored_rates():
    ssep = ex.ssep(F(1, 2), F(2, 3), F(1, 3), F(1, 5))
    with pytest.raises(PoleError, match=re.escape(
            "Kbar has a pole at x=15/13, where K at alpha=2/3, gamma=1/5 is "
            "evaluated at x^-1: x*(alpha+gamma) + 1 vanishes at x=-15/13")):
        ex.k_matrix(ssep, "Kbar", F(15, 13))
    with pytest.raises(PoleError, match="pole at x=0, .*: x\\^-1 is undefined"):
        ex.k_matrix(_ASEP, "Kbar", F(0))


def test_ktilde_map_unsupported_for_tasep():
    with pytest.raises(UnsupportedError):
        ex.ktilde_from_kbar(ex.tasep(1, 1), F(2))


def test_rd_ktilde_dual_matches_series(rd_model):
    # the derivative pair at the identity point, a removable singularity
    # of the crossing form
    value, deriv = ex.k_matrix(rd_model, "Ktilde", F(1), derivative=True)
    plain = ex.k_matrix(rd_model, "Ktilde", F(1))
    assert value == plain
    assert plain.get(0, 0) + plain.get(1, 1) == 1
    # sanity-bound the derivative against a secant at nearby points
    x1, x2 = F(99, 100), F(101, 100)
    k1 = ex.k_matrix(rd_model, "Ktilde", x1)
    k2 = ex.k_matrix(rd_model, "Ktilde", x2)
    slope = (k2 - k1) * (1 / (x2 - x1))
    # secant of a smooth rational function brackets the derivative loosely
    for i in range(2):
        for jj in range(2):
            assert abs(float(slope.get(i, jj)) - float(deriv.get(i, jj))) \
                < 0.05


def _rd_ktilde_crossing_form(model, x):
    """Oracle: tr_0(Kbar_0(1/x) R_10(1/(x^2 Q)) P_01) / lambda(x^2), the
    crossing form of the RD dual matrix (U = 1), evaluated directly.  Only
    defined at regular points, where no factor has a pole and
    lambda(x^2) != 0."""
    xx = x * x
    big = kron(ex.k_matrix(model, "Kbar", 1 / x), SparseMatrix.identity(2)) * \
        r_matrix_swapped(model, 1 / (xx * model.crossing.Q)) * permutation_op()
    lam = model.crossing.lam(xx)
    return partial_trace_first(big) * (1 / lam)


def _regular(fn):
    try:
        return fn()
    except (PoleError, ZeroDivisionError):
        return None


_small = st.fractions(min_value=-6, max_value=6, max_denominator=7)
_rate = st.fractions(min_value=0, max_value=5, max_denominator=7)
_kappa = _small.filter(lambda k: k not in (0, 1, -1))


@settings(max_examples=60, deadline=None)
@given(_kappa, _rate, _rate, _rate, _rate, _small.filter(lambda x: x != 0))
@example(F(-3), F(1, 2), F(2, 3), F(1, 3), F(1, 5), F(3))
@example(F(-1, 2), F(1, 2), F(2, 3), F(1, 3), F(1, 5), F(-3, 2))
@example(F(1, 3), F(1, 2), F(2, 3), F(1, 3), F(1, 5), F(5, 7))
def test_rd_ktilde_closed_form_matches_crossing_form(kappa, al, be, ga, de, x):
    mdl = ex.rd(kappa, al, be, ga, de)
    want = _regular(lambda: _rd_ktilde_crossing_form(mdl, x))
    assume(want is not None)
    assert ex.k_matrix(mdl, "Ktilde", x) == want
    mapped = _regular(lambda: ex.ktilde_from_kbar(mdl, x))
    if mapped is not None:
        assert mapped == want


def test_rd_ktilde_pinned_values(rd_model):
    # values of the series evaluation this closed form replaced
    assert ex.k_matrix(rd_model, "Ktilde", F(1)) == \
        SparseMatrix([[F(13, 24), F(13, 120)], [F(1, 40), F(11, 24)]])
    assert ex.k_matrix(rd_model, "Ktilde", F(-1)) == \
        SparseMatrix([[F(11, 24), F(1, 40)], [F(13, 120), F(13, 24)]])
    got = ex.k_matrix(rd_model, "Ktilde", F(1), derivative=True)
    assert got == (SparseMatrix([[F(13, 24), F(13, 120)],
                                 [F(1, 40), F(11, 24)]]),
                   SparseMatrix([[F(23, 27), F(401, 1350)],
                                 [F(17, 450), F(16, 27)]]))


def test_rd_ktilde_has_real_pole_at_phi():
    # x^2 = phi^2 is a genuine pole of the RD dual matrix at kappa=3
    with pytest.raises(PoleError):
        ex.k_matrix(ex.rd(3, 1, 1, 0, 0), "Ktilde", F(1, 2))


def test_rd_ktilde_poles():
    kappa = F(2)
    # beta + delta = 20/3 puts a root of (beta+delta)(x^2-1) + 2kappa(x^2+1)
    # at x = +-1/2
    mdl = ex.rd(kappa, 1, 5, F(1, 2), F(5, 3))
    with pytest.raises(PoleError, match=r"^Ktilde undefined at x=0"):
        ex.k_matrix(mdl, "Ktilde", F(0))
    phi = (kappa - 1) / (kappa + 1)
    for x in (phi, -phi, F(1, 2), F(-1, 2)):
        for derivative in (False, True):
            with pytest.raises(PoleError,
                               match=rf"^dual boundary matrix has a pole at x={x}"):
                ex.k_matrix(mdl, "Ktilde", x, derivative)


def test_rd_ktilde_vanishes_where_crossing_factors_cancel():
    # kappa = -3/5: (kappa+1)^2 x^4 = (kappa-1)^2 at x = +-2, where
    # R(1/(x^2 Q)) and 1/lambda(x^2) have a pole and a double zero; the
    # product, and so Ktilde, vanishes
    mdl = ex.rd(F(-3, 5), F(1, 2), F(2, 3), F(1, 3), F(1, 5))
    for x in (F(2), F(-2)):
        assert ex.k_matrix(mdl, "Ktilde", x) == SparseMatrix([[0, 0], [0, 0]])


def test_asep_scaling_limit_to_ssep():
    # q = 1 + eps, z = 1 + x eps: the ASEP R-matrix converges to the SSEP
    # one at rate eps; at x = 3 the largest entry distance is 9 eps/(16+12 eps)
    x = F(3)
    target = ex.r_matrix(ex.ssep(1, 1, 1, 1), x)
    for k in range(1, 7):
        eps = F(1, 10 ** k)
        R = ex.r_matrix(ex.asep(1 + eps, 1, 1, 1, 1), 1 + x * eps)
        dist = max(abs(R.get(i, j) - target.get(i, j))
                   for i in range(4) for j in range(4))
        assert dist == 9 * eps / (16 + 12 * eps)
        assert 0 < dist <= eps


def test_model_constructor_validation():
    with pytest.raises(ValueError):
        ex.asep(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        ex.asep(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        ex.rd(1, 1, 1, 0, 0)
    with pytest.warns(UserWarning):
        ex.ssep(-1, 1, 1, 1)


def test_rd_boundary_coefficients():
    from exclusion.ansatz import rd_boundary_coefficients
    co = rd_boundary_coefficients(3, 1, 1, 0, 0)
    assert co["a"] == F(5, 7)
    assert co["c"] == F(-1, 7)
    assert co["phi"] == F(1, 2)


def test_r_matrix_swapped_is_p_r_p(all_models):
    # the entry permutation equals the conjugation by the swap, exactly,
    # over Fractions
    P = permutation_op()
    for mdl in all_models:
        for x in (F(3), F(-2, 7)):
            assert r_matrix_swapped(mdl, x) == P * ex.r_matrix(mdl, x) * P


# ------------------------------------------------------ the descriptor

def test_a_descriptor_is_its_name_and_rates():
    # convention, rho and crossing are derived, so a replaced rate cannot
    # leave them stale, and equal rates make equal, hashable descriptors
    replaced = ex.asep(F(3, 2), F(1, 2), F(2, 3), F(1, 3), F(1, 5)) \
        ._replace(q=F(2))
    fresh = ex.asep(2, F(1, 2), F(2, 3), F(1, 3), F(1, 5))
    assert replaced == fresh and hash(replaced) == hash(fresh)
    assert all(r.status == vf.PASS
               for r in vf.run(replaced,
                               vf.r_properties(replaced, F(3), F(5))))
    for mdl in (fresh, ex.tasep(F(1, 2), F(2, 3)),
                ex.ssep(F(1, 2), F(2, 3), F(1, 3), F(1, 5)),
                ex.rd(3, F(1, 2), F(2, 3), F(1, 3), F(1, 5))):
        assert m.mirror(m.mirror(mdl)) == mdl
        assert hash(mdl) == hash(m.mirror(m.mirror(mdl)))
    assert ex.ModelDescriptor._fields == ("name", "alpha", "beta", "gamma",
                                          "delta", "q", "kappa")


# ------------------------------------------------------ the compiled forms

def _variants(base, **changes):
    """base and one copy per keyword, that constant alone changed."""
    return [base] + [base._replace(**{k: v}) for k, v in changes.items()]


_ASEP = ex.asep(F(3, 2), F(1, 2), F(2, 3), F(1, 3), F(1, 5))
_RD = ex.rd(3, F(1, 2), F(2, 3), F(1, 3), F(1, 5))
_VARIANTS = (_variants(_ASEP, q=F(2), alpha=F(3, 4), beta=F(5, 7),
                       gamma=F(1, 6), delta=F(2, 9))
             + _variants(_RD, kappa=F(5), alpha=F(3, 4), beta=F(5, 7),
                         gamma=F(1, 6), delta=F(2, 9))
             + [ex.tasep(F(1, 2), F(2, 3)), ex.ssep(F(1, 2), F(2, 3),
                                                    F(1, 3), F(1, 5))])


def _table(M):
    return M.shape, M._rows, M.den


def test_each_model_gets_its_own_r_and_k():
    # all variants at the same x, twice over: a form cache whose key
    # missed a constant would hand one variant another's compiled form
    x = F(5, 3)
    for _ in range(2):
        for mdl in _VARIANTS:
            assert ex.r_matrix(mdl, x) == SparseMatrix(m._r_matrix(mdl, x)), mdl
            for kind, evaluate in m._K_FORMS.items():
                assert ex.k_matrix(mdl, kind, x) == SparseMatrix(evaluate(mdl, x)), \
                    (mdl, kind)
    asep_q2 = _VARIANTS[1]
    assert ex.r_matrix(_ASEP, x) != ex.r_matrix(asep_q2, x)
    for other in _VARIANTS[2:6]:     # one rate changed
        assert any(ex.k_matrix(_ASEP, kind, x) != ex.k_matrix(other, kind, x)
                   for kind in m._K_FORMS)


_point = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_twist = st.fractions(min_value=-3, max_value=3,
                      max_denominator=5).filter(bool)


def _known_poles(model) -> list:
    """Points where a closed form of the model divides by zero, at some
    rates or at all."""
    if model.name == "asep":
        q = model.q
        return [1 / q, -1 / q, F(0)]
    if model.name == "ssep":
        return [F(-1), F(-1, 2), F(0)]
    if model.name == "rd":
        k = model.kappa
        return [(1 - k) / (1 + k), (1 + k) / (1 - k), F(0),
                (k - 1) / (k + 1), -(k - 1) / (k + 1)]
    return [F(0), F(1)]


def _outcome(f):
    """f() or, where it raises a ZeroDivisionError (PoleError included),
    the error's class and text."""
    try:
        return f()
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore:negative rate")
@settings(max_examples=200, deadline=None)
@given(st.one_of(*MODELS.values(), *SIGNED_MODELS.values()), st.data(),
       _twist)
def test_dual_points_give_the_split_closed_form(model, data, tau):
    # the compiled forms of R, K, Kbar, Ktilde and the twisted K are the
    # closed forms: at a rational x (ints, 0, +-1 and the known poles
    # drawn too) the same (shape, _rows, den) as SparseMatrix(closed rows),
    # or the same error class and text; with derivative the pair equals
    # the closed-form rows at the dual point x + eps, split entry by entry
    x = data.draw(st.one_of(
        _point, st.integers(-4, 4), st.sampled_from(_known_poles(model))))
    cases = [(lambda z, d: ex.r_matrix(model, z, d),
              lambda z: closed_rows(model, "R", z))]
    cases += [(lambda z, d, kind=kind: ex.k_matrix(model, kind, z, d),
               lambda z, kind=kind: closed_rows(model, kind, z))
              for kind in m._K_FORMS]
    if model.name == "asep":
        cases.append((ex.general_asep_k(model.alpha, model.gamma, model.q,
                                        tau),
                      lambda z: twisted_k_rows(model, tau, z)))
    for f, rows_of in cases:
        want = _outcome(lambda: SparseMatrix(rows_of(F(x))))
        got = _outcome(lambda: f(x, False))
        if isinstance(want, tuple):
            assert got == want
            assert _outcome(lambda: f(x, True)) == want
            with pytest.raises(ZeroDivisionError):
                rows_at(rows_of, F(x), derivative=True)
            continue
        assert _table(got) == _table(want)
        pair = f(x, True)
        assert _table(pair[0]) == _table(want)
        assert pair == rows_at(rows_of, F(x), derivative=True)
        assert [_table(P) for P in pair] == \
            [_table(P) for P in rows_at(rows_of, F(x), derivative=True)]


def test_an_int_point_gives_the_fraction_point_values(all_models):
    # a bare int x is read as its Fraction: the same table
    kinds = ("R", "K", "Kbar", "Ktilde")

    def build(mdl, kind, x):
        return ex.r_matrix(mdl, x) if kind == "R" else \
            ex.k_matrix(mdl, kind, x)

    for mdl in all_models:
        for x in (2, 3, 4, -2):
            assert [_table(build(mdl, kind, x)) for kind in kinds] == \
                [_table(build(mdl, kind, F(x))) for kind in kinds], \
                (mdl.name, x)


def test_the_dual_maps_read_an_int_point_as_its_fraction():
    # at a bare int x the maps invert x themselves: 1/4, not 0.25
    for mdl in (_ASEP, _RD, ex.ssep(F(1, 2), F(2, 3), F(1, 3), F(1, 5))):
        for f in (ex.ktilde_from_kbar, ex.kbar_from_ktilde):
            assert f(mdl, 4) == f(mdl, F(4)), (mdl.name, f.__name__)


def test_a_point_that_is_no_rational_is_refused():
    with pytest.raises(TypeError, match="not an exact rational"):
        ex.r_matrix(_ASEP, 0.5)


def test_poles_are_never_cached():
    # a pole raises on every call, its value and its derivative alike, and
    # leaves the compiled form as it was
    ssep = ex.ssep(F(1, 2), F(2, 3), F(1, 3), F(1, 5))
    before = [(ex.r_matrix(ssep, F(2)), ex.k_matrix(_RD, "Ktilde", F(2)))]
    for _ in range(3):
        for derivative in (False, True):
            with pytest.raises(PoleError, match="x \\+ 1 vanishes"):
                ex.r_matrix(ssep, F(-1), derivative)
            with pytest.raises(PoleError,
                               match="^Ktilde undefined at x=0"):
                ex.k_matrix(_RD, "Ktilde", F(0), derivative)
    after = [(ex.r_matrix(ssep, F(2)), ex.k_matrix(_RD, "Ktilde", F(2)))]
    assert [tuple(map(_table, p)) for p in after] == \
        [tuple(map(_table, p)) for p in before]


def test_the_caches_are_bounded():
    # the compiled forms are kept for the models used last, one per (model,
    # kind): a model seen again finds its form, and the cache stays bounded
    size = m._forms.cache_parameters()["maxsize"]
    forms = m._forms(_ASEP)
    ex.r_matrix(_ASEP, F(2))
    assert m._forms(_ASEP) is forms and "R" in forms
    for i in range(size + 10):
        ex.r_matrix(_ASEP._replace(q=F(2 * i + 3, 2)), F(5))
    assert m._forms.cache_info().currsize == size
