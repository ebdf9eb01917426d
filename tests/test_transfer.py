import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import exclusion as ex
import exclusion.markov as mk
import exclusion.models as m
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.scalars import format_rational
from exclusion.tensor import PoleError, SparseMatrix
from reference import entries, fraction_product, split, transfer_factors, \
    transfer_product
from strategies import MODELS


def test_transfer_identity_point_is_identity(all_models):
    for mdl in all_models:
        spec = tr.TransferSpec(mdl, 1)
        t = tr.build_transfer(spec, mdl.identity_point)
        assert t == SparseMatrix.identity(2)


def test_trace_normalization_is_one(all_models):
    for mdl in all_models:
        kt = ex.k_matrix(mdl, "Ktilde", mdl.identity_point)
        assert kt.get(0, 0) + kt.get(1, 1) == 1


def test_markov_from_transfer(all_models):
    for mdl in all_models:
        for L in (1, 2, 3):
            rep = tr.markov_from_transfer(mdl, L)
            assert rep.status == vf.PASS, (mdl.name, L, rep.witness)


def test_commutation_examples(ssep_model, tasep_model):
    assert tr.check_commutation(tr.TransferSpec(ssep_model, 2),
                                F(2), F(3)).status == vf.PASS
    assert tr.check_commutation(tr.TransferSpec(tasep_model, 3),
                                F(2), F(5)).status == vf.PASS
    assert tr.check_commutation(tr.TransferSpec(tasep_model, 2),
                                F(2), F(2)).status == vf.PASS


def test_commutation_inhomogeneous(asep_model):
    spec = tr.TransferSpec(asep_model, 2, (F(3, 2), F(2, 5)))
    assert tr.check_commutation(spec, F(7, 3), F(9, 4)).status == vf.PASS


def test_lambda_at_theta_is_one(ssep_model, asep_model):
    thetas = (F(1, 3), F(2, 5))
    assert tr.lambda_eigenvalue(ssep_model, F(1, 3), thetas) == 1
    assert tr.lambda_eigenvalue(ssep_model, F(-1, 3), thetas) == 1
    a_thetas = (F(3, 2), F(2, 5))
    assert tr.lambda_eigenvalue(asep_model, F(3, 2), a_thetas) == 1
    assert tr.lambda_eigenvalue(asep_model, F(2, 3), a_thetas) == 1  # 1/theta_1


def test_lambda_ssep_symmetry_identity(ssep_model):
    thetas = (F(1, 2), F(2, 3))
    for x in (F(3), F(5, 2)):
        l1 = tr.lambda_eigenvalue(ssep_model, x, thetas)
        l2 = tr.lambda_eigenvalue(ssep_model, -x - 1, thetas)
        assert l1 + l2 == l1 * l2


def test_left_eigenvector(ssep_model, asep_model):
    for mdl, thetas in ((ssep_model, (F(1, 2), F(2, 3))),
                        (asep_model, (F(3, 2), F(2, 5)))):
        spec = tr.TransferSpec(mdl, 2, thetas)
        for x in (F(3), F(9, 4)):
            assert tr.left_eigen_ones(spec, x).status == vf.PASS


def test_right_eigenvector_homogeneous(ssep_model, asep_model):
    for mdl in (ssep_model, asep_model):
        for L in (2, 4):
            spec = tr.TransferSpec(mdl, L)
            pi = mk.steady_state_exact(ex.build_markov(mdl, L)).probabilities()
            for x in (F(3), F(7, 2)):
                assert tr.check_eigenpair(spec, x, pi).status == vf.PASS


def test_right_eigenvector_inhomogeneous(ssep_model):
    spec = tr.TransferSpec(ssep_model, 2, (F(1, 2), F(2, 3)))
    v = tr.eigenvector_from_nullspace(spec, F(2))
    for x in (F(3), F(4)):
        assert tr.check_eigenpair(spec, x, v).status == vf.PASS


def test_crossing_symmetry(ssep_model, asep_model):
    spec_s = tr.TransferSpec(ssep_model, 1, (F(1, 2),))
    assert tr.check_crossing_symmetry_t(spec_s, F(2)).status == vf.PASS
    spec_a = tr.TransferSpec(asep_model, 2, (F(3, 2), F(2, 5)))
    assert tr.check_crossing_symmetry_t(spec_a, F(3)).status == vf.PASS


def test_crossing_applied_twice_is_identity(ssep_model):
    thetas = (F(1, 2), F(2, 3))
    spec = tr.TransferSpec(ssep_model, 2, thetas)
    x = F(3)
    t1 = tr.build_transfer(spec, x)
    lam_x = tr.lambda_eigenvalue(ssep_model, x, thetas)
    lam_p = tr.lambda_eigenvalue(ssep_model, -x - 1, thetas)
    t_back = t1.scale((lam_x - 1) * (lam_p - 1))
    assert t_back == t1  # needs (lam(x)-1)(lam(-x-1)-1) = 1


def test_ssep_conjugated(ssep_model):
    spec = tr.TransferSpec(ssep_model, 2, (F(1, 2), F(2, 3)))
    reports = tr.ssep_conjugated(spec, F(3))
    assert [r.status for r in reports] == [vf.PASS] * 3
    names = [r.check for r in reports]
    assert names == ["conjugated.D", "conjugated.Dtilde", "conjugated.scalar"]


def test_ssep_conjugated_dtilde_value():
    # beta=1, delta=1/2 per the worked example
    mdl = ex.ssep(1, 1, F(0), F(1, 2))
    spec = tr.TransferSpec(mdl, 1)
    reports = tr.ssep_conjugated(spec, F(2))
    by = {r.check: r for r in reports}
    assert by["conjugated.Dtilde"].status == vf.PASS
    assert by["conjugated.D"].status == vf.PASS


def test_ssep_conjugated_requires_invertible_gamma():
    with pytest.warns(UserWarning):  # beta + delta = 0 needs a negative rate
        mdl = ex.ssep(1, F(1, 2), F(1, 3), F(-1, 2))
    spec = tr.TransferSpec(mdl, 1)
    with pytest.raises(ValueError):
        tr.ssep_conjugated(spec, F(2))


def test_transfer_pole_names_factor(asep_model):
    spec = tr.TransferSpec(asep_model, 2)
    with pytest.raises(PoleError) as err:
        tr.build_transfer(spec, F(1, 2))  # q^2 x^2 = 1 at q = 2
    assert str(err.value) == \
        "transfer factor Ktilde_0: q^2 x^2 - 1 vanishes at x=1/2"


@pytest.mark.parametrize("thetas, x, message", [
    # both R_0j have the pole; R_02 comes first in the product.  x is the
    # point and whether t'(x) is asked for too
    ((F(6), F(6)), (F(3), False),
     "transfer factor R_02: q*x - 1 vanishes at x=1/2"),
    ((F(1, 6), F(1, 6)), (F(3), False),
     "transfer factor R_10: q*x - 1 vanishes at x=1/2"),
    ((F(1, 6), F(1, 6)), (F(3), True),
     "transfer factor R_10: q*x - 1 vanishes at x=1/2"),
])
def test_transfer_pole_is_named_in_product_order(asep_model, thetas, x,
                                                 message):
    # q = 2: the factors are evaluated in product order, and the first one
    # with a pole is named
    spec = tr.TransferSpec(asep_model, 2, thetas)
    with pytest.raises(PoleError) as err:
        tr.build_transfer(spec, *x)
    assert str(err.value) == message


def test_a_zero_theta_fails_before_its_factor_is_drawn(asep_model):
    # x / theta is formed before R_0j is evaluated, so the division by a
    # zero inhomogeneity is not named as a pole of that factor
    spec = tr.TransferSpec(asep_model, 2, (F(0), F(2)))
    for derivative in (False, True):
        with pytest.raises(ZeroDivisionError) as err:
            tr.build_transfer(spec, F(3), derivative)
        assert type(err.value) is ZeroDivisionError
        assert not str(err.value).startswith("transfer factor")


def test_lambda_eigenvalue_pole_raises_pole_error(asep_model):
    with pytest.raises(PoleError):
        tr.lambda_eigenvalue(asep_model, 1 / asep_model.q, (F(1),) * 2)


def test_rd_inhomogeneous_eigenvector(rd_model):
    import exclusion.ansatz as an
    thetas = (F(3), F(5))
    state = an.inhomogeneous_state(rd_model, thetas)
    spec = tr.TransferSpec(rd_model, 2, thetas)
    for x in (F(3), F(1, 3), F(5), F(1, 5)):
        rep = tr.check_eigenpair(spec, x, state, eigenvalue=F(1))
        assert rep.status == vf.PASS, (x, rep)


_point = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


def _matches_the_fraction_product(spec, x, derivative=False):
    """Assert that the integer tables over their denominator give the same
    exact t(x), and with derivative the same exact t'(x), as the Fraction
    product (over dual numbers for t'), and that den is the product of the
    per-factor lcms, so that N itself is pinned, not only N / den.  False
    where both meet a pole."""
    try:
        want = transfer_product(spec, x, derivative)
    except ZeroDivisionError:
        with pytest.raises(PoleError):
            tr.build_transfer(spec, x, derivative)
        return False
    got = tr.build_transfer(spec, x, derivative)
    den = math.prod(
        math.lcm(*(e.denominator for part in split(f)
                   for row in part for e in row))
        for _, f in transfer_factors(spec, x, derivative))
    tables = got if derivative else (got,)
    parts = want if derivative else (want,)
    assert len(tables) == len(parts)
    for t, part in zip(tables, parts):
        assert t.den == den
        assert all(type(v) is int for row in t._rows.values()
                   for v in row.values())
        assert t == part
    return True


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_build_transfer_equals_the_fraction_product(name, data):
    mdl = data.draw(MODELS[name])
    L = data.draw(st.integers(1, 4))
    spec = tr.TransferSpec(mdl, L, data.draw(st.lists(_point, min_size=L,
                                                      max_size=L)))
    _matches_the_fraction_product(spec, data.draw(_point))
    _matches_the_fraction_product(spec, mdl.identity_point, derivative=True)


def test_build_transfer_at_l5_equals_the_fraction_product(all_models):
    for mdl in all_models:
        spec = tr.TransferSpec(mdl, 5)
        assert _matches_the_fraction_product(spec, F(2))
        assert _matches_the_fraction_product(spec, mdl.identity_point,
                                             derivative=True)
    spec = tr.TransferSpec(all_models[0], 5, (F(2), F(-1, 3), F(5, 2), F(3),
                                              F(3, 7)))
    assert _matches_the_fraction_product(spec, F(3, 5))


def _unless_pole(fn, *args):
    """fn(*args), or None where it meets a pole of t(x) or lambda(x)."""
    try:
        return fn(*args)
    except PoleError:
        return None


def _thetas(L):
    """A homogeneous chain (None) or L random inhomogeneities."""
    return st.none() | st.lists(_point, min_size=L, max_size=L)


@pytest.mark.parametrize("name", ["asep", "ssep"])
@settings(max_examples=40, deadline=2000)
@given(data=st.data())
def test_eigenvalue_formulas_at_random_rates(name, data):
    # acceptance 04 at random nonnegative rates, L <= 3: lambda(theta_i) = 1,
    # t(x) v = lambda(x) v for the eigenvector v found at x0, <1| t(x) =
    # lambda(x) <1| and the crossing relation.  A drawn point at a pole
    # checks nothing, and an example where every point does is rejected
    mdl = data.draw(MODELS[name])
    L = data.draw(st.integers(1, 3))
    spec = tr.TransferSpec(mdl, L, data.draw(_thetas(L)))
    for t in spec.thetas:
        assert _unless_pole(tr.lambda_eigenvalue, mdl, t, spec.thetas) in \
            (None, 1), t
    try:
        vector = tr.eigenvector_from_nullspace(spec, data.draw(_point))
    except (PoleError, ValueError):   # x0 a pole, or no unique eigenvector
        vector = None
    reports = []
    for x in data.draw(st.lists(_point, min_size=1, max_size=3)):
        reports += [_unless_pole(tr.left_eigen_ones, spec, x),
                    _unless_pole(tr.check_crossing_symmetry_t, spec, x)]
        if vector is not None:
            reports.append(_unless_pole(tr.check_eigenpair, spec, x, vector))
    reports = [r for r in reports if r is not None]
    assume(reports)
    assert [r for r in reports if r.status != vf.PASS] == []


@settings(max_examples=40, deadline=2000)
@given(MODELS["ssep"], st.integers(1, 2), st.data())
def test_ssep_conjugated_at_random_rates(mdl, L, data):
    # acceptance 08 at random nonnegative rates, L <= 2: triangular D(x),
    # diagonal Dtilde(x) and <-| ts(x) |-> = lambda(x)
    assume(mdl.beta + mdl.delta != 0)     # else Gamma is singular
    spec = tr.TransferSpec(mdl, L, data.draw(_thetas(L)))
    reports = _unless_pole(tr.ssep_conjugated, spec, data.draw(_point))
    assume(reports is not None)
    assert [r.check for r in reports] == ["conjugated.D", "conjugated.Dtilde",
                                          "conjugated.scalar"]
    assert [r for r in reports if r.status != vf.PASS] == []


def test_commutation_fail_witness_is_the_fraction_entry(ssep_model,
                                                        monkeypatch):
    # a wrong K breaks the reflection equation, so t(x) and t(x2) no longer
    # commute; the witness is the first mismatch of the Fraction products
    real = m.k_matrix

    def wrong_k(model, kind, x, derivative=False):
        k = real(model, kind, x, derivative)
        if kind != "K":
            return k
        return k + SparseMatrix([[0, 1], [0, 0]])

    monkeypatch.setattr(m, "k_matrix", wrong_k)
    spec = tr.TransferSpec(ssep_model, 2, (F(1, 2), F(2, 3)))
    x, x2 = F(2), F(7, 3)
    rep = tr.check_commutation(spec, x, x2)
    assert rep.status == vf.FAIL
    t1, t2 = (entries(transfer_product(spec, y)) for y in (x, x2))
    lhs, rhs = fraction_product(t1, t2), fraction_product(t2, t1)
    r, c = next((r, c) for r, row in enumerate(lhs) for c in range(len(row))
                if lhs[r][c] != rhs[r][c])
    assert rep.witness == {"row": r, "col": c,
                           "lhs": format_rational(lhs[r][c]),
                           "rhs": format_rational(rhs[r][c])}
    assert F(rep.witness["lhs"]).denominator > 1


def test_crossing_fail_witness_is_the_fraction_entry(asep_model,
                                                     monkeypatch):
    # a wrong lambda breaks the crossing relation; the witness is the first
    # mismatch of t(x) and (lambda - 1) t(1/qx) over Fractions
    real = tr.lambda_eigenvalue
    monkeypatch.setattr(tr, "lambda_eigenvalue",
                        lambda *args: real(*args) + F(1, 7))
    spec = tr.TransferSpec(asep_model, 2, (F(3, 2), F(2, 5)))
    x = F(3)
    rep = tr.check_crossing_symmetry_t(spec, x)
    assert rep.status == vf.FAIL
    lam = real(asep_model, x, spec.thetas) + F(1, 7)
    lhs = entries(transfer_product(spec, x))
    rhs = [[(lam - 1) * v for v in row] for row in
           entries(transfer_product(spec, 1 / (asep_model.q * x)))]
    r, c = next((r, c) for r, row in enumerate(lhs) for c in range(len(row))
                if lhs[r][c] != rhs[r][c])
    assert rep.witness == {"row": r, "col": c,
                           "lhs": format_rational(lhs[r][c]),
                           "rhs": format_rational(rhs[r][c])}
    assert F(rep.witness["rhs"]).denominator > 1


# the CLI's default rates: ASEP q = 2 and SSEP, alpha = beta = 1, gamma =
# delta = 0; ASEP at q = -1 for a pole at the identity point
_ASEP, _SSEP = ex.asep(2, 1, 1, 0, 0), ex.ssep(1, 1, 0, 0)


@pytest.mark.filterwarnings("ignore:negative rate")
@pytest.mark.parametrize("check", [
    # Ktilde at x = 1/q
    lambda: tr.check_commutation(tr.TransferSpec(_ASEP, 2), F(3), F(1, 2)),
    lambda: tr.markov_from_transfer(ex.asep(-1, 1, 1, 0, 0), 2),
    # lambda at x = 1/q
    lambda: tr.check_eigenpair(tr.TransferSpec(_ASEP, 1), F(1, 2),
                               [F(1), F(1)]),
    lambda: tr.check_eigenpair(tr.TransferSpec(_SSEP, 1), F(-1), [F(1), F(1)],
                               eigenvalue=F(1)),
    # the partner point 1/(q x) at x = 0
    lambda: tr.check_crossing_symmetry_t(tr.TransferSpec(_ASEP, 2), F(0)),
    lambda: tr.check_crossing_symmetry_t(tr.TransferSpec(_SSEP, 2), F(-1)),
    # K, and the closed form of D, at x = -1/(alpha + gamma)
    lambda: tr.ssep_conjugated(tr.TransferSpec(_SSEP, 2), F(-1)),
], ids=["commutation", "markov-derivative", "eigenpair-lambda",
        "eigenpair-t", "crossing-partner", "crossing-lambda", "conjugated"])
def test_transfer_checks_raise_at_a_pole(check):
    # a PoleError, never a bare ZeroDivisionError
    with pytest.raises(ZeroDivisionError) as exc:
        check()
    assert exc.type is PoleError


def test_structural_skips_stay_reports(tasep_model, asep_model):
    spec = tr.TransferSpec(tasep_model, 2)
    assert tr.check_crossing_symmetry_t(spec, F(3)).status == vf.SKIPPED
    conj = tr.ssep_conjugated(tr.TransferSpec(asep_model, 2), F(3))
    assert [r.status for r in conj] == [vf.SKIPPED]


def test_eigenvector_of_a_homogeneous_chain_is_the_stationary_state(
        asep_model):
    spec = tr.TransferSpec(asep_model, 3)
    pi = mk.steady_state_exact(ex.build_markov(asep_model, 3)).probabilities()
    assert tr.eigenvector_from_nullspace(spec, F(5)) == pi
    assert tr.check_right_eigenvector(spec, F(3), F(5)).status == vf.PASS


def test_rd_inhomogeneous_check_is_the_rd_check(asep_model):
    spec = tr.TransferSpec(asep_model, 2, (F(2), F(5)))
    with pytest.raises(m.UnsupportedError, match="is the RD check"):
        tr.check_rd_inhomogeneous_eigenvector(spec)
