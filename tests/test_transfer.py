import operator
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import exclusion as ex
import exclusion.markov as mk
import exclusion.models as m
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.scalars import Dual, format_rational
from exclusion.tensor import Matrix, PoleError, SparseMatrix, \
    embed_at_positions, partial_trace_first
from strategies import MODELS


def _oracle_transfer(spec, x):
    """t(x) as the ordered product of the embedded factors over Fraction (or
    Dual) entries, traced over the auxiliary space: no integer assembly."""
    model, conv, L = spec.model, spec.model.convention, spec.L
    factors = [((0,), m.k_matrix(model, "Ktilde", x))]
    factors += [((0, j), m.r_matrix(model, conv.compose(x, spec.thetas[j - 1])))
                for j in range(L, 0, -1)]
    factors.append(((0,), m.k_matrix(model, "K", x)))
    factors += [((j, 0), m.r_matrix(model,
                                    conv.reflect_compose(x, spec.thetas[j - 1])))
                for j in range(1, L + 1)]
    return partial_trace_first(reduce(operator.mul, (
        embed_at_positions(f, positions, L + 1) for positions, f in factors)))


def test_transfer_identity_point_is_identity(all_models):
    for mdl in all_models:
        spec = tr.TransferSpec(mdl, 1)
        t = tr.build_transfer(spec, mdl.identity_point)
        assert t == SparseMatrix.identity(2)


def test_trace_normalization_is_one(all_models):
    for mdl in all_models:
        kt = ex.k_matrix(mdl, "Ktilde", mdl.identity_point)
        assert kt.trace() == 1


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
    t_back = tr.build_transfer(spec, x).scale((lam_x - 1) * (lam_p - 1))
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
    # both R_0j have the pole; R_02 comes first in the product
    ((F(6), F(6)), F(3), "transfer factor R_02: q*x - 1 vanishes at x=1/2"),
    ((F(1, 6), F(1, 6)), F(3),
     "transfer factor R_10: q*x - 1 vanishes at x=1/2"),
    ((F(1, 6), F(1, 6)), Dual(3, 1),
     "transfer factor R_10: q*x - 1 vanishes at x=Dual(1/2, 1/6)"),
])
def test_transfer_pole_is_named_in_product_order(asep_model, thetas, x,
                                                 message):
    # q = 2: the factors are evaluated in product order, and the first one
    # with a pole is named
    spec = tr.TransferSpec(asep_model, 2, thetas)
    with pytest.raises(PoleError) as err:
        tr.build_transfer(spec, x)
    assert str(err.value) == message


def test_lambda_eigenvalue_pole_raises_pole_error(asep_model):
    with pytest.raises(PoleError):
        tr.lambda_eigenvalue(asep_model, 1 / asep_model.q, (F(1),) * 2)


def test_rd_inhomogeneous_eigenvector(rd_model):
    import exclusion.ansatz as an
    thetas = (F(3), F(5))
    state, meta = an.rd_inhomogeneous_converged(rd_model, thetas)
    assert meta["converged"]
    spec = tr.TransferSpec(rd_model, 2, thetas)
    tol = F(1, 10 ** 10)
    for x in (F(3), F(1, 3), F(5), F(1, 5)):
        rep = tr.check_eigenpair(spec, x, state, eigenvalue=F(1), tolerance=tol)
        assert rep.status == vf.PASS, (x, rep)


_point = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_build_transfer_equals_the_fraction_product(name, data):
    # the integer assembly gives the same exact t(x), and at the identity
    # point the same exact derivative, as the Fraction (Dual) product
    mdl = data.draw(MODELS[name])
    L = data.draw(st.integers(1, 3))
    spec = tr.TransferSpec(mdl, L, data.draw(st.lists(_point, min_size=L,
                                                      max_size=L)))
    for x in (data.draw(_point), Dual.variable(mdl.identity_point)):
        try:
            want = _oracle_transfer(spec, x)
        except PoleError:
            with pytest.raises(PoleError):
                tr.build_transfer(spec, x)
            continue
        got = tr.build_transfer(spec, x)
        assert got == want
        kind = Dual if isinstance(x, Dual) else F
        assert all(isinstance(v, kind) for _, _, v in got.items())


def test_commutation_fail_witness_is_the_fraction_entry(ssep_model,
                                                        monkeypatch):
    # a wrong K breaks the reflection equation, so t(x) and t(x2) no longer
    # commute; the witness is the first mismatch of the Fraction products
    real = m.k_matrix

    def wrong_k(model, kind, x):
        k = real(model, kind, x)
        if kind != "K":
            return k
        return Matrix([[k[0, 0], k[0, 1] + 1], [k[1, 0], k[1, 1]]])

    monkeypatch.setattr(m, "k_matrix", wrong_k)
    spec = tr.TransferSpec(ssep_model, 2, (F(1, 2), F(2, 3)))
    x, x2 = F(2), F(7, 3)
    rep = tr.check_commutation(spec, x, x2)
    assert rep.status == vf.FAIL
    t1, t2 = _oracle_transfer(spec, x), _oracle_transfer(spec, x2)
    lhs, rhs = (t1 * t2).to_dense(), (t2 * t1).to_dense()
    r, c = next((r, c) for r in range(lhs.rows) for c in range(lhs.cols)
                if lhs[r, c] != rhs[r, c])
    assert rep.witness == {"row": r, "col": c,
                           "lhs": format_rational(lhs[r, c]),
                           "rhs": format_rational(rhs[r, c])}
    assert F(rep.witness["lhs"]).denominator > 1


# the CLI's default rates: ASEP q = 2 and SSEP, alpha = beta = 1, gamma =
# delta = 0; ASEP at q = -1 for a pole at the identity point
_ASEP, _SSEP = ex.asep(2, 1, 1, 0, 0), ex.ssep(1, 1, 0, 0)


@pytest.mark.filterwarnings("ignore:negative rate")
@pytest.mark.parametrize("check, error", [
    # Ktilde at x = 1/q
    (lambda: tr.check_commutation(tr.TransferSpec(_ASEP, 2), F(3), F(1, 2)),
     PoleError),
    (lambda: tr.markov_from_transfer(ex.asep(-1, 1, 1, 0, 0), 2), PoleError),
    # lambda at x = 1/q
    (lambda: tr.check_eigenpair(tr.TransferSpec(_ASEP, 1), F(1, 2),
                                [F(1), F(1)]), PoleError),
    (lambda: tr.check_eigenpair(tr.TransferSpec(_SSEP, 1), F(-1), [F(1), F(1)],
                                eigenvalue=F(1)), PoleError),
    # the partner point 1/(q x) at x = 0
    (lambda: tr.check_crossing_symmetry_t(tr.TransferSpec(_ASEP, 2), F(0)),
     ZeroDivisionError),
    (lambda: tr.check_crossing_symmetry_t(tr.TransferSpec(_SSEP, 2), F(-1)),
     PoleError),
    # the closed form of D at x = -1/(alpha + gamma)
    (lambda: tr.ssep_conjugated(tr.TransferSpec(_SSEP, 2), F(-1)),
     ZeroDivisionError),
], ids=["commutation", "markov-derivative", "eigenpair-lambda",
        "eigenpair-t", "crossing-partner", "crossing-lambda", "conjugated"])
def test_transfer_checks_raise_at_a_pole(check, error):
    with pytest.raises(ZeroDivisionError) as exc:
        check()
    assert exc.type is error


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
