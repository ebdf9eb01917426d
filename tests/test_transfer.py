from fractions import Fraction as F

import pytest

import exclusion as ex
import exclusion.markov as mk
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.tensor import Matrix, PoleError, SparseMatrix


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
        tr.build_transfer(spec, F(1, 2))  # q x = 1 in the R factors
    assert "factor" in str(err.value)


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
