import copy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import exclusion as ex
import exclusion.ansatz as an
import exclusion.models as m
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.sampling import model_safe, pair_safe, sample_points
from exclusion.scalars import format_rational
from exclusion.tensor import SparseMatrix
from reference import embed_rows, entries, entry, rows_apply, \
    rows_apply_left, rows_product, sparse_rows, transfer_product
from strategies import MODELS


def all_pass(reports):
    bad = [r for r in reports if r.status == vf.FAIL]
    assert not bad, bad
    return reports


def test_yang_baxter_examples(ssep_model, rd_model):
    assert vf.run(ssep_model, vf.yang_baxter(
        ssep_model, F(5), F(3), F(2)))[0].status == vf.PASS
    assert vf.run(ssep_model, vf.yang_baxter(
        ssep_model, F(5), F(5), F(2)))[0].status == vf.PASS
    assert vf.run(rd_model, vf.yang_baxter(
        rd_model, F(2), F(3), F(5)))[0].status == vf.PASS


def test_yang_baxter_pole_is_skipped(ssep_model):
    rep = vf.run(ssep_model, vf.yang_baxter(ssep_model, F(2), F(3), F(7)))[0]
    assert rep.status == vf.SKIPPED  # x1 - x3 = -1 is an R pole
    assert "pole" in rep.reason


def test_r_properties(asep_model):
    reports = all_pass(vf.run(asep_model, vf.r_properties(asep_model, F(3))))
    names = {r.check for r in reports}
    assert names == {"r.regularity", "r.unitarity", "r.crossing",
                     "r.local_jump", "r.markov_left", "r.markov_vector"}


def test_r_unitarity_value(asep_model):
    R = ex.r_matrix(asep_model, F(3))
    from exclusion.models import r_matrix_swapped
    assert R * r_matrix_swapped(asep_model, F(1, 3)) == SparseMatrix.identity(4)


def test_r_properties_tasep_crossing_skipped(tasep_model):
    reports = vf.run(tasep_model, vf.r_properties(tasep_model, F(3)))
    by = {r.check: r for r in reports}
    assert by["r.crossing"].status == vf.SKIPPED
    assert "partial transpose" in by["r.crossing"].reason
    assert by["r.unitarity"].status == vf.PASS


def test_r_properties_rd_markov_vector_skipped(rd_model):
    by = {r.check: r
          for r in vf.run(rd_model, vf.r_properties(rd_model, F(2)))}
    assert by["r.markov_vector"].status == vf.SKIPPED


def test_reflection(ssep_model, asep_model, rd_model, tasep_model):
    assert vf.run(ssep_model, vf.reflection(
        ssep_model, "K", F(2), F(5)))[0].status == vf.PASS
    assert vf.run(ssep_model, vf.reflection(
        ssep_model, "K", F(2), F(2)))[0].status == vf.PASS
    assert vf.run(asep_model, vf.reflection(
        asep_model, "Kbar", F(2), F(3)))[0].status == vf.PASS
    assert vf.run(rd_model, vf.reflection(
        rd_model, "K", F(2), F(3)))[0].status == vf.PASS
    assert vf.run(rd_model, vf.reflection(
        rd_model, "Ktilde", F(3, 2), F(5, 3)))[0].status == vf.PASS
    assert vf.run(tasep_model, vf.reflection(
        tasep_model, "Ktilde", F(2), F(3)))[0].status == vf.SKIPPED


def test_reflection_pole_pair_is_skipped(ssep_model):
    # x1 - x2 = -1 is an R-matrix pole: visible as Skipped, never Fail
    rep = vf.run(ssep_model, vf.reflection(ssep_model, "K", F(2), F(3)))[0]
    assert rep.status == vf.SKIPPED


def test_reflection_twisted(asep_model):
    kf = ex.general_asep_k(asep_model.alpha, asep_model.gamma, asep_model.q, 2)
    assert vf.run(asep_model, vf.reflection(
        asep_model, "K", F(2), F(3), kf))[0].status == vf.PASS


def test_reflection_identity_k_regression(ssep_model):
    kf = lambda x: SparseMatrix.identity(2)
    assert vf.run(ssep_model, vf.reflection(
        ssep_model, "K", F(2), F(5), kf))[0].status == vf.PASS


def test_k_properties(ssep_model, rd_model):
    all_pass(vf.run(ssep_model, vf.k_properties(ssep_model, "K", F(3))))
    all_pass(vf.run(ssep_model, vf.k_properties(ssep_model, "Kbar", F(3))))
    all_pass(vf.run(rd_model, vf.k_properties(rd_model, "K", F(2))))
    all_pass(vf.run(rd_model, vf.k_properties(rd_model, "Kbar", F(2))))


def test_k_properties_twisted_markov_skipped(asep_model):
    reports = vf.run(asep_model,
                     vf.k_properties(asep_model, "K", F(3), twist=F(2)))
    by = {r.check: r for r in reports}
    assert by["k.K.unitarity"].status == vf.PASS
    assert by["k.K.regularity"].status == vf.PASS
    assert by["k.K.boundary_jump"].status == vf.PASS
    assert by["k.K.markov_left"].status == vf.SKIPPED
    assert by["k.K.markov_u"].status == vf.SKIPPED


def test_twisted_k_breaks_markov_property(asep_model):
    kf = ex.general_asep_k(asep_model.alpha, asep_model.gamma, asep_model.q, 2)
    K = kf(F(3))
    ones = [F(1), F(1)]
    got = [K.get(0, j) + K.get(1, j) for j in range(2)]
    assert got != ones


def test_k_markov_u_dimension(all_models):
    for mdl in all_models:
        x = sample_points(mdl, 1, seed=9)[0]
        assert vf._u_solution_dim(mdl, lambda z: ex.k_matrix(mdl, "K", z),
                                  vf._u_points(mdl, x)) >= 1


def test_named_symmetries(ssep_model, asep_model, rd_model):
    all_pass(vf.run(ssep_model, vf.named_symmetries(ssep_model, F(3))))
    all_pass(vf.run(asep_model, vf.named_symmetries(asep_model, F(3))))
    reports = vf.run(rd_model, vf.named_symmetries(rd_model, F(3)))
    assert all(r.status == vf.SKIPPED for r in reports)


def test_named_symmetry_rows(ssep_model, asep_model):
    names_s = {r.check for r in
               vf.run(ssep_model, vf.named_symmetries(ssep_model, F(2)))}
    assert {"symmetry.pt", "symmetry.crossing", "symmetry.ktilde_crossing",
            "symmetry.duality", "symmetry.swap"} == names_s
    names_a = {r.check for r in
               vf.run(asep_model, vf.named_symmetries(asep_model, F(2)))}
    assert {"symmetry.t", "symmetry.p_v", "symmetry.p_w", "symmetry.z2",
            "symmetry.crossing", "symmetry.ktilde_crossing",
            "symmetry.duality"} == names_a


def test_dual_maps(asep_model, tasep_model):
    assert all(r.status == vf.PASS
               for r in vf.run(asep_model, vf.dual_maps(asep_model, F(3))))
    assert all(r.status == vf.SKIPPED
               for r in vf.run(tasep_model, vf.dual_maps(tasep_model, F(3))))


def test_fail_report_carries_witness(ssep_model):
    # deliberately wrong K must produce a Fail with the offending entry
    bad = lambda x: SparseMatrix([[1 + x, 0], [0, 1]])
    rep = vf.run(ssep_model, vf.reflection(ssep_model, "K", F(2), F(5), bad))[0]
    assert rep.status == vf.FAIL
    assert set(rep.witness) == {"row", "col", "lhs", "rhs"}


def _over_another_den(M):
    """M held over a denominator 35 times the lcm of its entries'."""
    return M.scale(F(5, 7)).scale(F(7, 5))


def test_compare_witness_is_the_same_for_dense_sparse_and_row(ssep_model):
    # one wrong pair, given as a matrix over the lcm of its entries'
    # denominators or over another one, or as the 1 x n row of a vector:
    # the first mismatch in row-major order, in row 0 here
    good = SparseMatrix([[1, F(1, 2), 0], [0, 3, 0], [F(2, 3), 0, 1]])
    bad = SparseMatrix([[1, F(5, 2), 0], [0, 3, 7], [F(2, 3), 0, 1]])
    want = {"row": 0, "col": 1, "lhs": "1/2", "rhs": "5/2"}
    for lhs, rhs in ((good, bad),
                     (_over_another_den(good), bad),
                     (SparseMatrix(entries(good)[:1]),
                      SparseMatrix(entries(bad)[:1]))):
        rep = vf.compare(ssep_model, "wrong", (F(2),), lhs, rhs)
        assert rep.status == vf.FAIL
        assert rep.witness == want
        assert rep.points == ("2",)
        assert vf.compare(ssep_model, "same", (F(2),), lhs, lhs).status == \
            vf.PASS
    # below row 0 the witnesses over either denominator still agree
    lower = SparseMatrix([[1, F(1, 2), 0], [0, 3, 7], [F(2, 3), 0, 1]])
    reports = [vf.compare(ssep_model, "wrong", (), a, b).witness
               for a, b in ((good, lower), (good, _over_another_den(lower)))]
    assert reports == [{"row": 1, "col": 2, "lhs": "0", "rhs": "7"}] * 2


def test_compare_shape_mismatch_raises(ssep_model):
    with pytest.raises(ValueError):
        vf.compare(ssep_model, "c", (), SparseMatrix([[1, 0]]),
                   SparseMatrix([[1], [0]]))
    with pytest.raises(ValueError):
        vf.compare(ssep_model, "c", (), SparseMatrix([[1]]),
                   SparseMatrix([[1, 0]]))
    with pytest.raises(ValueError):
        vf.compare(ssep_model, "c", (), SparseMatrix.identity(2),
                   SparseMatrix.identity(3))


def test_full_suite_no_fail(all_models):
    for mdl in all_models:
        points = sample_points(mdl, 2, seed=1)
        reports = vf.run_model_suite(mdl, points)
        assert all(r.status != vf.FAIL for r in reports)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_full_suite_no_fail_at_random_rates(name, data):
    mdl = data.draw(MODELS[name])
    seed = data.draw(st.integers(0, 10 ** 6))
    reports = vf.run_model_suite(mdl, sample_points(mdl, 3, seed=seed))
    assert not [r for r in reports if r.status == vf.FAIL]
    assert any(r.status == vf.PASS for r in reports)


_POINT = st.one_of(st.fractions(-6, 6, max_denominator=7),
                   st.sampled_from([F(0), F(1), F(-1)]))


def _pole_partners(mdl, a) -> list:
    """Each b that puts one of the points pair_safe tries for (a, b) on a
    pole p of R: b = p a, a / p, p / a, 1 / (p a) (multiplicative) or
    a + p, a - p, p - a, -p - a (additive)."""
    if mdl.name == "tasep":     # R has no pole
        return []
    if mdl.name == "rd":
        k = mdl.kappa
        poles = [(1 - k) / (1 + k), (k - 1) / (k + 1)]
    else:
        poles = [1 / mdl.q] if mdl.name == "asep" else [F(-1)]
    if mdl.convention.kind == "additive":
        return [b for p in poles for b in (a + p, a - p, p - a, -p - a)]
    return [b for p in poles
            for b in (p * a, a / p, *((p / a, 1 / (p * a)) if a else ()))]


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pair_safe_is_symmetric(name, data):
    # one call decides a pair in either order; a partner on a pole of R, or
    # a zero at a multiplicative model, is unsafe both ways
    mdl = data.draw(MODELS[name])
    a = data.draw(_POINT)
    partners = _pole_partners(mdl, a)
    b = data.draw(st.one_of(st.sampled_from(partners), _POINT) if partners
                  else _POINT)
    assert pair_safe(mdl, a, b) == pair_safe(mdl, b, a)
    if b in partners or (0 in (a, b) and
                         mdl.convention.kind == "multiplicative"):
        assert not pair_safe(mdl, a, b)


def test_zero_is_unsafe_for_each_multiplicative_model(all_models):
    # 1/x at x = 0 raises inside model_safe's pole guard
    multiplicative = [mdl for mdl in all_models
                      if mdl.convention.kind == "multiplicative"]
    assert sorted(mdl.name for mdl in multiplicative) == \
        ["asep", "rd", "tasep"]
    for mdl in multiplicative:
        assert not model_safe(mdl, F(0)), mdl.name


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_markov_from_transfer_at_random_rates(name, data):
    # (1/2 rho) t'(identity) = M holds at every rate set, not only the fixed one
    mdl = data.draw(MODELS[name])
    L = data.draw(st.integers(1, 3))
    rep = tr.markov_from_transfer(mdl, L)
    assert rep.status == vf.PASS, (mdl, L, rep.witness, rep.reason)



def test_run_model_suite_makes_every_report_in_one_run(all_models,
                                                       monkeypatch):
    # the families only yield records: one run turns the suite's whole
    # stream into reports
    calls, real = [], vf.run

    def counting(model, records):
        calls.append(model.name)
        return real(model, records)

    monkeypatch.setattr(vf, "run", counting)
    for mdl in all_models:
        calls.clear()
        reports = vf.run_model_suite(mdl, sample_points(mdl, 3, seed=2))
        assert calls == [mdl.name]
        assert len(reports) > 20

def test_suite_changes_no_cached_matrix(all_models):
    # R and K are read off compiled forms, one per (model, kind), the only
    # tables kept between calls; each call builds its own matrix.  Two runs
    # of the suite compile no further form, give the same reports, and
    # leave every form's tables as they were compiled
    def tables(forms):
        return {kind: (f.layout, f.poles, f.den, f.nums)
                for kind, f in forms.items()}

    for mdl in all_models:
        idp = mdl.identity_point
        m.r_matrix(mdl, idp)
        for kind in ("K", "Kbar", "Ktilde"):
            m.k_matrix(mdl, kind, idp)
        forms = dict(m._forms(mdl))
        kept = copy.deepcopy(tables(forms))
        points = sample_points(mdl, 3, seed=4)
        first = vf.run_model_suite(mdl, points)
        assert vf.run_model_suite(mdl, points) == first
        assert m._forms(mdl) == forms
        assert tables(forms) == kept


def test_compare_integer_operands_give_the_fraction_witness(ssep_model):
    good = [[1, F(1, 2), 0], [0, F(-3, 4), 0], [F(2, 3), 0, 1]]
    for bad in ([[1, F(5, 2), 0], [0, F(-3, 4), 7], [F(2, 3), 0, 1]],
                [[1, F(1, 2), 0], [0, F(-3, 4), 0], [F(2, 3), F(1, 9), 1]],
                [[1, F(1, 2), 0], [0, F(3, 4), 0], [F(2, 3), 0, 1]]):
        row = next(r for r, (x, y) in enumerate(zip(good, bad)) if x != y)
        want = {"row": row, "col": next(
            c for c, (x, y) in enumerate(zip(good[row], bad[row])) if x != y)}
        a, b = SparseMatrix(good), SparseMatrix(bad)
        assert a.den > 1
        want.update(lhs=format_rational(good[row][want["col"]]),
                    rhs=format_rational(bad[row][want["col"]]))
        rows = SparseMatrix([good[row]]), SparseMatrix([bad[row]])
        for lhs, rhs in ((a, b), (_over_another_den(a), b),
                         (a, _over_another_den(b)), rows):
            got = vf.compare(ssep_model, "c", (), lhs, rhs)
            assert got.status == vf.FAIL
            if lhs.shape[0] == 1:   # the row of a vector is row 0
                assert got.witness == {**want, "row": 0}
            else:
                assert got.witness == want
        assert vf.compare(ssep_model, "c", (), a, a).status == vf.PASS


def test_yang_baxter_fail_prints_fraction_entries(ssep_model, monkeypatch):
    # a wrong R breaks Yang-Baxter; the witness is the first mismatch of the
    # Fraction triple products, as exact Fractions
    real = m.r_matrix

    def wrong_r(model, x):
        (r0, *r1), *rest = entries(real(model, x))
        return SparseMatrix([[r0 + x / 7, *r1], *rest])

    monkeypatch.setattr(m, "r_matrix", wrong_r)
    x1, x2, x3 = F(5), F(3, 2), F(-2, 3)
    rep = vf.run(ssep_model, vf.yang_baxter(ssep_model, x1, x2, x3))[0]
    assert rep.status == vf.FAIL
    # the oracle embeds and multiplies Fraction entries itself
    conv = ssep_model.convention
    r12, r13, r23 = (embed_rows(entries(wrong_r(ssep_model,
                                                conv.compose(a, b))), legs, 3)
                     for a, b, legs in ((x1, x2, (0, 1)), (x1, x3, (0, 2)),
                                        (x2, x3, (1, 2))))
    lhs = rows_product(rows_product(r12, r13), r23)
    rhs = rows_product(rows_product(r23, r13), r12)
    r, c = next((r, c) for r in range(8) for c in range(8)
                if entry(lhs, r, c) != entry(rhs, r, c))
    assert rep.witness == {"row": r, "col": c,
                           "lhs": format_rational(entry(lhs, r, c)),
                           "rhs": format_rational(entry(rhs, r, c))}
    assert F(rep.witness["lhs"]).denominator > 1 or \
        F(rep.witness["rhs"]).denominator > 1


def _blocks(rows_by_block, rescaled):
    return {ij: _over_another_den(SparseMatrix(rows)) if rescaled
            else SparseMatrix(rows) for ij, rows in rows_by_block.items()}


def _grid_witness(good, bad, h, w):
    """The first differing entry, row-major, of the 2 x 2 block operators
    whose h x w blocks (i, j) are the rows good[i, j] and bad[i, j]: entry
    (r, c) of block (i, j) at row i h + r, column j w + c."""
    return next(({"row": row, "col": col,
                  "lhs": format_rational(a), "rhs": format_rational(b)}
                 for row in range(2 * h) for col in range(2 * w)
                 for a, b in [(good[row // h, col // w][row % h][col % w],
                               bad[row // h, col // w][row % h][col % w])]
                 if a != b), None)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_witness_is_the_first_row_major_mismatch(ssep_model, data):
    # a ZF side is the block operator _grid of its 2 x 2 components, each
    # h x w: the witness is its first differing entry in row-major order,
    # at row i h + r and column j w + c for entry (r, c) of block (i, j)
    h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    entry = st.fractions(-3, 3, max_denominator=3)
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    good = {ij: data.draw(st.lists(st.lists(entry, min_size=w, max_size=w),
                                   min_size=h, max_size=h)) for ij in keys}
    bad = {ij: [list(row) for row in rows] for ij, rows in good.items()}
    for ij, r, c in data.draw(st.lists(st.tuples(
            st.sampled_from(keys), st.integers(0, h - 1),
            st.integers(0, w - 1)), max_size=3)):
        bad[ij][r][c] += data.draw(entry.filter(bool))
    want = _grid_witness(good, bad, h, w)
    rescaled = data.draw(st.booleans())
    lhs, rhs = _blocks(good, rescaled), _blocks(bad, not rescaled)
    rep = vf.compare(ssep_model, "blocks", (F(2),), an._grid(lhs),
                     an._grid(rhs))
    assert (rep.status, rep.witness) == \
        ((vf.PASS, None) if want is None else (vf.FAIL, want))
    # one component of another shape raises, wherever the mismatch lies
    ij = data.draw(st.sampled_from(keys))
    wider = _blocks({ij: [[F(0)] * (w + 1)] * (h + 1)}, rescaled)
    with pytest.raises(ValueError):
        an._grid({**rhs, **wider})


def test_grid_witness_is_not_the_first_in_block_order(ssep_model):
    # block (0, 0) differs in its second row and block (0, 1) in its first:
    # block order would name entry (1, 0), row-major order names (0, 3)
    zero = [[F(0)] * 2 for _ in range(2)]
    good = {(i, j): zero for i in (0, 1) for j in (0, 1)}
    bad = {**good, (0, 0): [[0, 0], [1, 0]], (0, 1): [[0, 3], [0, 0]]}
    grids = [an._grid({ij: SparseMatrix(rows) for ij, rows in g.items()})
             for g in (good, bad)]
    rep = vf.compare(ssep_model, "blocks", (), *grids)
    assert rep.witness == _grid_witness(good, bad, 2, 2) == \
        {"row": 0, "col": 3, "lhs": "0", "rhs": "3"}


def _first_mismatch(lhs, rhs) -> dict:
    """The witness of two vectors read as row 0: their first differing
    entry."""
    c = next(c for c, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return {"row": 0, "col": c, "lhs": format_rational(lhs[c]),
            "rhs": format_rational(rhs[c])}


def _vector_check(check, asep, ssep):
    """(report, oracle witness) of one vector check of the suite or of
    transfer, under the perturbed R and K of the test below.  The oracle
    applies the Fraction rows of the perturbed matrices and of the Fraction
    product t(x) to the vectors itself."""
    x, x2 = F(3), F(5)
    ones = lambda n: [F(1)] * n
    if check in ("r.markov_left", "r.markov_vector"):
        rep = next(r for r in vf.run(asep, vf.r_properties(asep, x, x2))
                   if r.check == check)
        if check == "r.markov_left":
            R = sparse_rows(m.r_matrix(asep, x))
            return rep, _first_mismatch(rows_apply_left(R, ones(4)), ones(4))
        R = sparse_rows(m.r_matrix(asep, asep.convention.compose(x, x2)))
        vv = [a * b for a in m.markov_vector(asep, x)
              for b in m.markov_vector(asep, x2)]
        return rep, _first_mismatch(rows_apply(R, vv), vv)
    if check == "k.K.markov_left":
        rep = next(r for r in vf.run(asep, vf.k_properties(asep, "K", x))
                   if r.check == check)
        K = sparse_rows(m.k_matrix(asep, "K", x))
        return rep, _first_mismatch(rows_apply_left(K, ones(2)), ones(2))
    spec = tr.TransferSpec(ssep, 2)
    T = sparse_rows(transfer_product(spec, x))
    lam = tr.lambda_eigenvalue(ssep, x, spec.thetas)
    v = tr.eigenvector_from_nullspace(spec, x2)
    if check == "transfer.eigen_right":
        rep = tr.check_right_eigenvector(spec, x, x2)
        return rep, _first_mismatch(rows_apply(T, v), [lam * e for e in v])
    if check == "transfer.eigen_left":
        rep = tr.left_eigen_ones(spec, x)
        return rep, _first_mismatch(rows_apply_left(T, ones(4)),
                                    [lam] * 4)
    rep = tr.ssep_conjugated(spec, x)[-1]
    # the rows of Gamma = [[-1, beta], [1, delta]] and of its inverse
    det = -ssep.delta - ssep.beta
    row, col = [F(1)], [F(1)]
    for _ in range(spec.L):
        row = [r * g for r in row for g in (-1 / det, -1 / det)]
        col = [c * g for c in col for g in (ssep.beta, ssep.delta)]
    got = sum(r * e for r, e in zip(row, rows_apply(T, col)))
    return rep, {"row": 0, "col": 0, "lhs": format_rational(got),
                 "rhs": format_rational(lam)}


@pytest.mark.parametrize("check", [
    "r.markov_left", "k.K.markov_left", "r.markov_vector",
    "transfer.eigen_right", "transfer.eigen_left", "conjugated.scalar"])
def test_vector_checks_fail_with_the_oracle_witness(check, asep_model,
                                                    ssep_model, monkeypatch):
    # R with x/7 added at (2, 1) and K with x/5 added at (1, 0) break the
    # column sums, the R-invariance of v(x) (x) v(y) and the transfer
    # eigenpairs; each Fail names the first differing entry of the vector,
    # at row 0, as the Fraction matvec of the oracle finds it
    real_r, real_k = m.r_matrix, m.k_matrix

    def plus(M, r, c, e):
        rows = entries(M)
        rows[r][c] += e
        return SparseMatrix(rows)

    def wrong_r(model, x, derivative=False):
        R = real_r(model, x, derivative)
        return R if derivative else plus(R, 2, 1, x / 7)

    def wrong_k(model, kind, x, derivative=False):
        K = real_k(model, kind, x, derivative)
        return K if derivative or kind != "K" else plus(K, 1, 0, x / 5)

    monkeypatch.setattr(m, "r_matrix", wrong_r)
    monkeypatch.setattr(m, "k_matrix", wrong_k)
    rep, want = _vector_check(check, asep_model, ssep_model)
    assert (rep.status, rep.witness) == (vf.FAIL, want)


def test_markov_u_fail_witness_compares_the_capped_dimension(ssep_model,
                                                             monkeypatch):
    monkeypatch.setattr(vf, "_u_solution_dim", lambda model, kf, points: 0)
    rep = vf.run(ssep_model, vf.k_properties(ssep_model, "K", F(2)))[-1]
    assert (rep.check, rep.status, rep.points, rep.witness) == \
        ("k.K.markov_u", vf.FAIL, ("2",),
         {"row": 0, "col": 0, "lhs": "0", "rhs": "1"})
