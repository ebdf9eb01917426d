import copy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import exclusion as ex
import exclusion.models as m
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.sampling import model_safe, pair_safe, sample_points
from exclusion.scalars import Dual, format_rational
from exclusion.tensor import Matrix, SparseMatrix
from reference import dense, embed_rows, entry, rows_product
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
    assert R * r_matrix_swapped(asep_model, F(1, 3)) == Matrix.identity(4)


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
    kf = lambda x: Matrix.identity(2)
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
    got = [K.a[0][j] + K.a[1][j] for j in range(2)]
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
    bad = lambda x: Matrix([[1 + x, 0], [0, 1]])
    rep = vf.run(ssep_model, vf.reflection(ssep_model, "K", F(2), F(5), bad))[0]
    assert rep.status == vf.FAIL
    assert set(rep.witness) == {"row", "col", "lhs", "rhs"}


def test_compare_witness_is_the_same_for_dense_sparse_and_row(ssep_model):
    # one wrong pair, given in each operand form the report core accepts:
    # the first mismatch in row-major order, in row 0 here
    good = Matrix([[1, F(1, 2), 0], [0, 3, 0], [F(2, 3), 0, 1]])
    bad = Matrix([[1, F(5, 2), 0], [0, 3, 7], [F(2, 3), 0, 1]])
    want = {"row": 0, "col": 1, "lhs": "1/2", "rhs": "5/2"}
    for lhs, rhs in ((good, bad),
                     (SparseMatrix.from_dense(good), SparseMatrix.from_dense(bad)),
                     (good.a[0], bad.a[0])):
        rep = vf.compare(ssep_model, "wrong", (F(2),), lhs, rhs)
        assert rep.status == vf.FAIL
        assert rep.witness == want
        assert rep.points == ("2",)
        assert vf.compare(ssep_model, "same", (F(2),), lhs, lhs).status == \
            vf.PASS
    # below row 0 the dense and sparse witnesses still agree
    lower = Matrix([[1, F(1, 2), 0], [0, 3, 7], [F(2, 3), 0, 1]])
    reports = [vf.compare(ssep_model, "wrong", (), a, b).witness
               for a, b in ((good, lower), (SparseMatrix.from_dense(good),
                                            SparseMatrix.from_dense(lower)))]
    assert reports == [{"row": 1, "col": 2, "lhs": "0", "rhs": "7"}] * 2


def test_compare_shape_mismatch_raises(ssep_model):
    with pytest.raises(ValueError):
        vf.compare(ssep_model, "c", (), Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(ValueError):
        vf.compare(ssep_model, "c", (), [F(1)], [F(1), F(0)])
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

def test_suite_changes_no_cached_matrix(all_models, monkeypatch):
    # every R and K built, at a rational or a Dual point, fills the cache
    # (a Matrix, or the pair of its two parts); a deep copy is taken as it
    # is built, before any check sees it.  A second run of the suite builds
    # none: it reads the same shared matrices
    built = []

    def build(rows, dual):
        out = wrap(rows, dual)
        parts = out if dual else (out,)
        built.append((parts, copy.deepcopy(parts)))
        return out

    wrap = m._wrapped
    monkeypatch.setattr(m, "_wrapped", build)
    m._r_cached.cache_clear()
    m._k_cached.cache_clear()
    for mdl in all_models:
        points = sample_points(mdl, 3, seed=4)
        first = vf.run_model_suite(mdl, points)
        count = len(built)
        assert vf.run_model_suite(mdl, points) == first
        assert len(built) == count
    assert len(built) > 100
    assert all((P._table, P.a) == (Q._table, Q.a)
               for parts, copies in built for P, Q in zip(parts, copies))


def test_suite_evaluates_r_once_at_the_dual_identity_point(all_models,
                                                           monkeypatch):
    # each sample point's r.local_jump differentiates R at the identity
    # point; the three share one cached R(Dual(identity, 1))
    duals, evaluate = [], m._r_matrix

    def build(model, x):
        if isinstance(x, Dual):
            duals.append((model.name, x))
        return evaluate(model, x)

    monkeypatch.setattr(m, "_r_matrix", build)
    m._r_cached.cache_clear()
    for mdl in all_models:
        vf.run_model_suite(mdl, sample_points(mdl, 3, seed=4))
    assert duals == [(mdl.name, Dual.variable(mdl.identity_point))
                     for mdl in all_models]


def test_compare_integer_operands_give_the_fraction_witness(ssep_model):
    good = Matrix([[1, F(1, 2), 0], [0, F(-3, 4), 0], [F(2, 3), 0, 1]])
    for bad in (Matrix([[1, F(5, 2), 0], [0, F(-3, 4), 7], [F(2, 3), 0, 1]]),
                Matrix([[1, F(1, 2), 0], [0, F(-3, 4), 0], [F(2, 3), F(1, 9), 1]]),
                Matrix([[1, F(1, 2), 0], [0, F(3, 4), 0], [F(2, 3), 0, 1]])):
        want = vf.compare(ssep_model, "c", (), good, bad)
        a, b = SparseMatrix.from_dense(good), SparseMatrix.from_dense(bad)
        assert a.den > 1
        for lhs, rhs in ((a, b), (dense(a), dense(b)),
                         (list(dense(a).a[want.witness["row"]]),
                          list(dense(b).a[want.witness["row"]]))):
            got = vf.compare(ssep_model, "c", (), lhs, rhs)
            assert got.status == vf.FAIL
            if isinstance(lhs, list):   # a flat sequence is row 0
                assert got.witness == {**want.witness, "row": 0}
            else:
                assert got.witness == want.witness
        assert vf.compare(ssep_model, "c", (), a, a).status == vf.PASS


def test_yang_baxter_fail_prints_fraction_entries(ssep_model, monkeypatch):
    # a wrong R breaks Yang-Baxter; the witness is the first mismatch of the
    # Fraction triple products, as exact Fractions
    real = m.r_matrix

    def wrong_r(model, x):
        r = real(model, x)
        return Matrix([[r[0, 0] + x / 7, *r.a[0][1:]], *r.a[1:]])

    monkeypatch.setattr(m, "r_matrix", wrong_r)
    x1, x2, x3 = F(5), F(3, 2), F(-2, 3)
    rep = vf.run(ssep_model, vf.yang_baxter(ssep_model, x1, x2, x3))[0]
    assert rep.status == vf.FAIL
    # the oracle embeds and multiplies Fraction entries itself
    conv = ssep_model.convention
    r12, r13, r23 = (embed_rows(wrong_r(ssep_model, conv.compose(a, b)).a,
                                legs, 3)
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


def _blocks(rows_by_block, sparse):
    return {ij: SparseMatrix.from_dense(Matrix(rows)) if sparse
            else Matrix(rows) for ij, rows in rows_by_block.items()}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compare_block_operands_give_the_first_mismatch_in_block_order(
        ssep_model, data):
    # 2 x 2 block operators {(i, j): h x h component}: the witness is the
    # first differing entry scanning the blocks in order, then row-major in
    # each block, at row i h + r and column j h + c of the block operator
    h = data.draw(st.integers(1, 3))
    entry = st.fractions(-3, 3, max_denominator=3)
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    good = {ij: data.draw(st.lists(st.lists(entry, min_size=h, max_size=h),
                                   min_size=h, max_size=h)) for ij in keys}
    bad = {ij: [list(row) for row in rows] for ij, rows in good.items()}
    for ij, r, c in data.draw(st.lists(st.tuples(
            st.sampled_from(keys), st.integers(0, h - 1),
            st.integers(0, h - 1)), max_size=3)):
        bad[ij][r][c] += data.draw(entry.filter(bool))
    want = next(({"row": i * h + r, "col": j * h + c,
                  "lhs": format_rational(good[i, j][r][c]),
                  "rhs": format_rational(bad[i, j][r][c])}
                 for i, j in keys for r in range(h) for c in range(h)
                 if good[i, j][r][c] != bad[i, j][r][c]), None)
    sparse = data.draw(st.booleans())
    lhs, rhs = _blocks(good, sparse), _blocks(bad, sparse)
    rep = vf.compare(ssep_model, "blocks", (F(2),), lhs, rhs)
    assert (rep.status, rep.witness) == \
        ((vf.PASS, None) if want is None else (vf.FAIL, want))
    # one component of another shape raises, wherever the mismatch lies
    ij = data.draw(st.sampled_from(keys))
    wider = _blocks({ij: [[F(0)] * (h + 1)] * (h + 1)}, sparse)
    with pytest.raises(ValueError):
        vf.compare(ssep_model, "blocks", (), lhs, {**rhs, **wider})


def test_markov_u_fail_witness_compares_the_capped_dimension(ssep_model,
                                                             monkeypatch):
    monkeypatch.setattr(vf, "_u_solution_dim", lambda model, kf, points: 0)
    rep = vf.run(ssep_model, vf.k_properties(ssep_model, "K", F(2)))[-1]
    assert (rep.check, rep.status, rep.points, rep.witness) == \
        ("k.K.markov_u", vf.FAIL, ("2",),
         {"row": 0, "col": 0, "lhs": "0", "rhs": "1"})
