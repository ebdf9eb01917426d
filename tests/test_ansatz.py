from fractions import Fraction as F
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import exclusion as ex
import exclusion.ansatz as an
import exclusion.markov as mk
import exclusion.models as mo
import exclusion.verifier as vf
from exclusion.scalars import float_repr, format_rational
from exclusion.tensor import Matrix, SparseMatrix


def dense(sp):
    return sp.to_dense()


def _contract(letters, W, V, word):
    """<W| X_1 ... X_k |V> word by word, the letters looked up by name."""
    vec = list(W)
    for letter in word:
        vec = letters[letter].apply_left(vec)
    return sum(v * w for v, w in zip(vec, V))


# ----------------------------------------------------------------- TASEP

def test_tasep_dehp_relation_on_leading_block():
    rep = an.tasep_representation(F(1, 2), F(1, 3), 6)
    D, E = rep.letters["D"], rep.letters["E"]
    diff = dense(D * E - D - E)
    for i in range(5):
        for j in range(5):
            assert diff.a[i][j] == 0
    assert diff.a[5][5] != 0  # truncation corner


def test_tasep_boundary_relations_interior():
    al, be = F(2, 3), F(3, 5)
    rep = an.tasep_representation(al, be, 6)
    E, D = rep.letters["E"], rep.letters["D"]
    wE = E.apply_left(list(rep.W))
    for n in range(5):
        assert al * wE[n] == rep.W[n]
    dV = D.apply(list(rep.V))
    for n in range(5):
        assert be * dV[n] == rep.V[n]


def test_tasep_weights_l2():
    rep = an.tasep_representation(1, 1, 3)
    d = an.steady_from_ansatz(rep, 2)
    assert d.probabilities() == [F(1, 5), F(1, 5), F(2, 5), F(1, 5)]


def test_tasep_ansatz_equals_nullspace():
    for al, be, L in ((F(1, 2), F(1, 3), 3), (F(2, 3), F(3, 5), 4),
                      (F(3), F(2), 3)):
        rep = an.tasep_representation(al, be, L + 1)
        got = an.steady_from_ansatz(rep, L)
        want = mk.steady_state_exact(ex.build_markov(ex.tasep(al, be), L))
        assert got.probabilities() == want.probabilities()


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=0, max_value=5, max_denominator=9).filter(bool),
       st.fractions(min_value=0, max_value=5, max_denominator=9).filter(bool),
       st.integers(1, 4))
def test_tasep_ansatz_equals_nullspace_at_random_rates(al, be, L):
    rep = an.tasep_representation(al, be, L + 1)
    got = an.steady_from_ansatz(rep, L)
    want = mk.steady_state_exact(ex.build_markov(ex.tasep(al, be), L))
    assert got.probabilities() == want.probabilities()


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=0, max_value=5, max_denominator=9).filter(bool),
       st.fractions(min_value=0, max_value=5, max_denominator=9).filter(bool),
       st.integers(1, 4))
def test_tasep_ansatz_weights_equal_the_word_oracle(al, be, L):
    # exact weights, not probabilities: a wrong common denominator scales
    # every weight alike and leaves the probabilities unchanged
    rep = an.tasep_representation(al, be, L + 1)
    words = product("ED", repeat=L)   # site 1 most significant, E = 0
    assert an.ansatz_weights(rep, L) == \
        [_contract(rep.letters, rep.W, rep.V, w) for w in words]


def test_tasep_truncation_guard():
    rep = an.tasep_representation(1, 1, 3)
    with pytest.raises(ValueError):
        an.steady_from_ansatz(rep, 3)


def test_steady_ansatz_exists_for_tasep_and_rd_only(asep_model, ssep_model):
    for mdl in (asep_model, ssep_model):
        with pytest.raises(mo.UnsupportedError,
                           match="exists for tasep and rd only"):
            an.steady_ansatz(mdl, 2)


def test_steady_from_ansatz_takes_a_tasep_representation_only():
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 7)
    with pytest.raises(TypeError, match="steady_ansatz"):
        an.steady_from_ansatz(rep, 3)


def test_tasep_rep_validation():
    with pytest.raises(ValueError):
        an.tasep_representation(0, 1, 4)
    with pytest.raises(ValueError):
        an.tasep_representation(1, 1, 1)


# ----------------------------------------------------------------- RD rep
#
# The package holds the RD representation only as integer tables and the
# stencil; the tests keep a Fraction oracle written entry by entry, bound to
# the package by _oracle_letters, which asserts that the oracle A(x) equals
# the package's stencil operators.

def _oracle_letters(rep, xs=(F(1), F(2), F(-1, 3))):
    """G1, G2, G3 of the RD representation entry by entry: G2[n,m] =
    phi^(n+m), G1 and G3 the unit shifts n+1 and m-1; E, D = A(1)."""
    N, phi = rep.N, rep.meta["phi"]
    G1, G2, G3 = (SparseMatrix(N * N) for _ in range(3))
    for n in range(N):
        for m in range(N):
            p = n * N + m
            G2.add(p, p, phi ** (n + m))
            if n + 1 < N:
                G1.add((n + 1) * N + m, p, F(1))
            if m >= 1:
                G3.add(n * N + m - 1, p, F(1))
    G = {"G1": G1, "G2": G2, "G3": G3, "E": G2 + G1 + G3, "D": G2 - G1 - G3}
    # A_+(x) + A_-(x) = 2 G2 and A_+(x) - A_-(x) = 2 (x G1 + G3/x) at two
    # points fix G1, G2 and G3
    for x in xs:
        assert rep.components(x) == [_oracle_component(G, i, x)
                                     for i in (0, 1)]
    return G


def _oracle_component(G, i, x):
    """A_+(x) = x G1 + G2 + G3/x (i = 0), A_-(x) = -x G1 + G2 - G3/x."""
    sign = 1 if i == 0 else -1
    return G["G1"].scale(sign * x) + G["G2"] + G["G3"].scale(sign / x)


def _oracle_derivative(G, i):
    """A_+'(1) = G1 - G3 and A_-'(1) = G3 - G1."""
    sign = 1 if i == 0 else -1
    return G["G1"].scale(F(sign)) + G["G3"].scale(F(-sign))


def _boundary_views(rep):
    """The package's W and V as Fractions, read off its integer tables."""
    N = rep.N
    W = [F(w, rep.dW) for w in rep.Wn]
    V = [F(rep.Cv[m - n + N - 1] * rep.Bv[n], rep.dV)
         for n in range(N) for m in range(N)]
    return W, V


def test_rd_exchange_relations_exact_on_truncation():
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 5)
    G1, G2, G3 = (_oracle_letters(rep)[k] for k in ("G1", "G2", "G3"))
    phi = rep.meta["phi"]
    assert G1 * G2 == (G2 * G1).scale(1 / phi)
    assert G1 * G3 == G3 * G1
    assert G2 * G3 == (G3 * G2).scale(1 / phi)


def test_rd_boundary_vectors_satisfy_recursions():
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 6)
    N = rep.N
    a, b, c, d, phi = (rep.meta[k] for k in ("a", "b", "c", "d", "phi"))
    W, V = _boundary_views(rep)
    for n in range(1, N - 1):
        for mm in range(N - 1):
            assert V[n * N + mm + 1] == b * V[(n - 1) * N + mm] + \
                d * phi ** (n + mm) * V[n * N + mm]
    for mm in range(N - 1):
        assert V[mm + 1] == d * phi ** mm * V[mm]
    for n in range(N - 1):
        for mm in range(1, N - 1):
            assert W[(n + 1) * N + mm] == a * W[n * N + mm - 1] + \
                c * phi ** (n + mm) * W[n * N + mm]
    for n in range(N - 1):
        assert W[(n + 1) * N] == c * phi ** n * W[n * N]


def test_rd_boundary_recursion_operators_interior():
    rep = an.rd_representation(3, 1, 1, 0, 0, 6)
    G1, G2, G3 = (_oracle_letters(rep)[k] for k in ("G1", "G2", "G3"))
    a, b, c, d = (rep.meta[k] for k in ("a", "b", "c", "d"))
    W, V = _boundary_views(rep)
    lhs = (G1 - G2.scale(c) - G3.scale(a)).apply_left(W)
    N = rep.N
    for n in range(N - 1):
        for mm in range(N - 1):
            assert lhs[n * N + mm] == 0
    rhs = (G3 - G1.scale(b) - G2.scale(d)).apply(V)
    for n in range(N - 1):
        for mm in range(N - 1):
            assert rhs[n * N + mm] == 0


def test_rd_rep_validation():
    with pytest.raises(ValueError):
        an.rd_representation(1, 1, 1, 0, 0, 4)
    with pytest.raises(ValueError):
        an.rd_representation(F(-3), 1, 1, 0, 0, 4)  # |phi| = 2 >= 1
    with pytest.raises(ValueError):
        an.rd_representation(3, 1, 1, 1, 0, 4)  # c = 0 (alpha = gamma)


def _closed_form_boundary(co, N):
    """W[n,m] and V[n,m] entry by entry from the closed forms."""
    a, b, c, d, phi = (co[k] for k in ("a", "b", "c", "d", "phi"))
    tail = [prod((1 - phi ** (2 * j) for j in range(1, k + 1)), start=F(1))
            for k in range(N)]
    W = [c ** (n - m) * a ** m * phi ** ((n - m) * (n - m - 1) // 2) / tail[m]
         for n in range(N) for m in range(N)]
    V = [d ** (m - n) * b ** n * phi ** ((m - n) * (m - n - 1) // 2) / tail[n]
         for n in range(N) for m in range(N)]
    return W, V


def _oracle_inhomogeneous(G, W, V, thetas):
    """<W| A_1 ... A_L |V> word by word on the Fraction oracle."""
    comps = [[_oracle_component(G, i, t) for i in (0, 1)] for t in thetas]
    out = []
    for word in product((0, 1), repeat=len(thetas)):
        vec = list(W)
        for site, i in enumerate(word):
            vec = comps[site][i].apply_left(vec)
        out.append(sum(v * w for v, w in zip(vec, V)))
    return out


def _check_integer_tables(rep, L, thetas):
    N, phi = rep.N, rep.meta["phi"]
    W, V = _closed_form_boundary(rep.meta, N)
    assert _boundary_views(rep) == (W, V)
    assert [F(g, rep.S) for g in rep.g2] == [phi ** (n + m) for n in range(N)
                                             for m in range(N)]
    G = _oracle_letters(rep, thetas)
    words = ["".join(w) for w in product("ED", repeat=L)]
    assert an.ansatz_weights(rep, L) == [_contract(G, W, V, w) for w in words]
    assert an.inhomogeneous_state(rep, thetas) == \
        _oracle_inhomogeneous(G, W, V, thetas)


RD_RATES = [(F(1, 2), F(2, 3), F(1, 3), F(1, 5)),
            (F(3, 2), F(2), F(1, 2), F(1, 3)),
            (F(1), F(1), F(0), F(0))]


@pytest.mark.parametrize("kappa", [3, 2, F(1, 2), F(1, 3), 4])
@pytest.mark.parametrize("rates", RD_RATES)
def test_rd_integer_tables_match_fraction_oracle(kappa, rates):
    # kappa = 1/2 and 1/3 give phi = -1/3 and -1/2; kappa = 4 gives 3/5
    thetas = (F(3, 2), F(2), F(-1, 3), F(5))
    for N, L in ((6, 2), (7, 3), (9, 4)):
        rep = an.rd_representation(kappa, *rates, N)
        _check_integer_tables(rep, L, thetas[:L])


positive = st.fractions(min_value=F(1, 9), max_value=4, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6),
       positive, positive, st.fractions(min_value=0, max_value=4,
                                        max_denominator=9),
       st.fractions(min_value=0, max_value=4, max_denominator=9),
       st.integers(min_value=2, max_value=5),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5)
                .filter(bool), min_size=1, max_size=3))
def test_rd_integer_tables_property(kappa, alpha, beta, gamma, delta, N,
                                    thetas):
    rates = (kappa, alpha, beta, gamma, delta)
    try:
        co = an.rd_boundary_coefficients(*rates)
    except ValueError:
        return              # kappa = -1, or 2 kappa + alpha + gamma = 0
    if kappa in (0, 1) or abs(co["phi"]) >= 1 or 0 in (co["c"], co["d"]):
        with pytest.raises(ValueError):
            an.rd_representation(*rates, N)
        return
    W, V = _closed_form_boundary(co, N)
    if sum(w * v for w, v in zip(W, V)) == 0:
        with pytest.raises(ValueError, match=r"<W\|V> = 0"):
            an.rd_representation(*rates, N)
        return
    rep = an.rd_representation(*rates, N)
    _check_integer_tables(rep, len(thetas), thetas)


def test_rd_steady_matches_nullspace():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    tol = F(1, 10 ** 10)
    for L in (2, 3, 4):
        got = an.steady_ansatz(mdl, L).probabilities()
        want = mk.steady_state_exact(ex.build_markov(mdl, L)).probabilities()
        assert all(abs(g - w) <= tol * abs(w) for g, w in zip(got, want))


def test_truncation_rounds_grow_by_a_quarter():
    assert list(an.truncation_rounds(2, 60)) == [6, 10, 14, 18, 22, 27, 33,
                                                 41, 51]
    assert list(an.truncation_rounds(8, 12)) == [12]
    with pytest.raises(ValueError, match="truncation cap 11 is below"):
        next(an.truncation_rounds(8, 11))


# the rate rows of the "needed N" table in ROADMAP.md: (kappa, rates)
NEEDED_N_ROWS = [(3, (1, 1, 0, 0)),
                 (3, (F(1, 2), F(2, 3), F(1, 3), F(1, 5))),
                 (2, (F(1, 2), F(2, 3), F(1, 3), F(1, 5))),
                 (F(1, 2), (F(3, 2), 2, F(1, 3), F(1, 5)))]


def _assert_ansatz_within_rel_tol(kappa, rates, L):
    mdl = ex.rd(kappa, *rates)
    got = an.steady_ansatz(mdl, L).probabilities()
    want = mk.steady_state_exact(ex.build_markov(mdl, L)).probabilities()
    assert all(abs(g - w) <= an.REL_TOL * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("kappa, rates", NEEDED_N_ROWS)
def test_rd_steady_stop_is_within_rel_tol_of_nullspace(kappa, rates):
    # two successive iterates agreeing to REL_TOL is a sound stop only if
    # the later one is itself that close to the exact weights
    for L in (2, 3, 4):
        _assert_ansatz_within_rel_tol(kappa, rates, L)


rate = st.fractions(min_value=0, max_value=3, max_denominator=7)
in_rate = st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=4)
       .filter(lambda k: k != 1),
       in_rate, in_rate, rate, rate, st.integers(2, 4))
def test_rd_steady_stop_is_within_rel_tol_at_random_rates(kappa, alpha, beta,
                                                          gamma, delta, L):
    rates = (alpha, beta, gamma, delta)
    co = an.rd_boundary_coefficients(kappa, *rates)
    # |a|, |b|, |c|, |d| <= 3/4 bounds the boundary tails, and so the N
    # reached and the cost of an example
    assume(0 not in (co["c"], co["d"]))
    assume(max(abs(co[k]) for k in "abcd") <= F(3, 4))
    try:
        rep = an.rd_representation(kappa, *rates, 6)
    except ValueError:          # <W|V> = 0
        assume(False)
    assume(an.rd_convergence_ok(rep.meta, L))
    _assert_ansatz_within_rel_tol(kappa, rates, L)


def test_rd_convergence_conditions():
    rep = an.rd_representation(3, 1, 1, 0, 0, 6)
    assert an.rd_convergence_ok(rep.meta, 2)


def test_rd_ansatz_is_near_stationary():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    M = ex.build_markov(mdl, 3)
    probs = an.steady_ansatz(mdl, 3).probabilities()
    resid = M.apply(probs)
    assert max(abs(r) for r in resid) <= F(1, 10 ** 10)


# --------------------------------------------------------------- closed forms

def test_rd_closed_form_density_value():
    out = an.rd_closed_forms(3, 1, 1, 0, 0, 2, 1)
    assert out["density"] == F(10, 19)


def test_rd_closed_forms_match_nullspace_exactly():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    for L in (2, 4):
        d = mk.steady_state_exact(ex.build_markov(mdl, L))
        obs = mk.observables(d, mdl)
        for i in range(1, L + 1):
            cf = an.rd_closed_forms(3, 1, 1, F(1, 2), F(1, 3), L, i)
            assert cf["density"] == obs["density"][i - 1]
            if i <= L - 1:
                assert cf["current_lat"] == obs["current_lat"][i - 1]
                assert cf["current_eva"] == obs["current_eva"][i - 1]


PROFILE_RATES = [(F(1, 2), F(2, 3), F(1, 3), F(1, 5)),
                 (F(7, 2), F(2, 3), F(1, 3), F(9, 5)),
                 # alpha = delta, beta = gamma: an exact zero current at the
                 # middle bond of an even chain
                 (F(1, 3), F(2, 5), F(2, 5), F(1, 3))]


def _printed(row):
    return {k: None if v is None else float_repr(v) for k, v in row.items()}


@pytest.mark.parametrize("kappa", [3, 2, F(1, 2)])
@pytest.mark.parametrize("rates", PROFILE_RATES)
def test_rd_profile_rows_match_closed_forms(kappa, rates):
    # kappa = 1/2 gives phi = -1/3 < 0
    for L in (2, 3, 7, 40):
        exact = an.rd_profile_rows(kappa, *rates, L, asymptotics=True)
        floats = an.rd_profile_rows(kappa, *rates, L, asymptotics=True,
                                    exact=False)
        for i, (row, frow) in enumerate(zip(exact, floats), start=1):
            cf = an.rd_closed_forms(kappa, *rates, L, i)
            want = {"density": cf["density"],
                    "current_lat": cf["current_lat"],
                    "current_eva": cf["current_eva"],
                    "density_asymptotic": cf["asymptotics"]["density"]}
            assert row == want, (L, i)
            assert all(isinstance(v, F) for v in row.values() if v is not None)
            # the float cells print as the rounded exact value, -0 excluded
            assert _printed(frow) == _printed(want), (L, i)


def test_rd_current_balance_closed_form():
    for L in (5, 40, 100):
        for i in (2, L // 2, L - 1):
            assert an.rd_current_balance(3, 1, 1, F(1, 2), F(1, 3), L, i) == 0


def test_rd_bulk_density_limit():
    out = an.rd_closed_forms(3, 1, 1, 0, 0, 40, 20)
    assert abs(out["density"] - F(1, 2)) < F(1, 10 ** 6)


def test_rd_kappa_negation_invariance():
    # kappa -> -kappa maps phi -> 1/phi etc.; physical quantities unchanged
    for i in (1, 3, 6):
        d1 = an.rd_closed_forms(3, 1, 1, F(1, 2), F(1, 3), 6, i)
        d2 = an.rd_closed_forms(-3, 1, 1, F(1, 2), F(1, 3), 6, i)
        assert d1["density"] == d2["density"]
        if i <= 5:
            assert d1["current_lat"] == d2["current_lat"]
            assert d1["current_eva"] == d2["current_eva"]


def test_rd_friedel_oscillations():
    # 0 < kappa < 1: sign-alternating deviations near the boundary
    devs = [an.rd_closed_forms(F(1, 2), 1, 1, F(1, 4), F(1, 5), 30, i)["density"]
            - F(1, 2) for i in range(1, 7)]
    signs = [1 if d > 0 else -1 for d in devs]
    assert all(signs[k] != signs[k + 1] for k in range(5))
    # kappa > 1: monotone boundary layer
    devs2 = [an.rd_closed_forms(3, 1, 1, F(1, 4), F(1, 5), 30, i)["density"]
             - F(1, 2) for i in range(1, 7)]
    assert all(d > 0 for d in devs2)
    assert all(abs(devs2[k + 1]) < abs(devs2[k]) for k in range(5))


# ------------------------------------------------------------ inhomogeneous

def test_inhomogeneous_state_reduces_to_steady():
    rep = an.rd_representation(3, 1, 1, 0, 0, 10)
    state = an.inhomogeneous_state(rep, (F(1), F(1)))
    weights = an.ansatz_weights(rep, 2)
    assert state == weights


def test_inhomogeneous_state_theta_zero_rejected():
    rep = an.rd_representation(3, 1, 1, 0, 0, 6)
    with pytest.raises(Exception):
        an.inhomogeneous_state(rep, (F(0), F(1)))


def test_partition_function_theta_inversion_invariance():
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 12)
    z1 = an.partition_function(rep, (F(2), F(3)))
    z2 = an.partition_function(rep, (F(1, 2), F(3)))
    z3 = an.partition_function(rep, (F(2), F(1, 3)))
    assert z1 == z2 == z3


# --------------------------------------------------------------- ZF relation

def test_zf_monodromy(asep_model, ssep_model, tasep_model):
    for mdl, pts in ((asep_model, (F(2), F(3))), (ssep_model, (F(5), F(3))),
                     (tasep_model, (F(2), F(3)))):
        for Lp in (1, 2, 3):
            mono = an.MonodromyRealization(mdl, Lp)
            assert an.check_zf(mono, *pts).status == vf.PASS


def test_zf_twice_and_c_commutation(asep_model, ssep_model):
    for mdl, pts in ((asep_model, (F(2), F(3))), (ssep_model, (F(5), F(3)))):
        mono = an.MonodromyRealization(mdl, 2)
        assert an.check_zf_twice(mono, *pts).status == vf.PASS
        assert an.check_c_commutation(mono, *pts).status == vf.PASS


def test_zf_derivative_consequence(all_models):
    for mdl in all_models:
        if mdl.name == "rd":
            continue
        mono = an.MonodromyRealization(mdl, 2)
        assert an.check_zf_derivative(mono).status == vf.PASS


def test_zf_rd_representation():
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 5)
    assert an.check_zf(rep, F(2), F(3)).status == vf.PASS


def test_monodromy_rejects_rd(rd_model):
    with pytest.raises(ex.UnsupportedError):
        an.MonodromyRealization(rd_model, 2)


def test_zf_gauge_constants_are_immaterial():
    # the free constants (a, b) of v(x) cancel in the exchange relation
    for a, b in ((2, 3), (F(1, 5), 7)):
        mdl = ex.asep(2, 1, 1, F(1, 2), F(1, 3), markov_a=a, markov_b=b)
        mono = an.MonodromyRealization(mdl, 2)
        assert an.check_zf(mono, F(2), F(3)).status == vf.PASS
        assert an.check_zf_derivative(mono).status == vf.PASS
    sm = ex.ssep(1, 1, F(1, 2), F(1, 3), markov_a=F(3, 2), markov_b=5)
    mono = an.MonodromyRealization(sm, 2)
    assert an.check_zf(mono, F(5), F(3)).status == vf.PASS


# --------------------------------------------------------------- GZ relation

def test_gz_identity_point_trivial():
    rep = an.rd_representation(3, 1, 1, 0, 0, 5)
    reports = an.check_gz(rep, F(1))
    assert all(r.status == vf.PASS for r in reports)


def test_gz_interior(rd_model):
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 7)
    reports = an.check_gz(rep, F(2))
    assert all(r.status == vf.PASS for r in reports), \
        [(r.check, r.witness) for r in reports if r.status != vf.PASS]


def test_gz_with_zero_extraction_rates():
    rep = an.rd_representation(3, 1, 1, 0, 0, 7)
    reports = an.check_gz(rep, F(2))
    assert all(r.status == vf.PASS for r in reports)


def test_c_derivative_vanishes():
    # C(x) = 2 G2 for the RD ansatz: C'(1) = 0 identically
    rep = an.rd_representation(3, 1, 1, 0, 0, 5)
    G = _oracle_letters(rep)
    Cp = _oracle_derivative(G, 0) + _oracle_derivative(G, 1)
    assert Cp.nnz == 0


# ------------------------------------------ RD relation failures and poles

def _doubled(M):
    return Matrix([[2 * v for v in row] for row in M.a])


def _perturb(monkeypatch, target, change):
    """Replace K, Kbar, B, Bbar or R by change(it) where the package looks
    them up."""
    if target in ("K", "Kbar"):
        k_matrix = mo.k_matrix

        def changed(model, kind, x):
            K = k_matrix(model, kind, x)
            return change(K) if kind == target else K
        monkeypatch.setattr(mo, "k_matrix", changed)
    elif target in ("B", "Bbar"):
        local_operators = mo.local_operators

        def changed(model):
            w, B, Bbar = local_operators(model)
            return (w, change(B), Bbar) if target == "B" else \
                (w, B, change(Bbar))
        monkeypatch.setattr(mo, "local_operators", changed)
    else:
        r_matrix = mo.r_matrix
        monkeypatch.setattr(mo, "r_matrix",
                            lambda model, x: change(r_matrix(model, x)))


def _corner_cancelling(rep, x, target):
    """change(M) = M + E, with E chosen so that the residuals of the
    target's relations vanish at the interior corner (0, 0) but not next to
    it: the witness then lies off the diagonal, where a transposed read of
    a right relation would show."""
    G = _oracle_letters(rep)
    W, V = _closed_form_boundary(rep.meta, rep.N)
    y = 1 / x if target in ("K", "Kbar") else F(1)
    t0, t1 = (_oracle_component(G, j, y).apply(V)[0] if "bar" in target
              else _oracle_component(G, j, y).apply_left(W)[0]
              for j in (0, 1))
    return lambda M: M + Matrix([[t1, -t0], [t1, -t0]])

def _oracle_gz_residuals(rep, x):
    """{check: residual} of check_gz on the Fraction oracle: <W| op for the
    left relations, op |V> for the right ones."""
    model = an._rd_model(rep)
    G = _oracle_letters(rep)
    W, V = _closed_form_boundary(rep.meta, rep.N)
    K, Kb = mo.k_matrix(model, "K", x), mo.k_matrix(model, "Kbar", x)
    _, B, Bbar = mo.local_operators(model)
    Ax, Ainv, A1 = ([_oracle_component(G, i, y) for i in (0, 1)]
                    for y in (x, 1 / x, F(1)))
    Ap = [_oracle_derivative(G, i).scale(1 / model.rho) for i in (0, 1)]
    minus_Ap = [a.scale(F(-1)) for a in Ap]
    out = {}   # in report order
    for family, M, A, sub, on_V in (
            ("gz.left", K, Ainv, Ax, False), ("gz.right", Kb, Ainv, Ax, True),
            ("gz.left_derivative", B, A1, Ap, False),
            ("gz.right_derivative", Bbar, A1, minus_Ap, True)):
        for i in (0, 1):
            op = A[0].scale(M.a[i][0]) + A[1].scale(M.a[i][1]) - sub[i]
            out[f"{family}[{i}]"] = op.apply(V) if on_V else op.apply_left(W)
    out["gz.c_symmetry[0]"] = (Ax[0] + Ax[1] - Ainv[0] - Ainv[1]).apply_left(W)
    return out


def _first_interior_nonzero(residual, N):
    for n in range(N - 1):
        for m in range(N - 1):
            if residual[n * N + m] != 0:
                return {"row": n, "col": m,
                        "lhs": format_rational(residual[n * N + m]),
                        "rhs": "0"}
    return None


@pytest.mark.parametrize("corner", [False, True])
@pytest.mark.parametrize("N", [5, 7])
@pytest.mark.parametrize("target, family", [
    ("K", "gz.left"), ("Kbar", "gz.right"), ("B", "gz.left_derivative"),
    ("Bbar", "gz.right_derivative")])
def test_gz_fails_with_the_oracle_witness(monkeypatch, N, target, family,
                                          corner):
    rep = an.rd_representation(3, F(1, 2), F(2, 3), F(1, 3), F(1, 5), N)
    for x in (F(2), F(-1, 3)):
        with monkeypatch.context() as mp:
            _perturb(mp, target, _corner_cancelling(rep, x, target)
                     if corner else _doubled)
            residuals = _oracle_gz_residuals(rep, x)
            reports = an.check_gz(rep, x)
        assert [r.check for r in reports] == list(residuals)
        for r in reports:
            want = _first_interior_nonzero(residuals[r.check], N)
            assert r.status == (vf.PASS if want is None else vf.FAIL)
            assert r.witness == want
            if corner and want is not None:
                n, m = want["row"], want["col"]
                assert residuals[r.check][n * N + m] != \
                    residuals[r.check][m * N + n]
        assert {r.check for r in reports if r.status == vf.FAIL} == \
            {f"{family}[0]", f"{family}[1]"}


@pytest.mark.parametrize("N", [5, 7])
def test_zf_representation_fails_with_the_oracle_witness(monkeypatch, N):
    rep = an.rd_representation(F(1, 2), F(3, 2), 2, F(1, 3), F(1, 5), N)
    x1, x2 = F(2), F(5, 2)
    _perturb(monkeypatch, "R", _doubled)
    report = an.check_zf(rep, x1, x2)
    G = _oracle_letters(rep)
    R = mo.r_matrix(an._rd_model(rep), x1 / x2)
    X1, X2 = ([_oracle_component(G, i, x) for i in (0, 1)] for x in (x1, x2))
    dim = N * N
    want = None
    for i, j in product((0, 1), repeat=2):
        lhs = SparseMatrix(dim)
        for k, l in product((0, 1), repeat=2):
            lhs = lhs + (X1[k] * X2[l]).scale(R.a[2 * i + j][2 * k + l])
        rhs = X2[j] * X1[i]
        want = next(({"row": i * dim + r, "col": j * dim + c,
                      "lhs": format_rational(lhs.get(r, c)),
                      "rhs": format_rational(rhs.get(r, c))}
                     for r in range(dim) for c in range(dim)
                     if lhs.get(r, c) != rhs.get(r, c)), None)
        if want is not None:
            break
    assert want is not None
    assert (report.check, report.status, report.witness) == \
        ("zf.representation", vf.FAIL, want)


def test_rd_relation_pole_reasons():
    rep = an.rd_representation(3, 1, 1, F(1, 2), F(1, 3), 5)
    reports = an.check_gz(rep, 0)
    assert [(r.check, r.status, r.reason) for r in reports] == [
        ("gz", vf.SKIPPED,
         "pole: 2x*((x^2-1)(alpha+gamma) + 2kappa(x^2+1)) vanishes at x=0")]
    for pts, reason in (((0, 3), "pole: A(x) has a 1/x term; x must be "
                                 "nonzero"),
                        ((2, 0), "pole: Fraction(1, 0)")):
        r = an.check_zf(rep, *pts)
        assert (r.check, r.status, r.reason) == \
            ("zf.representation", vf.SKIPPED, reason)
