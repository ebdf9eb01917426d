import warnings
from fractions import Fraction as F
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import exclusion as ex
import exclusion.ansatz as an
import exclusion.markov as mk
import exclusion.models as mo
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.scalars import float_repr, format_rational
from exclusion.tensor import PoleError, SparseMatrix
from certificates import exact, pins, profile, recorded
from reference import entries, entry, monodromy_components, \
    rd_current_balance, rows_apply, rows_apply_left, rows_product, rows_sum, \
    sparse_rows, word_product
from strategies import MODELS


def _contract(letters, W, V, word):
    """<W| X_1 ... X_k |V> word by word, the letters looked up by name."""
    vec = list(W)
    for letter in word:
        vec = rows_apply_left(sparse_rows(letters[letter]), vec)
    return sum(v * w for v, w in zip(vec, V))


# ----------------------------------------------------------------- TASEP

def test_tasep_dehp_relation_on_leading_block():
    rep = an.tasep_representation(F(1, 2), F(1, 3), 6)
    D, E = rep.letters["D"], rep.letters["E"]
    diff = D * E - D - E
    for i in range(5):
        for j in range(5):
            assert diff.get(i, j) == 0
    assert diff.get(5, 5) != 0  # truncation corner


def test_tasep_boundary_relations_interior():
    al, be = F(2, 3), F(3, 5)
    rep = an.tasep_representation(al, be, 6)
    E, D = rep.letters["E"], rep.letters["D"]
    wE = rows_apply_left(sparse_rows(E), rep.W)
    for n in range(5):
        assert al * wE[n] == rep.W[n]
    dV = rows_apply(sparse_rows(D), rep.V)
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


def test_tasep_rep_validation():
    with pytest.raises(ValueError):
        an.tasep_representation(0, 1, 4)
    with pytest.raises(ValueError):
        an.tasep_representation(1, 1, 1)


# ---------------------------------------------------------------- RD words
#
# The package holds the RD algebra as normal-ordered words: the entry
# (p, q) of a word of degree d, a SparseMatrix, is the coefficient of
# G2^(d-p-q) G1^p G3^q.  The tests keep two oracles of it, neither a
# package representation.  reference.word_product multiplies words held
# as {(s, p, q): Fraction} letter by letter.  _oracle_letters writes the
# shift representation on the truncated N (x) N space entry by entry from
# phi and N, its operators held as {row: {col: Fraction}} and combined by
# reference's rows_sum and rows_product, never by SparseMatrix arithmetic.
# The exchange rules hold in it on every entry, so a word is one operator
# there (_oracle_word) and a product of words the product of operators.
# Its boundary vectors, the closed forms of _closed_form_boundary, obey the
# boundary rules on the interior indices n, m < N - 1, where <W|G2, <W|G3
# and G2|V>, G1|V> are independent: a word residual vanishes there only if
# it is zero, so the package's word verdicts are the representation's.

def _oracle_letters(phi, N):
    """G1, G2, G3 of the RD representation entry by entry: G2[n,m] =
    phi^(n+m), G1 and G3 the unit shifts n+1 and m-1."""
    G1, G2, G3 = {}, {}, {}
    for n in range(N):
        for m in range(N):
            p = n * N + m
            G2[p] = {p: phi ** (n + m)}
            if n + 1 < N:
                G1[(n + 1) * N + m] = {p: F(1)}
            if m >= 1:
                G3[n * N + m - 1] = {p: F(1)}
    return {"G1": G1, "G2": G2, "G3": G3}


def _oracle_component(G, i, x):
    """A_+(x) = x G1 + G2 + G3/x (i = 0), A_-(x) = -x G1 + G2 - G3/x."""
    sign = 1 if i == 0 else -1
    return rows_sum([(sign * x, G["G1"]), (1, G["G2"]), (sign / x, G["G3"])])


def _oracle_derivative(G, i):
    """A_+'(1) = G1 - G3 and A_-'(1) = G3 - G1."""
    sign = 1 if i == 0 else -1
    return rows_sum([(sign, G["G1"]), (-sign, G["G3"])])


def _oracle_word(G, word):
    """The operator sum c G2^s G1^p G3^q of the word {(s, p, q): c}."""
    terms = []
    for (s, p, q), c in word.items():
        op = {r: {r: F(1)} for r in range(len(G["G2"]))}
        for letter in ["G2"] * s + ["G1"] * p + ["G3"] * q:
            op = rows_product(op, G[letter])
        terms.append((c, op))
    return rows_sum(terms)


def _word(w: SparseMatrix) -> dict:
    """A package word as {(s, p, q): Fraction}, read through items."""
    d = w.dim - 1
    return {(d - p - q, p, q): c for p, q, c in w.items()}


def _closed_form_boundary(co, N):
    """W[n,m] and V[n,m] entry by entry from the closed forms, for the
    boundary coefficients co of the rates:

        W[n,m] = c^k a^m phi^(k(k-1)/2) / tail[m],   k = n - m,
        V[n,m] = d^u b^n phi^(u(u-1)/2) / tail[n],   u = m - n,
        tail[m] = prod_{1<=j<=m} (1 - phi^(2j))."""
    a, b, c, d, phi = (co[k] for k in ("a", "b", "c", "d", "phi"))
    tail = [prod((1 - phi ** (2 * j) for j in range(1, k + 1)), start=F(1))
            for k in range(N)]
    W = [c ** (n - m) * a ** m * phi ** ((n - m) * (n - m - 1) // 2) / tail[m]
         for n in range(N) for m in range(N)]
    V = [d ** (m - n) * b ** n * phi ** ((m - n) * (m - n - 1) // 2) / tail[n]
         for n in range(N) for m in range(N)]
    return W, V


def _boundary_basis(G, W, V):
    """(<W|G2, <W|G3) and (G2|V>, G1|V>), each keyed by the entry (p, q)
    of a reduced word."""
    return ({(0, 0): rows_apply_left(G["G2"], W),
             (0, 1): rows_apply_left(G["G3"], W)},
            {(0, 0): rows_apply(G["G2"], V), (1, 0): rows_apply(G["G1"], V)})


def _oracle_coefficients(vec, basis, N):
    """{(p, q): c} with vec = sum c basis[(p, q)] on the interior indices
    n, m < N - 1: solved by Cramer's rule at the entries (0, 0) and (0, 1)
    or (1, 0) and asserted at every other."""
    (k0, u), (k1, v) = sorted(basis.items())
    i, j = 0, k1[0] * N + k1[1]          # the indices (0, 0) and k1
    det = u[i] * v[j] - u[j] * v[i]
    alpha = (vec[i] * v[j] - vec[j] * v[i]) / det
    beta = (u[i] * vec[j] - u[j] * vec[i]) / det
    assert all(vec[n * N + m] == alpha * u[n * N + m] + beta * v[n * N + m]
               for n in range(N - 1) for m in range(N - 1))
    return {k0: alpha, k1: beta}


def test_rd_exchange_relations_exact_on_truncation():
    phi = F(1, 2)
    G1, G2, G3 = (_oracle_letters(phi, 5)[k] for k in ("G1", "G2", "G3"))
    assert rows_product(G1, G2) == rows_sum([(1 / phi, rows_product(G2, G1))])
    assert rows_product(G1, G3) == rows_product(G3, G1)
    assert rows_product(G2, G3) == rows_sum([(1 / phi, rows_product(G3, G2))])


def test_rd_boundary_vectors_satisfy_recursions():
    co = an.rd_boundary_coefficients(3, 1, 1, F(1, 2), F(1, 3))
    N = 6
    a, b, c, d, phi = (co[k] for k in ("a", "b", "c", "d", "phi"))
    W, V = _closed_form_boundary(co, N)
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
    co = an.rd_boundary_coefficients(3, 1, 1, 0, 0)
    N = 6
    G1, G2, G3 = (_oracle_letters(co["phi"], N)[k] for k in ("G1", "G2", "G3"))
    a, b, c, d = (co[k] for k in ("a", "b", "c", "d"))
    W, V = _closed_form_boundary(co, N)
    lhs = rows_apply_left(rows_sum([(1, G1), (-c, G2), (-a, G3)]), W)
    for n in range(N - 1):
        for mm in range(N - 1):
            assert lhs[n * N + mm] == 0
    rhs = rows_apply(rows_sum([(1, G3), (-b, G1), (-d, G2)]), V)
    for n in range(N - 1):
        for mm in range(N - 1):
            assert rhs[n * N + mm] == 0


RD_RATES = [(F(1, 2), F(2, 3), F(1, 3), F(1, 5)),
            (F(3, 2), F(2), F(1, 2), F(1, 3)),
            (F(1), F(1), F(0), F(0))]


@pytest.mark.parametrize("rates", RD_RATES)
@pytest.mark.parametrize("kappa", [3, F(1, 2), F(-1, 3), -3])
def test_rd_boundary_vectors_are_independent_on_the_interior(kappa, rates):
    # a nonzero 2 x 2 minor of <W|G2, <W|G3 and of G2|V>, G1|V> on the
    # interior indices: <W|G2 and G2|V> are 1 at (0, 0), where <W|G3 and
    # G1|V> are 0, and <W|G3 is 1 at (0, 1), G1|V> at (1, 0)
    co = an.rd_boundary_coefficients(kappa, *rates)
    for N in (3, 5, 7):
        G = _oracle_letters(co["phi"], N)
        W, V = _closed_form_boundary(co, N)
        interior = [n * N + m for n in range(N - 1) for m in range(N - 1)]
        for basis in _boundary_basis(G, W, V):
            u, v = basis.values()
            assert any(u[i] * v[j] != u[j] * v[i]
                       for i, j in combinations(interior, 2))


def _check_words(co, N, thetas):
    # the package's words A_+-(theta), their products site by site and, where
    # the closed-form boundary vectors exist (c and d nonzero), their
    # boundary reductions, against the reference product and the oracle
    # representation
    phi = co["phi"]
    G = _oracle_letters(phi, N)
    ends = []
    if co["c"] and co["d"]:
        W, V = _closed_form_boundary(co, N)
        bases = _boundary_basis(G, W, V)
        ends = [(True, lambda op: rows_apply_left(op, W), bases[0]),
                (False, lambda op: rows_apply(op, V), bases[1])]
    got, want = SparseMatrix([[1]]), {(0, 0, 0): F(1)}
    op = {r: {r: F(1)} for r in range(N * N)}
    for j, theta in enumerate(thetas):
        A = an._a_words(theta)
        for i in (0, 1):
            Ai = _oracle_component(G, i, theta)
            assert _oracle_word(G, _word(A[i])) == Ai
            for left, end, basis in ends:
                reduced = an._at_boundary(A[i], co, left)
                assert {(p, q) for p, q, _ in reduced.items()} <= basis.keys()
                assert _oracle_coefficients(end(Ai), basis, N) == \
                    {k: reduced.get(*k) for k in basis}
        got = an._word_product(got, A[j % 2], phi)
        want = word_product(want, _word(A[j % 2]), phi)
        op = rows_product(op, _oracle_component(G, j % 2, theta))
        assert _word(got) == want
    assert _oracle_word(G, want) == op


@pytest.mark.parametrize("kappa", [3, 2, F(1, 2), F(1, 3), 4])
@pytest.mark.parametrize("rates", RD_RATES)
def test_rd_integer_tables_match_fraction_oracle(kappa, rates):
    # the package's RD words, int tables over one denominator, against the
    # Fraction oracles; kappa = 1/2 and 1/3 give phi = -1/3 and -1/2, and
    # kappa = 4 gives 3/5
    thetas = (F(3, 2), F(2), F(-1, 3), F(5), F(-2, 7))
    co = an.rd_boundary_coefficients(kappa, *rates)
    for N, L in ((4, 3), (5, 5)):
        _check_words(co, N, thetas[:L])


_rate = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6)
       .filter(lambda k: k not in (0, 1, -1)),
       _rate, _rate, _rate, _rate, st.integers(min_value=3, max_value=5),
       st.lists(_rate.filter(bool), min_size=1, max_size=5))
def test_rd_integer_tables_property(kappa, alpha, beta, gamma, delta, N,
                                    thetas):
    # any sign of kappa (|phi| > 1 included) and of the rates, c = 0 and
    # d = 0 included: a word reads phi only, a reduction any a, b, c, d
    try:
        co = an.rd_boundary_coefficients(kappa, alpha, beta, gamma, delta)
    except ValueError:
        assume(False)
    _check_words(co, N, thetas)


_words_of_degree = st.integers(0, 3).flatmap(lambda d: st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=(d + 1) * (d + 2) // 2, max_size=(d + 1) * (d + 2) // 2))


def _drawn_word(cs) -> SparseMatrix:
    """The word of degree d whose entries (p, q), p + q <= d, are cs in
    row-major order, len(cs) = (d + 1)(d + 2)/2."""
    d = round(((8 * len(cs) + 1) ** 0.5 - 3) / 2)
    it = iter(cs)
    return SparseMatrix([[next(it) if p + q <= d else 0 for q in range(d + 1)]
                         for p in range(d + 1)])


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6)
       .filter(bool), _words_of_degree, _words_of_degree)
def test_rd_word_product_is_the_reference(phi, cu, cv):
    u, v = _drawn_word(cu), _drawn_word(cv)
    assert _word(an._word_product(u, v, phi)) == \
        word_product(_word(u), _word(v), phi)


def test_rd_steady_matches_nullspace():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    for L in (2, 3, 4):
        got = an.steady_ansatz(mdl, L).probabilities()
        want = mk.steady_state_exact(ex.build_markov(mdl, L)).probabilities()
        assert got == want


def test_rd_ansatz_is_stationary():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    M = ex.build_markov(mdl, 3)
    probs = an.steady_ansatz(mdl, 3).probabilities()
    assert rows_apply(sparse_rows(M), probs) == [0] * 8


_any_rate = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _rd_or_none(kappa, alpha, beta, gamma, delta):
    """The RD model at these rates, or None where the boundary coefficients
    divide by zero, which neither the ansatz nor this test can take."""
    try:
        an.rd_boundary_coefficients(kappa, alpha, beta, gamma, delta)
    except ValueError:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # negative rates warn
        return ex.rd(kappa, alpha, beta, gamma, delta)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=4)
       .filter(lambda k: k not in (0, 1, -1)),
       _any_rate, _any_rate, _any_rate, _any_rate, st.integers(1, 6))
def test_rd_weights_equal_the_nullspace_at_random_rates(kappa, alpha, beta,
                                                        gamma, delta, L):
    # negative rates and |phi| > 1 (kappa < 0) included: the ansatz needs
    # no convergent series, and c = 0, d = 0 or an exact zero weight are
    # no special cases
    mdl = _rd_or_none(kappa, alpha, beta, gamma, delta)
    assume(mdl is not None)
    try:
        want = mk.steady_state_exact(ex.build_markov(mdl, L))
    except (ValueError, ZeroDivisionError):     # no unique kernel
        assume(False)
    try:
        got = an.steady_ansatz(mdl, L)
    except ValueError as exc:
        assert "vanishing denominator 1 - a b phi^(2s)" in str(exc)
        return
    assert got.probabilities() == want.probabilities()


def test_a_vanishing_recurrence_factor_names_it():
    # kappa = 3 (phi = 1/2) and a = b = 2 put 1 - a b phi^2 = 0: the chain
    # of one site needs only s = 0, two sites need s = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mdl = ex.rd(3, -1, -1, -1, -1)
    assert sum(an.steady_ansatz(mdl, 1).probabilities()) == 1
    with pytest.raises(ValueError, match=r"1 - a b phi\^\(2s\) at s = 1:"):
        an.steady_ansatz(mdl, 2)


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
        exact = profile(kappa, *rates, L, asymptotics=True)
        floats = profile(kappa, *rates, L, asymptotics=True, exact=False)
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


_COLUMNS = ("density", "current_lat", "current_eva", "density_asymptotic")


@settings(max_examples=40, deadline=None)
@given(MODELS["rd"], st.integers(min_value=2, max_value=300))
def test_float_profile_cells_are_certified(model, L):
    # kappa < 0 and 0 < |kappa| < 1 are drawn, so phi < 0 and |phi| > 1 occur
    assume(model.alpha != model.gamma and model.beta != model.delta)
    rates = (model.kappa, model.alpha, model.beta, model.gamma, model.delta)
    try:
        exact = list(profile(*rates, L, asymptotics=True))
    except ValueError:      # den = 0, or a vanishing boundary factor
        assume(False)
    with recorded() as certificates:
        floats = list(profile(*rates, L, asymptotics=True, exact=False))
    cells = [(k, row[k], frow[k]) for row, frow in zip(exact, floats)
             for k in _COLUMNS if row[k] is not None]
    assert len(floats) == L and len(certificates) == len(cells)
    for (column, value, printed), (kind, *cert) in zip(cells, certificates):
        assert isinstance(printed, float)
        assert format(printed, ".17g") == format(float(value), ".17g")
        if kind == "bracket":
            lo, hi = cert
            assert F(lo) <= value <= F(hi)
        else:       # saturation pins a density within 2^-55 of 1/2
            assert column in ("density", "density_asymptotic")
            assert abs(value - F(1, 2)) < F(1, 2 ** 55) and printed == 0.5


def test_an_exact_zero_current_takes_the_exact_quotient():
    # the middle bond's current_lat is exactly 0; its bracket straddles 0.
    # At L = 1500 both ends of that bracket round to a zero float
    for L in (40, 1500):
        with recorded() as certificates:
            rows = list(profile(F(1, 2), *PROFILE_RATES[2], L, exact=False))
        misses = [(lo, hi) for kind, lo, hi in certificates
                  if kind == "bracket" and not pins(lo, hi)]
        assert len(misses) == 1, L
        assert misses[0][0] < 0 < misses[0][1]
        assert float_repr(rows[L // 2 - 1]["current_lat"]) == "0"


_TWO_TO_MINUS_54 = F(1, 2 ** 54)


def _certified(kappa, rates, L):
    """(column, exact value, float, certificate) of every float cell."""
    exact = profile(kappa, *rates, L, asymptotics=True)
    with recorded() as certificates:
        floats = list(profile(kappa, *rates, L, asymptotics=True, exact=False))
    cells = [(k, row[k], frow[k]) for row, frow in zip(exact, floats)
             for k in _COLUMNS if row[k] is not None]
    assert len(certificates) == len(cells)
    return [(*cell, cert) for cell, cert in zip(cells, certificates)]


def test_saturation_pins_the_bulk_densities():
    # phi = 1/2: both terms of a density fall below 2^-54 some 55 sites in
    # from the ends, and amp phi^k as far in from its end
    L = 1200
    densities = [c for c in _certified(3, PROFILE_RATES[0], L)
                 if c[0] in ("density", "density_asymptotic")]
    saturated = [(value, printed) for _, value, printed, cert in densities
                 if cert[0] == "saturated"]
    assert len(densities) == 2 * L
    assert len(saturated) >= 0.9 * len(densities)
    for value, printed in saturated:
        assert abs(value - F(1, 2)) < _TWO_TO_MINUS_54 / 2
        assert printed == float(value) == 0.5


def test_saturation_fires_only_below_the_threshold():
    # phi = 2: the density terms U phi^(i-1) and V phi^(L-i) are both
    # small on sites 50..249 only, and amp phi^k never is
    kappa, rates, L = -3, PROFILE_RATES[0], 300
    co = an.rd_boundary_coefficients(kappa, *rates)
    a, b, c, d, phi = (co[k] for k in ("a", "b", "c", "d", "phi"))
    den = 1 - a * b * phi ** (2 * L - 2)
    U = (c + a * d * phi ** (L - 1)) / den
    V = (d + b * c * phi ** (L - 1)) / den
    fired = {"density": [], "density_asymptotic": []}
    for column, value, _, cert in _certified(kappa, rates, L):
        if column in fired:
            fired[column].append((value, cert[0] == "saturated"))
    for i, (value, hit) in enumerate(fired["density"], start=1):
        terms = abs(U * phi ** (i - 1)) + abs(V * phi ** (L - i))
        assert value == F(1, 2) - (U * phi ** (i - 1) + V * phi ** (L - i)) / 2
        if hit:
            assert terms < _TWO_TO_MINUS_54, i
        elif terms < _TWO_TO_MINUS_54 / 4:
            # each exact term below 2^-56, so each truncated one is too
            pytest.fail(f"site {i}: terms below 2^-56 left to a bracket")
    hits = [hit for _, hit in fired["density"]]
    assert 0 < sum(hits) < L
    for value, hit in fired["density_asymptotic"]:
        assert not hit and abs(2 * value - 1) >= _TWO_TO_MINUS_54


def test_saturation_keeps_its_margin_at_low_precision(monkeypatch):
    # at 12 bits an L = 60 chain has gain ~ 0.07: a computed term just below
    # 2^-54 may stand for an exact one above 2^-54, so saturation asks each
    # computed term to lie below 2^-56
    rates = PROFILE_RATES[1]
    want = list(profile(3, *rates, 300, asymptotics=True, exact=False))
    monkeypatch.setattr(an, "PROFILE_BITS", 12)
    enc = an._Enclosure(60)
    n_u = F(2 * 60 + 3, 2 ** 11)
    gain = n_u / (1 - 2 * n_u)
    assert F(1, 20) < gain <= F(1, 2 ** enc.shift)

    def saturated(*terms):
        out = enc.cell(an._HALF, 1, *terms)
        return out[1] is None

    for factor, fires in ((F(99, 100), False),
                          ((1 - gain) * F(102, 100), False),
                          (F(102, 400), False),
                          (F(98, 400), True)):
        t = _TWO_TO_MINUS_54 * factor
        m, e = enc.truncated(t.numerator, t.denominator)
        assert saturated(m, e, 0, an._NO_EXP) is fires, factor
        assert saturated(0, an._NO_EXP, m, e) is fires, factor
        h, e_h = enc.truncated(t.numerator, 2 * t.denominator)
        assert saturated(-h, e_h, h, e_h) is (factor < F(1, 2)), factor
        if fires:   # the exact terms stay below 2^-54 in sum
            assert (exact(m, e) + 2 * exact(h, e_h)) * (1 + gain) \
                < _TWO_TO_MINUS_54
    # and whole profiles at 16 bits print the 100-bit floats
    monkeypatch.setattr(an, "PROFILE_BITS", 16)
    cells = _certified(3, rates, 300)
    assert sum(cert[0] == "saturated" for *_, cert in cells) > 300
    assert [float_repr(printed) for _, _, printed, _ in cells] == \
        [float_repr(row[k]) for row in want for k in _COLUMNS
         if row[k] is not None]


@settings(max_examples=40, deadline=None)
@given(MODELS["rd"], st.integers(min_value=2, max_value=60),
       st.integers(min_value=11, max_value=40))
def test_float_profile_brackets_hold_at_low_width(model, L, width):
    # at 11..40 bits the error bound is wide and counts: each bracket must
    # still hold the exact cell, and each pinned float be its rounding
    assume(model.alpha != model.gamma and model.beta != model.delta)
    rates = (model.kappa, model.alpha, model.beta, model.gamma, model.delta)
    try:
        rows = list(profile(*rates, L, asymptotics=True))
    except ValueError:
        assume(False)
    cells = [(k, row[k]) for row in rows for k in _COLUMNS
             if row[k] is not None]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(an, "PROFILE_BITS", width)
        with recorded() as certificates:
            try:
                floats = list(profile(*rates, L, asymptotics=True,
                                      exact=False))
            except OverflowError:   # a cell beyond the float range
                assume(False)
    printed = [row[k] for row in floats for k in _COLUMNS
               if row[k] is not None]
    assert len(certificates) == len(cells) == len(printed)
    for (column, value), f, (kind, *cert) in zip(cells, printed,
                                                 certificates):
        assert format(f, ".17g") == format(float(value), ".17g")
        if kind == "bracket":
            lo, hi = cert
            assert lo <= value <= hi
        else:
            assert column in ("density", "density_asymptotic")
            assert abs(value - F(1, 2)) < F(1, 2 ** 55)


@pytest.mark.parametrize("kappa, rates, L", [
    (3, (0, 0, F(2, 3), 6), 3),                     # U = 0
    (3, (0, 0, 6, F(2, 3)), 3),                     # V = 0
    (F(-7, 5), PROFILE_RATES[1], 120),              # phi = 6
    (F(1, 2), PROFILE_RATES[2], 40)])               # phi < 0, a zero cell
def test_float_profile_zero_terms_take_no_exact_quotient(kappa, rates, L):
    # a term that is exactly 0 (U = 0, V = 0, the asymptotic column's
    # second term) sits below every other exponent, so only an
    # exact zero cell is left to the exact quotient
    rows = profile(kappa, *rates, L, asymptotics=True)
    cells = [row[k] for row in rows for k in _COLUMNS if row[k] is not None]
    with recorded() as certificates:
        floats = list(profile(kappa, *rates, L, asymptotics=True, exact=False))
    printed = [row[k] for row in floats for k in _COLUMNS
               if row[k] is not None]
    assert [format(f, ".17g") for f in printed] == \
        [format(float(v), ".17g") for v in cells]
    for value, (kind, *cert) in zip(cells, certificates):
        if kind == "bracket" and not pins(*cert):
            assert value == 0


def test_float_profile_at_phi_0():
    # kappa = 1, which the rd model refuses: phi^k = 0 for k >= 1, and the
    # middle currents have two zero terms
    L = 12
    floats = profile(1, *PROFILE_RATES[0], L, asymptotics=True, exact=False)
    for i, row in enumerate(floats, start=1):
        cf = an.rd_closed_forms(1, *PROFILE_RATES[0], L, i)
        want = {"density": cf["density"], "current_lat": cf["current_lat"],
                "current_eva": cf["current_eva"],
                "density_asymptotic": cf["asymptotics"]["density"]}
        assert _printed(row) == _printed(want), i


@pytest.mark.parametrize("asymptotics", [False, True])
@pytest.mark.parametrize("L", range(1, 9))
def test_exact_profile_at_phi_0_rounds_to_the_float_one(L, asymptotics):
    # kappa = 1: phi = 0, so v_(i+1) is not v_i / phi; every exact cell
    # rounds to the float cell
    rows = [profile(1, *rates, L, asymptotics=asymptotics, exact=exact)
            for rates in PROFILE_RATES for exact in (True, False)]
    for exact, floats in zip(rows[::2], rows[1::2]):
        for i, (want, got) in enumerate(zip(exact, floats, strict=True), 1):
            assert want.keys() == got.keys()
            assert {k: None if v is None else float(v)
                    for k, v in want.items()} == got, i


def test_pins_no_bracket_beyond_the_float_range():
    big = F(10) ** 400
    for lo, hi in ((big, big + 1), (-big - 1, -big), (F(1), big),
                   (-big, F(-1)), (F(2) ** 1024 - 1, F(2) ** 1024)):
        assert not pins(lo, hi), (lo, hi)
    # a narrow bracket below the edge still pins its float
    top = F(2) ** 1023
    assert pins(top, top + 1) and pins(-top - 1, -top)


_LEAST_NORMAL, _LEAST_SUBNORMAL = 2 ** -1022, 2 ** -1074


@pytest.mark.parametrize("m, e", [
    (1, -1022), ((1 << 60) + 1, -1082), ((1 << 60) - 1, -1082),
    (1, -1074), (1, -1075), (-1, -1075), (3, -1077), ((1 << 80) + 1, -1155),
    ((((1 << 50) + 1) << 10) + (1 << 9) - 1, -1084),
    ((((1 << 50) + 1) << 10) + (1 << 9) + 1, -1084),
    (-((((1 << 50) + 2) << 10) + (1 << 9) - 1), -1084),
    ((((1 << 50) + 1) << 1) + 1, -1075),
    (-1, -1076), (-5, -1200), (-1, -1074), (-(1 << 70), -1100),
    ((1 << 53) + 1, 0), ((1 << 53) + 3, 0), ((1 << 53) + 1, -600),
    (-((1 << 53) + 3), 700), ((1 << 54) - 1, 970), ((1 << 53) - 1, 971),
    ((1 << 54) - 2, 970), ((1 << 54) - 3, 970), (1, 1024), (-1, 1023),
    (1, 2000), (-(1 << 300), 800), (0, -5000), (0, 5000), (7, 0),
    ((1 << 1100) + 1, -1100), (-(1 << 1100), -2100)])
def test_to_float_rounds_as_the_fraction(m, e):
    # 2^-1022 +- a unit, 2^-1074, the tie 2^-1075 (to 0.0) and just above
    # it, -0.0, subnormals that a first rounding to 53 bits would round
    # twice, ties at 53 bits even and odd, and both sides of the overflow
    # threshold 2^1024 - 2^970, past which float() raises
    _assert_float_of(m, e)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-(2 ** 400) + 1, max_value=2 ** 400 - 1),
       st.integers(min_value=-1400, max_value=1100))
def test_to_float_rounds_as_the_fraction_everywhere(m, e):
    _assert_float_of(m, e)


def _assert_float_of(m, e):
    got = an._to_float(m, e)
    try:
        want = float(exact(m, e))
    except OverflowError:
        want = float("-inf") if m < 0 else float("inf")
    assert repr(got) == repr(want), (m, e)
    if m and abs(exact(m, e)) < _LEAST_SUBNORMAL / 2:
        assert got == 0 and repr(got) == ("-0.0" if m < 0 else "0.0")
    if 0 < abs(got) < _LEAST_NORMAL:
        assert abs(got) >= _LEAST_SUBNORMAL


def test_rd_current_balance_closed_form():
    for L in (5, 40, 100):
        for i in (2, L // 2, L - 1):
            assert rd_current_balance(3, 1, 1, F(1, 2), F(1, 3), L, i) == 0


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
    mdl = ex.rd(3, 1, 1, 0, 0)
    state = an.inhomogeneous_state(mdl, (F(1), F(1)))
    assert state == list(an.steady_ansatz(mdl, 2).weights)
    # no sites: the contraction is <W|V> in units of itself
    assert an.inhomogeneous_state(mdl, ()) == [1]


def test_inhomogeneous_state_theta_zero_rejected():
    with pytest.raises(PoleError, match="theta = 0"):
        an.inhomogeneous_state(ex.rd(3, 1, 1, 0, 0), (F(0), F(1)))


def test_inhomogeneous_state_is_the_rd_state():
    with pytest.raises(mo.UnsupportedError):
        an.inhomogeneous_state(ex.ssep(1, 1, 0, 0), (F(2),))


def test_partition_function_theta_inversion_invariance():
    # Z_L(theta), the sum of the inhomogeneous state, is unchanged by
    # theta_j -> 1/theta_j: A_+(x) + A_-(x) = 2 G2 at every x, so it is 2^L
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    z1, z2, z3 = (sum(an.inhomogeneous_state(mdl, thetas)) for thetas in
                  ((F(2), F(3)), (F(1, 2), F(3)), (F(2), F(1, 3))))
    assert z1 == z2 == z3 == 4


_theta = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(
    bool)


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=4)
       .filter(lambda k: k not in (0, 1, -1)),
       _any_rate, _any_rate, _any_rate, _any_rate,
       st.lists(_theta, min_size=1, max_size=4))
def test_inhomogeneous_state_is_an_exact_eigenpair(kappa, alpha, beta, gamma,
                                                   delta, thetas):
    # t(theta_j) S = S and t(1/theta_j) S = S with no tolerance; a pole of
    # t at a theta is the point's, not the state's
    mdl = _rd_or_none(kappa, alpha, beta, gamma, delta)
    assume(mdl is not None)
    try:
        state = an.inhomogeneous_state(mdl, thetas)
    except ValueError as exc:
        assert "vanishing denominator 1 - a b phi^(2s)" in str(exc)
        return
    spec = tr.TransferSpec(mdl, len(thetas), thetas)
    for theta in thetas:
        for x in (theta, 1 / theta):
            try:
                rep = tr.check_eigenpair(spec, x, state, eigenvalue=1)
            except ZeroDivisionError:
                continue
            assert rep.status == vf.PASS, (x, rep)


# --------------------------------------------------------------- ZF relation

def _zf(realization, x1, x2) -> dict:
    """{check: report} of the ZF records at (x1, x2) of the RD model or of
    a monodromy realization."""
    model = getattr(realization, "model", realization)
    return {r.check: r for r in vf.run(
        model, an.zf_relations(realization, x1, x2))}


def _gz(model, x) -> list:
    return vf.run(model, an.gz_relations(model, x))


def test_zf_monodromy(asep_model, ssep_model, tasep_model):
    for mdl, pts in ((asep_model, (F(2), F(3))), (ssep_model, (F(5), F(3))),
                     (tasep_model, (F(2), F(3)))):
        for Lp in (1, 2, 3):
            mono = an.MonodromyRealization(mdl, Lp)
            assert _zf(mono, *pts)["zf.monodromy"].status == vf.PASS


@pytest.mark.parametrize("Lp", [1, 2, 3, 4])
def test_monodromy_components_equal_the_embedded_product(
        asep_model, ssep_model, tasep_model, Lp):
    # the coproduct against the monodromy multiplied out on the auxiliary
    # (x) chain space, entry for entry; at the identity point on the
    # values and on the derivatives, against the product over dual numbers
    for mdl in (asep_model, ssep_model, tasep_model):
        for x in (F(2), F(3, 7), F(-5, 2), F(1, 3)):
            got = an.MonodromyRealization(mdl, Lp).components(x)
            assert got == monodromy_components(mdl, Lp, x), (mdl.name, x)
        x = mdl.identity_point
        got = an.MonodromyRealization(mdl, Lp).components(x, derivative=True)
        assert got == monodromy_components(mdl, Lp, x, derivative=True), \
            mdl.name
        assert any(Xp.nnz for Xp in got[1])


def test_zf_twice_and_c_commutation(asep_model, ssep_model):
    for mdl, pts in ((asep_model, (F(2), F(3))), (ssep_model, (F(5), F(3)))):
        reports = _zf(an.MonodromyRealization(mdl, 2), *pts)
        assert reports["zf.twice"].status == vf.PASS
        assert reports["zf.c_commutation"].status == vf.PASS


def test_zf_derivative_consequence(all_models):
    for mdl in all_models:
        if mdl.name == "rd":
            continue
        mono = an.MonodromyRealization(mdl, 2)
        report = _zf(mono, F(2), F(3))["zf.derivative"]
        assert (report.status, report.points) == \
            (vf.PASS, (format_rational(mdl.identity_point),))


def test_zf_rd_representation():
    # the RD model yields the exchange relation only
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    assert [(r.check, r.status) for r in _zf(mdl, F(2), F(3)).values()] == \
        [("zf.representation", vf.PASS)]


def test_the_word_records_are_rd_s(asep_model):
    # another model's ZF records come from a MonodromyRealization, and it
    # has no GZ records
    for records in (an.zf_relations(asep_model, 2, 3),
                    an.gz_relations(asep_model, 2)):
        with pytest.raises(ex.UnsupportedError):
            next(records)


def test_monodromy_rejects_rd(rd_model):
    with pytest.raises(ex.UnsupportedError):
        an.MonodromyRealization(rd_model, 2)


def _gauge(monkeypatch, a, b):
    """v(x) in the gauge (a v0(x), b), v0 the first entry of the fixed one,
    and with derivative the pair (v(x), (a v0'(x), 0))."""
    fixed = mo.markov_vector

    def gauged(model, x, derivative=False):
        (v0, _), (d0, _) = fixed(model, x, derivative=True)
        v = (a * v0, b)
        return (v, (a * d0, 0)) if derivative else v
    monkeypatch.setattr(mo, "markov_vector", gauged)


def test_zf_gauge_constants_are_immaterial(monkeypatch):
    # the free constants (a, b) of v(x) cancel in the exchange relation
    for a, b in ((2, 3), (F(1, 5), 7)):
        _gauge(monkeypatch, a, b)
        mdl = ex.asep(2, 1, 1, F(1, 2), F(1, 3))
        reports = _zf(an.MonodromyRealization(mdl, 2), F(2), F(3))
        assert reports["zf.monodromy"].status == vf.PASS
        assert reports["zf.derivative"].status == vf.PASS
        monkeypatch.undo()
    _gauge(monkeypatch, F(3, 2), 5)
    sm = ex.ssep(1, 1, F(1, 2), F(1, 3))
    mono = an.MonodromyRealization(sm, 2)
    assert _zf(mono, F(5), F(3))["zf.monodromy"].status == vf.PASS


# --------------------------------------------------------------- GZ relation

def test_gz_identity_point_trivial():
    reports = _gz(ex.rd(3, 1, 1, 0, 0), F(1))
    assert all(r.status == vf.PASS for r in reports)


def test_gz_interior(rd_model):
    # the relations hold as words; on the interior of the oracle
    # representation that is the same verdict
    reports = _gz(rd_model, F(2))
    assert len(reports) == 9
    assert all(r.status == vf.PASS for r in reports), \
        [(r.check, r.witness) for r in reports if r.status != vf.PASS]


def test_gz_with_zero_extraction_rates():
    reports = _gz(ex.rd(3, 1, 1, 0, 0), F(2))
    assert all(r.status == vf.PASS for r in reports)


def test_c_derivative_vanishes():
    # C(x) = 2 G2 for the RD ansatz: C'(1) = 0 identically
    G = _oracle_letters(F(1, 2), 5)
    Cp = rows_sum([(1, _oracle_derivative(G, i)) for i in (0, 1)])
    assert Cp == {}


_kappa = st.fractions(min_value=-4, max_value=4, max_denominator=6) \
    .filter(lambda k: k not in (0, 1, -1))
_point = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(_kappa, _rate, _rate, _rate, _rate, _point, _point, _point)
@example(F(-3), F(1, 2), F(2), F(1, 2), F(2), F(2), F(3), F(5, 2))  # c = d = 0
@example(F(3), F(1), F(1, 2), F(1), F(1, 3), F(-1, 2), F(2), F(-3))  # c = 0
def test_rd_relations_pass_or_meet_a_pole_at_random_rates(
        kappa, alpha, beta, gamma, delta, x1, x2, x):
    # kappa of both signs (|phi| > 1 for kappa < 0), any sign of the rates,
    # c = 0 (alpha = gamma) and d = 0 (beta = delta) included: no relation
    # of the algebra fails, and a Skipped is a pole
    mdl = _rd_or_none(kappa, alpha, beta, gamma, delta)
    assume(mdl is not None)
    reports = vf.run(mdl, an.zf_relations(mdl, x1, x2)) + _gz(mdl, x)
    assert reports
    for r in reports:
        assert r.status == vf.PASS or \
            (r.status == vf.SKIPPED and r.reason.startswith("pole: ")), r


# ------------------------------------------ RD relation failures and poles

def _doubled(M):
    """2 M, and of a pair (M, M') both parts doubled."""
    if isinstance(M, tuple):
        return tuple(map(_doubled, M))
    return SparseMatrix([[2 * v for v in row] for row in entries(M)])


def _perturb(monkeypatch, target, change):
    """Replace K, Kbar, B, Bbar or R by change(it) where the package looks
    them up."""
    if target in ("K", "Kbar"):
        k_matrix = mo.k_matrix

        def changed(model, kind, x, derivative=False):
            K = k_matrix(model, kind, x, derivative)
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
        monkeypatch.setattr(mo, "r_matrix", lambda model, x, derivative=False:
                            change(r_matrix(model, x, derivative)))


RD_FAIL_RATES = (3, F(1, 2), F(2, 3), F(1, 3), F(1, 5))


def _corner_cancelling(co, N, x, target):
    """change(M) = M + E, with E chosen so that the coefficient (0, 0) of
    the target's relations, at the index (0, 0) of the oracle's boundary
    vectors, still agrees, but not the other: the witness then lies off
    the diagonal, at (0, 1) on the left and (1, 0) on the right, where a
    transposed read would show."""
    G = _oracle_letters(co["phi"], N)
    W, V = _closed_form_boundary(co, N)
    y = 1 / x if target in ("K", "Kbar") else F(1)
    t0, t1 = (rows_apply(_oracle_component(G, j, y), V)[0] if "bar" in target
              else rows_apply_left(_oracle_component(G, j, y), W)[0]
              for j in (0, 1))
    return lambda M: M + SparseMatrix([[t1, -t0], [t1, -t0]])


def _oracle_gz_sides(model, co, N, x):
    """{check: (lhs, rhs)} of the GZ records on the Fraction oracle, each
    side the coefficients of its vector, <W| op on the left and op |V> on
    the right, on the boundary basis."""
    G = _oracle_letters(co["phi"], N)
    W, V = _closed_form_boundary(co, N)
    left, right = _boundary_basis(G, W, V)
    K, Kb = mo.k_matrix(model, "K", x), mo.k_matrix(model, "Kbar", x)
    _, B, Bbar = mo.local_operators(model)
    Ax, Ainv, A1 = ([_oracle_component(G, i, y) for i in (0, 1)]
                    for y in (x, 1 / x, F(1)))
    Ap = [rows_sum([(1 / model.rho, _oracle_derivative(G, i))])
          for i in (0, 1)]
    minus_Ap = [rows_sum([(-1, a)]) for a in Ap]

    def side(op, on_V):
        vec = rows_apply(op, V) if on_V else rows_apply_left(op, W)
        return _oracle_coefficients(vec, right if on_V else left, N)

    out = {}   # in report order
    for family, M, A, sub, on_V in (
            ("gz.left", K, Ainv, Ax, False), ("gz.right", Kb, Ainv, Ax, True),
            ("gz.left_derivative", B, A1, Ap, False),
            ("gz.right_derivative", Bbar, A1, minus_Ap, True)):
        for i in (0, 1):
            mix = rows_sum([(M.get(i, 0), A[0]), (M.get(i, 1), A[1])])
            out[f"{family}[{i}]"] = side(mix, on_V), side(sub[i], on_V)
    out["gz.c_symmetry[0]"] = tuple(
        side(rows_sum([(1, A[0]), (1, A[1])]), False) for A in (Ax, Ainv))
    return out


def _first_mismatch(lhs: dict, rhs: dict):
    """The first (p, q), row-major, where two {(p, q): coefficient} differ,
    as a witness."""
    for p, q in sorted(lhs.keys() | rhs.keys()):
        a, b = lhs.get((p, q), 0), rhs.get((p, q), 0)
        if a != b:
            return {"row": p, "col": q, "lhs": format_rational(a),
                    "rhs": format_rational(b)}
    return None


@pytest.mark.parametrize("corner", [False, True])
@pytest.mark.parametrize("N", [5, 7])
@pytest.mark.parametrize("target, family", [
    ("K", "gz.left"), ("Kbar", "gz.right"), ("B", "gz.left_derivative"),
    ("Bbar", "gz.right_derivative")])
def test_gz_fails_with_the_oracle_witness(monkeypatch, N, target, family,
                                          corner):
    # the oracle's sides at the truncation N, read as coefficients on the
    # boundary basis; the package's witness is the first differing entry
    # (p, q) of the reduced words
    mdl = ex.rd(*RD_FAIL_RATES)
    co = an.rd_boundary_coefficients(*RD_FAIL_RATES)
    for x in (F(2), F(-1, 3)):
        with monkeypatch.context() as mp:
            _perturb(mp, target, _corner_cancelling(co, N, x, target)
                     if corner else _doubled)
            sides = _oracle_gz_sides(mdl, co, N, x)
            reports = _gz(mdl, x)
        assert [r.check for r in reports] == list(sides)
        for r in reports:
            want = _first_mismatch(*sides[r.check])
            assert r.status == (vf.PASS if want is None else vf.FAIL)
            assert r.witness == want
            if corner and want is not None:
                assert (want["row"], want["col"]) == \
                    ((1, 0) if "right" in family else (0, 1))
        assert {r.check for r in reports if r.status == vf.FAIL} == \
            {f"{family}[0]", f"{family}[1]"}


def _exchange_witness(R, X1, X2, h, times=rows_product):
    """The first differing entry, row-major, of the two sides of the
    exchange relation as 2 x 2 block operators of h x h blocks, block (i,
    j) of the sides sum_kl R[2i+j][2k+l] X1[k] X2[l] and X2[j] X1[i], the
    components held as rows and multiplied by times: entry (r, c) of block
    (i, j) is at row i h + r, column j h + c."""
    sides = {(i, j): (rows_sum([(R.get(2 * i + j, 2 * k + l),
                                 times(X1[k], X2[l]))
                                for k, l in product((0, 1), repeat=2)]),
                      times(X2[j], X1[i]))
             for i, j in product((0, 1), repeat=2)}
    for row, col in product(range(2 * h), repeat=2):
        lhs, rhs = sides[row // h, col // h]
        a, b = entry(lhs, row % h, col % h), entry(rhs, row % h, col % h)
        if a != b:
            return {"row": row, "col": col, "lhs": format_rational(a),
                    "rhs": format_rational(b)}
    return None


def _word_rows(word: dict) -> dict:
    """The word {(s, p, q): c} as rows {p: {q: c}}, the package's layout."""
    out = {}
    for (_, p, q), c in word.items():
        out.setdefault(p, {})[q] = c
    return out


def _rows_word(rows: dict, d: int) -> dict:
    """Rows {p: {q: c}} as the word {(s, p, q): c} of degree d."""
    return {(d - p - q, p, q): c for p, row in rows.items()
            for q, c in row.items()}


@pytest.mark.parametrize("N", [5, 7])
def test_zf_representation_fails_with_the_oracle_witness(monkeypatch, N):
    # the witness is the entry (p, q) of the word in block (i, j), at row
    # 3i + p, column 3j + q, of the sides multiplied by reference's word
    # product; the oracle representation at the truncation N maps each of
    # those products to the product of its operators
    mdl = ex.rd(F(1, 2), F(3, 2), 2, F(1, 3), F(1, 5))
    x1, x2 = F(2), F(5, 2)
    _perturb(monkeypatch, "R", _doubled)
    report, = vf.run(mdl, an.zf_relations(mdl, x1, x2))
    phi = (mdl.kappa - 1) / (mdl.kappa + 1)

    def times(a, b):
        return _word_rows(word_product(_rows_word(a, 1), _rows_word(b, 1),
                                       phi))

    R = mo.r_matrix(mdl, x1 / x2)
    X1, X2 = ([_word_rows({(1, 0, 0): F(1), (0, 1, 0): sign * x,
                           (0, 0, 1): sign / x}) for sign in (1, -1)]
              for x in (x1, x2))
    want = _exchange_witness(R, X1, X2, 3, times)
    assert want is not None
    assert (report.check, report.status, report.witness) == \
        ("zf.representation", vf.FAIL, want)
    G = _oracle_letters(phi, N)
    ops = {x: [_oracle_component(G, i, x) for i in (0, 1)] for x in (x1, x2)}
    for (x, X), (y, Y) in product(((x1, X1), (x2, X2)), repeat=2):
        for k, l in product((0, 1), repeat=2):
            assert _oracle_word(G, _rows_word(times(X[k], Y[l]), 2)) == \
                rows_product(ops[x][k], ops[y][l])


@pytest.mark.parametrize("kept", [0, 1, 2])
@pytest.mark.parametrize("name", ["asep", "ssep", "tasep"])
def test_zf_monodromy_fails_with_the_oracle_witness(monkeypatch, all_models,
                                                    name, kept):
    # kept = 0 doubles R everywhere.  Otherwise only R(c(x1, x2)) changes,
    # its rows from kept on doubled: the blocks (i, j) with 2i + j < kept
    # still pass, and the witness lies in a later block
    mdl = next(md for md in all_models if md.name == name)
    x1, x2 = (F(5), F(3)) if name == "ssep" else (F(2), F(3))
    at = mdl.convention.compose(x1, x2)
    if kept:
        r_matrix = mo.r_matrix
        def changed(model, x, derivative=False):
            if derivative or x != at:
                return r_matrix(model, x, derivative)
            rows = entries(r_matrix(model, x))
            return SparseMatrix(rows[:kept] + [[2 * v for v in row]
                                               for row in rows[kept:]])
        monkeypatch.setattr(mo, "r_matrix", changed)
    else:
        _perturb(monkeypatch, "R", _doubled)
    mono = an.MonodromyRealization(mdl, 2)
    report = _zf(mono, x1, x2)["zf.monodromy"]
    R = mo.r_matrix(mdl, at)
    # the R-mixed products on the components' entries, multiplied out by
    # the reference's row arithmetic
    X1, X2 = ([sparse_rows(X) for X in mono.components(x)] for x in (x1, x2))
    h = 1 << 2
    want = _exchange_witness(R, X1, X2, h)
    assert want is not None
    assert (report.check, report.status, report.witness) == \
        ("zf.monodromy", vf.FAIL, want)
    if kept:
        assert want["row"] >= h or want["col"] >= h


def test_rd_relation_pole_reasons():
    mdl = ex.rd(3, 1, 1, F(1, 2), F(1, 3))
    reports = _gz(mdl, 0)
    assert [(r.check, r.status, r.reason) for r in reports] == [
        ("gz", vf.SKIPPED,
         "pole: 2x*((x^2-1)(alpha+gamma) + 2kappa(x^2+1)) vanishes at x=0")]
    for pts, reason in (((0, 3), "pole: A(x) has a 1/x term; x must be "
                                 "nonzero"),
                        ((2, 0), "pole: Fraction(1, 0)")):
        r, = vf.run(mdl, an.zf_relations(mdl, *pts))
        assert (r.check, r.status, r.reason) == \
            ("zf.representation", vf.SKIPPED, reason)


@pytest.mark.parametrize("pts, once, per_record", [
    # monodromy x1, x2 and the identity point, RD x1 and x2; per record
    # the monodromy family built them 7 times
    ((F(2), F(3)), 3 + 2, 7 + 2),
    # q x = 1 at x1 = 1/2 for q = 2: the pole is not kept, so each record
    # meets it afresh at x1 and stops there
    ((F(1, 2), F(3)), 4 + 2, 4 + 2),
])
def test_zf_relations_build_the_components_once_per_point(
        asep_model, rd_model, pts, once, per_record, monkeypatch):
    # the reports are those of the per-record builds; the RD components are
    # the words of _a_words
    calls = []
    real = an.MonodromyRealization.components
    monkeypatch.setattr(an.MonodromyRealization, "components",
                        lambda self, x, *args, **kwargs:
                        calls.append(x) or real(self, x, *args, **kwargs))
    words = an._a_words
    monkeypatch.setattr(an, "_a_words", lambda x: calls.append(x) or words(x))
    realizations = (an.MonodromyRealization(asep_model, 2), rd_model)
    runs = []
    for cached in (True, False):
        if not cached:
            monkeypatch.setattr(an, "cache", lambda f: f)
        calls.clear()
        runs.append(([vf.run(getattr(r, "model", r), an.zf_relations(r, *pts))
                      for r in realizations], len(calls)))
    (reports, n_once), (per_record_reports, n_per_record) = runs
    assert reports == per_record_reports
    assert (n_once, n_per_record) == (once, per_record)


def test_monodromy_pole_reasons(asep_model):
    # q x - 1 = 0 at x = 1/2 for q = 2: each check at (x1, x2) is one
    # Skipped report, and the derivative at the identity point passes
    mono = an.MonodromyRealization(asep_model, 2)
    reports = _zf(mono, F(1, 2), F(3))
    assert list(reports) == ["zf.monodromy", "zf.twice", "zf.derivative",
                             "zf.c_commutation"]
    for name in ("zf.monodromy", "zf.twice", "zf.c_commutation"):
        r = reports[name]
        assert (r.check, r.status, r.points, r.reason) == \
            (name, vf.SKIPPED, ("1/2", "3"),
             "pole: q*x - 1 vanishes at x=1/2")
    assert reports["zf.derivative"].status == vf.PASS
