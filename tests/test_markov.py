import math
from fractions import Fraction as F

import pytest

import exclusion as ex
import exclusion.markov as mk
from exclusion.tensor import SparseMatrix
from reference import entries, rows_apply, sparse_rows


def config(L: int, index: int) -> tuple:
    """The occupations of configuration index, site 1 its top bit."""
    return tuple((index >> (L - 1 - k)) & 1 for k in range(L))


def index(cfg) -> int:
    """The configuration index of the occupations cfg: config's inverse."""
    out = 0
    for tau in cfg:
        out = (out << 1) | tau
    return out


def test_build_markov_ssep_l1():
    M = ex.build_markov(ex.ssep(1, 1, 0, 0), 1)
    assert M == SparseMatrix([[-1, 1], [1, -1]])


def test_columns_sum_to_zero(all_models):
    for mdl in all_models:
        for L in (1, 2, 4, 8):
            M = ex.build_markov(mdl, L)
            sums = [F(0)] * M.dim
            for r, c, v in M.items():
                sums[c] += v
            assert all(s == 0 for s in sums)


def test_offdiagonal_nonnegative(all_models):
    for mdl in all_models:
        M = ex.build_markov(mdl, 3)
        assert all(v >= 0 for r, c, v in M.items() if r != c)


def test_steady_state_two_state_balance():
    mdl = ex.ssep(1, 1, 1, 1)
    d = mk.steady_state_exact(ex.build_markov(mdl, 1))
    assert d.probabilities()[1] == F(1, 2)


def test_steady_state_tasep_l2():
    d = mk.steady_state_exact(ex.build_markov(ex.tasep(1, 1), 2))
    assert d.probabilities() == [F(1, 5), F(1, 5), F(2, 5), F(1, 5)]


def test_kernel_dimension_one(all_models):
    for mdl in all_models:
        for L in (1, 3, 5):
            from exclusion.tensor import exact_nullspace
            assert len(exact_nullspace(ex.build_markov(mdl, L))) == 1


def test_steady_residual_exact(all_models):
    for mdl in all_models:
        M = ex.build_markov(mdl, 4)
        d = mk.steady_state_exact(M)
        assert all(x == 0 for x in rows_apply(sparse_rows(M),
                                              d.probabilities()))
        assert sum(d.weights) == d.Z


def test_config_indexing():
    assert config(3, 1) == (0, 0, 1)
    assert config(3, 4) == (1, 0, 0)
    assert index((1, 0, 0)) == 4
    assert all(index(config(3, i)) == i for i in range(8))


def test_density_symmetric_ssep():
    mdl = ex.ssep(1, 1, 1, 1)
    d = mk.steady_state_exact(ex.build_markov(mdl, 4))
    obs = mk.observables(d, mdl)
    assert obs["density"] == [F(1, 2)] * 4


def test_current_site_independent(asep_model, ssep_model, tasep_model):
    for mdl in (asep_model, ssep_model, tasep_model):
        for L in (3, 6):
            d = mk.steady_state_exact(ex.build_markov(mdl, L))
            obs = mk.observables(d, mdl)
            assert len(set(obs["current_lat"])) == 1
            assert all(j == 0 for j in obs["current_eva"])


def test_rd_current_balance_from_distribution(rd_model):
    d = mk.steady_state_exact(ex.build_markov(rd_model, 5))
    obs = mk.observables(d, rd_model)
    for i in range(1, 4):  # interior bonds
        bal = obs["current_lat"][i - 1] - obs["current_lat"][i] \
            - obs["current_eva"][i - 1] - obs["current_eva"][i]
        assert bal == 0


def test_rd_density_matches_closed_form(rd_model):
    from exclusion.ansatz import rd_closed_forms
    d = mk.steady_state_exact(ex.build_markov(rd_model, 2))
    obs = mk.observables(d, rd_model)
    cf = rd_closed_forms(rd_model.kappa, rd_model.alpha, rd_model.beta,
                         rd_model.gamma, rd_model.delta, 2, 1)
    assert obs["density"][0] == cf["density"]


def test_kernel_error_on_reducible_chain():
    with pytest.raises(mk.KernelError):  # zero generator: kernel dim 4
        mk.steady_state_exact(SparseMatrix.zeros(4, 4))


def test_evolve_t0_is_identity(ssep_model):
    M = ex.build_markov(ssep_model, 3)
    d = mk.steady_state_exact(M)
    out = mk.evolve(d, M, 0, 5)
    assert not out.exact
    assert list(out.probs) == [float(p) for p in d.probabilities()]


def test_evolve_steady_is_fixed_point(ssep_model):
    M = ex.build_markov(ssep_model, 3)
    d = mk.steady_state_exact(M)
    out = mk.evolve(d, M, F(5, 2), 200)
    assert max(abs(p - float(q)) for p, q in zip(out.probs, d.probabilities())) < 1e-12


def test_evolve_conserves_probability(asep_model):
    M = ex.build_markov(asep_model, 3)
    start = [F(1)] + [F(0)] * 7
    out = mk.evolve(start, M, 3, 400)
    assert abs(sum(out.probs) - 1.0) < 1e-12


def test_evolve_relaxes_to_steady(asep_model):
    M = ex.build_markov(asep_model, 4)
    d = mk.steady_state_exact(M)
    start = [F(0)] * 16
    start[3] = F(1)
    out = mk.evolve(start, M, 60, 900)
    l1 = sum(abs(p - float(q)) for p, q in zip(out.probs, d.probabilities()))
    assert l1 < 1e-8


def fraction_markov(model, L):
    """Oracle: the generator as a Fraction sum of embedded local terms."""
    from reference import embed_local
    w, B, Bbar = ex.local_operators(model)
    M = embed_local(B, 1, L) + embed_local(Bbar, L, L)
    for site in range(1, L):
        M = M + embed_local(w, site, L)
    return M


_R = (F(1, 2), F(2, 3), F(1, 3), F(1, 5))
_NEGATIVE = (F(1, 2), F(-2, 3), F(1, 3), F(1, 5))


@pytest.mark.filterwarnings("ignore:negative rate")
@pytest.mark.parametrize("rates", [_R, _NEGATIVE], ids=["rates", "negative"])
def test_generator_matches_the_fraction_sum(rates):
    for model in (ex.asep(F(3, 2), *rates), ex.ssep(*rates),
                  ex.tasep(*rates[:2]), ex.rd(3, *rates),
                  ex.rd(F(-1, 2), *rates)):
        for L in range(1, 9):
            M = ex.build_markov(model, L)
            assert all(type(v) is int for row in M._rows.values()
                       for v in row.values())
            assert M == fraction_markov(model, L)
            # at L = 1 only B and Bbar are placed
            placed = ex.local_operators(model)[L == 1:]
            assert M.den == math.lcm(*(e.denominator for op in placed
                                       for row in entries(op) for e in row))


def fraction_observables(dist, model):
    """Oracle: densities and currents summed one Fraction probability at a
    time over the configurations."""
    L = dist.L
    density = [F(0)] * L
    pair = [{(a, b): F(0) for a in (0, 1) for b in (0, 1)}
            for _ in range(L - 1)]
    for idx, p in enumerate(dist.probabilities()):
        cfg = config(L, idx)
        for i, tau in enumerate(cfg):
            if tau:
                density[i] += p
        for i in range(L - 1):
            pair[i][cfg[i], cfg[i + 1]] += p
    if model.name == "rd":
        hop = model.kappa ** 2
        lat = [hop * (pp[1, 0] - pp[0, 1]) for pp in pair]
        eva = [pp[1, 1] - pp[0, 0] for pp in pair]
    else:
        q_left = {"asep": model.q, "ssep": F(1)}.get(model.name, F(0))
        lat = [pp[1, 0] - q_left * pp[0, 1] for pp in pair]
        eva = [F(0)] * (L - 1)
    return {"density": density, "current_lat": lat, "current_eva": eva}


def assert_observables_match(dist, model):
    got = mk.observables(dist, model)
    assert got == fraction_observables(dist, model)
    assert all(type(x) is F for cells in got.values() for x in cells)


def test_observables_match_the_fraction_sum_on_the_nullspace():
    for model in (ex.asep(F(3, 2), *_R), ex.ssep(*_R), ex.tasep(*_R[:2]),
                  ex.rd(3, *_R), ex.rd(F(-1, 2), *_R)):
        for L in range(1, 8):
            dist = mk.steady_state_exact(mk.build_markov(model, L))
            assert_observables_match(dist, model)


def test_observables_match_the_fraction_sum_on_any_weights():
    # Z is not the sum of the weights, and its denominator does not divide
    # theirs; a zero and a negative weight are included
    dist = mk.Distribution(L=3, weights=(F(1, 3), F(0), F(2, 9), F(-5, 7),
                                         F(4), F(1, 6), F(3, 14), F(7, 5)),
                           Z=F(-11, 20))
    for model in (ex.asep(F(3, 2), *_R), ex.tasep(*_R[:2]), ex.rd(3, *_R)):
        assert_observables_match(dist, model)


def test_observables_match_the_fraction_sum_on_the_ansatz():
    # the RD ansatz carries non-integral weights of many hundred bits
    from exclusion.ansatz import steady_ansatz
    for model in (ex.tasep(*_R[:2]), ex.rd(3, 1, 1, 0, 0)):
        for L in (1, 2, 3, 5):
            dist = steady_ansatz(model, L)
            assert_observables_match(dist, model)
    assert any(w.denominator > 1 for w in dist.weights)
