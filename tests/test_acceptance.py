"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every equality below is exact rational equality unless a tolerance is part
of the criterion (truncation-backed RD statements, the float relaxation).
"""

from fractions import Fraction as F

import exclusion as ex
import exclusion.ansatz as an
import exclusion.markov as mk
import exclusion.transfer as tr
import exclusion.verifier as vf
from exclusion.sampling import sample_points
from reference import rd_current_balance

RATES = dict(alpha=F(1), beta=F(1), gamma=F(1, 2), delta=F(1, 3))
REL_10 = F(1, 10 ** 10)


def models():
    return [ex.asep(F(2), **RATES), ex.ssep(**RATES), ex.tasep(F(1), F(1)),
            ex.rd(F(3), **RATES)]


def announce(num, ok, text):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def test_acceptance_01_identity_suite():
    failures = []
    for mdl in models():
        points = sample_points(mdl, 5, seed=2024)
        for rep in vf.run_model_suite(mdl, points):
            if rep.status == vf.FAIL:
                failures.append((mdl.name, rep.check, rep.witness))
            if mdl.name == "tasep" and rep.check in ("r.crossing",
                                                     "reflection.Ktilde"):
                if rep.status != vf.SKIPPED:
                    failures.append((mdl.name, rep.check, "expected Skipped"))
    announce(1, not failures,
             "verifier identity suite exact at 5 seeded points per model "
             f"(failures: {failures})")


def test_acceptance_02_markov_from_transfer():
    bad = []
    for mdl in models():
        for L in range(1, 6):
            rep = tr.markov_from_transfer(mdl, L)
            if rep.status != vf.PASS:
                bad.append((mdl.name, L, rep.witness or rep.reason))
    announce(2, not bad,
             f"(1/2rho) t'(identity) = M exactly, all models, L=1..5 {bad}")


def test_acceptance_03_commutation():
    pairs = [(F(2), F(3)), (F(5, 2), F(7, 3)), (F(4), F(9, 2))]
    bad = []
    for mdl in models():
        for L in (2, 3, 4):
            spec = tr.TransferSpec(mdl, L)
            for x, x2 in pairs:
                rep = tr.check_commutation(spec, x, x2)
                if rep.status != vf.PASS:
                    bad.append((mdl.name, L, str(x), str(x2), rep.status))
    announce(3, not bad,
             f"[t(x), t(x')] = 0 exactly, all models, L=2..4, 3 pairs {bad}")


def test_acceptance_04_eigenvalue_formulas():
    # ASEP thetas must avoid q-conjugate pairs (q th_i th_j = 1): poles of
    # the closed-form eigenvalue
    theta_sets = {
        "ssep": (F(1, 2), F(2, 3), F(2, 5)),
        "asep": (F(3, 2), F(2, 5), F(7, 4)),
    }
    xs = (F(2), F(3), F(4))
    bad = []
    for mdl in (ex.ssep(**RATES), ex.asep(F(2), **RATES)):
        for L in (1, 2, 3):
            for inhomog in (False, True):
                thetas = theta_sets[mdl.name][:L] if inhomog else None
                spec = tr.TransferSpec(mdl, L, thetas)
                if inhomog:
                    vec = tr.eigenvector_from_nullspace(spec, F(7, 2))
                else:
                    vec = mk.steady_state_exact(
                        ex.build_markov(mdl, L)).probabilities()
                for x in xs:
                    r = tr.check_eigenpair(spec, x, vec, side="right")
                    l = tr.left_eigen_ones(spec, x)
                    c = tr.check_crossing_symmetry_t(spec, x)
                    for rep in (r, l, c):
                        if rep.status != vf.PASS:
                            bad.append((mdl.name, L, inhomog, str(x),
                                        rep.check, rep.status))
                for t in spec.thetas:
                    if tr.lambda_eigenvalue(mdl, t, spec.thetas) != 1:
                        bad.append((mdl.name, L, inhomog, "lambda(theta)!=1"))
    announce(4, not bad,
             "t pi = lambda pi, <1|t = lambda<1|, lambda(theta_i)=1 and the "
             f"crossing relations, exactly {bad}")


def test_acceptance_05_ansatz_vs_oracle():
    bad = []
    # TASEP: truncated DEHP contraction == nullspace, exactly
    for al, be, Ls in ((F(1), F(1), range(1, 9)),
                       (F(1, 2), F(1, 3), range(1, 7)),
                       (F(2, 3), F(3, 5), range(1, 7))):
        for L in Ls:
            rep = an.tasep_representation(al, be, L + 1)
            got = an.steady_from_ansatz(rep, L).probabilities()
            want = mk.steady_state_exact(
                ex.build_markov(ex.tasep(al, be), L)).probabilities()
            if got != want:
                bad.append(("tasep", str(al), str(be), L))
    mdl = ex.rd(F(3), **RATES)
    for L in range(2, 7):
        got = an.steady_ansatz(mdl, L).probabilities()
        dist = mk.steady_state_exact(ex.build_markov(mdl, L))
        want = dist.probabilities()
        if not all(abs(g - w) <= REL_10 * abs(w) for g, w in zip(got, want)):
            bad.append(("rd ansatz", L))
        obs = mk.observables(dist, mdl)
        for i in range(1, L + 1):
            cf = an.rd_closed_forms(F(3), RATES["alpha"], RATES["beta"],
                                    RATES["gamma"], RATES["delta"], L, i)
            pairs = [(cf["density"], obs["density"][i - 1])]
            if i <= L - 1:
                pairs += [(cf["current_lat"], obs["current_lat"][i - 1]),
                          (cf["current_eva"], obs["current_eva"][i - 1])]
            for g, w in pairs:
                if abs(g - w) > REL_10 * max(abs(w), F(1)):
                    bad.append(("rd closed form", L, i))
    for L in (3, 10, 50, 100):
        for i in range(2, L):
            if rd_current_balance(F(3), RATES["alpha"], RATES["beta"],
                                     RATES["gamma"], RATES["delta"], L, i) != 0:
                bad.append(("rd balance", L, i))
    announce(5, not bad,
             "TASEP ansatz == nullspace exactly (L<=8); RD ansatz and closed "
             f"forms within 1e-10; current balance exact to L=100 {bad}")


def test_acceptance_06_rd_inhomogeneous_eigenvector():
    mdl = ex.rd(F(3), **RATES)
    bad = []
    for thetas in ((F(3), F(5)), (F(3), F(5), F(7))):
        L = len(thetas)
        state, meta = an.rd_inhomogeneous_converged(mdl, thetas)
        spec = tr.TransferSpec(mdl, L, thetas)
        for t in thetas:
            for x in (t, 1 / t):
                rep = tr.check_eigenpair(spec, x, state, eigenvalue=F(1),
                                         tolerance=REL_10)
                if rep.status != vf.PASS:
                    bad.append((L, str(x), rep.status))
    announce(6, not bad,
             f"t(theta_i)|S> = |S> and t(1/theta_i)|S> = |S> within 1e-10 {bad}")


def test_acceptance_07_zf_gz():
    bad = []
    for mdl in (ex.asep(F(2), **RATES), ex.ssep(**RATES), ex.tasep(F(1), F(1))):
        x1, x2 = (F(5), F(3)) if mdl.name == "ssep" else (F(2), F(3))
        for Lp in (1, 2, 3):
            mono = an.MonodromyRealization(mdl, Lp)
            for rep in vf.run(mdl, an.zf_relations(mono, x1, x2)):
                if rep.status != vf.PASS:
                    bad.append((mdl.name, Lp, rep.check, rep.status))
    rdrep = an.rd_representation(F(3), RATES["alpha"], RATES["beta"],
                                 RATES["gamma"], RATES["delta"], 7)
    for rep in vf.run(rdrep.model, an.zf_relations(rdrep, F(2), F(3))):
        if rep.status != vf.PASS:
            bad.append(("rd", rep.check))
    for x in (F(2), F(5, 2)):
        for rep in vf.run(rdrep.model, an.gz_relations(rdrep, x)):
            if rep.status != vf.PASS:
                bad.append(("rd", rep.check, str(x)))
    announce(7, not bad,
             "monodromy ZF exact (L'<=3); RD GZ and derivative consequences "
             f"exact on interior indices {bad}")


def test_acceptance_08_ssep_conjugated():
    mdl = ex.ssep(**RATES)
    bad = []
    for L, thetas in ((1, (F(1, 2),)), (2, (F(1, 2), F(2, 3)))):
        spec = tr.TransferSpec(mdl, L, thetas)
        for x in (F(2), F(3), F(9, 2)):
            for rep in tr.ssep_conjugated(spec, x):
                if rep.status != vf.PASS:
                    bad.append((L, str(x), rep.check, rep.status))
    announce(8, not bad,
             "Gamma conjugation gives the triangular D(x), diagonal Dt(x) and "
             f"<-|ts(x)|-> = lambda exactly {bad}")


def test_acceptance_09_profile_regimes():
    L = 60
    bad = []
    # kappa > 1: monotone boundary layers
    dens = [an.rd_closed_forms(F(3), **RATES, L=L, i=i)["density"]
            for i in range(1, L + 1)]
    left_dev = [d - F(1, 2) for d in dens[:8]]
    if not all(left_dev[k] > left_dev[k + 1] > 0 for k in range(6)):
        bad.append("kappa>1 not monotone at left boundary")
    if abs(dens[L // 2 - 1] - F(1, 2)) > F(1, 10 ** 6):
        bad.append("bulk density not within 1e-6 of 1/2")
    for i in list(range(1, 7)) + list(range(L - 5, L + 1)):
        out = an.rd_closed_forms(F(3), **RATES, L=L, i=i)
        if abs(out["density"] - out["asymptotics"]["density"]) > F(1, 10 ** 6):
            bad.append(f"asymptotics off at site {i}")
    # 0 < kappa < 1: Friedel oscillations
    dens_f = [an.rd_closed_forms(F(1, 2), **RATES, L=L, i=i)["density"]
              - F(1, 2) for i in range(1, 9)]
    if not all(dens_f[k] * dens_f[k + 1] < 0 for k in range(7)):
        bad.append("no sign alternation for 0<kappa<1")
    announce(9, not bad, f"RD density profile regimes at L=60 {bad}")


def test_acceptance_10_relaxation():
    mdl = ex.asep(F(2), **RATES)
    M = ex.build_markov(mdl, 4)
    target = mk.steady_state_exact(M).probabilities()
    import random
    rng = random.Random(42)
    raw = [F(rng.randint(1, 20), 20) for _ in range(16)]
    Z = sum(raw)
    start = [r / Z for r in raw]
    out = mk.evolve(start, M, 60, 900)
    l1 = sum(abs(p - float(q)) for p, q in zip(out.probs, target))
    announce(10, l1 < 1e-8,
             f"ASEP L=4 uniformized evolution reaches L1 distance {l1:.2e} "
             "< 1e-8 from the exact steady state")
