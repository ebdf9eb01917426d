"""Matrix-product representations and their algebraic relation checks.

TASEP carries the standard DEHP bidiagonal representation with boundary
data in the first row/column and basis boundary vectors, which makes every
word of length <= N-1 exact under truncation.  The reaction-diffusion chain
carries the three-generator shift representation on a truncated N (x) N
tensor space; its boundary vectors have infinite tails, so steady-state
evaluation raises the truncation N by max(4, N // 4) per round until two
successive iterates agree.  The Zamolodchikov relation is also realized
exactly on monodromy matrices for ASEP, SSEP and TASEP.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from . import models as m
from .markov import Distribution
from .models import ModelDescriptor
from .scalars import Dual
from .tensor import Matrix, PoleError, SparseMatrix, deriv_matrix, \
    embed_at_positions, integer_form, integer_vector, value_matrix
from .verifier import CheckReport, FAIL, compare, guarded

REL_TOL = Fraction(1, 10 ** 12)   # truncation-convergence threshold
CAP = 256                         # truncation ceiling


@dataclass(frozen=True)
class MPRepresentation:
    """Letters-to-matrix map with boundary row/column vectors."""
    letters: dict
    W: tuple
    V: tuple
    N: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        wv = sum(w * v for w, v in zip(self.W, self.V))
        if wv == 0:
            raise ValueError("degenerate representation: <W|V> = 0")


class RDRepresentation:
    """The RD shift representation on the truncated N (x) N space, held as
    integer tables over common denominators:

        W[n,m] = Wn[n*N+m] / dW,
        V[n,m] = Cv[m-n+N-1] Bv[n] / dV,
        G2[n,m] = g2[n*N+m] / S,   G1, G3 the unit shifts n+1 and m-1.

    A(x) exists only as the stencil _rd_stencil acting on integer rows: the
    contraction, the boundary relations and the operators of the exchange
    relation are all read off it.  (A plain class: a dataclass would cost
    every CLI start-up its class generation.)
    """
    def __init__(self, N, meta, Wn, dW, Cv, Bv, dV, g2, S):
        self.N, self.meta = N, meta
        self.Wn, self.dW = Wn, dW
        self.Cv, self.Bv, self.dV = Cv, Bv, dV
        self.g2, self.S = g2, S
        if self._dot_v(Wn) == 0:
            raise ValueError("degenerate representation: <W|V> = 0")

    @cached_property
    def _horner(self) -> tuple:
        """Tables of the row recurrences in _dot_v.  Neighbouring entries of
        Cv differ by small factors, Cv[u+1] g(u) = Cv[u] f(u) with

            (f(u), g(u)) = (dn pn^u, dd pd^u)     for u >= 0,
                           (dn pd^-u, dd pn^-u)   for u < 0,

        so sum_u Cv[u] r[u] over u >= 0 (u < 0) is a Horner recurrence
        that multiplies the running sum by one g(u) (f(u)) per step and
        each r[u] by a product of f's (g's), times one row factor."""
        N = self.N
        dn, dd = self.meta["d"].numerator, self.meta["d"].denominator
        pn, pd = self.meta["phi"].numerator, self.meta["phi"].denominator
        emax = N * (N - 1) // 2
        f_up = [dn ** u * pn ** (u * (u - 1) // 2) for u in range(N)]
        g_up = [dd * pd ** u for u in range(N)]
        g_down = [dd ** k * pn ** (k * (k + 1) // 2) for k in range(N)]
        f_down = [dn * pd ** k for k in range(N)]
        # Cv[0] over the product of the g (f) steps the recurrence applied
        k_up = [b * dn ** (N - 1) * dd ** n *
                pd ** (emax - (N - 1 - n) * (N - 2 - n) // 2)
                for n, b in enumerate(self.Bv)]
        k_down = [b * dn ** (N - 1 - n) * dd ** (N - 1) *
                  pd ** (emax - n * (n + 1) // 2)
                  for n, b in enumerate(self.Bv)]
        return f_up, g_up, g_down, f_down, k_up, k_down

    def _dot_v(self, r) -> int:
        """dV <r|V> = sum_n Bv[n] sum_m Cv[m-n] r[n,m], each row's inner sum
        split at m = n into two Horner recurrences (see _horner)."""
        N = self.N
        f_up, g_up, g_down, f_down, k_up, k_down = self._horner
        total = 0
        for n in range(N):
            row = r[n * N:n * N + N]
            acc = 0                                  # so g_up[-1] multiplies 0
            for u, x in enumerate(row[n:]):          # m = n + u
                acc = acc * g_up[u - 1] + x * f_up[u]
            total += k_up[n] * acc
            acc = 0
            for k in range(1, n + 1):                # m = n - k
                acc = acc * f_down[k] + row[n - k] * g_down[k]
            total += k_down[n] * acc
        return total

    def contract(self, thetas) -> list:
        """<W| A_1(th_1) ... A_L(th_L) |V> for every choice of component at
        each site, site 1 most significant, in integers: A(x) = xn/xd G1 +
        G2 + xd/xn G3 (second component: the shifts negated) is scaled by
        S xn xd, so that v A = diag +- shift with the stencil

            diag[n,m] = xn xd g2[n,m] v[n,m],
            shift[n,m] = S (xn^2 v[n+1,m] + xd^2 v[n,m-1]).
        """
        den = self.dW * self.dV
        sites = []
        for t in thetas:
            site, scale = self._site(t)
            sites.append(site)
            den *= scale
        if not sites:
            return [Fraction(self._dot_v(self.Wn), den)]
        out = []
        stack = [(list(self.Wn), 0)]
        while stack:
            vec, depth = stack.pop()
            shift = _rd_stencil(vec, *sites[depth], self.N)
            if depth + 1 == len(sites):
                # the last site needs only the two dots
                dd, ds = self._dot_v(vec), self._dot_v(shift)
                out += [Fraction(dd + ds, den), Fraction(dd - ds, den)]
                continue
            for i, s in enumerate(shift):       # in place: vec + and - shift
                d = vec[i]
                vec[i] = d + s
                shift[i] = d - s
            stack.append((shift, depth + 1))
            stack.append((vec, depth + 1))
        return out

    def _site(self, x) -> tuple:
        """((g2, s1, s3), S xn xd): the stencil arguments and the scale of
        A(x), x = xn/xd.  1/x has the same scale, with s1 and s3 swapped."""
        xn, xd = x.numerator, x.denominator
        g2 = self.g2 if xn * xd == 1 else [xn * xd * g for g in self.g2]
        return (g2, self.S * xn * xn, self.S * xd * xd), self.S * xn * xd

    def _act(self, u, x) -> tuple:
        """(<u|A_+(x), <u|A_-(x), scale): both components applied to the
        integer row u, as integer rows over the scale of _site."""
        site, scale = self._site(x)
        diag = list(u)
        shift = _rd_stencil(diag, *site, self.N)
        return ([d + s for d, s in zip(diag, shift)],
                [d - s for d, s in zip(diag, shift)], scale)

    def components(self, x) -> list:
        """[A_+(x), A_-(x)] as Fraction operators; row r is <e_r|A(x)."""
        if x == 0:
            raise PoleError("A(x) has a 1/x term; x must be nonzero")
        dim = self.N * self.N
        out = [SparseMatrix(dim), SparseMatrix(dim)]
        for r in range(dim):
            e = [0] * dim
            e[r] = 1
            *rows, scale = self._act(e, x)
            for X, row in zip(out, rows):
                for c, v in enumerate(row):
                    if v:
                        X.add(r, c, Fraction(v, scale))
        return out


def _rd_stencil(vec, g2, s1, s3, N) -> list:
    """One scaled site: returns shift and turns vec into diag in place, so
    that vec A = diag + shift (first component) or diag - shift."""
    up = vec[N:] + [0] * N                       # v[n+1, m]
    left = []                                    # v[n, m-1]
    for row in range(0, N * N, N):
        left.append(0)
        left += vec[row:row + N - 1]
    if s1 == s3:
        shift = [s1 * (u + v) for u, v in zip(up, left)]
    else:
        shift = [s1 * u + s3 * v for u, v in zip(up, left)]
    for i, g in enumerate(g2):
        vec[i] *= g
    return shift


def _power_pairs(x: int, y: int, n: int) -> list:
    """[x^j y^(n-1-j) for j in range(n)], from two power tables."""
    xs, ys = [1], [1]
    for _ in range(n - 1):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    return [xs[j] * ys[n - 1 - j] for j in range(n)]


def tasep_representation(alpha, beta, N: int) -> MPRepresentation:
    """DEHP algebra DE = D + E with <W|(alpha E - 1) = 0, (beta D - 1)|V> = 0.

    D is upper bidiagonal, E lower bidiagonal, with 1/beta, 1/alpha and the
    coupling (alpha+beta-1)/(alpha*beta) in the first row/column; W = V = e0,
    so a word of length k never leaves the first k+1 basis states and the
    truncated contraction is exact for L <= N-1.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("tasep representation needs alpha, beta > 0")
    if N < 2:
        raise ValueError("N must be >= 2")
    D = SparseMatrix(N)
    E = SparseMatrix(N)
    for n in range(N):
        D.add(n, n, Fraction(1))
        E.add(n, n, Fraction(1))
        if n + 1 < N:
            D.add(n, n + 1, Fraction(1))
            E.add(n + 1, n, Fraction(1))
    D.add(0, 0, 1 / beta - 1)
    E.add(0, 0, 1 / alpha - 1)
    D.add(0, 1, (alpha + beta - 1) / (alpha * beta) - 1)
    basis0 = tuple(Fraction(1 if n == 0 else 0) for n in range(N))
    return MPRepresentation({"E": E, "D": D}, basis0, basis0, N,
                            meta={"model": "tasep", "alpha": alpha, "beta": beta})


def rd_boundary_coefficients(kappa, alpha, beta, gamma, delta) -> dict:
    kappa, alpha, beta, gamma, delta = map(Fraction, (kappa, alpha, beta,
                                                      gamma, delta))
    left, right = 2 * kappa + alpha + gamma, 2 * kappa + delta + beta
    for factor, value in (("kappa + 1", kappa + 1),
                          ("2 kappa + alpha + gamma", left),
                          ("2 kappa + delta + beta", right)):
        if value == 0:
            raise ValueError(f"{factor} = 0: the RD boundary coefficients "
                             "divide by it")
    return {
        "a": (2 * kappa - alpha - gamma) / left,
        "c": (gamma - alpha) / left,
        "b": (2 * kappa - delta - beta) / right,
        "d": (beta - delta) / right,
        "phi": (kappa - 1) / (kappa + 1),
    }


def rd_representation(kappa, alpha, beta, gamma, delta, N: int) -> RDRepresentation:
    """Three-generator representation G1 = g1 (x) 1, G2 = g2 (x) g2,
    G3 = 1 (x) g3 on a truncated N^2-dimensional tensor space, with the
    closed-form boundary vectors

        W[n,m] = c^k a^m phi^(k(k-1)/2) / tail[m],   k = n - m,
        V[n,m] = d^u b^n phi^(u(u-1)/2) / tail[n],   u = m - n,
        tail[m] = prod_{1<=j<=m} (1 - phi^(2j)).

    With phi = pn/pd (a, b, c, d alike), tail[m] = T[m] / pd^(m(m+1)) for
    T[m] = prod_{j<=m} (pd^(2j) - pn^(2j)), and U[m] = T[N-1] / T[m] is a
    product of the last factors.  So W[n,m] = Cw[k] Aw[m] / dW with

        Cw[k] = cn^(N-1+k) cd^(N-1-k) pn^e pd^(emax-e),   e = k(k-1)/2,
        Aw[m] = an^m ad^(N-1-m) pd^(m(m+1)) U[m],
        dW = cn^(N-1) cd^(N-1) ad^(N-1) pd^emax T[N-1],

    emax = N(N-1)/2, and V is the mirror image built from d and b: each
    table entry is one integer product, with no gcd.
    """
    kappa = Fraction(kappa)
    if kappa in (0, 1, -1):
        raise ValueError("rd representation needs kappa not in {0, 1, -1}")
    co = rd_boundary_coefficients(kappa, alpha, beta, gamma, delta)
    phi = co["phi"]
    if abs(phi) >= 1:
        raise ValueError("|phi| >= 1: boundary vectors diverge; replace "
                         "kappa by -kappa (the chain is invariant)")
    if co["c"] == 0 or co["d"] == 0:
        raise ValueError("c = 0 or d = 0: the closed-form boundary vectors "
                         "degenerate (alpha = gamma or beta = delta)")
    if N < 2:
        raise ValueError("N must be >= 2")
    pn, pd = phi.numerator, phi.denominator
    emax = N * (N - 1) // 2
    # pn^e pd^(emax-e) for e = k(k-1)/2, k = 1-N .. N-1; shared by W and V
    ph = [pn ** e * pd ** (emax - e)
          for e in (k * (k - 1) // 2 for k in range(1 - N, N))]
    U = [1] * N
    for j in range(N - 1, 0, -1):
        U[j - 1] = U[j] * (pd ** (2 * j) - pn ** (2 * j))
    T = U[0]
    tails = [pd ** (j * (j + 1)) * u for j, u in enumerate(U)]

    def side(x, y):
        # (C[k + N - 1], A[j], dx^(N-1) dy^(N-1)) for x = c or d, y = a or b
        C = [h * p for h, p in zip(_power_pairs(x.numerator, x.denominator,
                                                2 * N - 1), ph)]
        A = [h * t for h, t in zip(_power_pairs(y.numerator, y.denominator, N),
                                   tails)]
        return C, A, (x.numerator * x.denominator * y.denominator) ** (N - 1)

    Cw, Aw, sw = side(co["c"], co["a"])
    Cv, Bv, sv = side(co["d"], co["b"])
    Wn = tuple(Cw[n - mm + N - 1] * Aw[mm] for n in range(N) for mm in range(N))
    g = _power_pairs(pn, pd, 2 * N - 1)     # pn^j pd^(2N-2-j), j = n + m
    g2 = tuple(g[n + mm] for n in range(N) for mm in range(N))
    meta = {"model": "rd", "kappa": kappa, "alpha": Fraction(alpha),
            "beta": Fraction(beta), "gamma": Fraction(gamma),
            "delta": Fraction(delta), **co}
    return RDRepresentation(N, meta, Wn, sw * pd ** emax * T, tuple(Cv),
                            tuple(Bv), sv * pd ** emax * T, g2,
                            pd ** (2 * N - 2))


def rd_convergence_ok(co: dict, L: int) -> bool:
    """Stolz-Cesaro convergence conditions of the normalization series, for
    the boundary coefficients ``co`` (a representation's meta is one)."""
    a, b, c, d, phi = (co[k] for k in ("a", "b", "c", "d", "phi"))
    g = 1 - phi * phi
    return abs(b * c * phi ** L / (g * d)) < 1 and \
        abs(a * d * phi ** L / (g * c)) < 1


def _contract_all_words(rep: MPRepresentation, L: int) -> list:
    """<W| X_1 ... X_L |V> for every choice of X_k among E and D, sharing
    prefixes, in integers: E, D, W and V over common denominators, divided
    out once per word."""
    ops, d = integer_form(rep.letters["E"], rep.letters["D"])
    W, dW = integer_vector(rep.W)
    V, dV = integer_vector(rep.V)
    den = dW * dV * d ** L
    out = []

    def walk(vec, depth):
        if depth == L:
            out.append(Fraction(sum(v * w for v, w in zip(vec, V)), den))
            return
        for op in ops:
            walk(op.apply_left(vec), depth + 1)

    walk(W, 0)
    return out


def ansatz_weights(rep: MPRepresentation | RDRepresentation, L: int) -> list:
    """<W| prod_i ((1-tau_i) E + tau_i D) |V> over all 2^L configurations."""
    if isinstance(rep, RDRepresentation):
        return rep.contract([Fraction(1)] * L)   # E, D = A(1) components
    return _contract_all_words(rep, L)


def steady_from_ansatz(rep: MPRepresentation, L: int) -> Distribution:
    """Stationary distribution contracted from a TASEP representation.  An
    RD representation is truncated: its steady state is steady_ansatz's."""
    if isinstance(rep, RDRepresentation):
        raise TypeError("steady_from_ansatz contracts a TASEP representation; "
                        "the RD steady state is steady_ansatz(model, L)")
    if L > rep.N - 1:
        raise ValueError(f"truncation N={rep.N} is exact only up to "
                         f"words of length {rep.N - 1}")
    weights = ansatz_weights(rep, L)
    Z = sum(weights)
    if Z == 0:
        raise ValueError("normalization Z_L = 0")
    return Distribution(L=L, weights=tuple(weights), Z=Z)


def steady_ansatz(model: ModelDescriptor, L: int,
                  cap: int = CAP) -> Distribution:
    """The matrix-ansatz stationary distribution: TASEP contracts the DEHP
    representation at N = L + 1, where it is exact; RD runs the truncation
    loop ``rd_steady_converged`` up to ``cap``."""
    if model.name == m.TASEP:
        rep = tasep_representation(model.alpha, model.beta, L + 1)
        return steady_from_ansatz(rep, L)
    if model.name == m.RD:
        return rd_steady_converged(model, L, cap)[0]
    raise m.UnsupportedError("ansatz steady state exists for tasep and rd only")


def truncation_rounds(L: int, cap: int = CAP):
    """The truncation Ns of the RD convergence loops at chain length L:
    N = max(L + 4, 6) first, then N -> N + max(4, N // 4) while N <= cap.
    The stop typically overshoots the N actually needed by about one step,
    and all rounds together cost 1.1-1.5x the last one."""
    N = max(L + 4, 6)
    if N > cap:
        raise ValueError(f"truncation cap {cap} is below the first round's "
                         f"N={N}")
    while N <= cap:
        yield N
        N += max(4, N // 4)


def rd_steady_converged(model, L: int, cap: int = CAP):
    """(Distribution, meta) after raising N over ``truncation_rounds``
    until two successive iterates agree to relative 1e-12 (rational
    cross-multiplied comparison).  Every round builds its own
    representation of the RD model's rates."""
    history = []            # (N, Z) of every round, for the error message
    prev = None
    for N in truncation_rounds(L, cap):
        rep = rd_representation(model.kappa, model.alpha, model.beta,
                                model.gamma, model.delta, N)
        if not history and not rd_convergence_ok(rep.meta, L):
            raise ValueError("normalization series violates the convergence "
                             "conditions at this L")
        weights = ansatz_weights(rep, L)
        Z = sum(weights)
        prev_N, prev_Z = history[-1] if history else (None, 0)
        if Z != 0 and prev_Z != 0:
            probs = [w / Z for w in weights]
            prev_probs = [w / prev_Z for w in prev]
            if all(_close(p1, p2) for p1, p2 in zip(prev_probs, probs)) and \
                    _close(prev_Z, Z):
                return (Distribution(L=L, weights=tuple(weights), Z=Z),
                        {"N": N, "N_prev": prev_N, "converged": True})
        prev = weights
        history.append((N, Z))
    raise ValueError(f"no truncation convergence up to N={cap}; "
                     + _last_rounds(history, "Z"))


def _last_rounds(history, what: str) -> str:
    """The last two rounds' values of a failed convergence loop."""
    if len(history) == 1:
        (N, v), = history
        return f"only one round (N={N}, {what} {float(v)}) fits under the cap"
    (N1, v1), (N2, v2) = history[-2:]
    return (f"last two {what} values {float(v1)} (N={N1}) and "
            f"{float(v2)} (N={N2})")


def _close(p1: Fraction, p2: Fraction) -> bool:
    return abs(p1 - p2) <= REL_TOL * abs(p2)


def inhomogeneous_state(rep: RDRepresentation, thetas) -> list:
    """The 2^L-component contraction <W| A_1(th_1)...A_L(th_L) |V>."""
    thetas = [Fraction(t) for t in thetas]
    if any(t == 0 for t in thetas):
        raise PoleError("inhomogeneity theta = 0 hits the 1/x term")
    if not isinstance(rep, RDRepresentation):
        raise ValueError("ansatz vector requires the RD representation")
    return rep.contract(thetas)


def partition_function(rep: RDRepresentation, thetas) -> Fraction:
    """Z_L(theta) = <1|-contraction of the inhomogeneous state."""
    return sum(inhomogeneous_state(rep, thetas))


def rd_inhomogeneous_converged(model, thetas, cap: int = CAP):
    """(state, meta): the inhomogeneous ansatz state, with N raised over
    ``truncation_rounds`` until two successive max-normalized iterates
    agree to relative 1e-12."""
    thetas = tuple(Fraction(t) for t in thetas)
    history = []            # (N, max-norm) of every round
    prev = None
    for N in truncation_rounds(len(thetas), cap):
        rep = rd_representation(model.kappa, model.alpha, model.beta,
                                model.gamma, model.delta, N)
        state = inhomogeneous_state(rep, thetas)
        norm = max(state, key=abs)
        if norm == 0:
            raise ValueError("inhomogeneous state vanished under truncation")
        scaled = [s / norm for s in state]
        if prev is not None and all(_close(p, s) for p, s in zip(prev, scaled)):
            return scaled, {"N": N, "N_prev": history[-1][0],
                            "converged": True}
        prev = scaled
        history.append((N, norm))
    raise ValueError(f"no truncation convergence up to N={cap} for the "
                     "inhomogeneous state; " + _last_rounds(history, "norm"))


# ------------------------------------------------------- monodromy realization

class MonodromyRealization:
    """A(x) = T(x) v(x) with T the monodromy matrix over an inner chain.

    Realizes the Zamolodchikov relation exactly (no truncation) for the
    models carrying a scalar Markovian vector."""

    def __init__(self, model: ModelDescriptor, inner_length: int):
        if model.name == m.RD:
            raise m.UnsupportedError("rd: no scalar Markovian vector")
        if inner_length < 1:
            raise ValueError("inner length must be >= 1")
        self.model = model
        self.L = inner_length

    def components(self, x):
        """(X1(x), X2(x)) as dense operators on the inner chain."""
        n = self.L + 1
        acc = None
        for j in range(self.L, 0, -1):
            f = embed_at_positions(m.r_matrix(self.model, x), (0, j), n)
            acc = f if acc is None else acc * f
        T = acc.to_dense()
        half = 1 << self.L
        v = m.markov_vector(self.model, x)
        comps = []
        for i in (0, 1):
            block = Matrix([[T.a[i * half + r][0 * half + c] * v[0] +
                             T.a[i * half + r][1 * half + c] * v[1]
                             for c in range(half)] for r in range(half)])
            comps.append(block)
        return comps


def _rd_model(rep: RDRepresentation) -> ModelDescriptor:
    meta = rep.meta
    return m.rd(meta["kappa"], meta["alpha"], meta["beta"], meta["gamma"],
                meta["delta"])


def _r_mix(R: Matrix, prods: dict) -> dict:
    """{(i, j): sum_kl R[2i+j][2k+l] prods[k, l]}: the R-weighted mix of the
    component products X_k X_l of an exchange relation."""
    out = {}
    for i in (0, 1):
        for j in (0, 1):
            terms = [prods[k, l] * c for k in (0, 1) for l in (0, 1)
                     if (c := R.a[2 * i + j][2 * k + l]) != 0]
            out[i, j] = sum(terms[1:], terms[0]) if terms else prods[0, 0] * 0
    return out


def _products(X1, X2) -> dict:
    return {(k, l): X1[k] * X2[l] for k in (0, 1) for l in (0, 1)}


def _compare_blocks(model, check, pts, blocks: dict) -> CheckReport:
    """compare over the components {(i, j): (lhs, rhs)} of a 2 x 2 block
    operator: the first failing component's report, its witness indexing
    the block operator (row i h + r, column j h + c for h x h components)."""
    for (i, j), (lhs, rhs) in blocks.items():
        rep = compare(model, check, pts, lhs, rhs)
        if rep.status == FAIL:
            h = lhs.rows if isinstance(lhs, Matrix) else lhs.dim
            w = rep.witness
            return replace(rep, witness={**w, "row": i * h + w["row"],
                                         "col": j * h + w["col"]})
    return rep


def _exchanged(X1, X2, lhs) -> dict:
    """The components (i, j) of lhs against those of A_2 A_1, X2[j] X1[i]."""
    return {(i, j): (lhs[i, j], X2[j] * X1[i]) for i in (0, 1) for j in (0, 1)}


def check_zf(realization, x1, x2) -> CheckReport:
    """R_12(c(x1,x2)) A_1(x1) A_2(x2) = A_2(x2) A_1(x1), componentwise.

    Exact for the monodromy realization; for the RD representation the
    truncated stencil operators satisfy it exactly on every stored entry
    (the shift generators never re-enter the truncated block)."""
    if isinstance(realization, MonodromyRealization):
        model, check = realization.model, "zf.monodromy"

        def inputs():
            X1, X2 = realization.components(x1), realization.components(x2)
            return m.r_matrix(model, model.convention.compose(x1, x2)), X1, X2
    else:
        model, check = _rd_model(realization), "zf.representation"

        def inputs():
            R = m.r_matrix(model, Fraction(x1) / Fraction(x2))
            return R, *(realization.components(Fraction(x)) for x in (x1, x2))

    def run():
        R, X1, X2 = inputs()
        lhs = _r_mix(R, _products(X1, X2))
        return _compare_blocks(model, check, (x1, x2), _exchanged(X1, X2, lhs))
    return guarded(model, check, (x1, x2), run)


def check_zf_twice(realization: MonodromyRealization, x1, x2) -> CheckReport:
    """Applying the exchange relation twice returns the original product
    (R unitarity)."""
    model = realization.model
    conv = model.convention

    def run():
        X1 = realization.components(x1)
        X2 = realization.components(x2)
        R12 = m.r_matrix(model, conv.compose(x1, x2))
        R21 = m.r_matrix_swapped(model, conv.compose(x2, x1))
        orig = _products(X1, X2)
        once = _r_mix(R12, orig)     # components of A2(x2) A1(x1)
        back = _r_mix(R21, once)     # relabeled relation instance swaps them back
        rep = _compare_blocks(model, "zf.twice", (x1, x2),
                              {kl: (back[kl], orig[kl]) for kl in orig})
        if rep.status == FAIL:
            return rep
        # the swapped product must also match the relation's right-hand side
        return _compare_blocks(model, "zf.twice", (x1, x2),
                               _exchanged(X1, X2, once))
    return guarded(model, "zf.twice", (x1, x2), run)


def check_zf_derivative(realization: MonodromyRealization) -> CheckReport:
    """w A_1(1) A_2(1) = (1/rho)(A_1(1) A_2'(1) - A_1'(1) A_2(1))."""
    model = realization.model
    idp = model.identity_point

    def run():
        Xd = realization.components(Dual.variable(idp))
        X = [value_matrix(B) for B in Xd]
        Xp = [deriv_matrix(B) for B in Xd]
        w, _, _ = m.local_operators(model)
        lhs = _r_mix(w, _products(X, X))
        inv_rho = 1 / model.rho
        return _compare_blocks(model, "zf.derivative", (idp,),
                               {(i, j): (lhs[i, j],
                                         inv_rho * (X[i] * Xp[j] - Xp[i] * X[j]))
                                for i in (0, 1) for j in (0, 1)})
    return guarded(model, "zf.derivative", (idp,), run)


def check_c_commutation(realization: MonodromyRealization, x1, x2) -> CheckReport:
    model = realization.model

    def run():
        X1 = realization.components(x1)
        X2 = realization.components(x2)
        C1 = X1[0] + X1[1]
        C2 = X2[0] + X2[1]
        return compare(model, "zf.c_commutation", (x1, x2), C1 * C2, C2 * C1)
    return guarded(model, "zf.c_commutation", (x1, x2), run)


# --------------------------------------------------------------- GZ relations

def check_gz(rep: RDRepresentation, x) -> list:
    """Boundary reflection relations of the RD representation on interior
    truncation indices, plus their derivative consequences.

    Each residual is an integer row over one scale.  A right relation on
    |V> is the left one at 1/x on the mirror <V'|, V'[n,m] = V[m,n], read
    back transposed: the swap exchanges G1 and G3 and keeps G2 (g2[n,m]
    depends on n + m only), so (A(y)|V>)[n,m] = (<V'|A(1/y))[m,n], and
    A'(1) flips sign."""
    x = Fraction(x)
    model = _rd_model(rep)
    pts = (x,)
    N, S = rep.N, rep.S
    cut = N - 1
    mirror = [rep.Cv[n - mm + N - 1] * rep.Bv[mm]
              for n in range(N) for mm in range(N)]

    def interior(check, row, scale, transposed=False):
        # the residual row must vanish on the interior indices n, m < N - 1
        got = Matrix([[Fraction(v, scale) for v in row[n * N:n * N + cut]]
                      for n in range(cut)])
        return compare(model, check, pts,
                       got.transpose() if transposed else got,
                       Matrix.zeros(cut, cut))

    def relation(family, M, c, mix, sub, scale, transposed):
        # rows i of M[i][0] mix[0] + M[i][1] mix[1] - c sub[i], over scale
        (*k, kc), den = integer_vector([*M.a[0], *M.a[1], c])
        return [interior(f"{family}[{i}]",
                         [k[2 * i] * p + k[2 * i + 1] * q - kc * s
                          for p, q, s in zip(*mix, sub[i])],
                         scale * den, transposed) for i in (0, 1)]

    def run():
        K = m.k_matrix(model, "K", x)
        Kb = m.k_matrix(model, "Kbar", x)
        _, B, Bbar = m.local_operators(model)
        inv_rho = 1 / model.rho
        relations, derivatives = [], []
        for side, u, du, Km, Bm, y, transposed in (
                ("left", rep.Wn, rep.dW, K, B, x, False),
                ("right", mirror, rep.dV, Kb, Bbar, 1 / x, True)):
            # K-mix of <u|A(1/y) minus <u|A(y), both over the scale of y
            *sub, scale = rep._act(u, y)
            *mix, _ = rep._act(u, 1 / y)
            relations += relation(f"gz.{side}", Km, 1, mix, sub,
                                  du * scale, transposed)
            # B-mix of <u|A(1) minus <u|A'(1) / rho, over S
            *at_one, _ = rep._act(u, Fraction(1))
            d = _rd_stencil(list(u), rep.g2, S, -S, N)     # S <u|A_+'(1)
            derivatives += relation(f"gz.{side}_derivative", Bm, inv_rho,
                                    at_one, [d, [-v for v in d]], du * S,
                                    transposed)
        # C(x) = A1 + A2 = 2 G2 carries no x-dependence, so the boundary
        # symmetry <W|C(x) = <W|C(1/x) holds identically; assert it anyway.
        *cx, scale = rep._act(rep.Wn, x)
        *cinv, _ = rep._act(rep.Wn, 1 / x)
        c_row = [a + b - c - d for a, b, c, d in zip(*cx, *cinv)]
        return relations + derivatives + [
            interior("gz.c_symmetry[0]", c_row, rep.dW * scale)]

    out = guarded(model, "gz", pts, run)
    return [out] if isinstance(out, CheckReport) else out


# ----------------------------------------------------------- RD closed forms

def rd_closed_forms(kappa, alpha, beta, gamma, delta, L: int, i: int) -> dict:
    """Exact density and currents at site i (currents live on bond i,i+1),
    plus the large-L boundary/bulk asymptotics."""
    co = rd_boundary_coefficients(kappa, alpha, beta, gamma, delta)
    a, b, c, d, phi = co["a"], co["b"], co["c"], co["d"], co["phi"]
    kappa = Fraction(kappa)
    if not 1 <= i <= L:
        raise ValueError("site index out of range")
    den = 1 - a * b * phi ** (2 * L - 2)
    if den == 0:
        raise ValueError("vanishing denominator 1 - a b phi^(2L-2)")
    density = Fraction(1, 2) - (c * phi ** (i - 1) + a * d * phi ** (L + i - 2)
                                + d * phi ** (L - i) + b * c * phi ** (2 * L - i - 1)) \
        / (2 * den)
    if i <= L - 1:
        lat = kappa ** 2 / (kappa + 1) * \
            (d * phi ** (L - i - 1) + b * c * phi ** (2 * L - i - 2)
             - c * phi ** (i - 1) - a * d * phi ** (L + i - 2)) / den
        eva = -kappa / (kappa + 1) * \
            (c * phi ** (i - 1) + a * d * phi ** (L + i - 2)
             + d * phi ** (L - i - 1) + b * c * phi ** (2 * L - i - 2)) / den
    else:
        lat = None
        eva = None
    alpha, beta, gamma, delta = map(Fraction, (alpha, beta, gamma, delta))
    left_amp = (alpha - gamma) / (2 * kappa + alpha + gamma)
    right_amp = (delta - beta) / (2 * kappa + delta + beta)
    if i <= (L + 1) // 2:
        eps = i - 1
        asym_density = Fraction(1, 2) * (1 + left_amp * phi ** eps)
        asym_lat = kappa ** 2 / (1 + kappa) * left_amp * phi ** eps
        asym_eva = kappa / (1 + kappa) * left_amp * phi ** eps
    else:
        eps = L - i
        asym_density = Fraction(1, 2) * (1 + right_amp * phi ** eps)
        if eps >= 1:
            asym_lat = -kappa ** 2 / (1 + kappa) * right_amp * phi ** (eps - 1)
            asym_eva = kappa / (1 + kappa) * right_amp * phi ** (eps - 1)
        else:
            asym_lat = None
            asym_eva = None
    return {"density": density, "current_lat": lat, "current_eva": eva,
            "asymptotics": {"density": asym_density, "current_lat": asym_lat,
                            "current_eva": asym_eva}}


def rd_profile_rows(kappa, alpha, beta, gamma, delta, L: int,
                    asymptotics: bool = False, exact: bool = True):
    """All L sites of the closed-form profile.

    The per-site phi powers are carried as integers over one shared
    denominator and updated by a small multiplication per site, so the
    exact profile stays quick even at L = 10^4 where the powers are
    thousands of bits wide.  Each density and current cell is an exact
    integer quotient n / d: with ``exact`` it is the reduced Fraction(n, d),
    otherwise the float n / d, which int true division rounds correctly and
    which therefore equals float(Fraction(n, d)) without reducing the pair.
    The asymptotic column is a Fraction either way.
    """
    co = rd_boundary_coefficients(kappa, alpha, beta, gamma, delta)
    a, b, c, d, phi = co["a"], co["b"], co["c"], co["d"], co["phi"]
    kappa = Fraction(kappa)
    alpha, beta, gamma, delta = map(Fraction, (alpha, beta, gamma, delta))
    den = 1 - a * b * phi ** (2 * L - 2)
    if den == 0:
        raise ValueError("vanishing denominator 1 - a b phi^(2L-2)")
    pn, pd = phi.numerator, phi.denominator
    E = 2 * L - 2
    # the four coefficients as integers over one scale P
    (c1, c2, c3, c4), P = integer_vector([c, a * d, d, b * c])
    # A_k = pn^e_k pd^(E - e_k) for e = (i-1, L+i-2, L-i, 2L-i-1)
    A1 = pd ** E
    A2 = pn ** (L - 1) * pd ** (L - 1)
    A3 = pn ** (L - 1) * pd ** (L - 1)
    A4 = pn ** E
    half = Fraction(1, 2)
    # fold the constant prefactors into integer numerator/denominator pairs;
    # every denominator is made positive, so an exact zero prints as 0, not
    # as the -0.0 of 0 / (negative int)
    dens_mul, dens_den = _positive_pair(den.denominator,
                                        2 * P * pd ** E * den.numerator)
    k_lat = kappa ** 2 / (kappa + 1) / den
    k_eva = -kappa / (kappa + 1) / den
    lat_mul, lat_den = _positive_pair(k_lat.numerator,
                                      P * pd ** E * pn * k_lat.denominator)
    eva_mul, eva_den = _positive_pair(k_eva.numerator,
                                      P * pd ** E * pn * k_eva.denominator)
    quotient = Fraction if exact else operator.truediv
    left_amp = (alpha - gamma) / (2 * kappa + alpha + gamma)
    right_amp = (delta - beta) / (2 * kappa + delta + beta)
    p_up = Fraction(1)      # phi^(i-1), for the asymptotic column
    p_down = phi ** (L - 1)
    for i in range(1, L + 1):
        t1 = c1 * A1
        t2 = c2 * A2
        t3 = c3 * A3
        t4 = c4 * A4
        # 1/2 - S m / D = (D - 2 S m) / (2 D)
        density = quotient(dens_den - 2 * (t1 + t2 + t3 + t4) * dens_mul,
                           2 * dens_den)
        if i <= L - 1:
            # one phi less on the down-going terms: scale them by pd/pn
            up = (t1 + t2) * pn
            down = (t3 + t4) * pd
            lat = quotient((down - up) * lat_mul, lat_den)
            eva = quotient((down + up) * eva_mul, eva_den)
        else:
            lat = eva = None
        row = {"density": density, "current_lat": lat, "current_eva": eva}
        if asymptotics:
            if i <= (L + 1) // 2:
                row["density_asymptotic"] = half * (1 + left_amp * p_up)
            else:
                row["density_asymptotic"] = half * (1 + right_amp * p_down)
        yield row
        if i < L:
            A1 = A1 * pn // pd
            A2 = A2 * pn // pd
            A3 = A3 * pd // pn
            A4 = A4 * pd // pn
            p_up *= phi
            p_down /= phi


def _positive_pair(mul: int, den: int):
    """(mul, den) with the sign moved so that den > 0."""
    return (-mul, -den) if den < 0 else (mul, den)


def rd_current_balance(kappa, alpha, beta, gamma, delta, L: int, i: int) -> Fraction:
    """J^lat_{i-1->i} - J^lat_{i->i+1} - J^eva_{i-1,i} - J^eva_{i,i+1};
    zero in the stationary state."""
    if not 2 <= i <= L - 1:
        raise ValueError("interior site required")
    left = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i - 1)
    right = rd_closed_forms(kappa, alpha, beta, gamma, delta, L, i)
    return left["current_lat"] - right["current_lat"] \
        - left["current_eva"] - right["current_eva"]
