"""Matrix-product representations, the exact RD ansatz, and records of their
algebraic relations.

TASEP carries the standard DEHP bidiagonal representation with boundary
data in the first row/column and basis boundary vectors, which makes every
word of length <= N-1 exact under truncation.  The reaction-diffusion chain
is contracted in its algebra, with no representation: the boundary and
exchange relations take every moment <W| G2^s G1^p G3^q |V> at level
s + p + q = L to an exact rational multiple of <W| G2^L |V>
(_moment_ratios), and each product of A(x)'s is normal-ordered into those
moments (_contract).  Its ZF and GZ records compare normal-ordered words
G2^s G1^p G3^q (_word_product), so each Pass is an identity of the algebra
itself.  The Zamolodchikov relation is also realized exactly on monodromy
matrices for ASEP, SSEP and TASEP.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from math import lcm, ldexp
from operator import mul

from . import models as m
from .markov import Distribution
from .models import ModelDescriptor
from .tensor import PoleError, SparseMatrix, _block, integer_vector, kron

PROFILE_BITS = 100                # mantissa width of the float profile
_INF = float("inf")


class MPRepresentation(namedtuple("MPRepresentation", "letters W V N meta")):
    """Letters-to-matrix map with boundary row/column vectors; meta defaults
    to a new empty dict."""
    __slots__ = ()

    def __new__(cls, letters, W, V, N, meta=None):
        if sum(w * v for w, v in zip(W, V)) == 0:
            raise ValueError("degenerate representation: <W|V> = 0")
        return super().__new__(cls, letters, W, V, N,
                               {} if meta is None else meta)


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
    D = [[int(c - r in (0, 1)) for c in range(N)] for r in range(N)]
    E = [[int(r - c in (0, 1)) for c in range(N)] for r in range(N)]
    D[0][0], D[0][1] = 1 / beta, (alpha + beta - 1) / (alpha * beta)
    E[0][0] = 1 / alpha
    D, E = SparseMatrix(D), SparseMatrix(E)
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


def ansatz_weights(rep: MPRepresentation, L: int) -> list:
    """<W| prod_i ((1-tau_i) E + tau_i D) |V> over all 2^L configurations,
    sharing prefixes, in integers: W and V over common denominators and the
    int tables of E and D, each word's denominators divided out once."""
    ops = rep.letters["E"], rep.letters["D"]
    W, dW = integer_vector(rep.W)
    V, dV = integer_vector(rep.V)
    out = []

    def walk(vec, den, depth):
        if depth == L:
            out.append(Fraction(sum(v * w for v, w in zip(vec, V)), den))
            return
        for op in ops:
            walk(op._left(vec), den * op.den, depth + 1)

    walk(W, dW * dV, 0)
    return out


def steady_from_ansatz(rep: MPRepresentation, L: int) -> Distribution:
    """Stationary distribution contracted from a TASEP representation."""
    if L > rep.N - 1:
        raise ValueError(f"truncation N={rep.N} is exact only up to "
                         f"words of length {rep.N - 1}")
    weights = ansatz_weights(rep, L)
    Z = sum(weights)
    if Z == 0:
        raise ValueError("normalization Z_L = 0")
    return Distribution(L=L, weights=tuple(weights), Z=Z)


def steady_ansatz(model: ModelDescriptor, L: int) -> Distribution:
    """The exact matrix-ansatz stationary distribution: TASEP contracts the
    DEHP representation at N = L + 1, RD its algebra at theta = 1
    (inhomogeneous_state).  A_+(1) + A_-(1) = 2 G2, so the RD weights, in
    units of <W| G2^L |V>, sum to Z = 2^L."""
    if model.name == m.TASEP:
        rep = tasep_representation(model.alpha, model.beta, L + 1)
        return steady_from_ansatz(rep, L)
    if model.name == m.RD:
        weights = inhomogeneous_state(model, [1] * L)
        return Distribution(L=L, weights=tuple(weights), Z=Fraction(1 << L))
    raise m.UnsupportedError("ansatz steady state exists for tasep and rd only")


def inhomogeneous_state(model: ModelDescriptor, thetas) -> list:
    """<W| A_1(th_1) ... A_L(th_L) |V> / <W| G2^L |V> for every choice of
    component at each site, site 1 most significant, + before -: the exact
    RD ansatz state, from the moment ratios of the model's rates."""
    if model.name != m.RD:
        raise m.UnsupportedError("the inhomogeneous ansatz state is RD's")
    thetas = [Fraction(t) for t in thetas]
    if any(t == 0 for t in thetas):
        raise PoleError("inhomogeneity theta = 0 hits the 1/x term")
    co = rd_boundary_coefficients(model.kappa, model.alpha, model.beta,
                                  model.gamma, model.delta)
    M, den = _moment_ratios(co, len(thetas))
    return _contract(M, den, co["phi"], thetas)


def _moment_ratios(co: dict, L: int) -> tuple:
    """([M[h(h+1)/2 + q] for h <= L, q <= h], den): the moments
    mu_s(p, q) = <W| G2^s G1^p G3^q |V> = (M / den) <W| G2^L |V>,
    p = h - q, s = L - h, for the boundary coefficients co.

    Move one G1 to <W| (<W|G1 = <W|(a G3 + c G2)) and the G3 it makes to
    |V> (G3|V> = (b G1 + d G2)|V>) through G2 G1 = phi G1 G2,
    G3 G2 = phi G2 G3 and G1 G3 = G3 G1, and the term mu_s(p, q) comes
    back: with den_s = 1 - a b phi^(2s),

        den_s mu_s(p, q) = (c phi^s + a d phi^(2s+q-p+1)) mu_(s+1)(p-1, q),
        den_s mu_s(0, q) = (b c phi^s + d phi^(q-1)) mu_(s+1)(0, q-1),

    for p >= 1 and for q >= 1: each moment of the level is a rational
    multiple of mu_L(0, 0).  Derrida, Evans, Hakim and Pasquier (J. Phys.
    A 26, 1993) reduce every word to <W|V>; here the reduction stays within
    the level, since <W|G2|V> / <W|V> is not rational in general."""
    a, b, c, d, phi = (co[k] for k in ("a", "b", "c", "d", "phi"))
    r = [Fraction(1)]
    for h in range(1, L + 1):
        s = L - h
        den_s = 1 - a * b * phi ** (2 * s)
        if den_s == 0:
            raise ValueError(f"vanishing denominator 1 - a b phi^(2s) at "
                             f"s = {s}: the RD moment recurrences divide by it")
        prev = h * (h - 1) // 2     # the index of (h - 1 - q, q) at h - 1
        r += [(c * phi ** s + a * d * phi ** (2 * s + 2 * q - h + 1)) /
              den_s * r[prev + q] for q in range(h)]
        r.append((b * c * phi ** s + d * phi ** (h - 1)) / den_s *
                 r[prev + h - 1])
    den = lcm(*(x.denominator for x in r))
    return [x.numerator * (den // x.denominator) for x in r], den


def _contract(M: list, den: int, phi: Fraction, thetas) -> list:
    """<W| A_1(th_1) ... A_L(th_L) |V> for every choice of component at
    each site, site 1 most significant, + before -, from the moments M / den
    of _moment_ratios.  xn xd A(x) = xn xd G2 +- (xn^2 G1 + xd^2 G3),
    x = xn/xd, and G1 G2 = G2 G1 / phi, G3 G2 = phi G2 G3 and
    G1 G3 = G3 G1 move each G2 to the left: one at site j+1 after p G1's
    and q G3's gains phi^(q-p), an integer times (pn pd)^j.  So a product
    is sum c(p, q) G2^s G1^p G3^q, and its weight sum c(p, q) M(p, q) is
    contracted from the last site back: a table over the (p, q) before a
    site, two (+, -) after it."""
    pn, pd = phi.numerator, phi.denominator
    tables = [M]
    for j in range(len(thetas) - 1, -1, -1):
        xn, xd = thetas[j].numerator, thetas[j].denominator
        w = (pn * pd) ** j
        den *= xn * xd * w
        s1, s3 = xn * xn * w, xd * xd * w
        cs = [xn * xd * pn ** (j + 2 * q - h) * pd ** (j + h - 2 * q)
              for h in range(j + 1) for q in range(h + 1)]
        ys = [(h + 1) * (h + 2) // 2 + q      # the index of (p + 1, q)
              for h in range(j + 1) for q in range(h + 1)]
        parts = [([c * t for c, t in zip(cs, T)],       # diag, shift
                  [s1 * T[y] + s3 * T[y + 1] for y in ys]) for T in tables]
        tables = [[u + v for u, v in zip(*p)] for p in parts] + \
            [[u - v for u, v in zip(*p)] for p in parts]
    return [Fraction(T[0], den) for T in tables]


def rd_steady_converged(*_):
    """Nothing calls this: the RD steady state is exact (steady_ansatz).
    perfbench/traced_cli.py still wraps the name in its ansatz.truncation
    span; it goes with that span (ROADMAP item 4)."""
    raise NotImplementedError("the RD truncation loop is gone: "
                              "steady_ansatz is exact")


def rd_inhomogeneous_converged(*_):
    """Nothing calls this: the RD inhomogeneous state is exact
    (inhomogeneous_state).  perfbench/traced_cli.py still wraps the name in
    its ansatz.truncation span; it goes with that span (ROADMAP item 4)."""
    raise NotImplementedError("the RD truncation loop is gone: "
                              "inhomogeneous_state is exact")


def rd_representation(*_):
    """Nothing calls this: the ZF and GZ records of RD are checked on
    normal-ordered words (_word_product).  perfbench/traced_cli.py still
    wraps the name in its ansatz.rd_representation span; it goes with that
    span (ROADMAP item 4)."""
    raise NotImplementedError("the truncated RD representation is gone: "
                              "zf_relations and gz_relations take the model")


# ------------------------------------------------------- monodromy realization

class MonodromyRealization:
    """A(x) = T(x) v(x) with T the monodromy matrix over an inner chain,
    built as its coproduct: each inner site sets A_i = sum over k of A_k (x)
    r_ik, from the scalars A_k = v_k(x), with r_ik[s][t] = R(x)[2i+s][2k+t]
    and site 1 the most significant bit.

    Realizes the Zamolodchikov relation exactly (no truncation) for the
    models carrying a scalar Markovian vector."""

    def __init__(self, model: ModelDescriptor, inner_length: int):
        if model.name == m.RD:
            raise m.UnsupportedError("rd: no scalar Markovian vector")
        if inner_length < 1:
            raise ValueError("inner length must be >= 1")
        self.model = model
        self.L = inner_length

    def components(self, x, derivative=False):
        """(A_0(x), A_1(x)) as operators on the inner chain; with
        derivative the pair ((A_0, A_1), (A_0', A_1')), from those of R and
        v by the product rule d(X (x) r) = X' (x) r + X (x) r'."""
        R = m.r_matrix(self.model, x, derivative)
        v = m.markov_vector(self.model, x, derivative)
        (r, rp), (v, vp) = (map(_blocks, R), v) if derivative else \
            ((_blocks(R), None), (v, ()))
        X, Xp = ([SparseMatrix([[e]]) for e in u] for u in (v, vp))
        for _ in range(self.L):
            if derivative:
                Xp = [kron(Xp[0], r[i][0]) + kron(Xp[1], r[i][1]) +
                      kron(X[0], rp[i][0]) + kron(X[1], rp[i][1])
                      for i in (0, 1)]
            X = [kron(X[0], r[i][0]) + kron(X[1], r[i][1]) for i in (0, 1)]
        return (X, Xp) if derivative else X


def _blocks(R: SparseMatrix) -> list:
    """r[i][k], the 2 x 2 block of R at rows 2i, 2i + 1 and columns 2k,
    2k + 1."""
    return [[_block(R, 2 * i, 2 * k, 2, 2) for k in (0, 1)] for i in (0, 1)]


def _r_mix(R: SparseMatrix, prods: dict) -> dict:
    """{(i, j): sum_kl R[2i+j][2k+l] prods[k, l]}: the R-weighted mix of the
    component products X_k X_l of an exchange relation."""
    out = {}
    for i in (0, 1):
        for j in (0, 1):
            terms = [prods[k, l] * c for k in (0, 1) for l in (0, 1)
                     if (c := R.get(2 * i + j, 2 * k + l))]
            out[i, j] = sum(terms[1:], terms[0]) if terms else prods[0, 0] * 0
    return out


def _products(X1, X2, times=mul) -> dict:
    return {(k, l): times(X1[k], X2[l]) for k in (0, 1) for l in (0, 1)}


def _grid(blocks: dict) -> SparseMatrix:
    """The 2 x 2 block operator of the h x w blocks {(i, j): B_ij}, the sum
    of E_ij (x) B_ij with E_ij the 2 x 2 unit matrices: entry (r, c) of
    B_ij is at row i h + r, column j w + c."""
    terms = [kron(SparseMatrix._over((2, 2), {i: {j: 1}}, 1), blocks[i, j])
             for i in (0, 1) for j in (0, 1)]
    return sum(terms[1:], terms[0])


# ------------------------------------------------------------------ RD words
#
# A normal-ordered RD word of degree d is a (d+1) x (d+1) SparseMatrix whose
# entry (p, q) is the coefficient of G2^(d-p-q) G1^p G3^q.

def _a_words(x) -> list:
    """[A_+(x), A_-(x)], A_+-(x) = G2 +- (x G1 + G3/x), as words of
    degree 1."""
    if x == 0:
        raise PoleError("A(x) has a 1/x term; x must be nonzero")
    return [SparseMatrix([[1, s / x], [s * x, 0]]) for s in (1, -1)]


def _word_product(u: SparseMatrix, v: SparseMatrix,
                  phi: Fraction) -> SparseMatrix:
    """The word u v, normal-ordered by G1 G2 = G2 G1 / phi,
    G3 G2 = phi G2 G3 and G1 G3 = G3 G1:

        G2^s G1^p G3^q G2^t G1^p' G3^q'
            = phi^(t(q-p)) G2^(s+t) G1^(p+p') G3^(q+q')."""
    d = v.dim - 1                               # the degree of v
    out = [[0] * (u.dim + d) for _ in range(u.dim + d)]
    for p, q, a in u.items():
        for p2, q2, b in v.items():
            out[p + p2][q + q2] += a * b * phi ** ((d - p2 - q2) * (q - p))
    return SparseMatrix(out)


def zf_relations(realization, x1, x2):
    """Records of the Zamolodchikov-Faddeev relations at (x1, x2) of the RD
    model or of a monodromy realization, for ``verifier.run(model, ...)``.
    The exchange relation

        R_12(c(x1,x2)) A_1(x1) A_2(x2) = A_2(x2) A_1(x1), componentwise,

    is zf.representation for the RD model, an identity between the
    normal-ordered words of degree 2 of its algebra, and zf.monodromy for
    the monodromy realization, which also yields
    - zf.twice: R_21 mixes the components of A_2 A_1 back into those of
      A_1 A_2 (R unitarity);
    - zf.derivative, at the identity point e:
      w A_1(e) A_2(e) = (1/rho)(A_1(e) A_2'(e) - A_1'(e) A_2(e));
    - zf.c_commutation: C(x1) C(x2) = C(x2) C(x1), C = A_+ + A_-.
    A side given componentwise is the block operator ``_grid`` of its
    components, so its witness is that operator's first row-major mismatch:
    for RD, the entry (p, q) of the word in block (i, j) is at row 3i + p,
    column 3j + q."""
    rd = isinstance(realization, ModelDescriptor)
    model = realization if rd else realization.model
    if rd and model.name != m.RD:
        raise m.UnsupportedError("a model's ZF records are rd's; other "
                                 "models take a MonodromyRealization")
    conv = model.convention
    x1, x2 = Fraction(x1), Fraction(x2)
    pts = (x1, x2)
    # the records share the components at each point; a pole is not kept
    if rd:
        phi = (model.kappa - 1) / (model.kappa + 1)
        components = cache(_a_words)
        times = partial(_word_product, phi=phi)
    else:
        components = cache(realization.components)
        times = mul

    def exchange():
        R = m.r_matrix(model, conv.compose(x1, x2))
        X1, X2 = map(components, pts)
        # the components (i, j) of A_2 A_1 are X2[j] X1[i]
        return _grid(_r_mix(R, _products(X1, X2, times))), \
            _grid({(i, j): times(X2[j], X1[i]) for i in (0, 1)
                   for j in (0, 1)})

    if rd:
        yield "zf.representation", pts, exchange
        return
    yield "zf.monodromy", pts, exchange

    def twice():
        X1, X2 = map(components, pts)
        R12 = m.r_matrix(model, conv.compose(x1, x2))
        R21 = m.r_matrix_swapped(model, conv.compose(x2, x1))
        orig = _products(X1, X2)
        return _grid(_r_mix(R21, _r_mix(R12, orig))), _grid(orig)
    yield "zf.twice", pts, twice

    idp = model.identity_point

    def derivative():
        X, Xp = components(idp, derivative=True)
        w, _, _ = m.local_operators(model)
        inv_rho = 1 / model.rho
        return _grid(_r_mix(w, _products(X, X))), \
            _grid({(i, j): inv_rho * (X[i] * Xp[j] - Xp[i] * X[j])
                   for i in (0, 1) for j in (0, 1)})
    yield "zf.derivative", (idp,), derivative

    def c_commutation():
        C1, C2 = (X[0] + X[1] for X in map(components, pts))
        return C1 * C2, C2 * C1
    yield "zf.c_commutation", pts, c_commutation


# --------------------------------------------------------------- GZ relations

def _at_boundary(word: SparseMatrix, co: dict, left: bool) -> SparseMatrix:
    """<W|word (left) or word|V> for a word of degree 1 and the boundary
    coefficients co: <W|G1 = <W|(a G3 + c G2) leaves the entries (0, 0) and
    (0, 1), the coefficients of <W|G2 and <W|G3, and
    G3|V> = (b G1 + d G2)|V> leaves (0, 0) and (1, 0), those of G2|V> and
    G1|V>."""
    g2, g3, g1 = word.get(0, 0), word.get(0, 1), word.get(1, 0)
    if left:
        return SparseMatrix([[g2 + co["c"] * g1, g3 + co["a"] * g1], [0, 0]])
    return SparseMatrix([[g2 + co["d"] * g3, 0], [g1 + co["b"] * g3, 0]])


def gz_relations(model: ModelDescriptor, x):
    """Records of the RD boundary reflection relations at x, plus their
    derivative consequences, for ``verifier.run(model, ...)``: one record
    per relation row, or the one Skipped record ``gz`` when K or Kbar has a
    pole at x.  Row i of the left relation is

        K[i][0] <W|A_+(1/x) + K[i][1] <W|A_-(1/x) = <W|A_i(x),

    the right one is the same with Kbar on |V>, and the derivative ones mix
    A(1) by B and Bbar against A_i'(1) / rho and -A_i'(1) / rho, with
    A_+'(1) = G1 - G3 = -A_-'(1).  Each side is a word of degree 1 reduced
    at its boundary (_at_boundary).  The two vectors left at a boundary are
    independent in a representation, so a Pass is the relation itself, and
    a Fail's witness is the entry (p, q) of the reduced words."""
    if model.name != m.RD:
        raise m.UnsupportedError("the GZ records are rd's")
    x = Fraction(x)
    pts = (x,)
    try:
        K, Kb = m.k_matrix(model, "K", x), m.k_matrix(model, "Kbar", x)
    except ZeroDivisionError as exc:
        yield "gz", pts, f"pole: {exc}"
        return
    co = rd_boundary_coefficients(model.kappa, model.alpha, model.beta,
                                  model.gamma, model.delta)
    A_x, A_inv, A_one = map(_a_words, (x, 1 / x, Fraction(1)))
    r = 1 / model.rho
    # A_+'(1) / rho = (G1 - G3) / rho = -A_-'(1) / rho
    dA = [SparseMatrix([[0, -r], [r, 0]]), SparseMatrix([[0, r], [-r, 0]])]
    _, B, Bbar = m.local_operators(model)

    def relation(family, M, mix, sub, left):
        # rows i of M[i][0] mix[0] + M[i][1] mix[1] against sub[i]
        for i in (0, 1):
            yield f"{family}[{i}]", pts, lambda i=i: tuple(
                _at_boundary(w, co, left) for w in
                (mix[0] * M.get(i, 0) + mix[1] * M.get(i, 1), sub[i]))

    yield from relation("gz.left", K, A_inv, A_x, True)
    yield from relation("gz.right", Kb, A_inv, A_x, False)
    yield from relation("gz.left_derivative", B, A_one, dA, True)
    yield from relation("gz.right_derivative", Bbar, A_one, dA[::-1], False)
    # C(x) = A_+ + A_- = 2 G2 carries no x-dependence, so the boundary
    # symmetry <W|C(x) = <W|C(1/x) holds identically; assert it anyway.
    yield "gz.c_symmetry[0]", pts, lambda: tuple(
        _at_boundary(A[0] + A[1], co, True) for A in (A_x, A_inv))


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
    left_amp, right_amp = -c, -d
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
    """All L sites of the closed-form profile, as dicts of its columns.

    With den = 1 - a b phi^(2L-2), U = (c + a d phi^(L-1)) / den and
    V = (d + b c phi^(L-1)) / den, every cell is a signed combination of
    two terms, U phi^(i-1) and V phi^(L-i) (V phi^(L-i-1) on the bond):

        density     = 1/2 - (U phi^(i-1) + V phi^(L-i)) / 2
        current_lat = kappa^2/(kappa+1) (V phi^(L-i-1) - U phi^(i-1))
        current_eva = -kappa/(kappa+1) (U phi^(i-1) + V phi^(L-i-1))
        asymptotic  = (1 + amp phi^k) / 2,  k = i - 1 or L - i,

    with the left amplitude -c on the first (L+1)//2 sites and the right
    one -d after them.  With phi = pn/pd, S = pd^(L-1), T = pn^(L-1) and an
    integer scale that clears the denominators of c, a d, d, b c and a b,

        D  = +-scale (S^2 - a b T^2) = +-scale S^2 den > 0,
        xu = +-scale (c S + a d T),   xv = +-scale (d S + b c T),

    and the two terms times D are the integers

        u_i = xu pn^(i-1) pd^(L-i),   v_i = xv pn^(L-i) pd^(i-1),

    each updated by a small multiplication and an exact small division per
    site.

    With ``exact`` every cell is the reduced Fraction.  Otherwise every
    cell, the asymptotic column included, is the float nearest its exact
    value, certified as follows.  The cell x = K (s0 + t1 + t2) (s0 = 1 or
    0, t_j = +-C_j phi^k_j, C_j = U, V or amp) is evaluated on W-bit binary
    mantissas, W = PROFILE_BITS.  C_j, K and |phi| become m 2^e with
    2^(W-1) <= |m| < 2^W, truncated toward zero from the exact rationals,
    so each has relative error below u = 2^(1-W) (K = 1/2 is exact).
    phi^k, k <= L - 1, comes from a table built by k - 1 truncated products
    of W-bit mantissas, each kept to W bits, so it carries 2k - 1 factors
    1 + delta, |delta| < u; its sign is set by the parity of k.  A term
    t_j~ is the exact product of two mantissas.  So every summand of x
    carries at most 2L - 1 <= N = 2L + 3 such factors, and (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, section 3.1)

        |K~ (s0 + t1~ + t2~) - x| <= gamma_N |K| (s0 + |t1| + |t2|),
        gamma_N = N u / (1 - N u).

    The exact |K|, |t_j| exceed the computed ones by at most a factor
    1 / (1 - gamma_N) = 1 + gain, gain = N u / (1 - 2 N u); with 2^c >= 4N
    and c + 2 <= W, gain <= 4 N 2^-W <= 2^(c-W).  The cell then shifts s0
    and the terms down to the unit 2^E of the larger term exponent (a
    term that is exactly 0 has exponent -inf): the larger term stays
    exact, s0 = 1 is exact for E <= 0 and floors to 0 above, and each of
    at most two floors costs less than one unit.  With s the sum of the
    shifted integers and A the sum of their magnitudes, x~ = K~ s at the
    unit 2^(e_K + E), and

        |x~ - x| <= ((|K~| (A + 2)) >> (W - c)) + 2 |K~| + 1

    units: A + 2 bounds s0 + |t1~| + |t2~| before the floors, so the
    first term plus 1 bounds gain |K~| (s0 + |t1~| + |t2~|) from above,
    and 2 |K~| is the cost of the floors.  Each cell is then proven by
    exactly one of three certificates:

    - saturation, tried first on both density columns (K = 1/2, s0 = 1):
      if both terms have bit_length + exponent <= -56, then
      |t1~| + |t2~| < 2^-55 and |t1 + t2| < 2^-55 (1 + gain) < 2^-54, so
      |x - 1/2| < 2^-55 and x rounds to 0.5, with no bracket drawn;
    - the bracket [x~ - err, x~ + err], integers at one exponent: when it
      excludes 0 and both ends convert to the same finite float, that
      float is the correctly rounded x, sign of a value that underflows
      included (Ziv's rounding test).  m 2^e converts as
      ldexp(float(m), e) when it lies in the normal range, where float()
      rounds m half to even and ldexp is exact; as +-0.0 below 2^-1076;
      and otherwise as the int true division m / 2^-e, which rounds
      correctly into the subnormals, or +-inf beyond the float range;
    - otherwise, and always for an exact zero, the exact integer quotient
      of that one site, which int true division rounds correctly over a
      positive denominator; a cell beyond the float range raises
      OverflowError there, as float() of its Fraction does.
    """
    co = rd_boundary_coefficients(kappa, alpha, beta, gamma, delta)
    a, b, c, d, phi = co["a"], co["b"], co["c"], co["d"], co["phi"]
    kappa = Fraction(kappa)
    pn, pd = phi.numerator, phi.denominator
    S, T = pd ** (L - 1), pn ** (L - 1)     # phi^(L-1) = T / S
    (mc, mad, md, mbc, mab), scale = integer_vector([c, a * d, d, b * c,
                                                     a * b])
    D = scale * S * S - mab * T * T         # den = D / (scale S^2)
    if D == 0:
        raise ValueError("vanishing denominator 1 - a b phi^(2L-2)")
    sign = 1 if D > 0 else -1
    D *= sign
    # U phi^(i-1) = xu pn^(i-1) pd^(L-i) / D = u_i / D, and
    # V phi^(L-i) = xv pn^(L-i) pd^(i-1) / D = v_i / D
    xu, xv = sign * (mc * S + mad * T), sign * (md * S + mbc * T)
    k_lat = kappa ** 2 / (kappa + 1)
    k_eva = -kappa / (kappa + 1)
    amps = (-c, -d)

    def cells(u, v, v1):
        # (numerator, positive denominator) of density, current_lat and
        # current_eva at a site with terms u, v; v1 = v_(i+1) on its bond
        return ((D - u - v, 2 * D),
                (k_lat.numerator * (v1 - u), k_lat.denominator * D),
                (k_eva.numerator * (u + v1), k_eva.denominator * D))

    def side(i):
        # (0 or 1 for the left or right amplitude, the power k of phi)
        return (0, i - 1) if i <= (L + 1) // 2 else (1, L - i)

    def asymptotic(i):
        j, k = side(i)
        return (1 + amps[j] * phi ** k) / 2

    if exact:
        u, v = xu * S, xv * T
        for i in range(1, L + 1):
            if i == L:
                v1 = 0
            elif pn:
                v1 = v * pd // pn
            else:               # phi = 0: v_(i+1) = xv 0^(L-i-1)
                v1 = xv if i == L - 1 else 0
            pairs = cells(u, v, v1)
            row = {"density": Fraction(*pairs[0]),
                   "current_lat": Fraction(*pairs[1]) if i < L else None,
                   "current_eva": Fraction(*pairs[2]) if i < L else None}
            if asymptotics:
                row["density_asymptotic"] = asymptotic(i)
            yield row
            u, v = u * pn // pd, v1
        return

    def exact_cell(i, column):
        # the one exact quotient, for a cell that no certificate pins
        if column == 3:
            return float(asymptotic(i))
        v1 = xv * pn ** (L - i - 1) * pd ** i if i < L else 0
        num, den_ = cells(xu * pn ** (i - 1) * pd ** (L - i),
                          xv * pn ** (L - i) * pd ** (i - 1), v1)[column]
        return num / den_

    # a binary twin m 2^e of each exact constant: U, V, the columns K and
    # the amplitudes truncated once, and P[k] 2^Pe[k] for phi^k
    enc = _Enclosure(L)
    cell = enc.cell
    U, Ue = enc.truncated(xu * S, D)
    V, Ve = enc.truncated(xv * S, D)
    lat, eva = enc.column(k_lat), enc.column(k_eva)
    amps_ = [enc.truncated(q.numerator, q.denominator) for q in amps]
    P, Pe = enc.powers(phi, L)
    t_down, e_down = V * P[L - 1], Ve + Pe[L - 1]
    for i in range(1, L + 1):
        t_up, e_up = U * P[i - 1], Ue + Pe[i - 1]
        f = cell(_HALF, 1, -t_up, e_up, -t_down, e_down)[0]
        row = {"density": exact_cell(i, 0) if f is None else f}
        if i < L:
            # V phi^(L-i-1): this bond's term, and the next site's density's
            t_down, e_down = V * P[L - i - 1], Ve + Pe[L - i - 1]
            f = cell(lat, 0, t_down, e_down, -t_up, e_up)[0]
            row["current_lat"] = exact_cell(i, 1) if f is None else f
            f = cell(eva, 0, t_up, e_up, t_down, e_down)[0]
            row["current_eva"] = exact_cell(i, 2) if f is None else f
        else:
            row["current_lat"] = row["current_eva"] = None
        if asymptotics:
            j, k = side(i)
            amp, e_amp = amps_[j]
            f = cell(_HALF, 1, amp * P[k], e_amp + Pe[k], 0, _NO_EXP)[0]
            row["density_asymptotic"] = exact_cell(i, 3) if f is None else f
        yield row


_NO_EXP = -(1 << 60)    # the exponent of a zero: below any a term reaches
_HALF = (1, -1, 1, 3)   # the column K = 1/2, exact: (m, e, |m|, 2 |m| + 1)
_SATURATED = (0.5, None, None, None)


def _to_float(m: int, e: int) -> float:
    """m 2^e rounded to the nearest float, ties to even, as float() of the
    Fraction rounds it; +-inf beyond the float range, where that raises."""
    if not m:
        return 0.0
    b = m.bit_length()
    top = b + e                     # 2^(top-1) <= |m 2^e| < 2^top
    if -1021 <= top <= 1023 and b <= 1023:
        return ldexp(float(m), e)   # normal: float(m) rounds, ldexp is exact
    if top > 1024:
        return -_INF if m < 0 else _INF
    if top < -1075:
        return -0.0 if m < 0 else 0.0
    try:        # int true division rounds correctly, subnormals included
        return m / (1 << -e) if e < 0 else float(m << e)
    except OverflowError:
        return -_INF if m < 0 else _INF


class _Enclosure:
    """Binary fixed-point evaluation of a float profile cell K (s0 + t1 + t2)
    of an L-site chain on PROFILE_BITS-bit mantissas, with the two
    certificates of rd_profile_rows: saturation at 1/2, and a bracket."""

    def __init__(self, L: int):
        self.width = W = PROFILE_BITS
        # 2^c >= 4 N, N = 2L + 3; with c + 2 <= W, 8 N <= 2^W and so
        # gain = N u / (1 - 2 N u) <= 4 N 2^-W <= 2^-shift <= 1/4.  W <= 300
        # keeps the integers of a cell below 2^1023, where float() is finite
        c = (8 * L + 11).bit_length()
        if not c + 2 <= W <= 300:
            raise ValueError(f"L = {L} does not fit {W}-bit mantissas")
        self.shift = W - c

    def truncated(self, num: int, den: int) -> tuple:
        """(m, e) with m 2^e = num / den truncated toward zero to W bits,
        2^(W-1) <= |m| < 2^W; (0, _NO_EXP) for 0.  den > 0."""
        if not num:
            return 0, _NO_EXP
        a, W = abs(num), self.width
        e = a.bit_length() - den.bit_length() - W
        m = (a << -e) // den if e < 0 else a // (den << e)
        if m.bit_length() > W:
            m, e = m >> 1, e + 1
        return (m if num > 0 else -m), e

    def column(self, K: Fraction) -> tuple:
        """(m, e, |m|, 2 |m| + 1) of the column constant K."""
        m, e = self.truncated(K.numerator, K.denominator)
        return m, e, abs(m), 2 * abs(m) + 1

    def powers(self, phi: Fraction, n: int) -> tuple:
        """([m_k], [e_k]) with m_k 2^e_k = phi^k, k < n: |phi| truncated
        once and each power the truncated product of the one before and it,
        the sign of phi^k set by the parity of k."""
        W = self.width
        pm, pe = self.truncated(abs(phi.numerator), phi.denominator)
        if not pm:
            return [1 << (W - 1)] + [0] * (n - 1), \
                [1 - W] + [_NO_EXP] * (n - 1)
        P, E = [1 << (W - 1)], [1 - W]
        for _ in range(n - 1):
            p = P[-1] * pm
            s = p.bit_length() - W
            P.append(p >> s)
            E.append(E[-1] + pe + s)
        if phi < 0:
            P[1::2] = [-p for p in P[1::2]]
        return P, E

    def cell(self, K: tuple, s0: int, m1: int, e1: int, m2: int,
             e2: int) -> tuple:
        """(f, lo, hi, e) for the cell K (s0 + m1 2^e1 + m2 2^e2), K a
        column(), s0 = 1 or 0: f is the float that saturation (lo, hi and e
        None) or the bracket [lo 2^e, hi 2^e] pins, or None when neither
        does."""
        if s0 and m1.bit_length() + e1 <= -56 \
                and m2.bit_length() + e2 <= -56:
            return _SATURATED
        # s0 and the terms floored to the unit 2^e1 of the larger exponent
        if e1 < e2:
            m1 >>= e2 - e1
            e1 = e2
        else:
            m2 >>= e1 - e2
        if s0:      # 1 on the density columns, 0 on the currents
            s0 = 1 << -e1 if e1 <= 0 else 0
        m, e, k_abs, k_err = K
        x = m * (s0 + m1 + m2)
        err = (k_abs * (s0 + abs(m1) + abs(m2) + 2) >> self.shift) + k_err
        lo, hi, e = x - err, x + err, e + e1
        if lo > 0 or hi < 0:        # Ziv's rounding test
            top_lo, top_hi = lo.bit_length() + e, hi.bit_length() + e
            if -1021 <= top_lo <= 1023 and -1021 <= top_hi <= 1023:
                f = ldexp(float(lo), e)
                if f == ldexp(float(hi), e):
                    return f, lo, hi, e
            elif top_lo < -1075 > top_hi:   # both below 2^-1076
                return (0.0 if lo > 0 else -0.0), lo, hi, e
            else:
                f = _to_float(lo, e)
                if f == _to_float(hi, e) and abs(f) < _INF:
                    return f, lo, hi, e
        return None, lo, hi, e
