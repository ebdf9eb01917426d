"""Matrix-product representations and records of their algebraic relations.

TASEP carries the standard DEHP bidiagonal representation with boundary
data in the first row/column and basis boundary vectors, which makes every
word of length <= N-1 exact under truncation.  The reaction-diffusion chain
carries the three-generator shift representation on a truncated N (x) N
tensor space, where each product of A(x)'s is normal-ordered and contracted
through the moments <W| G2^d G1^p G3^q |V>; its boundary vectors have
infinite tails, so steady-state evaluation raises the truncation N by
max(4, N // 4) per round until two successive iterates agree.  The
Zamolodchikov relation is also realized exactly on monodromy matrices for
ASEP, SSEP and TASEP.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, ldexp, prod

from . import models as m
from .markov import Distribution
from .models import ModelDescriptor
from .tensor import PoleError, SparseMatrix, _block, _kept, \
    integer_vector, kron

REL_TOL = Fraction(1, 10 ** 12)   # truncation-convergence threshold
CAP = 256                         # truncation ceiling
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


class RDRepresentation:
    """The RD shift representation on the truncated N (x) N space, held as
    integer tables over common denominators:

        W[n,m] = Cw[n-m+N-1] Aw[m] / dW,
        V[n,m] = Cv[m-n+N-1] Bv[n] / dV,
        G2[n,m] = g2[n*N+m] / S,   G1, G3 the unit shifts n+1 and m-1,

    with T of rd_representation.  The contraction normal-orders products of
    A(x)'s and reads the moments <W| G2^d G1^p G3^q |V> off Aw and Bv
    (contract, _moments).  As an operator, A(x) is only the stencil
    _rd_stencil on integer rows, which the boundary relations and the
    exchange relation read.  (A plain class, not a named tuple like the
    package's other records: Wn and model cache on the instance dict.)
    """
    def __init__(self, N, meta, Cw, Aw, dW, Cv, Bv, dV, T, g2, S):
        self.N, self.meta = N, meta
        self.Cw, self.Aw, self.dW = Cw, Aw, dW
        self.Cv, self.Bv, self.dV = Cv, Bv, dV
        self.T, self.g2, self.S = T, g2, S
        if self._moments(0)[0] == [0]:
            raise ValueError("degenerate representation: <W|V> = 0")

    @cached_property
    def model(self) -> ModelDescriptor:
        """The RD model whose rates the representation carries, built once:
        its forms are found by identity, and a negative rate warns once."""
        meta = self.meta
        return m.rd(meta["kappa"], meta["alpha"], meta["beta"], meta["gamma"],
                    meta["delta"])

    @cached_property
    def Wn(self) -> tuple:
        """dW W as one integer row, W[n,m] at n*N+m."""
        N, Cw, Aw = self.N, self.Cw, self.Aw
        return tuple(Cw[n - mm + N - 1] * Aw[mm] for n in range(N)
                     for mm in range(N))

    def _moments(self, L) -> tuple:
        """([M[h(h+1)/2 + q] for h <= L, q <= h], den): the moments
        <W| G2^d G1^p G3^q |V> = M / den, p = h - q, d = L - h.

        G1 only lowers n, G3 only raises m and G2 moves neither, so an entry
        that leaves the box never comes back: a moment is the box sum over
        p <= n < N, 0 <= m < N - q of phi^(d(n+m)) W[n,m] V[n-p,m+q].  By
        the closed forms (rd_representation), with k = n - m, that is

            d^h phi^(h(h-1)/2) sum_n Bv[n-p] phi^(2dn) R[q][n] over
            (ad bd)^(N-1) T^2,   R[q][n] = sum_(m < N-q) Gam(n-m) Aw[m],

        Gam(k) = (c/d)^k phi^(k^2 - Lk): one pass over the rows serves every
        d.  Gam(k-1) = Gam(k) a(k) / b(k) with small a, b, and Gam peaks
        near k = L/2, so each row runs two Horner recurrences outward from
        k0 = min(L, N-1): up over m >= n - k0 (times b(k+1)), read at each
        m = N-1-q, and down over m < n - k0 (times a(k)).  A value carries
        the b's (a's) it passed, so the sums over n are Horner recurrences
        too: n descending over the up reads, times the b of the next read,
        and n ascending over the down sums.  <W|V> is the moment at L = 0.
        """
        N, meta = self.N, self.meta
        (cn, cd), (dn, dd), (pn, pd) = ((meta[x].numerator,
                                         meta[x].denominator)
                                        for x in ("c", "d", "phi"))
        k0 = min(L, N - 1)
        o = k0 + N - 1
        # a(k), b(k) at k + N - 1 (k0 at o), k = 2-N .. N-1; b padded for k = N
        es = [L + 1 - 2 * k for k in range(2 - N, N)]
        a = [0] + [cd * dn * (pn if e >= 0 else pd) ** abs(e) for e in es]
        b = [0] + [cn * dd * (pd if e >= 0 else pn) ** abs(e) for e in es]
        b.append(0)
        f = [1] * (2 * N - 1)       # Gam(k) / Gam(k0) = f[k] / its scale
        for i in range(o, 0, -1):
            f[i - 1] = f[i] * a[i]
        for i in range(o + 1, 2 * N - 1):
            f[i] = f[i - 1] * b[i]
        Aw, fr, br = self.Aw, f[::-1], b[:0:-1]
        up, down = [[] for _ in range(k0 + 1)], []      # up[q][n], down[n]
        for n in range(N):
            acc, lo = 0, max(0, n - k0)
            for x, g, y in zip(reversed(Aw[:lo]), a[o + 1:], f[o + 1:]):
                acc = acc * g + x * y
            down.append(acc)
            terms = zip(Aw[lo:], fr[N - 1 - n + lo:], br[N - 1 - n + lo:])
            acc = 0
            for _, (x, y, g) in zip(range(N - 1 - k0 - lo), terms):
                acc = acc * g + x * y
            for row, (x, y, g) in zip(reversed(up), terms):
                acc = acc * g + x * y
                row.append(acc)
        # the up sums end over the b's from h + 2 - N to k0, the down sums
        # over the a's from k0 + 1 to N - 1: both go over the lcm
        scale_up, scale_down = prod(b[1:o + 1]), prod(a[o + 1:])
        g = gcd(scale_up, scale_down)
        su, sd = scale_up // g, scale_down // g
        # d^h Gam(k0) phi^e pd^(-2d(N-1)), e = h(h-1)/2 + 2dp, with
        # Gam(k0) = (c/d)^k0 phi^(k0^2 - L k0), over cd^k0 dn^k0 dd^L
        # pn^(L^2) pd^B0
        B0 = L * L + 2 * L * (N - 1)
        out = [0] * ((L + 1) * (L + 2) // 2)
        bp = list(self.Bv)              # Bv[j] pn^(2dj) pd^(2d(N-1-j))
        for h in range(L, -1, -1):
            d = L - h
            c = cn ** k0 * dn ** h * dd ** (k0 - h + L)
            c_up, c_down = c * prod(b[1:h + 1]) * sd, c * su
            for q in range(max(0, h - N + 1), min(h, k0) + 1):
                p = h - q
                s = t = 0
                for x, r, y in zip(reversed(bp[:N - p]), reversed(up[q][p:]),
                                   reversed(b[h + 1:N + q + 1])):
                    s = s * y + x * r
                for x, r, y in zip(bp, down[p:], a[p + N - 1:]):
                    t = t * y + x * r
                e = h * (h - 1) // 2 + 2 * d * p + k0 * k0 - L * k0
                out[h * (h + 1) // 2 + q] = (c_up * s + c_down * t) * \
                    pn ** (L * L + e) * pd ** (B0 - e - 2 * d * (N - 1))
            bp = [v * y for v, y in zip(bp, self.g2[::N + 1])]
        ad, bd = meta["a"].denominator, meta["b"].denominator
        return out, (ad * bd) ** (N - 1) * self.T ** 2 * su * scale_down * \
            cd ** k0 * dn ** k0 * dd ** L * pn ** (L * L) * pd ** B0

    def contract(self, thetas) -> list:
        """<W| A_1(th_1) ... A_L(th_L) |V> for every choice of component at
        each site, site 1 most significant, + before -.  xn xd A(x) =
        xn xd G2 +- (xn^2 G1 + xd^2 G3), x = xn/xd, and G1 G2 = G2 G1 / phi,
        G3 G2 = phi G2 G3 and G1 G3 = G3 G1 move each G2 to the left: one
        at site j+1 after p G1's and q G3's gains phi^(q-p), an integer
        times (pn pd)^j.  So a product is sum c(p, q) G2^d G1^p G3^q, and
        its weight sum c(p, q) M(p, q) is contracted from the last site
        back: a table over the (p, q) before a site, two (+, -) after it."""
        L = len(thetas)
        M, den = self._moments(L)
        pn, pd = self.meta["phi"].numerator, self.meta["phi"].denominator
        tables = [M]
        for j in range(L - 1, -1, -1):
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

    def _act(self, u, x) -> tuple:
        """(<u|A_+(x), <u|A_-(x), S xn xd): both components of A(x), x =
        xn/xd, applied to the integer row u, as integer rows over S xn xd
        (1/x has the same scale, with xn^2 and xd^2 swapped)."""
        xn, xd = x.numerator, x.denominator
        g2 = self.g2 if xn * xd == 1 else [xn * xd * g for g in self.g2]
        diag = list(u)
        shift = _rd_stencil(diag, g2, self.S * xn * xn, self.S * xd * xd,
                            self.N)
        return ([d + s for d, s in zip(diag, shift)],
                [d - s for d, s in zip(diag, shift)], self.S * xn * xd)

    def components(self, x) -> list:
        """[A_+(x), A_-(x)] as integer tables over the scale of _act; row r
        is <e_r|A(x)."""
        if x == 0:
            raise PoleError("A(x) has a 1/x term; x must be nonzero")
        dim = self.N * self.N
        out = [[], []]
        for r in range(dim):
            e = [0] * dim
            e[r] = 1
            *rows, scale = self._act(e, x)
            for X, row in zip(out, rows):
                X.append((r, dict(enumerate(row))))
        return [SparseMatrix._over((dim, dim), _kept(X), scale) for X in out]


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
    g = _power_pairs(pn, pd, 2 * N - 1)     # pn^j pd^(2N-2-j), j = n + m
    g2 = tuple(g[n + mm] for n in range(N) for mm in range(N))
    meta = {"model": "rd", "kappa": kappa, "alpha": Fraction(alpha),
            "beta": Fraction(beta), "gamma": Fraction(gamma),
            "delta": Fraction(delta), **co}
    return RDRepresentation(N, meta, tuple(Cw), tuple(Aw),
                            sw * pd ** emax * T, tuple(Cv),
                            tuple(Bv), sv * pd ** emax * T, T, g2,
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
    prefixes, in integers: W and V over common denominators and the int
    tables of E and D, each word's denominators divided out once."""
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
    The stop typically overshoots the N actually needed by about one step;
    at the rd-truncation cells all rounds cost 2.0-2.7x the last one."""
    N = max(L + 4, 6)
    if N > cap:
        raise ValueError(f"truncation cap {cap} is below the first round's "
                         f"N={N}")
    while N <= cap:
        yield N
        N += max(4, N // 4)


def rd_steady_converged(model, L: int, cap: int = CAP):
    """(Distribution, meta) after raising N over ``truncation_rounds``
    until two successive iterates agree to relative 1e-12 (``_close``,
    cross-multiplied integers).  Every round builds its own
    representation of the RD model's rates."""
    history = []            # (N, Z) of every round, for the error message
    prev = None             # the last round's w / Z and Z, as _ratio pairs
    for N in truncation_rounds(L, cap):
        rep = rd_representation(model.kappa, model.alpha, model.beta,
                                model.gamma, model.delta, N)
        if not history and not rd_convergence_ok(rep.meta, L):
            raise ValueError("normalization series violates the convergence "
                             "conditions at this L")
        weights = ansatz_weights(rep, L)
        Z = sum(weights)
        probs = [_ratio(w, Z) for w in weights] + [_ratio(Z, 1)] if Z \
            else None
        if prev and probs and all(map(_close, prev, probs)):
            return (Distribution(L=L, weights=tuple(weights), Z=Z),
                    {"N": N, "N_prev": history[-1][0], "converged": True})
        prev = probs
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


def _ratio(x, y) -> tuple:
    """x / y as the unreduced pair (numerator, denominator): no gcd."""
    return x.numerator * y.denominator, x.denominator * y.numerator


def _close(p1: tuple, p2: tuple) -> bool:
    """|p1 - p2| <= REL_TOL |p2| for two _ratio pairs, cross-multiplied."""
    (n1, d1), (n2, d2) = p1, p2
    return abs(n1 * d2 - n2 * d1) * REL_TOL.denominator <= \
        REL_TOL.numerator * abs(n2 * d1)


def inhomogeneous_state(rep: RDRepresentation, thetas) -> list:
    """The 2^L-component contraction <W| A_1(th_1)...A_L(th_L) |V>."""
    thetas = [Fraction(t) for t in thetas]
    if any(t == 0 for t in thetas):
        raise PoleError("inhomogeneity theta = 0 hits the 1/x term")
    if not isinstance(rep, RDRepresentation):
        raise ValueError("ansatz vector requires the RD representation")
    return rep.contract(thetas)


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
        scaled = [_ratio(s, norm) for s in state]
        if prev is not None and all(map(_close, prev, scaled)):
            return [s / norm for s in state], \
                {"N": N, "N_prev": history[-1][0], "converged": True}
        prev = scaled
        history.append((N, norm))
    raise ValueError(f"no truncation convergence up to N={cap} for the "
                     "inhomogeneous state; " + _last_rounds(history, "norm"))


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


def _products(X1, X2) -> dict:
    return {(k, l): X1[k] * X2[l] for k in (0, 1) for l in (0, 1)}


def _grid(blocks: dict) -> SparseMatrix:
    """The 2 x 2 block operator of the h x w blocks {(i, j): B_ij}, the sum
    of E_ij (x) B_ij with E_ij the 2 x 2 unit matrices: entry (r, c) of
    B_ij is at row i h + r, column j w + c."""
    terms = [kron(SparseMatrix._over((2, 2), {i: {j: 1}}, 1), blocks[i, j])
             for i in (0, 1) for j in (0, 1)]
    return sum(terms[1:], terms[0])


def zf_relations(realization, x1, x2):
    """Records of the Zamolodchikov-Faddeev relations at (x1, x2), for
    ``verifier.run(realization.model, ...)``.  The exchange relation

        R_12(c(x1,x2)) A_1(x1) A_2(x2) = A_2(x2) A_1(x1), componentwise,

    is zf.representation for the RD representation, whose truncated
    stencil operators satisfy it exactly on every stored entry (the shift
    generators never re-enter the truncated block), and zf.monodromy for
    the monodromy realization, which also yields
    - zf.twice: R_21 mixes the components of A_2 A_1 back into those of
      A_1 A_2 (R unitarity);
    - zf.derivative, at the identity point e:
      w A_1(e) A_2(e) = (1/rho)(A_1(e) A_2'(e) - A_1'(e) A_2(e));
    - zf.c_commutation: C(x1) C(x2) = C(x2) C(x1), C = A_+ + A_-.
    A side given componentwise is the block operator ``_grid`` of its
    components, so its witness is that operator's first row-major mismatch."""
    model = realization.model
    conv = model.convention
    x1, x2 = Fraction(x1), Fraction(x2)
    pts = (x1, x2)
    # the records share the components at each point; a pole is not kept
    components = cache(realization.components)

    def exchange():
        R = m.r_matrix(model, conv.compose(x1, x2))
        X1, X2 = map(components, pts)
        # the components (i, j) of A_2 A_1 are X2[j] X1[i]
        return _grid(_r_mix(R, _products(X1, X2))), \
            _grid({(i, j): X2[j] * X1[i] for i in (0, 1) for j in (0, 1)})

    if isinstance(realization, RDRepresentation):
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

def gz_relations(rep: RDRepresentation, x):
    """Records of the boundary reflection relations of the RD
    representation on interior truncation indices, plus their derivative
    consequences, for ``verifier.run(rep.model, ...)``: one record per
    relation row, or the one Skipped record ``gz`` when K or Kbar has a
    pole at x.

    Each residual is an integer row over one scale.  A right relation on
    |V> is the left one at 1/x on the mirror <V'|, V'[n,m] = V[m,n], read
    back transposed: the swap exchanges G1 and G3 and keeps G2 (g2[n,m]
    depends on n + m only), so (A(y)|V>)[n,m] = (<V'|A(1/y))[m,n], and
    A'(1) flips sign."""
    x = Fraction(x)
    model = rep.model
    pts = (x,)
    try:
        K, Kb = m.k_matrix(model, "K", x), m.k_matrix(model, "Kbar", x)
    except ZeroDivisionError as exc:
        yield "gz", pts, f"pole: {exc}"
        return
    N, S = rep.N, rep.S
    cut = N - 1
    mirror = [rep.Cv[n - mm + N - 1] * rep.Bv[mm]
              for n in range(N) for mm in range(N)]

    def interior(row, scale, transposed=False):
        # the residual row must vanish on the interior indices n, m < N - 1
        got = SparseMatrix._over((cut, cut), _kept(
            (n, dict(enumerate(row[n * N:n * N + cut]))) for n in range(cut)),
            scale)
        return got.transpose() if transposed else got, \
            SparseMatrix.zeros(cut, cut)

    def relation(family, M, c, mix, sub, scale, transposed):
        # rows i of M[i][0] mix[0] + M[i][1] mix[1] - c sub[i], over scale
        (*k, kc), den = integer_vector(
            [*(M.get(i, j) for i in (0, 1) for j in (0, 1)), c])
        for i in (0, 1):
            yield f"{family}[{i}]", pts, lambda i=i: interior(
                [k[2 * i] * p + k[2 * i + 1] * q - kc * s
                 for p, q, s in zip(*mix, sub[i])], scale * den, transposed)

    # each relation's rows are drawn after its rows of A(y) are evaluated
    ends = (("left", rep.Wn, rep.dW, x, False),
            ("right", mirror, rep.dV, 1 / x, True))
    for (side, u, du, y, transposed), Km in zip(ends, (K, Kb)):
        # K-mix of <u|A(1/y) minus <u|A(y), both over the scale of y
        *sub, scale = rep._act(u, y)
        *mix, _ = rep._act(u, 1 / y)
        yield from relation(f"gz.{side}", Km, 1, mix, sub, du * scale,
                            transposed)
    _, B, Bbar = m.local_operators(model)
    for (side, u, du, _, transposed), Bm in zip(ends, (B, Bbar)):
        # B-mix of <u|A(1) minus <u|A'(1) / rho, over S
        *at_one, _ = rep._act(u, Fraction(1))
        d = _rd_stencil(list(u), rep.g2, S, -S, N)     # S <u|A_+'(1)
        yield from relation(f"gz.{side}_derivative", Bm, 1 / model.rho,
                            at_one, [d, [-v for v in d]], du * S,
                            transposed)
    # C(x) = A1 + A2 = 2 G2 carries no x-dependence, so the boundary
    # symmetry <W|C(x) = <W|C(1/x) holds identically; assert it anyway.
    *cx, scale = rep._act(rep.Wn, x)
    *cinv, _ = rep._act(rep.Wn, 1 / x)
    yield "gz.c_symmetry[0]", pts, lambda: interior(
        [a + b - c - d for a, b, c, d in zip(*cx, *cinv)], rep.dW * scale)


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
