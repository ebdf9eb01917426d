"""Exact checks of what each CLI job printed, run outside the timed region.

The generator and the small dense solver here are written from the model
definitions, not taken from the package, so that a faster kernel in the
package is checked against arithmetic it does not share.  The RD closed
forms are the one exception: the profile is checked against the package's
``rd_closed_forms``, the reference the test suite pins ``rd_profile_rows``
against.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

REL_TOL = Fraction(1, 10 ** 10)   # the RD truncation tolerance of the suite


class CheckFailed(Exception):
    pass


def _need(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _rates(params):
    return {k: Fraction(params[k]) for k in
            ("alpha", "beta", "gamma", "delta", "q", "kappa") if k in params}


def generator(params, L: int) -> dict:
    """Sparse M[to][from] of the open chain; site 1 is the most significant
    bit of the configuration index."""
    r = _rates(params)
    model = params["model"]
    hop_r, hop_l, pair = {
        "asep": (Fraction(1), r.get("q"), None),
        "tasep": (Fraction(1), Fraction(0), None),
        "ssep": (Fraction(1), Fraction(1), None),
        "rd": (r.get("kappa", 0) ** 2, r.get("kappa", 0) ** 2, Fraction(1)),
    }[model]
    dim = 1 << L
    M = {s: {} for s in range(dim)}

    def rate(src, dst, v):
        if v:
            M[dst][src] = M[dst].get(src, 0) + v
            M[src][src] = M[src].get(src, 0) - v

    for s in range(dim):
        first = 1 << (L - 1)
        rate(s, s | first, r["alpha"] if not s & first else 0)
        rate(s, s & ~first, r["gamma"] if s & first else 0)
        rate(s, s | 1, r["delta"] if not s & 1 else 0)
        rate(s, s & ~1, r["beta"] if s & 1 else 0)
        for k in range(L - 1):
            hi, lo = 1 << (L - 1 - k), 1 << (L - 2 - k)
            occ = (bool(s & hi), bool(s & lo))
            if occ == (True, False):
                rate(s, s ^ hi ^ lo, hop_r)
            elif occ == (False, True):
                rate(s, s ^ hi ^ lo, hop_l)
            elif pair is not None:
                rate(s, s ^ hi ^ lo, pair)
    return M


def stationary(params, L: int) -> list:
    """Exact stationary distribution by dense elimination (small L only)."""
    M = generator(params, L)
    dim = 1 << L
    # replace the last balance equation by the normalisation sum(pi) = 1
    A = [[M[r].get(c, Fraction(0)) for c in range(dim)] + [Fraction(0)]
         for r in range(dim - 1)]
    A.append([Fraction(1)] * dim + [Fraction(1)])
    for col in range(dim):
        piv = next(r for r in range(col, dim) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(dim):
            f = A[r][col]
            if r != col and f:
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[r][dim] for r in range(dim)]


def _csv_sections(text: str):
    sections, cur = [], []
    for row in csv.reader(io.StringIO(text)):
        if row:
            cur.append(row)
        elif cur:
            sections.append(cur)
            cur = []
    if cur:
        sections.append(cur)
    return sections


def _weights(text: str, L: int) -> tuple:
    """(weights, observable rows) of a steady CSV output."""
    sections = _csv_sections(text)
    _need(len(sections) == 2, "steady output has two CSV sections")
    head, *rows = sections[0]
    _need(head[:2] == ["config", "weight"], "weights header")
    _need([r[0] for r in rows] == [format(i, f"0{L}b") for i in range(1 << L)],
          "one weight row per configuration, in index order")
    return [Fraction(r[1]) for r in rows], sections[1]


def check_steady_exact(params, out: str):
    """--exact nullspace weights: sum to 1, M pi = 0, densities match."""
    L = params["L"]
    pi, obs = _weights(out, L)
    _need(sum(pi) == 1, "weights sum to 1")
    M = generator(params, L)
    for r, row in M.items():
        _need(sum(v * pi[c] for c, v in row.items()) == 0, f"(M pi)[{r}] == 0")
    _need(len(obs) == L + 1, "one observable row per site")
    for i, row in enumerate(obs[1:]):
        bit = 1 << (L - 1 - i)
        want = sum(p for s, p in enumerate(pi) if s & bit)
        _need(Fraction(row[1]) == want, f"density at site {i + 1}")


def check_rd_ansatz(params, out: str):
    """Truncated-ansatz weights agree with the exact stationary state."""
    L = params["L"]
    got, _ = _weights(out, L)
    want = stationary(params, L)
    for s, (g, w) in enumerate(zip(got, want)):
        _need(abs(g - w) <= REL_TOL * abs(w), f"weight {s} within 1e-10")


def check_reports(params, out: str):
    """verify/transfer JSON: every check present passes or is skipped."""
    doc = json.loads(out)
    counts = doc["counts"]
    statuses = [c["status"] for c in doc["checks"]]
    _need(counts["fail"] == 0, "counts.fail == 0")
    _need("Fail" not in statuses, "no failing check")
    _need(sum(counts.values()) == len(statuses) > 0, "counts match checks")
    _need(counts["pass"] > 0, "at least one check passes")


def _float17(value) -> str:
    return format(float(value), ".17g")


def check_rd_profile(params, out: str):
    """Spot-checked sites print exactly the closed-form values."""
    from exclusion.ansatz import rd_closed_forms

    L = params["L"]
    asym = params["asymptotics"]
    r = _rates(params)
    if params["format"] == "json":
        rows = json.loads(out)["profile"]
    else:
        head, *body = _csv_sections(out)[0]
        rows = [dict(zip(head, row)) for row in body]
    _need(len(rows) == L, "one row per site")
    for i in [1, L] + params["spot"]:
        cf = rd_closed_forms(r["kappa"], r["alpha"], r["beta"], r["gamma"],
                             r["delta"], L, i)
        row = rows[i - 1]
        want = {"density": cf["density"], "current_lat": cf["current_lat"],
                "current_eva": cf["current_eva"]}
        if asym:
            want["density_asymptotic"] = cf["asymptotics"]["density"]
        for key, v in want.items():
            text = "" if v is None else _float17(v)
            _need(str(row[key]) == text, f"site {i} {key}")


CHECKS = {
    "steady_exact": check_steady_exact,
    "rd_ansatz": check_rd_ansatz,
    "reports": check_reports,
    "rd_profile": check_rd_profile,
}


def check(name: str, params, out: bytes) -> str | None:
    """None when the output is right, else what is wrong."""
    try:
        CHECKS[name](params, out.decode("utf-8"))
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def skip_reasons(out: bytes) -> tuple:
    """(pole, unsupported) Skipped counts of a verify/transfer JSON output,
    split by the report's reason field."""
    try:
        checks = json.loads(out)["checks"]
    except (ValueError, KeyError):
        return 0, 0
    skipped = [c.get("reason", "") for c in checks if c["status"] == "Skipped"]
    pole = sum(reason.startswith("pole") for reason in skipped)
    return pole, len(skipped) - pole
