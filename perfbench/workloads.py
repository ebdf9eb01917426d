"""The four benchmark workloads, as seeded streams of CLI jobs.

Each workload is a fixed *cycle* of job cells.  A cell fixes what drives the
cost of a job (subcommand, model, L, kappa, --exact, output format); the
seed draws the rest (rates, q, verify's sample seed, profile spot checks)
and the order of the cells inside each cycle.  Every run therefore executes
the same mix of work, and two seeds differ only in the rationals the
program sees.  The runner measures whole cycles, so a run never stops in the
middle of the mix, and a fixed number of them, so a seed gives the same job
list on every commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The seed assigns a fixed multiset of boundary rates to (alpha, beta,
# gamma, delta) in a seeded order.  Drawing each rate from a pool instead
# makes the exact kernel's cost swing fivefold between seeds (a zero or unit
# rate keeps the rationals small), which no run length averages out.
RATES = ("1/2", "2/3", "1/3", "1/5")
Q_POOL = ("2", "3", "3/2")    # q x = 1 is a pole: keep q x > 1 for x >= 2

# RD truncation cells that should converge at moderate N: large injection
# and extraction keep the boundary coefficients |a|, |b| below about 0.55,
# so that the doubling loop stops at N <= 64.  The seed orders the losses
# only: swapping the injection rates moves the L = 5 cost by 20%.
RD_FAST_IN = {"alpha": "3/2", "beta": "2"}
RD_FAST_OUT = ("1/3", "1/2")

# The CLI's default RD rates (kappa = 3, alpha = beta = 1, gamma = delta =
# 0): at L = 2 the truncation loop ends at N = 96, where the exact output
# exceeds Python's int-to-str digit limit and the job fails.  That request
# is a known defect, kept in the mix on purpose with its rates fixed.
RD_DEFAULT = {"alpha": "1", "beta": "1", "gamma": "0", "delta": "0"}

# Inhomogeneities per L.  The final N depends on their order (theta =
# (5, 2, 7) needs N = 56 at some rates, (2, 5, 7) N = 28 at all of them),
# so they are fixed, and the seed draws only the rates.
THETAS = {2: ("2", "5"), 3: ("2", "5", "7")}

# Spectral points of the transfer checks; pole-free for every model at the
# rates above.  Fixed, since larger points mean larger rationals.
X, X2 = "2", "5"


@dataclass
class Job:
    """One CLI invocation and how to check what it printed."""
    cell: str
    argv: list
    check: str                      # oracle name in oracles.CHECKS
    params: dict = field(default_factory=dict)


def _rate_args(params):
    out = []
    for k in ("alpha", "beta", "gamma", "delta", "q", "kappa"):
        if k in params:
            out += [f"--{k}", params[k]]
    return out


def _model_params(rng, model, kappa=3):
    alpha, beta, gamma, delta = rng.sample(RATES, 4)
    if model == "tasep":
        gamma = delta = "0"
    params = {"model": model, "alpha": alpha, "beta": beta, "gamma": gamma,
              "delta": delta}
    if model == "asep":
        params["q"] = rng.choice(Q_POOL)
    if model == "rd":
        params["kappa"] = str(kappa)
    return params


# ------------------------------------------------------------ steady-exact

def _steady_exact_cells():
    # TASEP at L = 5 is left out: it is as cheap as process start-up, and
    # without it the median job falls inside the cluster of L = 6 jobs
    # rather than on the step between start-up-bound and kernel-bound jobs.
    return [(model, L) for model in ("asep", "ssep", "tasep", "rd")
            for L in (5, 6, 7) if (model, L) != ("tasep", 5)]


def _steady_exact_job(rng, cell):
    model, L = cell
    params = _model_params(rng, model)
    params["L"] = L
    argv = ["steady", "--model", model, *_rate_args(params), "--L", str(L),
            "--method", "nullspace", "--exact"]
    return Job(f"{model}-L{L}", argv, "steady_exact", params)


# ----------------------------------------------------------- rd-truncation

def _rd_truncation_cells():
    # (kind, L, kappa, exact, rates), with the final N reached.  The L = 5
    # exact cell appears three times so that the median job falls inside a
    # block of like jobs rather than between two different ones.
    return [
        ("steady", 2, 3, True, "default"),   # N = 96, known digit-limit crash
        ("steady", 2, 2, False, "fast"),     # N = 24
        ("steady", 3, 3, True, "fast"),      # N = 56
        ("steady", 4, 2, False, "fast"),     # N = 32
        ("steady", 4, 3, True, "fast"),      # N = 64
        ("steady", 5, 2, True, "fast"),      # N = 36
        ("steady", 5, 2, True, "fast"),
        ("steady", 5, 2, True, "fast"),
        ("steady", 5, 3, False, "fast"),     # N = 36
        ("inhomogeneous", 2, 2, False, "fast"),  # N = 48
        ("inhomogeneous", 3, 2, False, "fast"),  # N = 28
    ]


def _rd_truncation_job(rng, cell):
    kind, L, kappa, exact, family = cell
    params = _model_params(rng, "rd", kappa=kappa)
    if family == "default":
        params.update(RD_DEFAULT)
    else:
        params.update(RD_FAST_IN)
        params["gamma"], params["delta"] = rng.sample(RD_FAST_OUT, 2)
    params["L"] = L
    if kind == "steady":
        argv = ["steady", "--model", "rd", *_rate_args(params), "--L", str(L),
                "--method", "ansatz"] + (["--exact"] if exact else [])
        params["exact"] = exact
        return Job(f"steady-L{L}-k{kappa}{'-exact' if exact else ''}", argv,
                   "rd_ansatz", params)
    thetas = THETAS[L]
    params["theta"] = thetas
    argv = ["transfer", "--model", "rd", *_rate_args(params), "--L", str(L),
            "--theta", ",".join(thetas),
            "--check", "inhomogeneous-eigenvector"]
    return Job(f"inhomogeneous-L{L}-k{kappa}", argv, "reports", params)


# --------------------------------------------------------- verify-transfer

# Every check each model supports: TASEP and RD have no closed-form
# eigenvalue, and crossing/conjugated exist for ASEP/SSEP and SSEP only.
_TRANSFER_CHECKS = {
    "asep": ("commutation", "markov-derivative", "eigenvalue",
             "left-eigenvector", "crossing"),
    "ssep": ("commutation", "markov-derivative", "eigenvalue",
             "left-eigenvector", "crossing", "conjugated"),
    "tasep": ("commutation", "markov-derivative"),
    "rd": ("commutation", "markov-derivative"),
}


def _verify_transfer_cells():
    cells = [("verify", model, None, None) for model in _TRANSFER_CHECKS]
    i = 0
    for model, checks in _TRANSFER_CHECKS.items():
        for check in checks:
            cells.append(("transfer", model, check, 3 + i % 3))
            i += 1
    return cells


def _verify_transfer_job(rng, cell):
    kind, model, check, L = cell
    params = _model_params(rng, model)
    if kind == "verify":
        params["seed"] = rng.randrange(1 << 16)
        argv = ["verify", "--model", model, *_rate_args(params),
                "--samples", "5", "--seed", str(params["seed"])]
        return Job(f"verify-{model}", argv, "reports", params)
    params.update(L=L, check=check, x=X, x2=X2)
    argv = ["transfer", "--model", model, *_rate_args(params), "--L", str(L),
            "--check", check, "--x", X, "--x2", X2]
    return Job(f"{check}-{model}-L{L}", argv, "reports", params)


# -------------------------------------------------------------- rd-profile

def _rd_profile_cells():
    # (L, kappa, asymptotics, format); kappa = 2 costs about twice kappa = 3
    # at the same L (phi = 1/3 against 1/2), so L = 4000 runs at kappa = 3
    return [(1000, 2, True, "json"), (2000, 3, False, "csv"),
            (2000, 2, True, "json"), (3000, 3, True, "csv"),
            (4000, 3, False, "json")]


def _rd_profile_job(rng, cell):
    L, kappa, asym, fmt = cell
    params = _model_params(rng, "rd", kappa=kappa)
    params.update(L=L, asymptotics=asym, format=fmt,
                  spot=sorted(rng.sample(range(2, L), 3)))
    argv = ["profile", "--model", "rd", *_rate_args(params), "--L", str(L),
            "--format", fmt] + (["--asymptotics"] if asym else [])
    return Job(f"profile-L{L}-k{kappa}-{fmt}{'-asym' if asym else ''}", argv,
               "rd_profile", params)


# Wall time of one cycle of the unoptimised package on a 2-core machine with
# Python 3.11; a run of S seconds measures round(S / nominal) cycles.
NOMINAL_CYCLE_S = {"steady-exact": 10.0, "rd-truncation": 30.0,
                   "verify-transfer": 8.0, "rd-profile": 15.0}

WORKLOADS = {
    "steady-exact": (_steady_exact_cells, _steady_exact_job),
    "rd-truncation": (_rd_truncation_cells, _rd_truncation_job),
    "verify-transfer": (_verify_transfer_cells, _verify_transfer_job),
    "rd-profile": (_rd_profile_cells, _rd_profile_job),
}


def cycles(workload: str, seed: int):
    """Endless stream of cycles; each cycle is a list of Jobs covering every
    cell of the workload once, in a seeded order."""
    make_cells, make_job = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cells = make_cells()
    while True:
        order = list(cells)
        rng.shuffle(order)
        jobs = [make_job(rng, cell) for cell in order]
        seen = {}
        for job in jobs:    # repeated cells get distinct names
            seen[job.cell] = seen.get(job.cell, 0) + 1
            if seen[job.cell] > 1:
                job.cell += f"#{seen[job.cell]}"
        yield jobs
