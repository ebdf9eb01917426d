"""Run ``exclusion.cli.main(argv)`` with spans around each layer's calls.

Usage: python traced_cli.py <cli arguments...>

The wrappers live here, not in the package: after ``import exclusion.cli``
each traced function is replaced, in every ``exclusion`` module that bound
it, by a wrapper that times the call.  Self time is a span's duration minus
the time of the spans it caused.  Spans are aggregated in memory per name
and per (parent, name) edge, and written as JSON to $PERFBENCH_TRACE_OUT
when main returns or raises.  $PERFBENCH_SPAWN_T is the parent's
``time.monotonic()`` at spawn, which gives the start-up time.
"""

from __future__ import annotations

import json
import os
import sys
import time

import exclusion.cli

READY_T = time.monotonic()

from exclusion import ansatz, markov, models, sampling, scalars, \
    tensor, transfer, verifier  # noqa: E402  (already imported by cli)

# span name -> functions it covers, as (module or class, attribute)
SPANS = {
    "cli": [(exclusion.cli, "main")],
    "tensor.exact_nullspace": [(tensor, "exact_nullspace")],
    "tensor.sparse_mul": [(tensor.SparseMatrix, "__mul__")],
    "tensor.embed": [(tensor, "embed_at_positions")],
    "markov.build_markov": [(markov, "build_markov")],
    "markov.steady_state_exact": [(markov, "steady_state_exact")],
    "markov.observables": [(markov, "observables")],
    "models.r_matrix": [(models, "r_matrix")],
    "models.k_matrix": [(models, "k_matrix")],
    "transfer.build_transfer": [(transfer, "build_transfer")],
    "transfer.check": [(transfer, name) for name in (
        "check_commutation", "markov_from_transfer", "check_eigenpair",
        "left_eigen_ones", "check_crossing_symmetry_t", "ssep_conjugated")],
    "verifier.run_model_suite": [(verifier, "run_model_suite")],
    "sampling.sample_points": [(sampling, "sample_points")],
    "ansatz.rd_representation": [(ansatz, "rd_representation")],
    "ansatz.contract": [(ansatz, "ansatz_weights"),
                        (ansatz, "inhomogeneous_state")],
    "ansatz.truncation": [(ansatz, "rd_steady_converged"),
                          (ansatz, "rd_inhomogeneous_converged")],
    "ansatz.rd_profile_rows": [(ansatz, "rd_profile_rows")],
    "scalars.format": [(scalars, "format_rational"), (scalars, "float_repr")],
}


class Tracer:
    """Span stack plus per-name and per-edge aggregates."""

    def __init__(self):
        self.stack = []                 # [name, child seconds]
        self.names = {}                 # name -> [calls, self_s]
        self.edges = {}                 # "parent>name" -> [calls, total_s]
        self.counters = {"nullspace_dim": 0, "nullspace_nnz": 0,
                         "model_safe_calls": 0, "points_returned": 0,
                         "truncation_runs": 0, "N_final_sum": 0,
                         "final_round_s": 0.0, "truncation_s": 0.0}
        self.last_rep_start = None

    def enter(self, name):
        self.stack.append([name, 0.0])
        return time.perf_counter()

    def exit(self, name, t0, first=True):
        dt = time.perf_counter() - t0
        _, child = self.stack.pop()
        agg = self.names.setdefault(name, [0, 0.0])
        agg[0] += first
        agg[1] += dt - child
        parent = self.stack[-1][0] if self.stack else "-"
        edge = self.edges.setdefault(f"{parent}>{name}", [0, 0.0])
        edge[0] += first
        edge[1] += dt
        if self.stack:
            self.stack[-1][1] += dt
        return dt

    def wrap(self, name, fn):
        if name == "ansatz.rd_profile_rows":
            return self._wrap_generator(name, fn)

        def traced(*args, **kwargs):
            t0 = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.exit(name, t0)
            self._count(name, args, result, t0, dt)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                t0 = self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(name, t0, first)
                    first = False
                yield item

        return traced

    def _count(self, name, args, result, t0, dt):
        c = self.counters
        if name == "tensor.exact_nullspace":
            M = args[0]
            if isinstance(M, tensor.Matrix):
                c["nullspace_dim"] += M.rows
                c["nullspace_nnz"] += sum(1 for row in M.a for v in row if v)
            else:
                c["nullspace_dim"] += M.dim
                c["nullspace_nnz"] += M.nnz
        elif name == "sampling.sample_points":
            c["points_returned"] += len(result)
        elif name == "ansatz.rd_representation":
            self.last_rep_start = t0
        elif name == "ansatz.truncation":
            # the last round starts at the last representation build
            c["truncation_runs"] += 1
            c["N_final_sum"] += result[1]["N"]
            c["truncation_s"] += dt
            c["final_round_s"] += t0 + dt - self.last_rep_start

    def count_model_safe(self, fn):
        def counted(*args, **kwargs):
            self.counters["model_safe_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for name, targets in SPANS.items():
            for owner, attr in targets:
                traced = self.wrap(name, getattr(owner, attr))
                self._replace(owner, attr, traced)
        self._replace(sampling, "model_safe",
                      self.count_model_safe(sampling.model_safe))

    @staticmethod
    def _replace(owner, attr, new):
        old = getattr(owner, attr)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is old:
                    setattr(owner, key, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "exclusion" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)

    def dump(self, path, startup_s):
        doc = {"startup_s": startup_s,
               "names": {k: {"calls": v[0], "self_s": v[1]}
                         for k, v in self.names.items()},
               "edges": {k: {"calls": v[0], "total_s": v[1]}
                         for k, v in self.edges.items()},
               "counters": self.counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv) -> int:
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    tracer = Tracer()
    tracer.install()
    try:
        return exclusion.cli.main(argv)
    finally:
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"], READY_T - spawn_t)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
