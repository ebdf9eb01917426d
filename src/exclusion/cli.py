"""Command-line front end: verify / steady / profile / transfer / bench.

All rationals cross this boundary as 'p/q' strings; floating point is
formatting only (17 significant digits), and --exact switches every numeric
cell to the exact rational string.  Same config + same seed -> byte-identical
output (bench excepted: it reports wall times).

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import re
import sys
import time
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import ansatz as an
from . import models as m
from . import transfer as tr
from . import verifier as vf
from .markov import KernelError, build_markov, integer_markov, observables, \
    steady_state_exact
from .sampling import sample_points
from .scalars import float_repr, format_rational, parse_rational

SCHEMA = 1


class UsageError(Exception):
    pass


class DomainError(Exception):
    pass


@contextlib.contextmanager
def _domain_errors():
    """Re-raise a library domain error as DomainError: a pole hit
    (ZeroDivisionError, PoleError too) as "pole collision: ...", a
    ValueError (UnsupportedError too) as is, and an exact value too large
    for a float (OverflowError) with the float range and --exact named."""
    try:
        yield
    except ZeroDivisionError as exc:
        raise DomainError(f"pole collision: {exc}") from None
    except ValueError as exc:
        raise DomainError(str(exc)) from None
    except OverflowError as exc:
        raise DomainError(
            f"{exc}: a value lies outside the float range "
            f"(|x| <= {sys.float_info.max:.4g}); --exact prints it as an "
            f"exact rational") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Every option, by flag.  --q and --kappa have no default here: _model
# applies it for the one model that has the rate.  --truncation-cap has
# none either, so that steady and transfer can tell when it is given (_cap).
_OPTIONS = {
    "--model": dict(required=True, choices=m.MODEL_NAMES),
    "--alpha": dict(type=_rational, default="1"),
    "--beta": dict(type=_rational, default="1"),
    "--gamma": dict(type=_rational, default="0"),
    "--delta": dict(type=_rational, default="0"),
    "--q": dict(type=_rational), "--kappa": dict(type=_rational),
    "--out": {},
    "--L": dict(type=_positive_int, default=2),
    "--theta": dict(type=lambda text: tuple(map(_rational, text.split(","))),
                    help="comma list of rationals"),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=_positive_int, default=5),
    "--format": dict(default="csv", choices=("csv", "json")),
    "--exact": dict(action="store_true"),
    "--truncation-cap": dict(type=int),
    "--method": dict(default="nullspace",
                     choices=("nullspace", "ansatz", "both")),
    "--asymptotics": dict(action="store_true"),
    "--check": dict(default="commutation",
                    choices=("commutation", "markov-derivative", "eigenvalue",
                             "left-eigenvector", "crossing", "conjugated",
                             "inhomogeneous-eigenvector")),
    "--x": dict(type=_rational, default="3"),
    "--x2": dict(type=_rational, default="5"),
}
_COMMON = ("--model", "--alpha", "--beta", "--gamma", "--delta", "--q",
           "--kappa", "--out")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Each subcommand takes _COMMON plus exactly the options it reads.
    Given ``command``, only the subcommand of that name gets its options;
    the others stay listed, for the top-level help and its errors."""
    p = argparse.ArgumentParser(prog="exclusion")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, own in (
            ("verify", cmd_verify, ("--seed", "--samples")),
            ("steady", cmd_steady, ("--L", "--format", "--exact",
                                    "--truncation-cap", "--method")),
            ("profile", cmd_profile, ("--L", "--format", "--exact",
                                      "--asymptotics")),
            ("transfer", cmd_transfer, ("--L", "--theta", "--seed",
                                        "--truncation-cap", "--check", "--x",
                                        "--x2")),
            ("bench", cmd_bench, ("--L", "--format"))):
        sp = sub.add_parser(name)
        # no flag starts with a digit: "-1/2" after a space is a value
        sp._negative_number_matcher = re.compile(r"^-\d")
        if command not in (None, name):
            continue
        for flag in _COMMON + own:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(fn=fn)
        if "--format" not in own:   # a check report is a JSON document
            sp.set_defaults(format="json")
    return p


def _model(args) -> m.ModelDescriptor:
    for k, owner in (("q", m.ASEP), ("kappa", m.RD)):
        if getattr(args, k) is not None and args.model != owner:
            raise UsageError(f"--{k} is a rate of {owner} only")
    rates = (args.alpha, args.beta, args.gamma, args.delta)
    try:
        if args.model == m.ASEP:
            return m.asep(Fraction(2) if args.q is None else args.q, *rates)
        if args.model == m.TASEP:
            if args.gamma != 0 or args.delta != 0:
                raise UsageError("tasep has no gamma/delta rates")
            return m.tasep(args.alpha, args.beta)
        if args.model == m.SSEP:
            return m.ssep(*rates)
        return m.rd(Fraction(3) if args.kappa is None else args.kappa, *rates)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cap(args) -> int:
    return an.CAP if args.truncation_cap is None else args.truncation_cap


def _emit(text: str, args):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: "
                             f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cell(value, args) -> str:
    if value is None:
        return ""
    if not args.exact:
        return float_repr(value)
    try:
        return format_rational(value)
    except ValueError:
        # int -> str beyond the interpreter's digit limit
        raise DomainError(
            f"--exact cell exceeds the int-to-str limit of "
            f"{sys.get_int_max_str_digits()} digits; drop --exact, or set "
            f"PYTHONINTMAXSTRDIGITS=0") from None


def _report_rows(reports, params):
    rows = []
    for r in reports:
        row = {"model": r.model, "check": r.check, "params": params,
               "points": list(r.points), "status": r.status}
        if r.witness is not None:
            row["witness"] = r.witness
        if r.reason is not None:
            row["reason"] = r.reason
        rows.append(row)
    return rows


def _params_json(model: m.ModelDescriptor) -> dict:
    return {k: format_rational(v) for k, v in model.rates().items()}


def _finish_reports(reports, args, model, extra=None) -> int:
    params = _params_json(model)
    counts = {"pass": sum(r.status == vf.PASS for r in reports),
              "fail": sum(r.status == vf.FAIL for r in reports),
              "skipped": sum(r.status == vf.SKIPPED for r in reports)}
    doc = {"schema": SCHEMA, "model": model.name, "params": params,
           "seed": args.seed, "counts": counts,
           "checks": _report_rows(reports, params)}
    if extra:
        doc.update(extra)
    _write(doc, args)
    return 0 if counts["fail"] == 0 else 1


def cmd_verify(args) -> int:
    model = _model(args)
    with _domain_errors():
        points = sample_points(model, args.samples, args.seed)
        reports = vf.run_model_suite(model, points)
    return _finish_reports(reports, args, model)


def _steady_distributions(args, model):
    L = args.L
    method = args.method
    if method in ("nullspace", "both"):
        if L > 10:
            raise DomainError("nullspace method capped at L = 10")
    if method in ("ansatz", "both"):
        if L > 8:
            raise DomainError("ansatz method capped at L = 8")
    null_dist = ansatz_dist = None
    if method in ("nullspace", "both"):
        null_dist = steady_state_exact(integer_markov(model, L)[0])
    if method in ("ansatz", "both"):
        with _domain_errors():
            ansatz_dist = an.steady_ansatz(model, L, _cap(args))
    return null_dist, ansatz_dist


def cmd_steady(args) -> int:
    model = _model(args)
    if args.truncation_cap is not None and \
            (args.method == "nullspace" or model.name != m.RD):
        raise UsageError("--truncation-cap is read by the RD ansatz "
                         "method only")
    null_dist, ansatz_dist = _steady_distributions(args, model)
    primary = null_dist if null_dist is not None else ansatz_dist
    probs = primary.probabilities()
    obs = observables(primary, model)
    L = args.L
    header = ["config", "weight"]
    weights = [[_bits(i, L), _cell(p, args)] for i, p in enumerate(probs)]
    extra = {}
    if null_dist is not None and ansatz_dist is not None:
        alt = ansatz_dist.probabilities()
        diffs = [_rel_diff(p, a) for p, a in zip(probs, alt)]
        header += ["weight_ansatz", "rel_diff"]
        for row, a, d in zip(weights, alt, diffs):
            row += [_cell(a, args), _cell(d, args)]
        extra["max_rel_diff"] = _cell(max(diffs), args)
    sites = [[i + 1, _cell(obs["density"][i], args),
              _cell(obs["current_lat"][i], args) if i < L - 1 else "",
              _cell(obs["current_eva"][i], args) if i < L - 1 else ""]
             for i in range(L)]
    return _write({"schema": SCHEMA, "model": model.name,
                   "params": _params_json(model), "L": L,
                   "method": args.method, "weights": (header, weights),
                   "observables": (["site", "density", "current_lat",
                                    "current_eva"], sites), **extra}, args)


def _write(doc: dict, args) -> int:
    """Emit a document of scalar fields and (header, rows) tables.  JSON
    writes each table as a list of dicts keyed by its header, the bytes of
    json.dumps(indent=2); CSV writes only the tables, in document order,
    separated by a blank row.  Rows may be drawn lazily: nothing is emitted
    until every row is formatted."""
    if args.format == "json":
        _emit(_json(doc) + "\n", args)
        return 0
    buf = io.StringIO()
    wcsv = csv.writer(buf, lineterminator="\n")
    tables = [v for v in doc.values() if isinstance(v, tuple)]
    for n, (header, rows) in enumerate(tables):
        if n:
            wcsv.writerow([])
        wcsv.writerow(header)
        wcsv.writerows(rows)
    _emit(buf.getvalue(), args)
    return 0


def _json(doc: dict) -> str:
    """json.dumps(doc, indent=2), each table expanded to its list of dicts:
    scalar fields go through json.dumps, and each table row fills one
    %-template of its table's keys.  Keys are str, a header's keys are
    distinct, and a row holds one value per key (else % raises TypeError)."""
    fields = []
    for key, value in doc.items():
        field = "  " + encode_basestring_ascii(key) + ": "
        if isinstance(value, tuple):
            fields.append(field + _json_table(*value))
        else:
            fields.append(field + _json_value(value, "\n  "))
    return "{\n" + ",\n".join(fields) + "\n}" if fields else "{}"


def _json_table(header, rows) -> str:
    template = "    {\n" + ",\n".join(
        "      " + encode_basestring_ascii(k).replace("%", "%%") + ": %s"
        for k in header) + "\n    }" if header else "    {}"
    body = ",\n".join(
        template % tuple([encode_basestring_ascii(v) if type(v) is str
                          else repr(v) if type(v) is int
                          else _json_value(v, "\n      ") for v in row])
        for row in rows)
    return "[\n" + body + "\n  ]" if body else "[]"


def _json_value(value, newline: str) -> str:
    """json.dumps(value, indent=2), its lines indented to follow newline."""
    return json.dumps(value, indent=2).replace("\n", newline)


def _bits(index: int, L: int) -> str:
    return format(index, f"0{L}b")


def _rel_diff(p: Fraction, a: Fraction) -> Fraction:
    if a == 0:
        return abs(p)
    return abs(p - a) / abs(a)


def cmd_profile(args) -> int:
    model = _model(args)
    if model.name != m.RD:
        raise DomainError("profile is the RD closed-form command")
    L = args.L
    if L < 2 or L > 10 ** 4:
        raise DomainError("profile needs 2 <= L <= 10^4")
    with _domain_errors():
        co = an.rd_boundary_coefficients(model.kappa, model.alpha, model.beta,
                                         model.gamma, model.delta)
    if co["c"] == 0 or co["d"] == 0:
        raise DomainError("degenerate boundary coefficients: alpha = gamma "
                          "or beta = delta makes c or d vanish")
    header = ["site", "density", "current_lat", "current_eva"]
    if args.asymptotics:
        header.append("density_asymptotic")
    rows = ([i + 1] + [_cell(r[k], args) for k in header[1:]]
            for i, r in enumerate(_profile_rows(model, L, args)))
    return _write({"schema": SCHEMA, "model": model.name,
                   "params": _params_json(model), "L": L,
                   "profile": (header, rows)}, args)


def _profile_rows(model, L, args):
    """The closed-form rows, drawn one at a time as they are formatted; a
    domain error of the formulas surfaces as a DomainError."""
    with _domain_errors():
        yield from an.rd_profile_rows(model.kappa, model.alpha, model.beta,
                                      model.gamma, model.delta, L,
                                      asymptotics=args.asymptotics,
                                      exact=args.exact)


def cmd_transfer(args) -> int:
    model = _model(args)
    # --x and --x2 stay accepted by every check: perfbench passes both to each
    if args.theta is not None and args.check == "markov-derivative":
        raise UsageError("markov-derivative is the homogeneous check: "
                         "it does not take --theta")
    if args.truncation_cap is not None and \
            args.check != "inhomogeneous-eigenvector":
        raise UsageError("--truncation-cap is read by the "
                         "inhomogeneous-eigenvector check only")
    L = args.L
    if L > 6:   # the RD inhomogeneous eigenvector: 2.3 s at L = 6 on 2 vCPU
        raise DomainError(f"transfer checks capped at L = 6, got L = {L}")
    if args.theta is not None and len(args.theta) != L:
        raise UsageError(f"need {L} inhomogeneities, got {len(args.theta)}")
    spec = tr.TransferSpec(model, L, args.theta)
    x, x2 = args.x, args.x2
    extra = {}
    with _domain_errors():
        if args.check in ("eigenvalue", "left-eigenvector"):
            lam = tr.lambda_eigenvalue(model, x, spec.thetas)
            extra["lambda"] = format_rational(lam)
        if args.check == "commutation":
            reports = [tr.check_commutation(spec, x, x2)]
        elif args.check == "markov-derivative":
            reports = [tr.markov_from_transfer(model, L)]
        elif args.check == "eigenvalue":
            reports = [tr.check_right_eigenvector(spec, x, x2)]
        elif args.check == "left-eigenvector":
            reports = [tr.left_eigen_ones(spec, x)]
        elif args.check == "crossing":
            reports = [tr.check_crossing_symmetry_t(spec, x)]
        elif args.check == "conjugated":
            reports = tr.ssep_conjugated(spec, x)
        else:
            reports = tr.check_rd_inhomogeneous_eigenvector(spec, _cap(args))
    return _finish_reports(reports, args, model, extra=extra)


def cmd_bench(args) -> int:
    model = _model(args)
    L = args.L
    rows = []

    def timed(task, fn, size=L):
        t0 = time.perf_counter()
        fn()
        rows.append([task, model.name, size,
                     round(time.perf_counter() - t0, 6)])

    with _domain_errors():
        M = build_markov(model, L)
        timed("build_markov", lambda: build_markov(model, L))
        timed("steady_nullspace", lambda: steady_state_exact(M))
        if model.name in (m.TASEP, m.RD):
            timed("steady_ansatz", lambda: an.steady_ansatz(model, L))
        spec = tr.TransferSpec(model, min(L, 4))
        x, x2 = Fraction(3), Fraction(5)
        timed("transfer_build", lambda: tr.build_transfer(spec, x), spec.L)
        timed("transfer_commutation",
              lambda: tr.check_commutation(spec, x, x2), spec.L)
    return _write({"schema": SCHEMA,
                   "bench": (["task", "model", "L", "seconds"], rows)}, args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser has no option but -h, so argparse hands argv to
    # the subcommand named by its first argument not starting with "-", or
    # to none
    parser = build_parser(next((a for a in argv if a[:1] != "-"), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # a warning prints as one line with no source location, so stderr is
    # the same from every checkout
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, KernelError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
