"""Command-line front end: verify / steady / profile / transfer / bench.

All rationals cross this boundary as 'p/q' strings; floating point is
formatting only (17 significant digits), and --exact switches every numeric
cell to the exact rational string.  Same config + same seed -> byte-identical
output (bench excepted: it reports wall times).

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 domain error.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import time
import types
import warnings
from fractions import Fraction
from itertools import zip_longest
from operator import itemgetter

# parsing and every subcommand need these; each command imports the rest of
# the library where it calls it, so a process loads only what it runs
from . import models as m
from .scalars import format_rational, parse_rational

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
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(str(exc)) from None


# Every option, by flag, read by build_parser and by _parse_plain.  --q and
# --kappa have no default here: _model applies it for the one model that
# has the rate.  --truncation-cap has none either, so that steady and
# transfer can tell when it is given (_cap).
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


# no flag starts with a digit, so an argument matching this is a value:
# "-1/2" may follow a flag after a space
_NEGATIVE = re.compile(r"^-\d")


def build_parser():
    """The argparse parser of _COMMANDS: each subcommand takes _COMMON plus
    exactly the options it reads."""
    import argparse
    p = argparse.ArgumentParser(prog="exclusion")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, own) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp._negative_number_matcher = _NEGATIVE
        for flag in _COMMON + own:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(fn=fn)
        if "--format" not in own:   # a check report is a JSON document
            sp.set_defaults(format="json")
    return p


def _parse_plain(argv):
    """What build_parser().parse_args(argv) returns, read from _COMMANDS and
    _OPTIONS without argparse, for a plain argv: the subcommand, then
    distinct exact flags of it, each value after a space or '=' and a
    store_true flag bare.  None for any other argv, and for one whose
    values argparse would reject or read otherwise: argparse alone prints
    help and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, own = _COMMANDS[argv[0]]
    flags = _COMMON + own
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags or flag in given:
            return None
        if _OPTIONS[flag].get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                return None
        # argparse reads "-x" after a space as a flag, and "--" as no value
        if value[:1] == "-" and not _NEGATIVE.match(value):
            return None
        given[flag] = value
    args = {"command": argv[0], "fn": fn}
    if "--format" not in own:
        args["format"] = "json"
    for flag in flags:
        spec = _OPTIONS[flag]
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default", False if spec.get("action") ==
                             "store_true" else None)
        if isinstance(value, str):
            # a given value or a string default, through the option's type
            try:
                value = spec.get("type", str)(value)
            except Exception:   # argparse words it, or raises it again
                return None
        # argparse checks the choices of a given value only
        if flag in given and "choices" in spec and \
                value not in spec["choices"]:
            return None
        args[flag[2:].replace("-", "_")] = value
    return types.SimpleNamespace(**args)


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
    from .ansatz import CAP
    return CAP if args.truncation_cap is None else args.truncation_cap


def _emit(text: str, args):
    # argparse reads --out=-- as no value at all, an empty list, and --out=
    # as the empty name
    if args.out in ([], ""):
        raise UsageError("--out needs a file name")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: "
                             f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _number(args) -> str:
    """The conversion of a numeric cell: '%s' of a Fraction is its
    format_rational, and '%.17g' calls float() first, as float_repr does."""
    return "%s" if args.exact else "%.17g"


@contextlib.contextmanager
def _digit_limit():
    """Re-raise a ValueError of formatting, str of an int beyond the
    interpreter's digit limit, as DomainError naming the ways out."""
    try:
        yield
    except ValueError:
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


def _finish_reports(reports, args, model, seed, extra=None) -> int:
    from .verifier import FAIL, PASS, SKIPPED
    params = _params_json(model)
    counts = {"pass": sum(r.status == PASS for r in reports),
              "fail": sum(r.status == FAIL for r in reports),
              "skipped": sum(r.status == SKIPPED for r in reports)}
    doc = {"schema": SCHEMA, "model": model.name, "params": params,
           "seed": seed, "counts": counts,
           "checks": _report_rows(reports, params)}
    if extra:
        doc.update(extra)
    _write(doc, args)
    return 0 if counts["fail"] == 0 else 1


def cmd_verify(args) -> int:
    model = _model(args)
    from .sampling import sample_points
    from .verifier import run_model_suite
    with _domain_errors():
        points = sample_points(model, args.samples, args.seed)
        reports = run_model_suite(model, points)
    return _finish_reports(reports, args, model, args.seed)


# the largest L of each steady-state method, for steady and bench alike:
# the nullspace of RD at L = 11 takes 7.4 times as long as at L = 10
_L_CAPS = {"nullspace": 10, "ansatz": 8}


def _capped(L: int, methods) -> None:
    """Raise DomainError before any work if L exceeds a method's cap."""
    for method in methods:
        if L > _L_CAPS[method]:
            raise DomainError(f"{method} method capped at L = "
                              f"{_L_CAPS[method]}")


def _steady_distributions(args, model):
    L = args.L
    methods = ("nullspace", "ansatz") if args.method == "both" \
        else (args.method,)
    _capped(L, methods)
    null_dist = ansatz_dist = None
    with _domain_errors():
        if "nullspace" in methods:
            from .markov import build_markov, steady_state_exact
            null_dist = steady_state_exact(build_markov(model, L))
        if "ansatz" in methods:
            from .ansatz import steady_ansatz
            ansatz_dist = steady_ansatz(model, L, _cap(args))
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
    from .markov import observables
    obs = observables(primary, model)
    L = args.L
    num = _number(args)
    header, columns = ["config", "weight"], [probs]
    extra = {}
    if null_dist is not None and ansatz_dist is not None:
        alt = ansatz_dist.probabilities()
        diffs = [_rel_diff(p, a) for p, a in zip(probs, alt)]
        header += ["weight_ansatz", "rel_diff"]
        columns += [alt, diffs]
        with _digit_limit():
            extra["max_rel_diff"] = num % max(diffs)
    weights = [(_bits(i, L), *cells)
               for i, cells in enumerate(zip(*columns))]
    # L sites and L - 1 bonds: the last site's currents are None
    sites = list(zip_longest(range(1, L + 1), obs["density"],
                             obs["current_lat"], obs["current_eva"]))
    return _write({"schema": SCHEMA, "model": model.name,
                   "params": _params_json(model), "L": L,
                   "method": args.method,
                   "weights": (header, weights,
                               ("%s",) + (num,) * len(columns)),
                   "observables": (["site", "density", "current_lat",
                                    "current_eva"], sites,
                                   ("%d", num, num, num)), **extra}, args)


def _write(doc: dict, args) -> int:
    """Emit a document of scalar fields and tables.  A table is (header,
    rows, conversions): one %-conversion per column ('%d', '%r', '%s' or
    '%.17g') and each row a tuple, printed by one %-template of its table.
    In JSON a '%d' or '%r' cell is a number and the others are strings;
    None prints empty ("" in JSON).  No cell holds a comma, quote or
    newline, and a table has two columns or more (csv.writer prints a lone
    empty field as "").
    JSON writes each table as a list of dicts keyed by its header, the bytes
    of json.dumps(indent=2); CSV writes only the tables, in document order,
    separated by a blank row.  Rows may be drawn lazily: nothing is emitted
    until every row is formatted."""
    if args.format == "json":
        _emit(_json(doc) + "\n", args)
        return 0
    import csv
    buf = io.StringIO()
    wcsv = csv.writer(buf, lineterminator="\n")
    tables = [v for v in doc.values() if isinstance(v, tuple)]
    for n, (header, rows, convs) in enumerate(tables):
        if n:
            wcsv.writerow([])
        wcsv.writerow(header)
        buf.writelines(_typed_rows(lambda cs: ",".join(cs) + "\n", convs,
                                   rows))
    _emit(buf.getvalue(), args)
    return 0


def _typed_rows(template_of, convs, rows) -> list:
    """Each row of a table as template_of(convs) % row.  A row with
    None cells (a chain's last site, past its last bond) drops their
    conversions from its template, so that they print empty.  A '%.17g'
    cell outside the float range raises DomainError as _domain_errors
    words it."""
    template = template_of(convs)
    # a lazy row raises its own errors as DomainError before it is
    # formatted; _digit_limit, the inner one, words a ValueError
    with _domain_errors(), _digit_limit():
        return [template % row if None not in row else
                template_of([c if v is not None else ""
                             for c, v in zip(convs, row)])
                % tuple(v for v in row if v is not None) for row in rows]


# the JSON words of the floats whose repr is not JSON
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(doc: dict) -> str:
    """json.dumps(doc, indent=2), each table expanded to its list of dicts,
    without loading json: each table row fills one %-template of its
    table's keys, and scalar fields go through one recursive encoder of
    None, bool, int, float, str, list and dict.  Strings are escaped by the
    C escaper that json binds.  Keys are str, a header's keys are distinct,
    and a row holds one value per key (else % raises TypeError)."""
    from _json import encode_basestring_ascii as escape

    def encode(value, newline):
        # value's json.dumps(indent=2), its lines after the first led by
        # newline
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, str):
            return escape(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            text = float.__repr__(value)
            return _JSON_FLOATS.get(text, text)
        inner = newline + "  "
        if isinstance(value, list):
            items, ends = [encode(v, inner) for v in value], "[]"
        elif isinstance(value, dict):
            items = [escape(k) + ": " + encode(v, inner)
                     for k, v in value.items()]
            ends = "{}"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not "
                            f"JSON serializable")
        if not items:
            return ends
        return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]

    fields = []
    for key, value in doc.items():
        field = "  " + escape(key) + ": "
        if isinstance(value, tuple):
            fields.append(field + _json_table(escape, *value))
        else:   # a scalar field, its lines indented one level
            fields.append(field + encode(value, "\n  "))
    return "{\n" + ",\n".join(fields) + "\n}" if fields else "{}"


def _json_table(escape, header, rows, convs) -> str:
    keys = ["      " + escape(k).replace("%", "%%") + ": " for k in header]
    body = ",\n".join(_typed_rows(
        lambda cs: "    {\n" + ",\n".join(
            k + (c if c in ("%d", "%r") else f'"{c}"')
            for k, c in zip(keys, cs)) + "\n    }", convs, rows))
    return "[\n" + body + "\n  ]" if body else "[]"


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
    from .ansatz import rd_boundary_coefficients
    with _domain_errors():
        co = rd_boundary_coefficients(model.kappa, model.alpha, model.beta,
                                      model.gamma, model.delta)
    if co["c"] == 0 or co["d"] == 0:
        raise DomainError("degenerate boundary coefficients: alpha = gamma "
                          "or beta = delta makes c or d vanish")
    header = ["site", "density", "current_lat", "current_eva"]
    if args.asymptotics:
        header.append("density_asymptotic")
    get = itemgetter(*header[1:])
    rows = ((i, *get(r)) for i, r in enumerate(_profile_rows(model, L, args),
                                              start=1))
    convs = ("%d",) + (_number(args),) * (len(header) - 1)
    return _write({"schema": SCHEMA, "model": model.name,
                   "params": _params_json(model), "L": L,
                   "profile": (header, rows, convs)}, args)


def _profile_rows(model, L, args):
    """The closed-form rows, drawn one at a time as they are formatted; a
    domain error of the formulas surfaces as a DomainError."""
    from .ansatz import rd_profile_rows
    with _domain_errors():
        yield from rd_profile_rows(model.kappa, model.alpha, model.beta,
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
    # the slowest check, the RD inhomogeneous eigenvector at the default
    # rates and theta = 3, 5, ..., 17, takes 2.1 s at L = 6 on 2 vCPU, most
    # of it the truncation loop
    if L > 6:
        raise DomainError(f"transfer checks capped at L = 6, got L = {L}")
    if args.theta is not None and len(args.theta) != L:
        raise UsageError(f"need {L} inhomogeneities, got {len(args.theta)}")
    from . import transfer as tr
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
    # transfer draws no random points: its report's seed is 0
    return _finish_reports(reports, args, model, 0, extra=extra)


def cmd_bench(args) -> int:
    model = _model(args)
    L = args.L
    methods = ("nullspace", "ansatz") if model.name in (m.TASEP, m.RD) \
        else ("nullspace",)
    _capped(L, methods)
    from . import transfer as tr
    from .markov import build_markov, steady_state_exact
    rows = []

    def timed(task, fn, size=L):
        t0 = time.perf_counter()
        out = fn()
        rows.append((task, model.name, size,
                     round(time.perf_counter() - t0, 6)))
        return out

    with _domain_errors():
        # the generator that steady's nullspace method solves
        M = timed("build_markov", lambda: build_markov(model, L))
        timed("steady_nullspace", lambda: steady_state_exact(M))
        if "ansatz" in methods:
            from .ansatz import steady_ansatz
            timed("steady_ansatz", lambda: steady_ansatz(model, L))
        spec = tr.TransferSpec(model, min(L, 4))
        x, x2 = Fraction(3), Fraction(5)
        timed("transfer_build", lambda: tr.build_transfer(spec, x), spec.L)
        timed("transfer_commutation",
              lambda: tr.check_commutation(spec, x, x2), spec.L)
    return _write({"schema": SCHEMA,
                   "bench": (["task", "model", "L", "seconds"], rows,
                             ("%s", "%s", "%d", "%r"))}, args)


# each subcommand's function and the options it reads besides _COMMON,
# read by build_parser and by _parse_plain
_COMMANDS = {
    "verify": (cmd_verify, ("--seed", "--samples")),
    "steady": (cmd_steady, ("--L", "--format", "--exact", "--truncation-cap",
                            "--method")),
    "profile": (cmd_profile, ("--L", "--format", "--exact", "--asymptotics")),
    "transfer": (cmd_transfer, ("--L", "--theta", "--truncation-cap",
                                "--check", "--x", "--x2")),
    "bench": (cmd_bench, ("--L", "--format")),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
