import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import exclusion as ex
import exclusion.ansatz as an
import exclusion.cli as cli
import exclusion.markov as mk
import exclusion.models as mo
import exclusion.sampling as sampling
import exclusion.transfer as tr
from exclusion.ansatz import rd_closed_forms
from exclusion.cli import DomainError, _write, build_parser, main
from exclusion.scalars import float_repr, format_rational
from certificates import pins, recorded


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_ssep(capsys):
    code, out = run(capsys, "verify", "--model", "ssep", "--alpha", "1",
                    "--gamma", "1/2", "--beta", "1", "--delta", "1/3",
                    "--samples", "3", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["counts"]["fail"] == 0
    assert doc["counts"]["pass"] > 0


def test_verify_tasep_skips_crossing(capsys):
    code, out = run(capsys, "verify", "--model", "tasep", "--samples", "2",
                    "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    skipped = {c["check"] for c in doc["checks"] if c["status"] == "Skipped"}
    assert "r.crossing" in skipped
    assert "reflection.Ktilde" in skipped
    reasons = {c["reason"] for c in doc["checks"]
               if c["check"] == "r.crossing" and c["status"] == "Skipped"}
    assert any("partial transpose" in r for r in reasons)


def test_malformed_rational_exits_2(capsys):
    code, _ = run(capsys, "verify", "--model", "asep", "--q", "1/0")
    assert code == 2
    # a flag after a value option is still a flag, not a negative value
    code, _ = run(capsys, "verify", "--model", "asep", "--q", "-x")
    assert code == 2


def test_steady_tasep_weights(capsys):
    code, out = run(capsys, "steady", "--model", "tasep", "--L", "2", "--exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "config,weight"
    assert lines[1:5] == ["00,1/5", "01,1/5", "10,2/5", "11,1/5"]
    assert "site,density,current_lat,current_eva" in lines


def test_steady_both_methods_rd(capsys):
    code, out = run(capsys, "steady", "--model", "rd", "--kappa", "3",
                    "--L", "3", "--method", "both", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(w["rel_diff"] == "0" for w in doc["weights"])
    assert doc["max_rel_diff"] == "0"


def test_steady_ansatz_unsupported_model(capsys):
    code, _ = run(capsys, "steady", "--model", "ssep", "--method", "ansatz")
    assert code == 3


def test_steady_kernel_cap(capsys):
    code, _ = run(capsys, "steady", "--model", "ssep", "--L", "11")
    assert code == 3



def test_reducible_chain_is_a_domain_error(capsys):
    # with every boundary rate zero the chain splits by particle number:
    # the kernel of the nullspace method is not one-dimensional
    code = main(["steady", "--model", "ssep", "--alpha", "0", "--beta", "0",
                 "--gamma", "0", "--delta", "0", "--L", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        3, "", "domain error: kernel dimension 3 != 1: reducible or "
               "mis-built chain\n")

def test_profile_csv_columns(capsys):
    code, out = run(capsys, "profile", "--model", "rd", "--kappa", "3",
                    "--L", "8", "--asymptotics")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "site,density,current_lat,current_eva,density_asymptotic"
    assert len(lines) == 9
    # last site has no current columns
    assert lines[-1].split(",")[2] == ""


def test_profile_requires_rd(capsys):
    code, _ = run(capsys, "profile", "--model", "ssep")
    assert code == 3


def test_profile_degenerate_rates(capsys):
    # alpha = gamma makes c = 0: closed-form boundary vectors degenerate
    code, _ = run(capsys, "profile", "--model", "rd", "--alpha", "1",
                  "--gamma", "1")
    assert code == 3


def test_profile_friedel_signs(capsys):
    code, out = run(capsys, "profile", "--model", "rd", "--kappa", "1/2",
                    "--L", "20", "--exact")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:7]]
    devs = [F(r[1]) - F(1, 2) for r in rows]
    assert all(devs[k] * devs[k + 1] < 0 for k in range(5))


def test_transfer_commutation(capsys):
    code, out = run(capsys, "transfer", "--model", "asep", "--q", "2",
                    "--L", "3", "--check", "commutation", "--x", "2",
                    "--x2", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"][0]["status"] == "Pass"


def test_transfer_eigenvalue_prints_lambda(capsys):
    code, out = run(capsys, "transfer", "--model", "ssep", "--L", "2",
                    "--theta", "1/2,2/3", "--check", "eigenvalue", "--x", "3",
                    "--x2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "289/256"
    assert doc["checks"][0]["status"] == "Pass"


def test_transfer_inhomogeneous_eigenvector(capsys, monkeypatch):
    built = []
    build = tr.build_transfer
    monkeypatch.setattr(tr, "build_transfer",
                        lambda spec, x: built.append(x) or build(spec, x))
    code, out = run(capsys, "transfer", "--model", "rd", "--kappa", "2",
                    "--L", "2", "--theta", "2,5",
                    "--check", "inhomogeneous-eigenvector")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "Pass" for c in doc["checks"])
    # t(theta) and t(1/theta) are each built once, for the pole probe and
    # the check alike
    assert built == [F(2), F(1, 2), F(5), F(1, 5)]


def test_transfer_theta_pole_collision_exits_3(capsys):
    # at kappa=3 the dual boundary matrix has a genuine pole at x = 1/2
    code, _ = run(capsys, "transfer", "--model", "rd", "--kappa", "3",
                  "--L", "2", "--theta", "2,3",
                  "--check", "inhomogeneous-eigenvector")
    assert code == 3


@pytest.mark.parametrize("fmt, kappa, rates, L", [
    ("csv", "2", ("1/2", "2/3", "1/3", "1/5"), 601),
    # phi = -1/3 and alpha = delta, beta = gamma: current_lat is exactly 0
    # at the middle bond and must print as 0, not -0
    ("json", "1/2", ("1/3", "2/5", "2/5", "1/3"), 600),
])
def test_profile_float_cells_are_rounded_closed_forms(capsys, fmt, kappa,
                                                      rates, L):
    # at L >= 600 the profile's integers are far beyond the float range
    code, out = run(capsys, "profile", "--model", "rd", "--kappa", kappa,
                    "--alpha", rates[0], "--beta", rates[1], "--gamma",
                    rates[2], "--delta", rates[3], "--L", str(L),
                    "--asymptotics", "--format", fmt)
    assert code == 0
    if fmt == "json":
        rows = json.loads(out)["profile"]
    else:
        rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == L
    zeros = 0
    for i, row in enumerate(rows, start=1):
        cf = rd_closed_forms(F(kappa), *map(F, rates), L, i)
        cf["density_asymptotic"] = cf["asymptotics"]["density"]
        for col in ("density", "current_lat", "current_eva",
                    "density_asymptotic"):
            v = cf[col]
            assert row[col] == ("" if v is None
                                else format(float(v), ".17g")), (i, col)
        zeros += cf["current_lat"] == 0
    assert zeros == (fmt == "json")


def test_exact_beyond_digit_limit_exits_3(capsys, monkeypatch):
    drawn = []
    rows = an.rd_profile_rows

    def counted(*args, **kwargs):
        for row in rows(*args, **kwargs):
            drawn.append(row)
            yield row

    monkeypatch.setattr(an, "rd_profile_rows", counted)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # the reduced cells here carry about 955 digits
        code = main(["profile", "--model", "rd", "--kappa", "2",
                     "--alpha", "1/2", "--beta", "2/3", "--gamma", "1/3",
                     "--delta", "1/5", "--L", "1000", "--exact"])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    # each row is formatted as it is drawn: the first cell fails before the
    # other 999 rows are reduced
    assert len(drawn) == 1
    assert "640 digits" in captured.err
    assert "drop --exact" in captured.err
    assert "PYTHONINTMAXSTRDIGITS=0" in captured.err


@pytest.mark.parametrize("method", ["ansatz", "both"])
def test_steady_exact_beyond_digit_limit_exits_3(capsys, method):
    # at kappa = 2 + 10^-330 the exact RD weights carry 662 digits; with
    # both methods max_rel_diff, 0, is the first cell formatted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["steady", "--model", "rd", "--L", "2", "--method",
                     method, "--exact", f"--kappa={2 * 10 ** 330 + 1}/"
                     f"{10 ** 330}"])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "domain error: --exact cell exceeds the int-to-str limit of 640 "
        "digits; drop --exact, or set PYTHONINTMAXSTRDIGITS=0\n")


def test_profile_vanishing_denominator_exits_3(capsys, monkeypatch):
    def vanishing(*args, **kwargs):
        raise ValueError("vanishing denominator 1 - a b phi^(2L-2)")
        yield

    monkeypatch.setattr(an, "rd_profile_rows", vanishing)
    code, out = run(capsys, "profile", "--model", "rd", "--L", "4")
    assert code == 3
    assert out == ""


def test_profile_beyond_the_float_range_exits_3(capsys):
    # |phi| = 2: the asymptotic column grows like phi^(L-i) and leaves the
    # float range near L = 2100; its exact rationals still print
    argv = ("profile", "--model", "rd", "--kappa=-3", "--L", "2100",
            "--asymptotics")
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "float range" in captured.err and "--exact" in captured.err
    code, out = run(capsys, *argv, "--exact")
    assert code == 0 and out


def test_byte_identical_reruns(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code = main(["verify", "--model", "ssep", "--samples", "2",
                     "--seed", "11", "--out", str(f)])
        assert code == 0
        capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_exact_flag_rational_cells(capsys):
    code, out = run(capsys, "profile", "--model", "rd", "--kappa", "3",
                    "--L", "4", "--exact")
    assert code == 0
    cell = out.splitlines()[1].split(",")[1]
    assert "/" in cell  # exact rational, not float


def test_bench_runs(capsys):
    code, out = run(capsys, "bench", "--model", "tasep", "--L", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "task,model,L,seconds"
    tasks = {line.split(",")[0] for line in lines[1:]}
    assert {"build_markov", "steady_nullspace", "steady_ansatz",
            "transfer_build", "transfer_commutation"} <= tasks


def test_length_below_one_exits_2(capsys):
    for argv in (("steady", "--model", "asep", "--L", "0"),
                 ("steady", "--model", "rd", "--L", "0", "--method", "ansatz"),
                 ("transfer", "--model", "ssep", "--L", "0"),
                 ("bench", "--model", "tasep", "--L", "-1"),
                 ("steady", "--model", "asep", "--L", "x")):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_verify_samples_below_one_exits_2(capsys):
    for n in ("0", "-2"):
        code, out = run(capsys, "verify", "--model", "asep", "--samples", n)
        assert code == 2
        assert out == ""


def test_transfer_above_the_cap_exits_3(capsys):
    code = main(["transfer", "--model", "ssep", "--L", "7",
                 "--check", "commutation"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "transfer checks capped at L = 6, got L = 7" in captured.err


# kappa = -1/2 with alpha = 1, gamma = 0: 2 kappa + alpha + gamma = 0
VANISHING_LEFT = "2 kappa + alpha + gamma = 0"


def test_steady_ansatz_vanishing_boundary_factor_exits_3(capsys):
    for extra in ((), ("--beta", "0", "--delta", "1")):
        for method in ("ansatz", "both"):
            code = main(["steady", "--model", "rd", "--kappa=-1/2",
                         "--method", method, *extra])
            captured = capsys.readouterr()
            assert code == 3, (extra, method)
            assert captured.out == ""
            assert VANISHING_LEFT in captured.err
        # the nullspace does not use the boundary coefficients
        code, out = run(capsys, "steady", "--model", "rd", "--kappa=-1/2",
                        "--method", "nullspace", *extra)
        assert code == 0 and out


def test_profile_vanishing_boundary_factor_exits_3(capsys):
    code = main(["profile", "--model", "rd", "--kappa=-1/2", "--L", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert VANISHING_LEFT in captured.err


@pytest.mark.parametrize("argv, message", [
    (("--model", "asep", "--q", "1/3"),
     "pole collision: transfer factor Ktilde_0"),
    (("--model", "rd", "--kappa=-1/2"), VANISHING_LEFT)])
def test_bench_domain_errors_exit_3(capsys, monkeypatch, argv, message):
    # bench's transfer points pinned at the pole x = 3 of ASEP's Ktilde at
    # q = 1/3, which _bench_points steps around
    monkeypatch.setattr(cli, "_bench_points", lambda model: (F(3), F(5)))
    code = main(["bench", *argv, "--L", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("domain error: ")
    assert message in captured.err


def test_asep_eigenvalue_pole_exits_3(capsys):
    # lambda(x) has a pole at x = 1/q
    for check in ("eigenvalue", "left-eigenvector"):
        code, out = run(capsys, "transfer", "--model", "asep", "--q", "2",
                        "--L", "2", "--check", check, "--x", "1/2")
        assert code == 3, check
        assert out == ""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (("verify", "--model", "rd", "--kappa", "3", "--alpha", "1/2",
      "--beta", "2/3", "--gamma", "1/3", "--delta", "1/5", "--seed", "7"),
     "270d234f193dab95c2f1ffd0e811bd4de2d8a7ab19b9e995ae986f5971db33bf"),
    (("transfer", "--model", "rd", "--check", "markov-derivative", "--L", "3"),
     "39242f560c57024797a839d31cb3f6d9da23eac37102f9a185e04a1ae86b0a2b"),
], ids=["verify-rd", "transfer-rd-markov-derivative"])
def test_rd_output_bytes_are_pinned(capsys, argv, digest):
    # digests of the stdout of the series-evaluated RD Ktilde; the closed
    # form must reproduce it byte for byte
    code, out = run(capsys, *argv)
    assert code == 0
    assert _sha256(out) == digest


def _exact_weights_are_the_nullspaces(out, model, L) -> bool:
    # the config,weight block of an --exact steady csv against the nullspace
    got = [F(row[1]) for row in csv.reader(out.splitlines()[1:2 ** L + 1])]
    want = ex.steady_state_exact(ex.build_markov(model, L)).probabilities()
    return got == want


def test_rd_ansatz_builds_no_representation(capsys):
    # the exact RD state is contracted in the algebra: steady and bench
    # build no truncated representation (rd_representation only raises)
    code, out = run(capsys, "steady", "--model", "rd", "--L", "3",
                    "--method", "ansatz", "--exact")
    assert code == 0
    assert _exact_weights_are_the_nullspaces(out, ex.rd(3, 1, 1, 0, 0), 3)
    assert _sha256(out) == \
        "9eb5a33552439bcd2d8dc83302c01f9c97b0eb3595767267cda211071b6b496c"
    code, _ = run(capsys, "bench", "--model", "rd", "--L", "3")
    assert code == 0


def test_rd_ansatz_exact_at_the_defaults_fits_the_digit_limit(capsys):
    # the truncation loop stopped at N = 41 here, and an --exact cell of
    # its approximant needed more than 4300 digits; the exact weights are
    # rationals of two digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run(capsys, "steady", "--model", "rd", "--L", "2",
                        "--method", "ansatz", "--exact")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert _exact_weights_are_the_nullspaces(out, ex.rd(3, 1, 1, 0, 0), 2)


# RD rates that the truncation loop could not take: an exact zero weight
# never converged, two rate sets ran every round to N = 235 and exited 3,
# c = 0 and |phi| >= 1 had no closed-form boundary vectors
_RD_FOUND_STEADY = [
    ("--beta=0", "--delta=1", "--kappa", "2", "--L", "1"),
    ("--alpha=-1", "--beta=1/2", "--gamma=-2/3", "--kappa=3/2", "--exact")]
_RD_FOUND_BENCH = [
    ("--alpha=-1/2", "--kappa=3", "--L", "2"),
    ("--alpha=1/2", "--beta=3/2", "--gamma=100", "--delta=-3"),
    ("--alpha", "1", "--gamma", "1", "--L", "2"),
    ("--kappa", "-3", "--L", "2")]


@pytest.mark.parametrize("argv", _RD_FOUND_STEADY, ids=["zero-weight",
                                                        "negative-rates"])
def test_rd_ansatz_takes_the_rates_the_loop_could_not(capsys, argv):
    for method in ("ansatz", "both"):
        t0 = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # negative rates warn
            code, out = run(capsys, "steady", "--model", "rd", *argv,
                            "--method", method)
        assert (code, method) == (0, method)
        assert time.monotonic() - t0 < 1
    assert _max_rel_diff(out) == 0


@pytest.mark.parametrize("argv", _RD_FOUND_BENCH, ids=[
    "negative-alpha", "negative-delta", "c0", "phi2"])
def test_rd_bench_takes_the_rates_the_loop_could_not(capsys, monkeypatch,
                                                     argv):
    clock = (7.0 ** k * 1e-7 for k in itertools.count())
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out = run(capsys, "bench", "--model", "rd", *argv)
    assert code == 0
    assert time.monotonic() - t0 < 1
    assert "steady_ansatz,rd," in out


def test_a_vanishing_rd_recurrence_factor_exits_3(capsys):
    # kappa = 3 (phi = 1/2) and a = b = 2 put 1 - a b phi^2 = 0 at s = 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["steady", "--model", "rd", "--alpha=-1", "--beta=-1",
                     "--gamma=-1", "--delta=-1", "--L", "2", "--method",
                     "ansatz"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "domain error: vanishing denominator 1 - a b phi^(2s) at s = 1: "
        "the RD moment recurrences divide by it\n")


_R = ("--alpha", "1/2", "--beta", "2/3", "--gamma", "1/3", "--delta", "1/5")
# alpha = delta, beta = gamma: at kappa = 1/2 an even chain carries an exact
# zero current_lat at its middle bond
_ZERO_CURRENT = ("--alpha", "1/3", "--beta", "2/5", "--gamma", "2/5",
                 "--delta", "1/3")
_MODEL_ARGS = {"asep": ("--model", "asep", "--q", "3", *_R),
               "ssep": ("--model", "ssep", *_R),
               "tasep": ("--model", "tasep", "--alpha", "1/2", "--beta", "2/3"),
               "rd": ("--model", "rd", *_R)}
# taken from the Fraction product chain that the integer assembly replaced
_TRANSFER_L5_DIGESTS = {
    ("asep", "commutation"):
        "538ade2e2ea27889d0c5a272a3b810774c84dab846e5d04d341e7ef67c3298a4",
    ("ssep", "commutation"):
        "baaef5956770ebbfd3f7a36a825784932826edc9d8b4cce7e14c0487f8207510",
    ("tasep", "commutation"):
        "25bfee572871a0e50f2626c880e938e659511ff4cc12f58116ff9c8100994404",
    ("rd", "commutation"):
        "2967e3d0b2f7bf501d79432e393ba16d1d4edf7b702df07d5590ddf5b3cfe332",
    ("asep", "markov-derivative"):
        "f1a71e7ce8c8da8ab2665b97fc1a573f25e04a186b0d9432cb63430c94effbc9",
    ("ssep", "markov-derivative"):
        "cabd3498a074871fed39010dde5e476301b4e75a267d1fca107fdf4b071c6fa1",
    ("tasep", "markov-derivative"):
        "8e837d94a161f407bceea18d2ca6f38df140f7d994d4b013a270796e47a08ae2",
    ("rd", "markov-derivative"):
        "714ee5606530f9411b99da983ab5deffd4dec92a8012b262c56976d7d0eba1af",
}
_RD = ("--model", "rd", "--kappa", "2", "--alpha", "3/2", "--beta", "2",
       "--gamma", "1/3", "--delta", "1/5", "--L", "2", "--method", "both")


@pytest.mark.parametrize("argv, digest", [
    (("verify", "--model", "asep", "--q", "3", *_R, "--seed", "5"),
     "d1c5671a3df77e9d838a28e34dd28572207d5a60f6ffee70ad11ce4fbf2eeb59"),
    (("verify", "--model", "ssep", *_R, "--seed", "5"),
     "8a8864c0657a1bac2abcbe85756d6c0f4a84fae5579e119a686da3a5b95040f3"),
    (("verify", "--model", "tasep", "--alpha", "1/2", "--beta", "2/3",
      "--seed", "5"),
     "ddc9cce00a777cd80b0c2a43c93890be42d1edfb60c24d3dae371b99e5e0c661"),
    (("verify", "--model", "rd", *_R, "--seed", "5"),
     "39c729c81246e70d424123335111380b9f36995a763895486374d63a96543592"),
    # more points, so more composed arguments and reflected pairs
    (("verify", "--model", "asep", "--q", "3/2", *_R, "--samples", "9",
      "--seed", "7"),
     "8c4f61ae386bb0d6359a9ca7b7683cecd399c6b05ae76af2f2dee71e9a801742"),
    # one point: r.markov_vector draws its auxiliary point, and there is
    # no reflection or Yang-Baxter check
    (("verify", "--model", "asep", "--q", "3/2", *_R, "--samples", "1",
      "--seed", "3"),
     "2acce4c8b6f53af6604a828e89a3d2e5af3cc5c0dde4eb2611c760599b6336d4"),
    # two points: the reflections and the twisted reflection, no Yang-Baxter
    (("verify", "--model", "asep", "--q", "3/2", *_R, "--samples", "2",
      "--seed", "3"),
     "37d753e6c1a8cc6adf323aadd87b11054da9df3fd8b4961cd6c3e36db52d4f7c"),
    (("verify", "--model", "rd", *_R, "--samples", "1", "--seed", "3"),
     "5e8d2d65b076fb000dd5d3513d671c58493132c6ca16dc66e70e6790b2e54210"),
    (("transfer", "--model", "ssep", *_R, "--L", "3", "--check", "conjugated",
      "--x", "3"),
     "80b6c38e0dd4e513a69e64bbb7586a97ca40e9ff31935a986f85e23d821f4ab4"),
    (("transfer", "--model", "asep", "--q", "3", *_R, "--L", "3",
      "--check", "crossing", "--x", "3"),
     "53a01e5597750f9dd761ba8022a8d6b8756ce1c8d07bce70a872995e16bc0aa5"),
    (("transfer", "--model", "ssep", *_R, "--L", "3", "--theta", "1/2,2/3,3",
      "--check", "eigenvalue", "--x", "3", "--x2", "5"),
     "0d150e555ebd08287c76c6c738f1b3199ab32acd40331067f8877a5993402968"),
    (("steady", *_RD, "--format", "csv"),
     "c11f19e7a47ff3f4133b1313acfe8fb7ae3590a2fa76719547996da81f2330ba"),
    (("steady", *_RD, "--format", "json"),
     "15276d0072eb0477cb77633ac36cf4c12f8492615dfde0fdbed2ee33c20a10c3"),
    # float cells of the nullspace weights and observables
    (("steady", "--model", "asep", "--q", "3", *_R, "--L", "6",
      "--format", "csv"),
     "36978a10c9e2b09898793a348cdc709eb305092975c0314c63d8b6f2ce6c07ad"),
    (("steady", "--model", "asep", "--q", "3", *_R, "--L", "6",
      "--format", "json"),
     "8aee63ce63bbf88e8d9fe2c06e865e1a63e4d70f8514dd062d96fc0d785aaaa8"),
    (("profile", "--model", "rd", *_R, "--L", "12", "--asymptotics",
      "--format", "csv"),
     "5f7ee08bfae0461d76344381f6bac0795023acf03cc95d5863a4a1662a983233"),
    (("profile", "--model", "rd", *_R, "--L", "12", "--asymptotics",
      "--format", "json"),
     "a001bcb12f5e027d33bab559c4e3a6f8cf52e2fc25214c170233b7fc6718b88c"),
    *[(("transfer", *_MODEL_ARGS[name], "--L", "5", "--check", check), digest)
      for (name, check), digest in _TRANSFER_L5_DIGESTS.items()],
    (("profile", "--model", "rd", "--kappa", "2", "--alpha", "2/3", "--beta",
      "1/5", "--gamma", "1/2", "--delta", "1/3", "--L", "2000",
      "--asymptotics", "--format", "json"),
     "901d1b2985eb182349f11b4917e901dc971d83edd40d32474191af983c2e1bb5"),
    (("profile", "--model", "rd", "--kappa", "3", "--alpha", "1/5", "--beta",
      "2/3", "--gamma", "1/2", "--delta", "1/3", "--L", "4000",
      "--format", "csv"),
     "c2bc9257b89f37bc92cf6bddcd2d1074ad44e52db0fa47cac6524fb378d59350"),
    # phi = -1/3, with an exact zero current at the middle bond
    (("profile", "--model", "rd", "--kappa", "1/2", *_ZERO_CURRENT, "--L",
      "600", "--asymptotics"),
     "8b2cd5bba528a3807aa46f80703852445d57ec92b988c84572afc88c34a18179"),
    # phi = 2
    (("profile", "--model", "rd", "--kappa=-3", *_R, "--L", "300",
      "--asymptotics"),
     "00f43e2dae439a7c41e63669af7f23104eaa91fc25b11b4abadb6a7fcfd20716"),
    (("profile", "--model", "rd", "--kappa", "2", *_R, "--L", "200",
      "--exact", "--asymptotics"),
     "27290e6e895692ef357ebc05cb036af2248cd8eeeae01141bec5312b2a5d0ac3"),
    # the two rd-profile benchmark cells not pinned above; most density
    # cells are saturated
    (("profile", "--model", "rd", "--kappa", "3", *_R, "--L", "3000",
      "--format", "csv", "--asymptotics"),
     "e87e4f36c71a0533bc27232bae1f6ef638de9c8672f0b59a14fed908198713ac"),
    (("profile", "--model", "rd", "--kappa", "2", *_R, "--L", "1000",
      "--format", "json", "--asymptotics"),
     "a70de72f521e2e992556e229d353b1688cb85ba06229756255f66f0a510b2459"),
    # phi = -1/3: -0 cells and subnormals of both signs
    (("profile", "--model", "rd", "--kappa", "1/2", *_R, "--L", "2500",
      "--asymptotics"),
     "262473368a594c0a491cbbddaa6e21025ce5fa70fa0cbbc028fb96f1d9c898da"),
    # phi = 1/2 at the longest chain: deep underflow, 15713 zero cells
    (("profile", "--model", "rd", "--kappa", "3", *_R, "--L", "10000",
      "--asymptotics"),
     "6e341345f799a2d5e11df34659921b2dc9eeab9f71c08dd4c66752a1a55f50af"),
    # exact kernels of nine (RD) and six (ASEP) p-adic lifts
    (("steady", "--model", "rd", *_R, "--method", "nullspace", "--exact",
      "--L", "8"),
     "853d5adc68b66b8ffc4744e92bfe59dab824d94c7fd66ce2e95f7f475bf027ee"),
    (("steady", "--model", "asep", "--q", "3", *_R, "--method", "nullspace",
      "--exact", "--L", "8"),
     "faf3afd3205b0a0135bfe0a575b1195953eb7b16f7919c465a96718b14b4f305"),
    # the eigenvalue check on the unnormalised kernel of t(2) - lambda I,
    # which eigenvector_from_nullspace returns for an inhomogeneous chain
    (("transfer", "--model", "asep", "--q", "3", *_R, "--L", "5", "--theta",
      "2,3,5,7,11", "--check", "eigenvalue", "--x", "2", "--x2", "5"),
     "5af2a46c12409f8d5e6758da7bb151d7fc8cfa1d85d997554098e20d5db502d3"),
    # the left ones-vector at a non-integer point
    (("transfer", "--model", "asep", "--q", "3", *_R, "--L", "4",
      "--check", "left-eigenvector", "--x", "7/3"),
     "63abf211dc0cd2d90bda674c345ba91dbfef29858970883ebe86c3ab547ada26"),
    # the tolerance path of the rd-truncation inhomogeneous cells
    (("transfer", "--model", "rd", "--kappa", "2", "--alpha", "3/2", "--beta",
      "2", "--gamma", "1/3", "--delta", "1/2", "--L", "3", "--theta", "2,5,7",
      "--check", "inhomogeneous-eigenvector"),
     "933934e20f26693e2d5b17eda568e8b36b223786237ad58a9e35be5dad754702"),
], ids=["verify-asep", "verify-ssep", "verify-tasep", "verify-rd",
        "verify-asep-9-samples", "verify-asep-1-sample",
        "verify-asep-2-samples", "verify-rd-1-sample",
        "transfer-ssep-conjugated", "transfer-asep-crossing", "transfer-ssep-eigenvalue", "steady-rd-csv",
        "steady-rd-json", "steady-asep-L6-csv", "steady-asep-L6-json",
        "profile-rd-csv", "profile-rd-json",
        *[f"transfer-{name}-{check}-L5" for name, check in _TRANSFER_L5_DIGESTS],
        "profile-rd-L2000-json", "profile-rd-L4000-csv",
        "profile-rd-phi-1/3-L600", "profile-rd-phi2-L300",
        "profile-rd-exact-L200", "profile-rd-L3000-csv",
        "profile-rd-L1000-json", "profile-rd-phi-1/3-L2500",
        "profile-rd-L10000", "steady-rd-exact-L8",
        "steady-asep-exact-L8", "transfer-asep-inhomogeneous-eigenvalue-L5",
        "transfer-asep-left-eigenvector-x7/3",
        "transfer-rd-inhomogeneous-eigenvector-L3"])
def test_output_bytes_are_pinned(capsys, argv, digest):
    # stdout digests of the report, steady and profile writers; any change to
    # how a check becomes a report or a row becomes a cell shows here
    code, out = run(capsys, *argv)
    assert code == 0
    if "both" in argv:      # the RD ansatz is exact
        assert _max_rel_diff(out) == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("kappa, rates, digest", [
    ("3", _R,
     "f0c209b114b901636291a0c8f2858215944c3f2a69f0e15512caba6d981abde2"),
    ("1/2", _ZERO_CURRENT,
     "12b2b8a95e737902e4941bcd7f7dcbfb748dc6e560d3c86c26c85d2951ec739a"),
    ("-3", _R,
     "ee666062dd175193ebe9d5ee31819b1ce4af6d9ff3803800f29061746a9a9c3e"),
], ids=["phi1/2", "phi-1/3", "phi2"])
def test_profile_exact_fallback_alone_prints_the_same_bytes(
        capsys, monkeypatch, kappa, rates, digest):
    # at 24 bits no bracket is narrow enough to pin a float, so every cell
    # is the exact quotient of its site; the digests are the 100-bit output
    monkeypatch.setattr(an, "PROFILE_BITS", 24)
    with recorded() as certificates:
        code, out = run(capsys, "profile", "--model", "rd", f"--kappa={kappa}",
                        *rates, "--L", "60", "--asymptotics")
    assert code == 0
    # 60 densities, 59 bonds with two currents, 60 asymptotic cells; no
    # term at L = 60 is small enough to saturate
    outcomes = [kind == "bracket" and not pins(lo, hi)
                for kind, lo, hi in certificates]
    assert outcomes == [True] * (60 + 2 * 59 + 60)
    assert _sha256(out) == digest


def _max_rel_diff(out: str) -> F:
    if out.startswith("{"):
        return F(json.loads(out)["max_rel_diff"])
    weights = out.split("\n\n")[0].splitlines()
    return max(F(row["rel_diff"]) for row in csv.DictReader(weights))


# keys that json escapes, or that a %-template must escape
_JSON_KEYS = st.one_of(st.sampled_from(["%", "%s", "%%", '"', "\\", "\u00e9",
                                        "\u2713", "a\nb"]),
                       st.text(max_size=5))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_JSON_KEYS, inner,
                                            max_size=3)),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_JSON_KEYS, _JSON_VALUES, max_size=4))
def test_json_writer_matches_json_dumps(doc):
    # scalar fields of any JSON value, under keys that json or a %-template
    # escapes, print the bytes of json.dumps; tables, lazily drawn rows
    # included, are the typed property's below
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _write(doc, argparse.Namespace(format="json", out=None)) == 0
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


# typed cells: ints, floats at the edges of the float range, and Fractions
# of both signs, integer-valued ones included
_TYPED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.225073858507201e-308, 1e-308, 1.7976931348623157e308,
                     -1e308, float("inf"), float("-inf"), float("nan")]),
    st.floats())
_TYPED_FRACTIONS = st.one_of(
    st.fractions(-10 ** 300, 10 ** 300), st.integers().map(F),
    st.builds(F, st.integers(-10 ** 300, 10 ** 300),
              st.integers(1, 10 ** 300)))
_TYPED_COLUMNS = {"%d": st.integers(),
                  "%.17g": st.one_of(_TYPED_FLOATS, _TYPED_FRACTIONS),
                  "%s": _TYPED_FRACTIONS}


def _typed_reference(conv, value):
    # the per-cell path: "" for None, a JSON number for %d, else a string
    if value is None:
        return ""
    if conv == "%d":
        return value
    return float_repr(value) if conv == "%.17g" else format_rational(value)


@st.composite
def _typed_tables(draw):
    # two columns at least: csv.writer quotes a lone empty field
    header = draw(st.lists(_JSON_KEYS, unique=True, min_size=2, max_size=5))
    convs = tuple(draw(st.sampled_from(sorted(_TYPED_COLUMNS)))
                  for _ in header)
    row = st.tuples(*[st.none() | _TYPED_COLUMNS[c] for c in convs])
    return header, draw(st.lists(row, max_size=4)), convs


# a '%.17g' Fraction cell beyond the float range, first found at random
_PAST_FLOAT_MAX = F(int(
    "2493445979267110915738511038696188683559225010200969631938261549"
    "9377261055484864236384376127504588190694468370771199856934177284"
    "2792064944535302070161487755555520515601081054248742503470882092"
    "7728607911037332805197418448231603284477827888396626861958562485"
    "73859851885553026889505900115582489375694627058639130"))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_JSON_KEYS, _typed_tables() | st.integers(),
                       max_size=3),
       st.sampled_from(["csv", "json"]))
@example({"%s": (["%", "%s"], [(None, _PAST_FLOAT_MAX)], ("%.17g", "%.17g"))},
         "csv")
def test_typed_writer_matches_the_per_cell_path(doc, fmt):
    # one %-template per row prints what csv.writer over the formatted
    # cells, and json.dumps over the expanded dicts, print; where a cell
    # lies outside the float range the writer raises DomainError instead
    lazy = {k: (v[0], iter(v[1]), v[2]) if isinstance(v, tuple) else v
            for k, v in doc.items()}
    args = argparse.Namespace(format=fmt, out=None)
    try:
        cells = {k: (v[0], [[_typed_reference(c, x)
                             for c, x in zip(v[2], row)] for row in v[1]])
                 if isinstance(v, tuple) else v for k, v in doc.items()}
    except OverflowError:
        with pytest.raises(DomainError, match="outside the float range"):
            _write(lazy, args)
        return
    if fmt == "json":
        want = json.dumps({k: [dict(zip(v[0], row)) for row in v[1]]
                           if isinstance(v, tuple) else v
                           for k, v in cells.items()}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        wcsv = csv.writer(buf, lineterminator="\n")
        tables = [v for v in cells.values() if isinstance(v, tuple)]
        for n, (header, rows) in enumerate(tables):
            if n:
                wcsv.writerow([])
            wcsv.writerow(header)
            wcsv.writerows(rows)
        want = buf.getvalue()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _write(lazy, args) == 0
    assert out.getvalue() == want


def test_bench_json_keys_and_row_order(capsys):
    # wall times vary; the document's shape must not.  The transfer rows run
    # at min(L, 4) and say so
    for L, transfer_L in ((2, 2), (5, 4)):
        code, out = run(capsys, "bench", *_RD[:-4], "--L", str(L),
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["schema", "bench"]
        assert [(r["task"], r["L"]) for r in doc["bench"]] == [
            ("build_markov", L), ("steady_nullspace", L), ("steady_ansatz", L),
            ("transfer_build", transfer_L),
            ("transfer_commutation", transfer_L)]
        assert all(list(r) == ["task", "model", "L", "seconds"]
                   for r in doc["bench"])


# digests taken from the untyped per-cell writer that bench's typed table
# replaced; the fake clock's intervals round to 1e-06 ... 3.458881 s
_BENCH_DIGESTS = {
    ("asep", "2", "csv"):
        "b326873d29b0db5f2cebf7954ac1565f1376b341dc359db22030a7fa8ae6830d",
    ("asep", "2", "json"):
        "39972092c839d1815e0ff1582b99d6d76aa210d016f0fbddba915b73cfcfc4bb",
    ("asep", "5", "csv"):
        "a8dea502e8926c600682adba0f58aacd43ea843e71b7315c3ce6ef86025d2740",
    ("asep", "5", "json"):
        "dbde05a333e4b39e28ff9d239a36b51ce6199a3fb46bab0285bb8473c575d97c",
    ("rd", "2", "csv"):
        "72dd5926c6a835aa24df5df66406b6212247608dcca73b4dca9c1a93e305f46a",
    ("rd", "2", "json"):
        "265f4c608dd31a86676f68f38e36effcc914b840aa25eddbd8295f9cad596f6d",
    ("rd", "5", "csv"):
        "f5e413e52afec8f014cffb6479d9c43c572fce947a68f74184ae6002f893726d",
    ("rd", "5", "json"):
        "1b564ffdc8fddec0adcbd3acafb7097387582c14e790a9b6c7fa0009810a815a",
}


@pytest.mark.parametrize("name, L, fmt", sorted(_BENCH_DIGESTS))
def test_bench_bytes_are_pinned_under_a_fake_clock(capsys, monkeypatch, name,
                                                    L, fmt):
    clock = (7.0 ** k * 1e-7 for k in itertools.count())
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
    code, out = run(capsys, "bench", *_MODEL_ARGS[name], "--L", L,
                    "--format", fmt)
    assert code == 0
    assert _sha256(out) == _BENCH_DIGESTS[name, L, fmt]


@pytest.mark.parametrize("argv, x", [
    (("--model", "rd", "--kappa=-2"), (5, 7)),
    (("--model", "rd", "--kappa=-3/2"), (3, 7)),
    (("--model", "asep", "--q", "1/3"), (5, 7))],
    ids=["rd-kappa-2", "rd-kappa-3/2", "asep-q-1/3"])
def test_bench_steps_around_a_pole_at_3_or_5(capsys, argv, x):
    # K~ has a pole at x = 3 or 5 here: bench takes the first pole-free
    # pair of its candidates for the transfer rows, and prints every row
    model = cli._model(cli.build_parser().parse_args(["bench", *argv]))
    assert cli._bench_points(model) == tuple(map(F, x))
    code, out = run(capsys, "bench", *argv, "--L", "3")
    assert code == 0
    tasks = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert tasks == ["build_markov", "steady_nullspace",
                     *(["steady_ansatz"] if "rd" in argv else []),
                     "transfer_build", "transfer_commutation"]


def test_bench_keeps_3_and_5_where_they_are_pole_free(all_models):
    for model in all_models:
        assert cli._bench_points(model) == (3, 5), model.name


@pytest.mark.parametrize("model, L, line", [
    ("asep", "11", "domain error: nullspace method capped at L = 10\n"),
    ("tasep", "9", "domain error: ansatz method capped at L = 8\n")])
def test_bench_obeys_the_steady_caps(capsys, monkeypatch, model, L, line):
    # bench checks L before it builds the generator, and prints steady's line
    monkeypatch.setattr(mk, "build_markov",
                        lambda *_: pytest.fail("bench built the generator"))
    for command in ("bench", "steady"):
        code = main([command, "--model", model, "--L", L,
                     *(("--method", "both") if command == "steady" else ())])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", line), command


def test_transfer_pole_prints_the_bench_message(capsys, monkeypatch):
    # a pole met as a Skipped report and one raised while building t(x)
    # print the same line; bench's points are pinned at the pole x = 3,
    # which _bench_points steps around
    monkeypatch.setattr(cli, "_bench_points", lambda model: (F(3), F(5)))
    errs = []
    for command in ("transfer", "bench"):
        code = main([command, "--model", "asep", "--q", "1/3", "--L", "2"])
        captured = capsys.readouterr()
        assert code == 3, command
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(
        "domain error: pole collision: transfer factor Ktilde_0: ")


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code = main(["steady", "--model", "tasep", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write --out {path}: ")
    assert not path.exists()


def test_out_with_no_file_name_exits_2(tmp_path, monkeypatch, capsys):
    # argparse reads --out=-- as no value at all; that is refused as --out
    # -- is, not taken for stdout, and nothing is written
    monkeypatch.chdir(tmp_path)
    code = main(["steady", "--model", "tasep", "--L", "1", "--out=--"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "usage error: --out needs a file name\n"
    assert main(["steady", "--model", "tasep", "--L", "1", "--out", "--"]) \
        == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_out_with_an_empty_file_name_exits_2(tmp_path, monkeypatch, capsys):
    # --out= and --out "" name no file: refused as --out=-- is, not taken
    # for stdout, and nothing is written
    monkeypatch.chdir(tmp_path)
    for out in (["--out="], ["--out", ""]):
        code = main(["steady", "--model", "tasep", "--L", "1", *out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "usage error: --out needs a file name\n"
    assert list(tmp_path.iterdir()) == []


_COMMON_OPTIONS = {"--model", "--alpha", "--beta", "--gamma", "--delta", "--q",
                   "--kappa", "--out"}
_OWN_OPTIONS = {
    "verify": {"--seed", "--samples"},
    "steady": {"--L", "--format", "--exact", "--method"},
    "profile": {"--L", "--format", "--exact", "--asymptotics"},
    "transfer": {"--L", "--theta", "--check", "--x", "--x2"},
    "bench": {"--L", "--format"},
}
# the options every subcommand took before each got only those it reads;
# --truncation-cap is read by none since the RD ansatz is exact
_FORMERLY_SHARED = _COMMON_OPTIONS | {"--L", "--theta", "--seed", "--samples",
                                      "--format", "--exact", "--truncation-cap"}
_REMOVED = [(command, flag) for command, own in _OWN_OPTIONS.items()
            for flag in sorted(_FORMERLY_SHARED - _COMMON_OPTIONS - own)]
_VALUES = {"--L": "2", "--theta": "2,5", "--seed": "1", "--samples": "2",
           "--format": "csv", "--truncation-cap": "9", "--exact": None}


def _parser_options() -> dict:
    """Each subcommand's long options, read from the parser itself."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sp._actions for s in a.option_strings
                   if s != "--help" and s.startswith("--")}
            for name, sp in sub.choices.items()}


def test_each_subcommand_takes_exactly_the_options_it_reads():
    assert _parser_options() == {name: _COMMON_OPTIONS | own
                                 for name, own in _OWN_OPTIONS.items()}
    # 5 x 15 shared options plus 5 subcommand-specific ones before; 57 now,
    # transfer's --seed, which drew nothing, gone too, and --truncation-cap
    # from steady and transfer
    assert len(_REMOVED) == 23
    assert sum(map(len, _parser_options().values())) == 57


def _captured(call, *args):
    """(call's result, or the code of the SystemExit it raised, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(*args)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _agrees_with_argparse(argv) -> bool:
    """Check main and the table parser against argparse's parse of argv,
    with each command replaced by a recorder.  Where argparse exits, the
    table parser returns None, and main exits with argparse's code (0 for
    help, 2 for a usage error) and its output, before any command runs.
    Elsewhere the table parser returns None or argparse's namespace, and
    main runs the command once on that namespace.  Returns whether the
    table parser read argv itself."""
    ran = []
    recorders = {name: (lambda args: ran.append(args) or 0, own)
                 for name, (_, own) in cli._COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, recorders):
        parsed, out, err = _captured(lambda: build_parser().parse_args(argv))
        plain = cli._parse_plain(argv)
        code, main_out, main_err = _captured(main, argv)
    if not isinstance(parsed, argparse.Namespace):
        assert plain is None
        assert parsed in (0, 2)
        assert (code, main_out, main_err) == (parsed, out, err)
        assert main_out.startswith("usage: ") if code == 0 else main_out == ""
        assert ran == []
        return False
    assert plain is None or vars(plain) == vars(parsed)
    assert (code, main_out, main_err) == (0, "", "")
    assert [vars(args) for args in ran] == [vars(parsed)]
    return plain is not None


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["-h", "profile"], ["foo"], ["prof", "--model", "rd"],
    ["--model", "rd", "profile"], ["--", "profile", "--model", "rd"],
    ["-", "profile"], ["-1", "steady"], ["--foo", "profile", "--model", "rd"],
    ["profile", "--", "--model", "rd"], ["profile"],
    ["profile", "--model", "rd", "--seed", "1"],
    ["steady", "--model", "rd", "--L", "x"], ["steady", "--mod", "rd"],
    ["transfer", "--model", "ssep", "--check", "nope"],
    ["profile", "--model=rd", "--L=3", "--exact", "--asym"],
    ["steady", "--model", "tasep", "--L", "2", "--format", "json"],
    ["verify", "--model", "ssep", "--samples", "2", "steady"],
    *[[name, "-h"] for name in _OWN_OPTIONS]])
def test_the_parser_main_builds_parses_as_the_whole(argv):
    # main reads a plain argv from the option table and builds the whole
    # argparse parser for any other: help, usage errors and parsed
    # arguments stay argparse's
    _agrees_with_argparse(argv)


# values argparse reads in its own way, or that a type rejects: a negative
# rational, a flag, "--", a zero denominator, an empty string, ints below
# and beyond the int-to-str digit limit, an empty and an underscored digit
# group
_EDGE_VALUES = ["-1/2", "-x", "1/0", "", "--", "-h", "1" + "0" * 30,
                "9" * 4301, "2,,5", "1_0"]


def _valid_values(spec) -> tuple:
    if "choices" in spec:
        return spec["choices"]
    return {cli._positive_int: ("1", "3"), int: ("0", "-2", "64"),
            cli._rational: ("1", "3/2", "-1/2")}.get(spec.get("type"),
                                                     ("2,5", "-1/2,3"))


_FAULTS = ("foreign", "abbreviated", "repeat", "stray", "value", "bare",
           "no-model", "head")


@st.composite
def _argvs(draw):
    """A well-formed argv, its items (the subcommand, then distinct own
    flags, each value after a space or '='), with up to two faults: a
    foreign, abbreviated or repeated flag, a stray token, an edge value, a
    value left out or put on a store_true flag, no --model, or junk in
    place of the subcommand or before it."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    own = cli._COMMON + cli._COMMANDS[command][1]

    def item(flag, value=None):
        spec = cli._OPTIONS.get(flag, {})
        if spec.get("action") and value is None:
            return [flag]
        if value is None:
            value = draw(st.sampled_from(_valid_values(spec)))
        return draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))

    items = [[command], item("--model")] + [item(f) for f in draw(
        st.lists(st.sampled_from(own[1:]), unique=True, max_size=4))]
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        at = draw(st.integers(1, len(items)))
        if fault == "foreign":
            items.insert(at, item(draw(st.sampled_from(
                [f for f in cli._OPTIONS if f not in own]))))
        elif fault == "abbreviated":
            flag = draw(st.sampled_from(own))
            spec = cli._OPTIONS[flag]
            short = flag[:draw(st.integers(3, len(flag)))]
            items.insert(at, [short] if spec.get("action") else
                         [short, _valid_values(spec)[0]])
        elif fault == "repeat":
            items.insert(at, item(draw(st.sampled_from(own))))
        elif fault == "stray":
            items.insert(at, [draw(st.sampled_from(
                ["-h", "--help", "--", "rd", "-", ""]))])
        elif fault in ("value", "bare") and at < len(items):
            flag = items[at][0].partition("=")[0]
            items[at] = [flag] if fault == "bare" else item(
                flag, draw(st.sampled_from(["nope", *_EDGE_VALUES])))
        elif fault == "no-model":
            items = [i for i in items if not i[0].startswith("--model")]
        elif fault == "head":
            items.insert(draw(st.integers(0, 1)), [draw(st.sampled_from(
                ["-h", "--help", "--", "prof", "--model", ""]))])
    return [token for i in items for token in i]


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["verify", "--model", "asep", "--out=--"])
@example(["verify", "--model", "asep", "--seed", "1", "--seed", "2"])
@example(["profile", "--model", "rd", "--exact=1"])
def test_the_table_parser_reads_argvs_as_argparse(argv):
    _agrees_with_argparse(argv)


# one argv per subcommand and per transfer check, shaped like the
# benchmark's jobs
_BENCHMARK_ARGVS = {
    "verify": ["verify", "--model", "asep", "--alpha", "1/2", "--beta", "2/3",
               "--gamma", "1/3", "--delta", "1/5", "--q", "3/2", "--samples",
               "5", "--seed", "40912"],
    "steady-nullspace": ["steady", "--model", "ssep", "--alpha", "1/5",
                         "--beta", "1/2", "--gamma", "2/3", "--delta", "1/3",
                         "--L", "6", "--method", "nullspace", "--exact"],
    "steady-ansatz": ["steady", "--model", "rd", "--alpha", "3/2", "--beta",
                      "2", "--gamma", "1/3", "--delta", "1/2", "--kappa", "2",
                      "--L", "5", "--method", "ansatz", "--exact"],
    "profile": ["profile", "--model", "rd", "--alpha", "1/3", "--beta", "1/5",
                "--gamma", "1/2", "--delta", "2/3", "--kappa", "2", "--L",
                "1000", "--format", "json", "--asymptotics"],
    "inhomogeneous-eigenvector": [
        "transfer", "--model", "rd", "--alpha", "3/2", "--beta", "2",
        "--gamma", "1/2", "--delta", "1/3", "--kappa", "2", "--L", "3",
        "--theta", "2,5,7", "--check", "inhomogeneous-eigenvector"],
    **{check: ["transfer", "--model", "ssep", "--alpha", "2/3", "--beta",
               "1/3", "--gamma", "1/5", "--delta", "1/2", "--L", "4",
               "--check", check, "--x", "2", "--x2", "5"]
       for check in ("commutation", "markov-derivative", "eigenvalue",
                     "left-eigenvector", "crossing", "conjugated")},
    "bench": ["bench", "--model", "tasep", "--L", "3", "--format", "json"],
}


@pytest.mark.parametrize("argv", _BENCHMARK_ARGVS.values(),
                         ids=_BENCHMARK_ARGVS.keys())
def test_the_table_parser_reads_the_benchmark_argvs(argv):
    # sent to argparse, every job would pay for importing and building it
    assert _agrees_with_argparse(argv)


@pytest.mark.parametrize("command, flag", _REMOVED,
                         ids=[f"{c}{f}" for c, f in _REMOVED])
def test_an_option_the_subcommand_does_not_read_exits_2(capsys, command,
                                                        flag):
    model = "rd" if command == "profile" else "tasep"
    value = [] if _VALUES[flag] is None else [_VALUES[flag]]
    code, out = run(capsys, command, "--model", model, flag, *value)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flag, model", [
    ("--q", "ssep"), ("--q", "tasep"), ("--q", "rd"),
    ("--kappa", "asep"), ("--kappa", "ssep"), ("--kappa", "tasep")])
def test_a_rate_of_another_model_exits_2(capsys, flag, model):
    owner = "asep" if flag == "--q" else "rd"
    for command in ("verify", "steady"):
        code = main([command, "--model", model, flag, "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: {flag} is a rate of {owner} only\n"


def test_model_rates_default_to_q_2_and_kappa_3(capsys):
    for model, flag, default in (("asep", "--q", "2"), ("rd", "--kappa", "3")):
        argv = ("steady", "--model", model, "--L", "2", "--exact")
        assert run(capsys, *argv) == run(capsys, *argv, flag, default)


def test_readme_flag_table_matches_the_parser():
    # README "CLI": one row for the options of every subcommand, then one
    # row per subcommand
    lines = (Path(__file__).resolve().parents[1] / "README.md") \
        .read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | options |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, cell = [c.strip(" `") for c in line.strip("|").split("|")]
        table[name] = set(re.findall(r"--[A-Za-z][\w-]*", cell))
    common = table.pop("every subcommand")
    assert {name: common | own for name, own in table.items()} == \
        _parser_options()


@pytest.mark.filterwarnings("ignore:negative rate")
@pytest.mark.parametrize("check, argv, line", [
    ("commutation", ("--model", "asep", "--x2", "1/2"),
     "transfer factor Ktilde_0: (delta*x+beta)(x-1) + (q-1)x vanishes at "
     "x=1/2"),
    ("markov-derivative", ("--model", "asep", "--q", "-1"),
     "transfer factor Ktilde_0: q^2 x^2 - 1 vanishes at x=1"),
    ("eigenvalue", ("--model", "asep", "--x", "1/2"),
     "eigenvalue lambda has a pole at x=1/2"),
    ("left-eigenvector", ("--model", "ssep", "--x", "-1"),
     "eigenvalue lambda has a pole at x=-1"),
    ("crossing", ("--model", "asep", "--x", "0"),
     "q*x in the crossing partner 1/(q*x) vanishes at x=0"),
    ("conjugated", ("--model", "ssep", "--x", "-1"),
     "x*(alpha+gamma) + 1 vanishes at x=-1"),
    ("inhomogeneous-eigenvector", ("--model", "rd", "--theta", "2,3"),
     "transfer factor Ktilde_0: dual boundary matrix has a pole at x=1/2: "
     "(kappa+1)^2 x^2 - (kappa-1)^2 vanishes at x=1/2"),
    # the pole of Dtilde's closed form, where D has none
    ("conjugated", ("--model", "ssep", "--alpha", "2", "--x", "-1"),
     "x*(delta+beta) + 1 vanishes at x=-1"),
])
def test_a_transfer_pole_exits_3_with_its_message(capsys, check, argv, line):
    code = main(["transfer", *argv, "--L", "2", "--check", check])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"domain error: pole collision: {line}\n"


# (check, option) pairs the check does not read; --x and --x2 stay
# accepted by every check, and --truncation-cap by none
_UNREAD_BY_CHECK = [("markov-derivative", "--theta")] + \
    [(check, "--truncation-cap") for check in (
        "commutation", "markov-derivative", "eigenvalue", "left-eigenvector",
        "crossing", "conjugated", "inhomogeneous-eigenvector")]


@pytest.mark.parametrize("check, flag", _UNREAD_BY_CHECK,
                         ids=[f"{c}{f}" for c, f in _UNREAD_BY_CHECK])
def test_an_option_the_transfer_check_does_not_read_exits_2(capsys, check,
                                                            flag):
    value = "1/2,2/3" if flag == "--theta" else "64"
    code = main(["transfer", "--model", "ssep", "--L", "2", "--check", check,
                 flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if flag == "--theta":
        assert captured.err.startswith("usage error: ")
    else:       # argparse's own error: no subcommand takes the option
        assert captured.err.endswith(
            "error: unrecognized arguments: --truncation-cap 64\n")


@pytest.mark.parametrize("argv", [
    ("--model", "asep", "--L", "2"),
    ("--model", "tasep", "--method", "ansatz"),
    ("--model", "ssep", "--method", "both"),
    ("--model", "rd", "--method", "nullspace"),
    ("--model", "rd", "--method", "ansatz")])
def test_a_truncation_cap_steady_does_not_read_exits_2(capsys, argv):
    # the RD ansatz is exact, so steady reads no cap: argparse refuses it
    code = main(["steady", *argv, "--truncation-cap", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        "error: unrecognized arguments: --truncation-cap 64\n")


def test_more_samples_than_the_pool_holds_exit_3(capsys, monkeypatch):
    # |num|, |den| <= 1 leaves the pool {1, -1}, and K has a pole at -1,
    # which each point's safety check reads
    monkeypatch.setattr(sampling, "MAX_PART", 1)
    code = main(["verify", "--model", "ssep", "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("domain error: could not sample 2 pole-free "
                            "points with |num|, |den| <= 1: found 0\n")


def test_sampling_judges_each_candidate_once(capsys, monkeypatch):
    # past the pool every draw repeats a rejected candidate; none of them
    # reaches model_safe again, so the calls are at most the pool's size
    calls = []
    model_safe = sampling.model_safe

    def counted(model, x):
        calls.append(x)
        return model_safe(model, x)

    monkeypatch.setattr(sampling, "model_safe", counted)
    code = main(["verify", "--model", "ssep", "--samples", "400"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("domain error: could not sample 400 pole-free "
                            "points with |num|, |den| <= 12: found 95\n")
    assert len(calls) == len(set(calls)) <= 2 * sampling.MAX_PART ** 2


@pytest.mark.filterwarnings("ignore:negative rate")
@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "--model", "asep", "--samples", "1"), "--q", "-1/2"),
    (("verify", "--model", "rd", "--samples", "1"), "--kappa", "-3/2"),
    (("transfer", "--model", "ssep", "--L", "2"), "--x", "-5/2"),
    (("transfer", "--model", "ssep", "--L", "2", "--check", "eigenvalue"),
     "--theta", "-1/2,3")], ids=["q", "kappa", "x", "theta"])
def test_a_negative_rational_may_follow_a_space(capsys, argv, flag, value):
    spaced = run(capsys, *argv, flag, value)
    assert spaced[0] != 2
    assert spaced == run(capsys, *argv, f"{flag}={value}")


@pytest.mark.parametrize("argv, named, digest", [
    (("verify", "--model", "ssep", "--alpha=-1", "--beta=1", "--gamma=3",
      "--delta=-3/2", "--samples", "1"), ["alpha=-1", "delta=-3/2"],
     "e25e9ee3aa6430a11f14a4499eba5fbfe15a6de5fff4d6997b83b1189e875e10"),
    (("verify", "--model", "asep", "--q", "3/2", "--alpha=-1"), ["alpha=-1"],
     "97726b25b5b824697791fe96d3bb59fd713fcb0c084b595b38ab6835e97dd235"),
], ids=["ssep", "asep"])
def test_a_negative_rate_warns_once_under_its_own_name(capsys, argv, named,
                                                       digest):
    # the rate-swapped models of the named symmetries and the twisted K
    # warn nothing of their own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, *argv)
    assert code == 0
    assert [str(w.message).split()[2].rstrip(":") for w in caught] == named
    assert _sha256(out) == digest


@pytest.mark.parametrize("argv, stderr", [
    (("verify", "--model", "ssep", "--alpha=-1", "--samples", "1"),
     "warning: negative rate alpha=-1: not a stochastic model, algebraic "
     "checks only\n"),
    (("steady", "--model", "asep", "--q=-2", "--L", "2"),
     "warning: negative rate q=-2: not a stochastic model, algebraic "
     "checks only\n")], ids=["verify", "steady"])
def test_a_cli_warning_is_one_line_without_a_source_location(capsys, argv,
                                                              stderr):
    # a fresh process shows each warning as the interpreter would, through
    # warnings.formatwarning; the bytes must not depend on the checkout
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-S", "-m", "exclusion.cli", *argv],
                          env={"PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, stderr)
    # in process, main leaves the format as it found it
    before = warnings.formatwarning
    with warnings.catch_warnings(record=True):
        assert run(capsys, *argv) == (0, done.stdout)
    assert warnings.formatwarning is before


def _fresh_modules(*argv) -> list:
    """The modules of the package, and the watched standard ones, that a
    fresh interpreter holds after importing exclusion.cli and, given argv,
    running main(argv): the last line the probe prints."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, exclusion.cli\n"
             "if sys.argv[1:]: exclusion.cli.main(sys.argv[1:])\n"
             "print(*sorted(m.removeprefix('exclusion.') for m in sys.modules"
             " if m.split('.')[0] in ('exclusion', 'json', 'csv', "
             "'dataclasses', 'inspect', 'typing', 'argparse', 'gettext', "
             "'locale')))")
    done = subprocess.run([sys.executable, "-S", "-c", probe, *argv],
                          env={"PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.splitlines()[-1].split()


def test_import_leaves_out_class_generation_modules():
    # every CLI process pays its imports.  Parsing needs models, scalars and
    # tensor, and reads a well-formed argv from the option table; argparse,
    # and the gettext and locale it loads, only prints help and usage
    # errors.  Each subcommand, and each transfer check, loads the rest of
    # the library where it calls it.  The writer loads csv for a CSV table
    # and never json: JSON is written by the writer's own encoder.  The
    # package's records are named tuples, so neither dataclasses nor what it
    # pulls in is loaded
    parsing = ["cli", "exclusion", "models", "scalars", "tensor"]
    assert _fresh_modules() == parsing
    usage = sorted(parsing + ["argparse", "gettext", "locale"])
    assert _fresh_modules("--help") == usage
    # a usage error of argparse; one of _model comes from a well-formed argv
    assert _fresh_modules("steady", "--model", "rd", "--L", "0") == usage
    assert _fresh_modules("verify", "--model", "tasep", "--gamma", "1") == \
        parsing
    assert _fresh_modules("steady", "--model", "asep", "--L", "3",
                          "--method", "nullspace") == \
        ["cli", "csv", "exclusion", "markov", "models", "scalars", "tensor"]
    # the matrix ansatz runs no identity check, so neither the checker nor
    # its sampler is loaded
    ansatz = ["ansatz", "cli", "csv", "exclusion", "markov", "models",
              "scalars", "tensor"]
    assert _fresh_modules("profile", "--model", "rd", "--L", "6") == ansatz
    for model, L in (("rd", "2"), ("tasep", "3")):
        assert _fresh_modules("steady", "--model", model, "--L", L,
                              "--method", "ansatz") == ansatz
    # a check report is JSON, and loads no json; only the checks that read
    # a steady state or the RD ansatz load markov or ansatz
    checker = ["cli", "exclusion", "models", "sampling", "scalars", "tensor",
               "verifier"]
    assert _fresh_modules("verify", "--model", "asep", "--samples", "2") == \
        checker
    transfer = checker + ["transfer"]
    for argv, reads in (
            (["--check", "commutation"], []), (["--check", "crossing"], []),
            (["--check", "left-eigenvector"], []),
            (["--check", "conjugated", "--model", "ssep"], []),
            (["--check", "eigenvalue", "--theta", "2,3"], []),
            (["--check", "eigenvalue"], ["markov"]),
            (["--check", "markov-derivative"], ["markov"]),
            (["--check", "inhomogeneous-eigenvector", "--model", "rd",
              "--theta", "3,5"], ["ansatz", "markov"])):
        if "--model" not in argv:
            argv += ["--model", "asep"]
        argv = ["transfer", "--L", "2", *argv]
        assert _fresh_modules(*argv) == sorted(transfer + reads), argv


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_a_failing_check_exits_1_with_its_witness(capsys, monkeypatch):
    # w doubled breaks P R'(1) = rho w, and only that check: the witness is
    # the first nonzero entry of P R'(1), against twice itself
    local_operators = mo.local_operators
    monkeypatch.setattr(mo, "local_operators", lambda model: (
        2 * local_operators(model)[0], *local_operators(model)[1:]))
    code, out = run(capsys, "verify", "--model", "asep", "--samples", "2",
                    "--seed", "1")
    doc = json.loads(out)
    failed = [c for c in doc["checks"] if c["status"] == "Fail"]
    assert code == 1
    assert doc["counts"]["fail"] == len(failed) >= 1
    for c in failed:
        assert c["check"] == "r.local_jump"
        assert sorted(c["witness"]) == ["col", "lhs", "rhs", "row"]
        lhs = ex.parse_rational(c["witness"]["lhs"])
        assert lhs != 0
        assert ex.parse_rational(c["witness"]["rhs"]) == 2 * lhs
