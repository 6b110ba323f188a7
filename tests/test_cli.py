import argparse
import contextlib
import hashlib
import io
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toycrypt import cli, envelope, numtheory, rsa
from toycrypt.cli import _integer, _natural, _parse_args, build_parser, demo_rsa_paper, run
from test_dh import OAKLEY_1024
from vectors import (
    CAESAR_CIPHER,
    CAESAR_PLAIN,
    DH_DEMO_SEED_7,
    DIGEST_ITALIA_4_3,
    KEYGEN_256_SEED_1_KEY,
    KEYGEN_256_SEED_1_PUB,
    KEYGEN_1024_SEED_1_KEY_SHA1,
    KEYGEN_1024_SEED_1_PUB_SHA1,
)


# A 64-bit prime, far too large for a full scan of its group.
P64 = 15585724270239468571


def invoke(argv, stdin=b""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.BytesIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self):
        code, out, err = invoke(["no-such-command"])
        assert code == 2
        assert "error: argument command: invalid choice: 'no-such-command'" in err

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = invoke(["factor", "--bogus", "12"])
        assert code == 2

    def test_missing_subcommand(self):
        code, _, err = invoke([])
        assert code == 2
        assert err.endswith("error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv, message", [
        (["caesar", "--shift", "+3", "abc"], "argument --shift: not an integer: '+3'"),
        (["primes", "ab"], "argument limit: not a natural number: 'ab'"),
    ])
    def test_usage_error_gives_the_parsers_reason(self, argv, message):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"toycrypt {argv[0]}: error: {message}"
        assert "invalid" not in err and "_integer" not in err and "_natural" not in err

    def test_domain_error_exits_one_via_stderr(self):
        code, out, err = invoke(["factor", "1"])
        assert code == 1
        assert out == ""
        assert err != ""


def captured(call):
    """(call's result, or its exit code, stdout, stderr), with sys.stdout and sys.stderr caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


COMMAND_PREFIXES = [[name] for name in _subcommands(build_parser())] + [
    ["ecc", "--curve", "2,3,97", op] for op in _subcommands(_subcommands(build_parser())["ecc"])
]
PARSER_ARGVS = [[], ["--help"], ["nope"], ["--x", "keygen"]] + [
    prefix + tail
    for prefix in COMMAND_PREFIXES
    for tail in (["-h"], [], ["--no-such-flag"], ["stray"])
]


def _parse_through_run(argv):
    """What run prints and returns for argv, or what _parse_args gives where argv
    parses: a command that needs no argument, which run would go on to execute."""
    if isinstance(captured(lambda: build_parser().parse_args(argv))[0], argparse.Namespace):
        return captured(lambda: _parse_args(argv, sys.stdout, sys.stderr))
    return captured(lambda: run(argv, stdin=io.BytesIO()))


class TestOneSubcommandParser:
    """run builds only the parser of the command argv names, once, and must
    parse, print help and fail exactly as the full parser does."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv):
        outcome = _parse_through_run(argv)
        assert outcome == captured(lambda: build_parser().parse_args(argv))
        if argv[-1:] in (["-h"], ["--help"]):
            assert outcome[0] == 0 and outcome[1].startswith("usage: toycrypt") and outcome[2] == ""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_builds_one_parser(self, argv, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: builds.append(command) or build_parser(command))
        _parse_through_run(argv)
        assert builds == [argv[0] if argv and argv[0] in cli._COMMANDS else None]

    @pytest.mark.parametrize("name", list(_subcommands(build_parser())))
    def test_holds_only_that_command_with_the_same_arguments(self, name):
        def spec(parser):
            return [(a.option_strings, a.dest, a.type, a.default, a.required, a.nargs, a.help)
                    for a in parser._actions]

        one = _subcommands(build_parser(name))
        assert list(one) == [name]
        assert spec(one[name]) == spec(_subcommands(build_parser())[name])


class TestNumberCommands:
    def test_factor_golden(self):
        assert invoke(["factor", "171371"]) == (0, "171371 = 409 * 419\n", "")

    def test_factor_with_exponents(self):
        assert invoke(["factor", "288"])[1] == "288 = 2^5 * 3^2\n"

    def test_factor_hex(self):
        assert invoke(["factor", "--hex", "0x143"])[1] == "0x143 = 17 * 19\n"

    def test_keycount_golden(self):
        assert invoke(["keycount", "10"]) == (0, "45\n", "")

    def test_decimal_output_past_the_limit_refused(self):
        # 2200 digits in, 4398 out: more than Python converts to decimal by default
        n = 10**2199
        assert invoke(["keycount", str(n)]) == (1, "", (
            "toycrypt keycount: a 14609-bit number has more decimal digits than the limit "
            "of 4300; print it with --hex\n"))
        assert invoke(["keycount", "--hex", str(n)]) == (0, f"{n * (n - 1) // 2:#x}\n", "")

    def test_totient(self):
        assert invoke(["totient", "323"]) == (0, "288\n", "")
        assert invoke(["totient", "--hex", "323"])[1] == "0x120\n"

    def test_totient_cap_overrun_reports_partial_result(self):
        # 1000000016000000063 = 1000000007 * 1000000009
        code, out, err = invoke(["totient", "--cap", "65536", "1000000016000000063"])
        assert (code, out) == (1, "")
        assert err == ("toycrypt totient: factoring 1000000016000000063 exceeded the divisor "
                       "cap; extracted nothing, cofactor 1000000016000000063 unresolved\n")
        code, out, err = invoke(["totient", "--cap", "1000", str(8 * 10007 * 10009)])
        assert (code, out) == (1, "")
        assert "extracted 2^3, cofactor 100160063 unresolved" in err

    def test_primes(self):
        code, out, _ = invoke(["primes", "30"])
        assert code == 0
        assert out.split() == ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29"]

    def test_primes_limit_above_the_cli_bound_is_refused_at_once(self):
        start = time.perf_counter()
        code, out, err = invoke(["primes", "10000001"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "toycrypt primes: limit 10000001 above the maximum of 10000000\n"

    def test_primes_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "PRIMES_LIMIT", 30)
        assert invoke(["primes", "30"])[0] == 0
        assert invoke(["primes", "31"])[0] == 1

    def test_prime_count_single(self):
        code, out, _ = invoke(["prime-count", "1000"])
        assert code == 0
        assert out.strip() == "144.765"

    def test_prime_count_between(self):
        code, out, _ = invoke(["prime-count", "1000", "2000"])
        assert code == 0
        assert float(out) > 100
        # both estimates are near 2.2e18, so their difference as floats reads 0
        assert invoke(["prime-count", str(10**20), str(10**20 + 1000)]) == (0, "21.2432\n", "")

    def test_prime_count_key_sized_interval(self):
        import math

        code, out, _ = invoke(["prime-count", str(2**1023), str(2**1024)])
        assert code == 0
        assert 304.5 < math.log10(float(out)) < 305.5

    def test_prime_count_bad_interval(self):
        code, _, err = invoke(["prime-count", "50", "40"])
        assert code == 1 and "lo" in err

    @pytest.mark.parametrize("bounds", [[2**1100], [2**2000, 2**2001]])
    def test_prime_count_beyond_the_float_range(self, bounds):
        code, out, err = invoke(["prime-count", *map(str, bounds)])
        assert (code, out) == (1, "")
        assert "exceeds the float range" in err

    def test_dlog(self):
        assert invoke(["dlog", "23", "5", "8"])[1] == "k=6 steps=6\n"

    def test_dlog_not_found(self):
        code, _, err = invoke(["dlog", "23", "5", "8", "--cap", "3"])
        assert code == 1 and "no exponent" in err

    def test_dlog_default_budget_is_bounded(self):
        code, out, err = invoke(["dlog", str(P64), "5", "7"])
        assert (code, out) == (1, "")
        assert "no exponent up to 65536 reaches 7" in err

    def test_factor_cap_that_suffices(self):
        # 171371 = 409 * 419: the last trial divisor needed is 409
        assert invoke(["factor", "--cap", "409", "171371"]) == (0, "171371 = 409 * 419\n", "")
        assert invoke(["factor", "--cap", "0", "3"]) == (0, "3 = 3\n", "")

    def test_factor_cap_overrun_reports_partial_result(self):
        code, out, err = invoke(["factor", "--cap", "1000", str(8 * 10007 * 10009)])
        assert (code, out) == (1, "")
        assert err == ("toycrypt factor: factoring 801280504 exceeded the divisor cap; "
                       "extracted 2^3, cofactor 100160063 unresolved\n")
        code, out, err = invoke(["factor", "--cap", "408", "171371"])
        assert (code, out) == (1, "")
        assert "extracted nothing, cofactor 171371 unresolved" in err

    @pytest.mark.parametrize("command", ["factor", "totient"])
    def test_default_cap_is_bounded(self, command):
        # 1000000007 * 1000000009: trial division up to 2**32 would take minutes
        code, out, err = invoke([command, "1000000016000000063"])
        assert (code, out) == (1, "")
        assert err == (f"toycrypt {command}: factoring 1000000016000000063 exceeded the divisor "
                       "cap; extracted nothing, cofactor 1000000016000000063 unresolved\n")

    def test_default_cap_reaches_the_scan_budget(self):
        # 65521 is the largest prime below 2**16, and 65537 the least above it
        assert invoke(["factor", str(65521 * 65537)]) == (0, "4294049777 = 65521 * 65537\n", "")
        code, _, err = invoke(["factor", str(65537 * 65539)])
        assert code == 1 and "cofactor 4295229443 unresolved" in err

    @pytest.mark.parametrize("cap", [["--cap", "-1"], ["--cap=-0x10"]])
    def test_factor_negative_cap_is_domain_error(self, cap):
        code, out, err = invoke(["factor", *cap, "171371"])
        assert (code, out) == (1, "")
        assert "divisor cap must be non-negative" in err

    def test_dlog_negative_cap_is_domain_error(self):
        code, out, err = invoke(["dlog", "23", "5", "8", "--cap", "-4"])
        assert (code, out) == (1, "")
        assert "cap" in err and "no exponent" not in err


def _parsers(parser):
    """The parser and every subparser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


# every numeric argument: argv with {} where the number goes, a valid value
NATURAL_SLOTS = [
    ("keygen --bits {} --out k --seed 1", "64"),
    ("keygen --bits 64 --exponent {} --out k --seed 1", "17"),
    ("keygen --bits 64 --out k --seed {}", "5"),
    ("seal --key alice.pub --in msg --seed {}", "5"),
    ("dh-demo --p {} --seed 7", "23"),
    ("dh-demo --g {} --seed 7", "5"),
    ("dh-demo --seed {}", "7"),
    ("dlog {} 5 8", "23"),
    ("dlog 23 {} 8", "5"),
    ("dlog 23 5 {}", "8"),
    ("factor {}", "171371"),
    ("primes {}", "30"),
    ("totient {}", "323"),
    ("prime-count {}", "1000"),
    ("prime-count 1000 {}", "2000"),
    ("scytale --key {} HELLOWORLD", "5"),
    ("ecc --curve 2,3,97 mul {} 3,6", "7"),
    ("keycount {}", "10"),
]
# the arguments that may carry a leading "-"
SIGNED_SLOTS = [
    ("caesar --shift {} abc", "3"),
    ("dh-demo --seed 7 --cap {}", "20"),
    ("dlog 23 5 8 --cap {}", "20"),
    ("factor --cap {} 171371", "500"),
    ("ecc --curve 2,3,97 dlog 3,6 80,10 --cap {}", "20"),
]


class TestNumberGrammar:
    """Every number on the command line is read by bigmod.parse_natural,
    or by cli._parse_integer where a leading "-" is allowed, and a usage
    error gives that parser's reason."""

    @pytest.fixture(autouse=True)
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("msg").write_bytes(b"numbers")
        assert invoke(["keygen", "--bits", "256", "--out", "alice", "--seed", "3"])[0] == 0

    @staticmethod
    def outcome(template, value):
        argv = [word.replace("{}", value) for word in template.split()]
        code, out, err = invoke(argv)
        assert "Traceback" not in err
        return code, out, err, {path.name: path.read_bytes() for path in sorted(Path().iterdir())}

    def test_no_argument_is_read_with_bare_int(self):
        types = {action.type for parser in _parsers(build_parser()) for action in parser._actions}
        assert types == {None, _natural, _integer}

    @pytest.mark.parametrize("template, value", NATURAL_SLOTS + SIGNED_SLOTS)
    def test_hex_reads_as_its_decimal_value(self, template, value):
        decimal = self.outcome(template, value)
        assert decimal[0] == 0, decimal[2]
        assert self.outcome(template, hex(int(value))) == decimal

    @pytest.mark.parametrize("bad", ["\u0663\u0660", "1_0", "+3", "0x_1", "3.0", ""])
    @pytest.mark.parametrize("template, value", NATURAL_SLOTS + SIGNED_SLOTS)
    def test_other_number_forms_are_usage_errors(self, template, value, bad):
        code, out, err, _ = self.outcome(template, bad)
        assert (code, out) == (2, "")
        reason = "an integer" if (template, value) in SIGNED_SLOTS else "a natural number"
        assert "error: argument " in err and f": not {reason}: {bad!r}\n" in err
        assert "invalid" not in err and "parse" not in err

    @pytest.mark.parametrize("template, value", NATURAL_SLOTS)
    def test_naturals_take_no_sign(self, template, value):
        code, out, err, _ = self.outcome(template, "-" + value)
        assert (code, out) == (2, "")
        assert f"not a natural number: '-{value}'" in err

    @pytest.mark.parametrize("template, value", SIGNED_SLOTS)
    def test_signed_forms(self, template, value):
        negative = self.outcome(template, "-3")
        assert negative[0] != 2
        joined = template.replace(" {}", "={}")
        assert self.outcome(joined, "-0x3") == negative
        for form in (template, joined):
            for bad in ("- 3", "-\u0663", "--3", "-+3"):
                code, out, err, _ = self.outcome(form, bad)
                assert (code, out) == (2, ""), (form, bad)

    def test_negative_shift(self):
        assert invoke(["caesar", "--shift", "-3", "abc"]) == (0, "xyz\n", "")


class TestHash:
    def test_stdin_no_newline(self):
        code, out, _ = invoke(["hash"], stdin=b"Italia-Germania 4-3")
        assert code == 0
        assert out == DIGEST_ITALIA_4_3 + "\n"

    def test_default_stdin_is_read_as_bytes(self, monkeypatch):
        # not UTF-8: read as text, these bytes could not be hashed
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\x00\xfe")))
        out, err = io.StringIO(), io.StringIO()
        assert run(["hash"], stdout=out, stderr=err) == 0
        assert (out.getvalue(), err.getvalue()) == (
            hashlib.sha1(b"\xff\x00\xfe").hexdigest().upper() + "\n", "")

    def test_file_input(self, tmp_path):
        path = tmp_path / "msg"
        path.write_bytes(b"abc")
        code, out, _ = invoke(["hash", "--in", str(path)])
        assert out == "A9993E364706816ABA3E25717850C26C9CD0D89D\n"


class TestClosedStreams:
    """A process started without a standard stream has sys.stdin, sys.stdout or
    sys.stderr None."""

    def test_closed_stdin_exits_one(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)
        out, err = io.StringIO(), io.StringIO()
        assert run(["hash"], stdout=out, stderr=err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", "toycrypt hash: standard input is closed\n")

    def test_closed_stdout_exits_one(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        err = io.StringIO()
        assert run(["factor", "15"], stderr=err) == 1
        assert err.getvalue() == "toycrypt factor: standard output is closed\n"

    @pytest.mark.parametrize("argv", [["-h"], ["keygen", "-h"]], ids=" ".join)
    def test_help_goes_to_the_given_stdout(self, argv):
        out, err = io.StringIO(), io.StringIO()
        assert captured(lambda: run(argv, stdout=out, stderr=err)) == (0, "", "")
        assert out.getvalue().startswith("usage: toycrypt") and err.getvalue() == ""

    @pytest.mark.parametrize("argv", [["-h"], ["keygen", "-h"]], ids=" ".join)
    def test_help_with_closed_stdout_exits_one(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", None)
        err = io.StringIO()
        assert run(argv, stderr=err) == 1
        assert err.getvalue() == "toycrypt: standard output is closed\n"

    def test_command_that_needs_neither_runs(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "stdin", None)
        monkeypatch.setattr(sys, "stdout", None)
        err = io.StringIO()
        assert run(["keygen", "--bits", "256", "--out", str(tmp_path / "k"), "--seed", "1"],
                   stderr=err) == 0
        assert err.getvalue() == ""
        assert (tmp_path / "k.key").read_text() == KEYGEN_256_SEED_1_KEY

    # seed 4 draws the peer value p - 1, so dh-demo warns on stderr
    @pytest.mark.parametrize("argv, code", [(["dh-demo", "--seed", "4"], 0), (["factor", "1"], 1)],
                             ids=["dh-demo", "factor"])
    def test_closed_stderr_drops_what_it_would_take(self, monkeypatch, argv, code):
        expected = invoke(argv)
        assert expected[2] != ""
        monkeypatch.setattr(sys, "stderr", None)
        out = io.StringIO()
        assert run(argv, stdin=io.BytesIO(), stdout=out) == code
        assert out.getvalue() == expected[1]

    @pytest.mark.parametrize("command, redirect, code, err", [
        ("hash", "<&-", 1, "toycrypt hash: standard input is closed\n"),
        ("factor 15", ">&-", 1, "toycrypt factor: standard output is closed\n"),
        ("-h", ">&-", 1, "toycrypt: standard output is closed\n"),
        ("dh-demo --seed 4", "2>&-", 0, ""),
        ("factor 1", "2>&-", 1, ""),
    ], ids=["stdin", "stdout", "help-stdout", "stderr", "stderr-error"])
    def test_in_fresh_process(self, command, redirect, code, err):
        result = subprocess.run(
            ["sh", "-c", f"exec {shlex.quote(sys.executable)} -m toycrypt {command} {redirect}"],
            capture_output=True, timeout=120,
        )
        # without stderr, stdout is what the command prints with stderr open
        out = invoke(command.split())[1] if redirect == "2>&-" else ""
        assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == (code, out, err)


class TestClassicalCommands:
    def test_caesar_golden(self):
        code, out, _ = invoke(["caesar", "--shift", "3", CAESAR_PLAIN])
        assert code == 0
        assert out == CAESAR_CIPHER + "\n"

    def test_caesar_decrypt_stdin(self):
        code, out, _ = invoke(
            ["caesar", "--shift", "3", "--decrypt"], stdin=(CAESAR_CIPHER + "\n").encode()
        )
        assert out == CAESAR_PLAIN + "\n"

    def test_scytale_round_trip(self):
        code, framed, _ = invoke(["scytale", "--key", "5", "HELLOWORLD"])
        assert framed == "scytale v1 k=5 pad=0:HWEOLRLLOD\n"
        code, out, _ = invoke(["scytale", "--key", "5", "--decrypt", framed.strip()])
        assert out == "HELLOWORLD\n"

    def test_scytale_key_longer_than_the_text_is_refused_at_once(self):
        # the pad would be k - 2 characters: 10**8 here
        start = time.perf_counter()
        code, out, err = invoke(["scytale", "--key", "100000000", "ab"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "toycrypt scytale: key 100000000 longer than the text (2 characters)\n"

    @pytest.mark.parametrize("argv, out", [
        (["--key", "2", "ab"], "scytale v1 k=2 pad=0:ab\n"),
        (["--key", "1000000000000", ""], "scytale v1 k=1000000000000 pad=0:\n"),
        # --decrypt reads k from the frame, whatever --key says
        (["--key", "100", "--decrypt", "scytale v1 k=3 pad=2:adbXcX"], "abcd\n"),
    ])
    def test_scytale_keys_within_the_limit(self, argv, out):
        assert invoke(["scytale", *argv]) == (0, out, "")

    def test_otp_round_trip(self, tmp_path):
        key = tmp_path / "pad"
        key.write_bytes(bytes(range(64)))
        data = tmp_path / "msg"
        data.write_bytes(b"meet at dawn")
        cipher = tmp_path / "cipher"
        code, _, _ = invoke(["otp", "--key-file", str(key), "--in", str(data), "--out", str(cipher)])
        assert code == 0
        plain = tmp_path / "plain"
        invoke(["otp", "--key-file", str(key), "--in", str(cipher), "--out", str(plain)])
        assert plain.read_bytes() == b"meet at dawn"

    def test_otp_short_key(self, tmp_path):
        key = tmp_path / "pad"
        key.write_bytes(b"xy")
        code, _, err = invoke(["otp", "--key-file", str(key)], stdin=b"longer than key")
        assert code == 1 and "shorter" in err

    def test_otp_writes_bytes_to_a_binary_stdout(self, tmp_path):
        key = tmp_path / "pad"
        key.write_bytes(bytes(range(1, 65)))
        stdout = io.TextIOWrapper(io.BytesIO())
        assert run(["otp", "--key-file", str(key)], stdin=io.BytesIO(b"\x00\xff"),
                   stdout=stdout, stderr=io.StringIO()) == 0
        assert stdout.buffer.getvalue() == b"\x01\xfd"


class TestEccCommands:
    CURVE = "2,3,97"

    def test_add(self):
        code, out, _ = invoke(["ecc", "--curve", self.CURVE, "add", "3,6", "3,91"])
        assert code == 0 and out == "O\n"

    def test_mul(self):
        _, double, _ = invoke(["ecc", "--curve", self.CURVE, "mul", "2", "3,6"])
        _, added, _ = invoke(["ecc", "--curve", self.CURVE, "add", "3,6", "3,6"])
        assert double == added

    def test_mul_zero_gives_infinity(self):
        assert invoke(["ecc", "--curve", self.CURVE, "mul", "0", "3,6"])[1] == "O\n"

    def test_dlog(self):
        _, q, _ = invoke(["ecc", "--curve", self.CURVE, "mul", "7", "3,6"])
        code, out, _ = invoke(["ecc", "--curve", self.CURVE, "dlog", "3,6", q.strip()])
        assert code == 0
        assert out.startswith("k=")

    def test_singular_curve_domain_error(self):
        code, _, err = invoke(["ecc", "--curve", "0,0,97", "add", "O", "O"])
        assert code == 1 and "singular" in err

    def test_off_curve_point_domain_error(self):
        code, _, _ = invoke(["ecc", "--curve", self.CURVE, "add", "0,1", "O"])
        assert code == 1

    def test_negative_coefficient_needs_equals_form(self):
        assert invoke(["ecc", "--curve=-1,3,97", "add", "O", "O"]) == (0, "O\n", "")
        assert invoke(["ecc", "--curve=2,-94,97", "mul", "7", "3,6"])[:2] == (0, "80,10\n")
        assert invoke(["ecc", "--curve", "-1,3,97", "add", "O", "O"])[0] == 2

    @pytest.mark.parametrize("curve", ["\u0662,3,97", "2,3,9_7", "+2,3,97", "2,- 3,97",
                                       "2,3,-97", "2,--3,97", "2,3", "2,3,97,1", "-,3,97"])
    def test_curve_refuses_non_ascii_digits_signs_and_separators(self, curve):
        code, out, err = invoke(["ecc", f"--curve={curve}", "add", "O", "O"])
        assert (code, out) == (1, "")
        assert "--curve expects" in err

    @pytest.mark.parametrize("point", ["+3,6", "3,6_0", "\u0663,6", "3,-91"])
    def test_point_refuses_signs_separators_and_non_ascii_digits(self, point):
        code, out, _ = invoke(["ecc", "--curve", self.CURVE, "add", point, "O"])
        assert (code, out) == (1, "")

    # base points of order 13 = p + 1 + isqrt(4p) on y**2 = x**3 + 3 over GF(7),
    # and of order 9 on y**2 = x**3 + x + 1 over GF(5): above p + 1, within Hasse's bound
    @pytest.mark.parametrize("argv, out", [
        (["--curve", "0,3,7", "dlog", "1,2", "1,5"], "k=12 steps=12\n"),
        (["--curve", "1,1,5", "dlog", "0,1", "0,4"], "k=8 steps=8\n"),
    ], ids=["0,3,7", "1,1,5"])
    def test_dlog_default_budget_reaches_every_multiple(self, argv, out):
        assert invoke(["ecc", *argv]) == (0, out, "")

    def test_dlog_negative_cap_is_domain_error(self):
        code, out, err = invoke(["ecc", "--curve", self.CURVE, "dlog", "3,6", "80,10",
                                 "--cap", "-1"])
        assert (code, out) == (1, "") and "cap" in err

    def test_dlog_default_budget_is_bounded(self):
        # the target is (2**40 + 12345) times the base
        code, out, err = invoke(["ecc", "--curve", f"2,3,{P64}", "dlog",
                                 "1,3420890028977481873",
                                 "7594827701402837054,6326099960583602795"])
        assert (code, out) == (1, "")
        assert "no scalar up to 65536 reaches" in err


class TestDemos:
    def test_rsa_demo_transcript(self):
        code, out, _ = invoke(["rsa-demo"])
        assert code == 0
        assert out == demo_rsa_paper()
        for line in ("N=323", "phi=288", "d=17", "cipher=241", "decoded=3",
                     "letter=C", "recovered-letter=C"):
            assert line in out

    def test_rsa_demo_repeatable(self):
        assert invoke(["rsa-demo"]) == invoke(["rsa-demo"])

    def test_dh_demo_seeded_is_stable(self):
        assert invoke(["dh-demo", "--seed", "7"]) == (0, DH_DEMO_SEED_7, "")

    def test_dh_demo_transcript_consistency(self):
        _, out, _ = invoke(["dh-demo", "--seed", "7"])
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert fields["p"] == "23" and fields["g"] == "5"
        assert fields["alice-shared"] == fields["bob-shared"] == fields["eve-shared"]
        assert int(fields["eve-steps"]) >= 1

    def test_dh_demo_weak_value_warning_goes_to_stderr(self):
        code, _, err = invoke(["dh-demo", "--seed", "4"])
        assert code == 0
        assert "WeakPublicValueWarning" in err

    def test_dh_demo_negative_cap_is_domain_error(self):
        code, out, err = invoke(["dh-demo", "--cap", "-1", "--seed", "7"])
        assert (code, out) == (1, "") and "cap" in err

    def test_dh_demo_zero_cap(self):
        _, out, _ = invoke(["dh-demo", "--cap", "0", "--seed", "7"])
        assert out.endswith("eve-exponent=not-found\neve-steps=0\n")

    def test_dh_demo_default_budget_is_bounded(self):
        code, out, _ = invoke(["dh-demo", "--p", str(P64), "--g", "5", "--seed", "1"])
        assert code == 0
        assert out.endswith("eve-exponent=not-found\neve-steps=65536\n")

    def test_dh_demo_larger_params(self):
        _, out, _ = invoke(["dh-demo", "--p", "1009", "--g", "11", "--seed", "3"])
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert fields["alice-shared"] == fields["bob-shared"]


# the least prime above 2**2047, so of the most bits a group prime may have:
# numtheory.is_prime takes about 0.17 s on it, of a command's 0.25-0.45 s
P2048 = 2**2047 + 1919
OVER = "has 4423 bits, above the limit of 2048"


# 2**4423 - 1 is a Mersenne prime of 4423 bits: without a size bound its
# primality test alone would hold each of these commands for about 1.2 s.
# A g out of range and a singular curve on P2048 are refused before the test
# as well.
@pytest.mark.parametrize("argv, message", [
    (["dlog", str(2**4423 - 1), "3", "5"], f"modulus {OVER}"),
    (["dh-demo", "--p", str(2**4423 - 1)], f"modulus {OVER}"),
    (["ecc", "--curve", f"1,1,{2**4423 - 1}", "mul", "5", "1,2"], f"field order {OVER}"),
    (["dlog", str(P2048), "1", "5"], f"generator must satisfy 2 < g < {P2048 - 2}, got 1"),
    (["dh-demo", "--p", str(P2048), "--g", "1"],
     f"generator must satisfy 2 < g < {P2048 - 2}, got 1"),
    (["ecc", "--curve", f"0,0,{P2048}", "mul", "1", "1,2"],
     f"singular curve: 4a^3 + 27b^2 = 0 mod {P2048}"),
], ids=["dlog-4423", "dh-demo-4423", "ecc-4423", "dlog-g", "dh-demo-g", "ecc-singular"])
def test_group_above_the_maximum_refused_before_any_primality_test(monkeypatch, argv, message):
    def no_test(*args, **kwargs):
        raise AssertionError("tested p for primality")

    monkeypatch.setattr(numtheory, "is_prime", no_test)
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err == f"toycrypt {argv[0]}: {message}\n"


@pytest.mark.parametrize("argv, message, output", [
    (lambda p: ["dlog", str(p), "5", "125"], "modulus", "k=3 steps=3\n"),
    (lambda p: ["dh-demo", "--p", str(p), "--g", "5", "--seed", "1", "--cap", "0"], "modulus",
     "eve-steps=0\n"),
    (lambda p: ["ecc", "--curve", f"1,2,{p}", "mul", "1", "1,2"], "field order", "1,2\n"),
], ids=["dlog", "dh-demo", "ecc"])
def test_group_at_the_maximum_runs_and_one_bit_more_is_refused(monkeypatch, argv, message,
                                                               output):
    code, out, err = invoke(argv(P2048))
    assert (code, err) == (0, "") and out.endswith(output)
    wider = 2**2048 + 1919

    def no_test(*args, **kwargs):
        raise AssertionError("tested p for primality")

    monkeypatch.setattr(numtheory, "is_prime", no_test)
    code, out, err = invoke(argv(wider))
    assert (code, out) == (1, "")
    assert err == f"toycrypt {argv(wider)[0]}: {message} has 2049 bits, above the limit of 2048\n"


# 1287836182261 * 2575672364521, a strong pseudoprime to every prime base up
# to 41 with no factor below 2**11 (tests/test_numtheory.py checks both on
# built-in pow): the strong Lucas test refuses it as a group prime, and as
# the factor p of a key file, which sign tests when it reads the key
CRAFTED = 3317044064679887385961981
CRAFTED_KEY = (f"n={CRAFTED * (2**89 - 1):#x}\nd={CRAFTED + 4:#x}\n"
               f"p={CRAFTED:#x}\nq={2**89 - 1:#x}\n")


@pytest.mark.parametrize("argv, message", [
    (["dlog", str(CRAFTED), "3", "5"], f"modulus {CRAFTED} is not prime"),
    (["dh-demo", "--p", str(CRAFTED)], f"modulus {CRAFTED} is not prime"),
    (["ecc", "--curve", f"1,2,{CRAFTED}", "mul", "1", "1,2"],
     f"field order must be an odd prime >= 5, got {CRAFTED}"),
    (["sign", "--key", "crafted.key"], f"p = {CRAFTED} is not prime"),
], ids=["dlog", "dh-demo", "ecc", "sign"])
def test_strong_pseudoprime_refused_as_group_prime(argv, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("crafted.key").write_text(CRAFTED_KEY)
    assert invoke(argv) == (1, "", f"toycrypt {argv[0]}: {message}\n")


def test_supplied_group_prime_builds_no_gcd_product():
    # only random_prime takes the gcd with the primes in [2**11, 2**15):
    # is_prime, which tests a supplied group prime, takes none
    numtheory._gcd_primes_product.cache_clear()
    p = str(OAKLEY_1024)
    assert invoke(["dh-demo", "--p", p, "--g", "5", "--seed", "7", "--cap", "0"])[0] == 0
    assert invoke(["ecc", "--curve", f"1,2,{p}", "mul", "1", "1,2"]) == (0, "1,2\n", "")
    assert numtheory._gcd_primes_product.cache_info().currsize == 0


class TestRsaPipelines:
    def test_keygen_encrypt_decrypt(self, tmp_path):
        prefix = tmp_path / "alice"
        code, _, err = invoke(["keygen", "--bits", "128", "--out", str(prefix), "--seed", "5"])
        assert code == 0, err
        message = tmp_path / "msg"
        message.write_bytes(b"five hundred forty one")
        cipher = tmp_path / "cipher"
        code, _, _ = invoke(
            ["encrypt", "--key", f"{prefix}.pub", "--in", str(message), "--out", str(cipher)]
        )
        assert code == 0
        assert cipher.read_text().startswith("rsa-blocks v1 ")
        plain = tmp_path / "plain"
        code, _, _ = invoke(
            ["decrypt", "--key", f"{prefix}.key", "--in", str(cipher), "--out", str(plain)]
        )
        assert code == 0
        assert plain.read_bytes() == b"five hundred forty one"

    def test_patched_library_functions_reach_the_key_file_commands(self, tmp_path, monkeypatch):
        # the key-file ops look their functions up when they run, so a patch
        # made after the CLI was imported still sees each call
        prefix = tmp_path / "k"
        assert invoke(["keygen", "--bits", "256", "--out", str(prefix), "--seed", "1"])[0] == 0
        calls = []

        def spy(original):
            def call(data, key, *rest):
                calls.append((original.__name__, data))
                return original(data, key, *rest)

            return call

        monkeypatch.setattr(envelope, "seal", spy(envelope.seal))
        monkeypatch.setattr(rsa, "encrypt_message", spy(rsa.encrypt_message))
        for command, name in (("seal", "seal"), ("encrypt", "encrypt_message")):
            calls.clear()
            code, _, err = invoke([command, "--key", f"{prefix}.pub"], stdin=b"spied")
            assert (code, err) == (0, "")
            assert calls[0] == (name, b"spied")

    def test_keygen_above_the_maximum_refused_before_search(self, tmp_path, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched for primes")

        monkeypatch.setattr(numtheory, "random_prime", no_search)
        prefix = tmp_path / "big"
        code, out, err = invoke(["keygen", "--bits", "4097", "--out", str(prefix)])
        assert (code, out) == (1, "")
        assert "16 to 4096 bits, got 4097" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["decrypt", "sign", "open"])
    def test_key_file_above_the_maximum_refused_before_any_primality_test(
        self, tmp_path, monkeypatch, command
    ):
        def no_test(*args):
            raise AssertionError("tested a factor for primality")

        monkeypatch.setattr(numtheory, "is_prime", no_test)
        p, q = (1 << 2048) + 1, (1 << 2048) + 3
        key = tmp_path / "big.key"
        key.write_text(f"n={p * q:#x}\nd=0x5\np={p:#x}\nq={q:#x}\n")
        code, out, err = invoke([command, "--key", str(key)], stdin=b"msg")
        assert (code, out) == (1, "")
        assert err == f"toycrypt {command}: modulus has 4097 bits, above the limit of 4096\n"

    @pytest.mark.parametrize("command", ["encrypt", "seal", "verify"])
    def test_public_key_file_above_the_maximum_refused(self, tmp_path, command):
        # without the bound, encrypt with this key ran for seconds at 8192 bits
        k = 8192
        key = tmp_path / "big.pub"
        key.write_text(f"n={2**k + 1:#x}\ne={2 ** (k - 1) + 1:#x}\n")
        code, out, err = invoke([command, "--key", str(key)], stdin=b"msg")
        assert (code, out) == (1, "")
        assert err == f"toycrypt {command}: modulus has 8193 bits, above the limit of 4096\n"

    def test_keygen_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        invoke(["keygen", "--bits", "96", "--out", str(a), "--seed", "11"])
        invoke(["keygen", "--bits", "96", "--out", str(b), "--seed", "11"])
        assert (a.parent / "a.pub").read_text() == (b.parent / "b.pub").read_text()
        assert (a.parent / "a.key").read_text() == (b.parent / "b.key").read_text()

    def test_keygen_seeded_files_golden(self, tmp_path):
        prefix = tmp_path / "k"
        assert invoke(["keygen", "--bits", "256", "--out", str(prefix), "--seed", "1"])[0] == 0
        assert (tmp_path / "k.pub").read_bytes() == KEYGEN_256_SEED_1_PUB.encode()
        assert (tmp_path / "k.key").read_bytes() == KEYGEN_256_SEED_1_KEY.encode()

    def test_keygen_1024_seeded_files_pinned(self, tmp_path):
        # 512-bit primes: the candidates take random_prime's gcd screen
        prefix = tmp_path / "k"
        assert invoke(["keygen", "--bits", "1024", "--out", str(prefix), "--seed", "1"])[0] == 0
        digests = [hashlib.sha1((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("k.pub", "k.key")]
        assert digests == [KEYGEN_1024_SEED_1_PUB_SHA1, KEYGEN_1024_SEED_1_KEY_SHA1]

    def test_sign_verify_and_tamper(self, tmp_path):
        prefix = tmp_path / "signer"
        invoke(["keygen", "--bits", "256", "--out", str(prefix), "--seed", "9"])
        message = tmp_path / "msg"
        message.write_bytes(b"Italia-Germania 4-3")
        signed = tmp_path / "signed"
        code, _, _ = invoke(
            ["sign", "--key", f"{prefix}.key", "--in", str(message), "--out", str(signed)]
        )
        assert code == 0
        code, out, _ = invoke(["verify", "--key", f"{prefix}.pub", "--in", str(signed)])
        assert (code, out) == (0, "VALID\n")

        msg = envelope.read_signed(signed.read_bytes())
        tampered = envelope.SignedMessage(b"Italia-Germania 5-3", msg.signature)
        signed.write_bytes(envelope.write_signed(tampered))
        code, out, _ = invoke(["verify", "--key", f"{prefix}.pub", "--in", str(signed)])
        assert (code, out) == (3, "INVALID\n")

    def test_seal_open(self, tmp_path):
        prefix = tmp_path / "bob"
        invoke(["keygen", "--bits", "512", "--out", str(prefix), "--seed", "13"])
        message = tmp_path / "msg"
        message.write_bytes(b"hybrid payload \x00\x01\x02")
        sealed = tmp_path / "sealed"
        code, _, _ = invoke(
            ["seal", "--key", f"{prefix}.pub", "--in", str(message), "--out", str(sealed),
             "--seed", "21"]
        )
        assert code == 0
        assert sealed.read_text().startswith("envelope v1\n")
        opened = tmp_path / "opened"
        code, _, _ = invoke(
            ["open", "--key", f"{prefix}.key", "--in", str(sealed), "--out", str(opened)]
        )
        assert code == 0
        assert opened.read_bytes() == message.read_bytes()

    def test_gcd_product_built_only_for_keys_that_need_it(self, tmp_path):
        # random_prime takes the gcd with the primes in [2**11, 2**15) only
        # from numtheory._GCD_MIN_BITS bits: a 256-bit key's 128-bit primes
        # skip it in keygen, and open's checks of the key file never take it
        numtheory._gcd_primes_product.cache_clear()
        built = numtheory._gcd_primes_product.cache_info
        prefix = tmp_path / "small"
        assert invoke(["keygen", "--bits", "256", "--out", str(prefix), "--seed", "1"])[0] == 0
        message = tmp_path / "msg"
        message.write_bytes(b"no product")
        sealed, opened = tmp_path / "sealed", tmp_path / "opened"
        assert invoke(["seal", "--key", f"{prefix}.pub", "--in", str(message),
                       "--out", str(sealed), "--seed", "1"])[0] == 0
        assert invoke(["open", "--key", f"{prefix}.key", "--in", str(sealed),
                       "--out", str(opened)])[0] == 0
        assert opened.read_bytes() == b"no product"
        assert built().currsize == 0
        big = tmp_path / "big"
        assert invoke(["keygen", "--bits", "1024", "--out", str(big), "--seed", "1"])[0] == 0
        assert built().currsize == 1

    def test_open_with_inconsistent_key_exits_one(self, tmp_path):
        key = tmp_path / "bad.key"
        key.write_text("n=5\nd=3\np=11\nq=13\n")
        code, out, err = invoke(["open", "--key", str(key)], stdin=b"envelope v1\n")
        assert (code, out) == (1, "")
        assert err.startswith("toycrypt open: ")

    def test_seal_seeded_deterministic(self, tmp_path):
        prefix = tmp_path / "bob"
        invoke(["keygen", "--bits", "256", "--out", str(prefix), "--seed", "13"])
        message = tmp_path / "msg"
        message.write_bytes(b"repeatable")
        outs = []
        for name in ("s1", "s2"):
            sealed = tmp_path / name
            invoke(["seal", "--key", f"{prefix}.pub", "--in", str(message),
                    "--out", str(sealed), "--seed", "33"])
            outs.append(sealed.read_text())
        assert outs[0] == outs[1]


class TestFreshProcesses:
    """The same pipelines again, through the real console entry point."""

    def run_cli(self, *argv, stdin=b""):
        return subprocess.run(
            [sys.executable, "-m", "toycrypt", *argv],
            input=stdin, capture_output=True, timeout=120,
        )

    def test_round_trips_across_processes(self, tmp_path):
        prefix = tmp_path / "party"
        assert self.run_cli("keygen", "--bits", "256", "--out", str(prefix),
                            "--seed", "2").returncode == 0
        message = tmp_path / "msg"
        message.write_bytes(b"process isolation")

        cipher = tmp_path / "cipher"
        assert self.run_cli("encrypt", "--key", f"{prefix}.pub", "--in", str(message),
                            "--out", str(cipher)).returncode == 0
        plain = tmp_path / "plain"
        assert self.run_cli("decrypt", "--key", f"{prefix}.key", "--in", str(cipher),
                            "--out", str(plain)).returncode == 0
        assert plain.read_bytes() == b"process isolation"

        signed = tmp_path / "signed"
        assert self.run_cli("sign", "--key", f"{prefix}.key", "--in", str(message),
                            "--out", str(signed)).returncode == 0
        verify = self.run_cli("verify", "--key", f"{prefix}.pub", "--in", str(signed))
        assert verify.returncode == 0 and verify.stdout == b"VALID\n"

        sealed = tmp_path / "sealed"
        assert self.run_cli("seal", "--key", f"{prefix}.pub", "--in", str(message),
                            "--out", str(sealed), "--seed", "4").returncode == 0
        opened = tmp_path / "opened"
        assert self.run_cli("open", "--key", f"{prefix}.key", "--in", str(sealed),
                            "--out", str(opened)).returncode == 0
        assert opened.read_bytes() == b"process isolation"

    def test_hash_stdin_in_fresh_process(self):
        result = self.run_cli("hash", stdin=b"Italia-Germania 4-3")
        assert result.stdout.decode() == DIGEST_ITALIA_4_3 + "\n"

    def test_keygen_unusable_exponent_exits_one(self, tmp_path):
        result = self.run_cli("keygen", "--bits", "64", "--exponent", "4",
                              "--out", str(tmp_path / "k"))
        assert result.returncode == 1
        assert not (tmp_path / "k.key").exists()

    def test_keygen_keyless_exponent_exits_one(self, tmp_path):
        # no 16-bit modulus has a key for e = 3045; the search gives up
        result = self.run_cli("keygen", "--bits", "16", "--exponent", "3045",
                              "--out", str(tmp_path / "k"))
        assert result.returncode == 1
        assert result.stderr.decode() == (
            "toycrypt keygen: no 16-bit key for exponent 3045 in 1000 prime pairs tried\n")
        assert not (tmp_path / "k.key").exists()

    def test_usage_error_exit_code(self):
        assert self.run_cli("no-such-command").returncode == 2
