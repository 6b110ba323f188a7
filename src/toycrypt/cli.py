"""Command-line front end for desk experiments.

One subcommand per operation; all file formats match the library's text
formats so any emitting invocation can be fed back to its inverse in a
fresh process.  `--seed N` pins every randomized command to a reproducible
stream; without it, OS entropy is used.  Exit codes: 0 success, 1 domain
error, 2 usage error, 3 failed signature verification.
"""

# Each command runs in a fresh process, so start-up is paid per command: a
# process builds the parser of its own command only (the full parser just
# for top-level help and usage errors that name no command), and loads only
# the library modules that command uses.  Every module is reached as
# toycrypt.<module>, which the package imports on first access; bigmod
# loads with the CLI, since the number arguments parse with it.

from __future__ import annotations

import argparse
import contextlib
import math
import random
import sys
import warnings
from pathlib import Path

import toycrypt

# Most steps a brute-force scan takes, and the largest trial divisor of
# factor and totient, when --cap is not given.  A step costs about 0.25 us in
# a 64-bit DH group and 20 us on a 64-bit curve, so the default scan ends
# within about 1.3 s; trial division up to it takes a few milliseconds.
DEFAULT_SCAN_CAP = 1 << 16

# Largest limit of the primes command; its output grows with the limit.
# 10**7 prints 664579 lines in about 1.2 s, and the library's sieve cap of
# 10**8 would take more than 10 s (2 CPUs, Python 3.11.7, output to /dev/null).
PRIMES_LIMIT = 10**7


def demo_rsa_paper() -> str:
    """Worked single-letter example: p=19, q=17, e=17, letter C coded as 3.

    Letters are coded by alphabet position (A=1 ... Z=26) for this demo
    only; real message framing uses the byte-block format.
    """
    pub, priv = toycrypt.rsa.keygen_from_primes(19, 17, 17)
    letter = "C"
    coded = ord(letter) - ord("A") + 1
    cipher = toycrypt.rsa.encrypt_block(coded, pub)
    decoded = toycrypt.rsa.decrypt_block(cipher, priv)
    lines = [
        f"p={priv.p}",
        f"q={priv.q}",
        f"N={pub.n}",
        f"phi={priv.phi}",
        f"e={pub.e}",
        f"d={priv.d}",
        f"letter={letter}",
        f"coded={coded}",
        f"cipher={cipher}",
        f"decoded={decoded}",
        f"recovered-letter={chr(ord('A') + decoded - 1)}",
    ]
    return "\n".join(lines) + "\n"


def _scan_cap(cap: int | None, bound: int) -> int:
    """--cap if given, else the group's bound, at most DEFAULT_SCAN_CAP."""
    return cap if cap is not None else min(bound, DEFAULT_SCAN_CAP)


def _read_bytes(path: str | None, stdin) -> bytes:
    if path and path != "-":
        return Path(path).read_bytes()
    return (stdin if stdin is not None else sys.stdin.buffer).read()


def _write_bytes(data: bytes, path: str | None, stdout) -> None:
    if path and path != "-":
        Path(path).write_bytes(data)
    elif hasattr(stdout, "buffer"):
        stdout.buffer.write(data)
    else:
        stdout.write(data.decode("latin-1"))


def _parse_integer(text: str) -> int:
    # the one signed number form: a natural, or "-" directly followed by one
    s = text.strip()
    try:
        if s.startswith("-") and not s[1:2].isspace():
            return -toycrypt.bigmod.parse_natural(s[1:])
        return toycrypt.bigmod.parse_natural(s)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _number_argument(parse):
    # argparse names the type function in its own message for a ValueError,
    # but prints an ArgumentTypeError as it stands: the parser's reason
    def read(text: str) -> int:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


_natural = _number_argument(toycrypt.bigmod.parse_natural)
_integer = _number_argument(_parse_integer)


def _add_base_selector(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--hex", action="store_true", help="print numbers as 0x hex")
    group.add_argument("--dec", action="store_false", dest="hex",
                       help="print numbers in decimal (default)")


def _add_arguments(name: str, p: argparse.ArgumentParser) -> None:
    """Add the arguments of subcommand `name` to its parser p."""
    if name == "keygen":
        p.add_argument("--bits", type=_natural, required=True,
                       help=f"modulus size, 16 to {toycrypt.bigmod.MAX_MODULUS_BITS} bits")
        p.add_argument("--exponent", type=_natural)
        p.add_argument("--out", required=True, help="prefix for .pub and .key files")
        p.add_argument("--seed", type=_natural)
    elif name in _KEYED:
        p.add_argument("--key", required=True)
        p.add_argument("--in", dest="infile")
        p.add_argument("--out", dest="outfile")
        if name == "seal":
            p.add_argument("--seed", type=_natural)
    elif name == "verify":
        p.add_argument("--key", required=True)
        p.add_argument("--in", dest="infile")
    elif name == "dh-demo":
        p.add_argument("--p", type=_natural, default=23)
        p.add_argument("--g", type=_natural, default=5)
        p.add_argument("--seed", type=_natural)
        p.add_argument("--cap", type=_integer,
                       help=f"Eve's scan budget (default min(p, {DEFAULT_SCAN_CAP}))")
    elif name == "dlog":
        p.add_argument("p", type=_natural)
        p.add_argument("g", type=_natural)
        p.add_argument("target", type=_natural)
        p.add_argument("--cap", type=_integer,
                       help=f"scan budget (default min(p, {DEFAULT_SCAN_CAP}))")
        _add_base_selector(p)
    elif name in ("factor", "totient"):
        p.add_argument("n", type=_natural)
        p.add_argument("--cap", type=_integer, default=DEFAULT_SCAN_CAP,
                       help="largest trial divisor (default %(default)s; past it, exit 1 "
                            "with the factors found so far)")
        _add_base_selector(p)
    elif name == "primes":
        p.add_argument("limit", type=_natural)
        _add_base_selector(p)
    elif name == "prime-count":
        p.add_argument("bounds", type=_natural, nargs="+",
                       help="X, or LO HI for the count between them")
    elif name == "hash":
        p.add_argument("--in", dest="infile")
    elif name == "caesar":
        p.add_argument("--shift", type=_integer, required=True)
        p.add_argument("--decrypt", action="store_true")
        p.add_argument("text", nargs="?")
    elif name == "scytale":
        p.add_argument("--key", type=_natural, required=True, help="rod circumference")
        p.add_argument("--decrypt", action="store_true")
        p.add_argument("text", nargs="?")
    elif name == "otp":
        p.add_argument("--key-file", required=True)
        p.add_argument("--in", dest="infile")
        p.add_argument("--out", dest="outfile")
    elif name == "ecc":
        p.add_argument("--curve", required=True, help="a,b,p")
        ecc_sub = p.add_subparsers(dest="ecc_op", required=True)
        q = ecc_sub.add_parser("add")
        q.add_argument("point1")
        q.add_argument("point2")
        q = ecc_sub.add_parser("mul")
        q.add_argument("k", type=_natural)
        q.add_argument("point")
        q = ecc_sub.add_parser("dlog")
        q.add_argument("base")
        q.add_argument("target")
        q.add_argument("--cap", type=_integer,
                       help=f"scan budget (default min(p + 1 + isqrt(4p), {DEFAULT_SCAN_CAP}))")
    elif name == "keycount":
        p.add_argument("n", type=_natural)
        _add_base_selector(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The toycrypt parser; given a command name, with only that subcommand.

    Both are built from the same _COMMANDS and _add_arguments, so a
    subcommand parses and prints its help alike in either.  The one-command
    parser lists every command in its usage line too, so a usage error it
    reports itself, such as unrecognized arguments, reads as the full
    parser's.  The full parser leaves the metavar unset: only it reports an
    invalid or missing command, and those messages name the argument by it.
    """
    parser = argparse.ArgumentParser(prog="toycrypt", description=__doc__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(handler=handler)
            _add_arguments(name, p)
    return parser


def _cmd_keygen(args, stdin, stdout, rng) -> None:
    e = toycrypt.rsa.DEFAULT_PUBLIC_EXPONENT if args.exponent is None else args.exponent
    pub, priv = toycrypt.rsa.keygen_random(args.bits, e, rng)
    Path(args.out + ".pub").write_text(toycrypt.rsa.write_public_key(pub))
    Path(args.out + ".key").write_text(toycrypt.rsa.write_private_key(priv))


# The key-file commands: name -> (help, reads the private key?,
# op(input bytes, key, rng) -> output bytes).  Each op looks its rsa or
# envelope functions up through the package when called, so the module loads
# only when the command runs, and patching it reaches these calls too.
_KEYED = {
    "encrypt": ("RSA-encrypt bytes with a public key", False,
                lambda data, key, rng: toycrypt.rsa.write_block_stream(
                    toycrypt.rsa.encrypt_message(data, key)).encode()),
    "decrypt": ("RSA-decrypt a block stream with a private key", True,
                lambda data, key, rng: toycrypt.rsa.decrypt_message(
                    toycrypt.rsa.read_block_stream(data.decode()), key)),
    "seal": ("hybrid-encrypt for a recipient public key", False,
             lambda data, key, rng: toycrypt.envelope.write_envelope(
                 toycrypt.envelope.seal(data, key, rng)).encode()),
    "open": ("open a hybrid envelope with a private key", True,
             lambda data, key, rng: toycrypt.envelope.open_envelope(
                 toycrypt.envelope.read_envelope(data.decode()), key)),
    "sign": ("sign bytes with a private key", True,
             lambda data, key, rng: toycrypt.envelope.write_signed(
                 toycrypt.envelope.sign(data, key))),
}


def _read_key(path: str, private: bool):
    text = Path(path).read_text()
    return toycrypt.rsa.read_private_key(text) if private else toycrypt.rsa.read_public_key(text)


def _cmd_keyed(args, stdin, stdout, rng) -> None:
    _, private, op = _KEYED[args.command]
    key = _read_key(args.key, private)
    _write_bytes(op(_read_bytes(args.infile, stdin), key, rng), args.outfile, stdout)


def _cmd_verify(args, stdin, stdout, rng) -> int | None:
    pub = _read_key(args.key, private=False)
    msg = toycrypt.envelope.read_signed(_read_bytes(args.infile, stdin))
    if not toycrypt.envelope.verify(msg, pub):
        stdout.write("INVALID\n")
        return 3
    stdout.write("VALID\n")


def _cmd_dh_demo(args, stdin, stdout, rng) -> None:
    params = toycrypt.dh.make_params(args.p, args.g)
    alice = toycrypt.dh.gen_keypair(params, rng)
    bob = toycrypt.dh.gen_keypair(params, rng)
    alice_shared = toycrypt.dh.shared_secret(params, alice.secret, bob.public)
    bob_shared = toycrypt.dh.shared_secret(params, bob.secret, alice.public)
    cap = _scan_cap(args.cap, params.p)
    eve = toycrypt.dh.brute_force_dlog(params, alice.public, cap)
    lines = [
        f"p={params.p}",
        f"g={params.g}",
        f"alice-secret={alice.secret}",
        f"alice-public={alice.public}",
        f"bob-secret={bob.secret}",
        f"bob-public={bob.public}",
        f"alice-shared={alice_shared}",
        f"bob-shared={bob_shared}",
        f"eve-exponent={eve.exponent if eve.found else 'not-found'}",
        f"eve-steps={eve.steps}",
    ]
    if eve.found:
        lines.append(f"eve-shared={toycrypt.dh.shared_secret(params, eve.exponent, bob.public)}")
    stdout.write("\n".join(lines) + "\n")


def _cmd_dlog(args, stdin, stdout, rng) -> None:
    params = toycrypt.dh.make_params(args.p, args.g)
    cap = _scan_cap(args.cap, params.p)
    result = toycrypt.dh.brute_force_dlog(params, args.target, cap)
    if not result.found:
        raise ValueError(f"no exponent up to {cap} reaches {args.target}")
    k = toycrypt.bigmod.render_natural(result.exponent, args.hex)
    stdout.write(f"k={k} steps={result.steps}\n")


def _cmd_factor(args, stdin, stdout, rng) -> None:
    f = toycrypt.numtheory.factor_trial(args.n, args.cap)
    stdout.write(f"{toycrypt.bigmod.render_natural(args.n, args.hex)} = {f}\n")


def _cmd_primes(args, stdin, stdout, rng) -> None:
    if args.limit > PRIMES_LIMIT:
        raise ValueError(f"limit {args.limit} above the maximum of {PRIMES_LIMIT}")
    for p in toycrypt.numtheory.sieve_primes(args.limit):
        stdout.write(toycrypt.bigmod.render_natural(p, args.hex) + "\n")


def _cmd_totient(args, stdin, stdout, rng) -> None:
    phi = toycrypt.numtheory.totient(args.n, args.cap)
    stdout.write(toycrypt.bigmod.render_natural(phi, args.hex) + "\n")


def _cmd_prime_count(args, stdin, stdout, rng) -> None:
    if len(args.bounds) == 1:
        estimate = toycrypt.numtheory.pnt_estimate(args.bounds[0])
    elif len(args.bounds) == 2:
        estimate = toycrypt.numtheory.pnt_between(args.bounds[0], args.bounds[1])
    else:
        raise ValueError("prime-count takes one or two bounds")
    stdout.write(f"{estimate:.6g}\n")


def _cmd_hash(args, stdin, stdout, rng) -> None:
    digest = toycrypt.sha1.sha1(_read_bytes(args.infile, stdin))
    stdout.write(toycrypt.sha1.hex_upper(digest) + "\n")


def _read_cli_text(args, stdin) -> str:
    if args.text is not None:
        return args.text
    return _read_bytes(None, stdin).decode().removesuffix("\n")


def _cmd_caesar(args, stdin, stdout, rng) -> None:
    text = _read_cli_text(args, stdin)
    op = toycrypt.classical.caesar_decrypt if args.decrypt else toycrypt.classical.caesar_encrypt
    stdout.write(op(text, args.shift) + "\n")


def _cmd_scytale(args, stdin, stdout, rng) -> None:
    text = _read_cli_text(args, stdin)
    if args.decrypt:
        stdout.write(toycrypt.classical.scytale_unframe(text) + "\n")
        return
    # the pad grows with the key alone, so a key past the text would cost
    # time and memory in k, whatever the text
    if text and args.key > len(text):
        raise ValueError(f"key {args.key} longer than the text ({len(text)} characters)")
    stdout.write(toycrypt.classical.scytale_frame(text, args.key) + "\n")


def _cmd_otp(args, stdin, stdout, rng) -> None:
    key = Path(args.key_file).read_bytes()
    data = _read_bytes(args.infile, stdin)
    _write_bytes(toycrypt.classical.otp_apply(data, key), args.outfile, stdout)


def _cmd_ecc(args, stdin, stdout, rng) -> None:
    try:
        a, b, p = args.curve.split(",")
        a, b, p = _parse_integer(a), _parse_integer(b), toycrypt.bigmod.parse_natural(p)
    except ValueError:
        raise ValueError(f"--curve expects 'a,b,p', got {args.curve!r}") from None
    curve = toycrypt.ecc.make_curve(a, b, p)
    if args.ecc_op == "add":
        p1, p2 = toycrypt.ecc.parse_point(args.point1), toycrypt.ecc.parse_point(args.point2)
        result = toycrypt.ecc.point_add(curve, p1, p2)
        stdout.write(toycrypt.ecc.render_point(result) + "\n")
    elif args.ecc_op == "mul":
        result = toycrypt.ecc.scalar_mul(curve, args.k, toycrypt.ecc.parse_point(args.point))
        stdout.write(toycrypt.ecc.render_point(result) + "\n")
    else:
        base = toycrypt.ecc.parse_point(args.base)
        target = toycrypt.ecc.parse_point(args.target)
        cap = _scan_cap(args.cap, curve.p + 1 + math.isqrt(4 * curve.p))
        result = toycrypt.ecc.brute_force_ecdlog(curve, base, target, cap)
        if not result.found:
            raise ValueError(f"no scalar up to {cap} reaches {args.target}")
        stdout.write(f"k={result.scalar} steps={result.steps}\n")


def _cmd_keycount(args, stdin, stdout, rng) -> None:
    count = toycrypt.numtheory.key_count(args.n)
    stdout.write(toycrypt.bigmod.render_natural(count, args.hex) + "\n")


def _cmd_rsa_demo(args, stdin, stdout, rng) -> None:
    stdout.write(demo_rsa_paper())


# subcommand name -> (help, handler), in the order the full parser lists them
_COMMANDS = {
    "keygen": ("generate an RSA key pair", _cmd_keygen),
    **{name: (help_text, _cmd_keyed) for name, (help_text, *_) in _KEYED.items()},
    "verify": ("verify a signed message with a public key", _cmd_verify),
    "dh-demo": ("full Alice/Bob/Eve key-agreement transcript", _cmd_dh_demo),
    "dlog": ("brute-force discrete log", _cmd_dlog),
    "factor": ("trial-division factorization", _cmd_factor),
    "primes": ("primes below a limit", _cmd_primes),
    "totient": ("Euler's phi", _cmd_totient),
    "prime-count": ("approximate prime counts, x/ln(x)", _cmd_prime_count),
    "hash": ("SHA-1 of stdin or a file", _cmd_hash),
    "caesar": ("Caesar shift cipher", _cmd_caesar),
    "scytale": ("scytale transposition cipher", _cmd_scytale),
    "otp": ("one-time-pad XOR", _cmd_otp),
    "ecc": ("elliptic-curve point arithmetic", _cmd_ecc),
    "keycount": ("pairwise keys needed by N parties", _cmd_keycount),
    "rsa-demo": ("replay the worked RSA example", _cmd_rsa_demo),
}


def _parse_args(argv: list[str], stderr) -> argparse.Namespace:
    """Parse argv with only the parser of the command it names, if it names one."""
    with contextlib.redirect_stderr(stderr):
        return build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Run one toycrypt command and return its exit code.

    This is the one place the exit codes are decided: argparse's own code
    for the arguments (2 for a usage error, 0 after printing help), 1 when
    the command raises ValueError or OSError (its reason goes to stderr), 3
    when verify finds a signature that does not verify (the one code a
    handler returns), and 0 otherwise.

    stdin is a binary stream; without one, a command that reads stdin reads
    sys.stdin.buffer, and one that does not never touches it.  stdout and
    stderr are text streams, sys.stdout and sys.stderr by default.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv), stderr)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    seed = getattr(args, "seed", None)
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *_: stderr.write(
            f"toycrypt {args.command}: {category.__name__}: {message}\n"
        )
        try:
            return args.handler(args, stdin, stdout, rng) or 0
        except (ValueError, OSError) as exc:
            stderr.write(f"toycrypt {args.command}: {exc}\n")
            return 1


def main() -> None:
    sys.exit(run())
