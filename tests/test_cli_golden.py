"""Golden transcripts of the CLI: README examples, option surface, pipes.

These pin what a user of `toycrypt` sees, so that a refactor of the CLI
module can be checked against them unchanged: the exact output and exit
code of every README example, the options each subcommand accepts, and
the stdin/stdout path between the key-file commands in fresh processes.
"""

import argparse
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

from toycrypt import envelope, rsa
from toycrypt.cli import build_parser, demo_rsa_paper, run
from vectors import DH_DEMO_SEED_7, DIGEST_ITALIA_4_3

ROOT = Path(__file__).resolve().parents[1]
MESSAGE = b"Nel mezzo del cammin \x00\xff"
PAD = bytes(range(7, 7 + 64))
# randomized README examples get a seed, so their files are reproducible
SEEDS = {"keygen": "17", "seal": "29"}


def readme_cli_examples():
    """Each command line of README's CLI block as (line, argv, stdin bytes)."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        stdin = b""
        if "|" in words:
            producer, words = words[: words.index("|")], words[words.index("|") + 1 :]
            assert producer[:2] == ["echo", "-n"], line
            stdin = producer[2].encode()
        assert words[0] == "toycrypt", line
        examples.append((" ".join(words), words[1:], stdin))
    return examples


# README command (comment and pipe removed) -> (exit code, exact stdout)
GOLDEN = {
    "toycrypt rsa-demo": (0, demo_rsa_paper()),
    "toycrypt factor 171371": (0, "171371 = 409 * 419\n"),
    "toycrypt factor --cap 409 171371": (0, "171371 = 409 * 419\n"),
    "toycrypt keycount 10": (0, "45\n"),
    "toycrypt primes 30": (0, "2\n3\n5\n7\n11\n13\n17\n19\n23\n29\n"),
    "toycrypt totient 323": (0, "288\n"),
    "toycrypt totient --cap 409 171371": (0, "170544\n"),
    "toycrypt prime-count 1000": (0, "144.765\n"),
    "toycrypt hash": (0, DIGEST_ITALIA_4_3 + "\n"),
    "toycrypt caesar --shift 3 Nel mezzo del cammin di nostra vita": (
        0, "Qho phccr gho fdpplq gl qrvwud ylwd\n"),
    "toycrypt scytale --key 5 HELLOWORLD": (0, "scytale v1 k=5 pad=0:HWEOLRLLOD\n"),
    "toycrypt scytale --key 5 --decrypt scytale v1 k=5 pad=0:HWEOLRLLOD": (0, "HELLOWORLD\n"),
    "toycrypt otp --key-file pad.bin --in msg --out cipher": (0, ""),
    "toycrypt keygen --bits 512 --out alice": (0, ""),
    "toycrypt encrypt --key alice.pub --in msg --out cipher": (0, ""),
    "toycrypt decrypt --key alice.key --in cipher --out plain": (0, ""),
    "toycrypt sign --key alice.key --in msg --out signed": (0, ""),
    "toycrypt verify --key alice.pub --in signed": (0, "VALID\n"),
    "toycrypt seal --key alice.pub --in msg --out envelope": (0, ""),
    "toycrypt open --key alice.key --in envelope --out plain": (0, ""),
    "toycrypt dh-demo --seed 7": (0, DH_DEMO_SEED_7),
    "toycrypt dlog 23 5 8": (0, "k=6 steps=6\n"),
    "toycrypt ecc --curve 2,3,97 add 3,6 3,91": (0, "O\n"),
    "toycrypt ecc --curve 2,3,97 mul 7 3,6": (0, "80,10\n"),
    "toycrypt ecc --curve 2,3,97 dlog 3,6 80,10": (0, "k=2 steps=2\n"),
}


def test_readme_cli_examples_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("msg").write_bytes(MESSAGE)
    Path("pad.bin").write_bytes(PAD)
    examples = readme_cli_examples()
    assert [line for line, _, _ in examples] == list(GOLDEN)
    files = {}
    for line, argv, stdin in examples:
        if argv[0] in SEEDS:
            argv = [*argv, "--seed", SEEDS[argv[0]]]
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdin=io.BytesIO(stdin), stdout=out, stderr=err)
        assert (code, out.getvalue()) == GOLDEN[line], (line, err.getvalue())
        assert err.getvalue() == "", line
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            for path in sorted(Path().glob(name + "*")):
                files[(argv[0], path.name)] = path.read_bytes()

    assert files[("otp", "cipher")] == bytes(m ^ k for m, k in zip(MESSAGE, PAD))
    pub = rsa.read_public_key(files[("keygen", "alice.pub")].decode())
    priv = rsa.read_private_key(files[("keygen", "alice.key")].decode())
    assert (pub.n, pub.n.bit_length()) == (priv.n, 512)
    stream = rsa.read_block_stream(files[("encrypt", "cipher")].decode())
    assert files[("encrypt", "cipher")] == rsa.write_block_stream(stream).encode()
    assert rsa.decrypt_message(stream, priv) == MESSAGE
    assert files[("decrypt", "plain")] == MESSAGE
    signed = envelope.read_signed(files[("sign", "signed")])
    assert files[("sign", "signed")] == envelope.write_signed(signed)
    assert signed.text == MESSAGE and envelope.verify(signed, pub)
    env = envelope.read_envelope(files[("seal", "envelope")].decode())
    assert files[("seal", "envelope")] == envelope.write_envelope(env).encode()
    assert files[("open", "plain")] == MESSAGE


# subcommand -> every argument it takes, as (option strings, dest, required, default);
# "" is the top-level parser and "ecc OP" an ecc operation
KEY_FILE = {(("--key",), "key", True, None), (("--in",), "infile", False, None)}
OUT_FILE = {(("--out",), "outfile", False, None)}
SEED = {(("--seed",), "seed", False, None)}
BASE = {(("--hex",), "hex", False, False), (("--dec",), "hex", False, True)}
OPTION_SURFACE = {
    "": {((), "command", True, None)},
    "keygen": {(("--bits",), "bits", True, None),
               (("--exponent",), "exponent", False, None),
               (("--out",), "out", True, None)} | SEED,
    "encrypt": KEY_FILE | OUT_FILE,
    "decrypt": KEY_FILE | OUT_FILE,
    "seal": KEY_FILE | OUT_FILE | SEED,
    "open": KEY_FILE | OUT_FILE,
    "sign": KEY_FILE | OUT_FILE,
    "verify": KEY_FILE,
    "dh-demo": {(("--p",), "p", False, 23), (("--g",), "g", False, 5),
                (("--cap",), "cap", False, None)} | SEED,
    "dlog": {((), "p", True, None), ((), "g", True, None), ((), "target", True, None),
             (("--cap",), "cap", False, None)} | BASE,
    "factor": {((), "n", True, None), (("--cap",), "cap", False, 2**16)} | BASE,
    "primes": {((), "limit", True, None)} | BASE,
    "totient": {((), "n", True, None), (("--cap",), "cap", False, 2**16)} | BASE,
    "prime-count": {((), "bounds", True, None)},
    "hash": {(("--in",), "infile", False, None)},
    "caesar": {(("--shift",), "shift", True, None), (("--decrypt",), "decrypt", False, False),
               ((), "text", False, None)},
    "scytale": {(("--key",), "key", True, None), (("--decrypt",), "decrypt", False, False),
                ((), "text", False, None)},
    "otp": {(("--key-file",), "key_file", True, None)} | OUT_FILE
           | {(("--in",), "infile", False, None)},
    "ecc": {(("--curve",), "curve", True, None), ((), "ecc_op", True, None)},
    "ecc add": {((), "point1", True, None), ((), "point2", True, None)},
    "ecc mul": {((), "k", True, None), ((), "point", True, None)},
    "ecc dlog": {((), "base", True, None), ((), "target", True, None),
                 (("--cap",), "cap", False, None)},
    "keycount": {((), "n", True, None)} | BASE,
    "rsa-demo": set(),
}


def _surface(parser, name=""):
    """Yield (name, argument set) for a parser and every subparser under it."""
    args = set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        args.add((tuple(action.option_strings), action.dest, action.required, action.default))
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                yield from _surface(sub, f"{name} {sub_name}".strip())
    yield name, args


def test_option_surface_is_pinned():
    assert dict(_surface(build_parser())) == OPTION_SURFACE


def test_option_surface_catches_an_extra_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub.choices["verify"].add_argument("--out", dest="outfile")
    assert dict(_surface(parser)) != OPTION_SURFACE


class TestPipesInFreshProcesses:
    """Key-file commands chained through stdout and stdin, with no --in or --out."""

    def cli(self, *argv, stdin=b""):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "toycrypt", *argv], input=stdin,
                                capture_output=True, timeout=120, env=env)
        assert result.stderr == b"", result.stderr
        return result.returncode, result.stdout

    def test_pipes(self, tmp_path):
        prefix = tmp_path / "k"
        assert self.cli("keygen", "--bits", "256", "--out", str(prefix), "--seed", "3") == (0, b"")
        pub, key = f"{prefix}.pub", f"{prefix}.key"
        msg = tmp_path / "msg"
        msg.write_bytes(MESSAGE)

        code, cipher = self.cli("encrypt", "--key", pub, stdin=MESSAGE)
        assert code == 0 and cipher.startswith(b"rsa-blocks v1 ")
        assert self.cli("encrypt", "--key", pub, "--in", str(msg), "--out", "-") == (0, cipher)
        assert self.cli("decrypt", "--key", key, stdin=cipher) == (0, MESSAGE)

        code, sealed = self.cli("seal", "--key", pub, "--seed", "5", stdin=MESSAGE)
        assert code == 0 and sealed.startswith(b"envelope v1\n")
        out = tmp_path / "sealed"
        assert self.cli("seal", "--key", pub, "--seed", "5", "--in", str(msg),
                        "--out", str(out)) == (0, b"")
        assert out.read_bytes() == sealed
        assert self.cli("open", "--key", key, stdin=sealed) == (0, MESSAGE)

        code, signed = self.cli("sign", "--key", key, stdin=MESSAGE)
        assert code == 0 and signed.startswith(b"signed v1\n")
        assert self.cli("verify", "--key", pub, stdin=signed) == (0, b"VALID\n")
        forged = signed[:-1] + bytes([signed[-1] ^ 1])
        assert self.cli("verify", "--key", pub, stdin=forged) == (3, b"INVALID\n")
