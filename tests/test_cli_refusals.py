"""Domain errors that only a command's own arguments reach: each exits 1 with its reason."""

import pytest

from test_cli import invoke
from vectors import KEYGEN_256_SEED_1_KEY


@pytest.mark.parametrize("argv, reason", [
    (["dlog", "23", "5", "0"], "target must lie in (0, 23), got 0"),
    (["totient", "0"], "totient undefined for 0"),
    (["prime-count", "1", "2", "3"], "prime-count takes one or two bounds"),
    (["ecc", "--curve", "2,3,97", "mul", "1", "100,6"], "point = 100,6 is not on the curve"),
], ids=["dlog-target-0", "totient-0", "prime-count-3-bounds", "ecc-x-past-p"])
def test_refused_with_its_reason(argv, reason):
    assert invoke(argv) == (1, "", f"toycrypt {argv[0]}: {reason}\n")


def test_open_of_an_envelope_file_with_only_its_magic_line(tmp_path):
    key = tmp_path / "k.key"
    key.write_text(KEYGEN_256_SEED_1_KEY)
    code, out, err = invoke(["open", "--key", str(key)], stdin=b"envelope v1\n")
    assert (code, out, err) == (1, "", "toycrypt open: truncated envelope file\n")
