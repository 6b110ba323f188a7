"""The package's frozen records: construction, equality, hashing, repr, immutability.

Every record class is built by toycrypt._record.record.  These tests pin
the behaviour its callers rely on: positional and keyword construction
with defaults, validation in __post_init__, == only within one class,
hashing of the field tuple, field-wise reprs, refusal of assignment and
deletion, and a __dict__ that functools.cached_property can fill.
"""

import inspect

import pytest

import toycrypt
from toycrypt import bigmod, dh, ecc, envelope, numtheory, rsa, sha1

STREAM = rsa.BlockStream(1, 0, (5,))

# each record class with one valid value per field, in field order
SAMPLES = {
    bigmod.Residue: {"value": 3, "modulus": 7},
    bigmod.Comb: {"width": 1, "blocks": ((1, 5), (1, 2)), "one": 1, "square": abs, "multiply": pow},
    dh.DhParams: {"p": 23, "g": 5},
    dh.DhKeyPair: {"secret": 6, "public": 8},
    dh.DlogResult: {"exponent": 6, "steps": 6},
    ecc.EccPoint: {"x": 3, "y": 6},
    ecc.EccCurve: {"a": 2, "b": 3, "p": 97},
    ecc.EcdlogResult: {"scalar": 6, "steps": 6},
    envelope.Envelope: {"wrapped_key": STREAM, "body": b"body"},
    envelope.SignedMessage: {"text": b"text", "signature": 42},
    numtheory.Factorization: {"factors": ((2, 3), (5, 1))},
    numtheory.PrimalityVerdict: {"kind": numtheory.COMPOSITE, "witness": 3, "rounds": 1},
    rsa.RsaPublicKey: {"n": 323, "e": 5},
    rsa.RsaPrivateKey: {"n": 323, "d": 173, "p": 17, "q": 19},
    rsa.BlockStream: {"width": 2, "pad": 1, "blocks": (5, 6)},
    sha1.Digest: {"data": bytes(range(20))},
}
RECORDS = list(SAMPLES)
ids = [cls.__name__ for cls in RECORDS]


def build(cls):
    return cls(*SAMPLES[cls].values())


def test_every_record_class_is_sampled():
    found = {
        cls
        for name in toycrypt.__all__
        for _, cls in inspect.getmembers(getattr(toycrypt, name), inspect.isclass)
        if getattr(cls.__init__, "__module__", None) == "toycrypt._record"
    }
    assert found == set(RECORDS) and len(RECORDS) == 16


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    fields = SAMPLES[cls]
    first, *rest = fields
    by_keyword = cls(**dict(reversed(fields.items())))
    mixed = cls(fields[first], **{name: fields[name] for name in rest})
    assert build(cls) == by_keyword == mixed
    assert {name: getattr(by_keyword, name) for name in fields} == fields


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_repr_lists_fields_in_order(cls):
    shown = ", ".join(f"{name}={value!r}" for name, value in SAMPLES[cls].items())
    assert repr(build(cls)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_wrong_arguments_raise_type_error(cls):
    fields = SAMPLES[cls]
    values = list(fields.values())
    first = next(iter(fields))
    calls = [
        lambda: cls(),
        lambda: cls(*values, values[-1]),
        lambda: cls(*values, bogus=1),
        lambda: cls(*values, **{first: values[0]}),
        lambda: cls(values[0], **{first: values[0]}),
    ]
    if cls is not numtheory.PrimalityVerdict:  # the only record with defaults
        calls.append(lambda: cls(*values[:-1]))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_primality_verdict_defaults():
    assert numtheory.PrimalityVerdict(numtheory.COMPOSITE) == numtheory.PrimalityVerdict(
        numtheory.COMPOSITE, None, 0
    )
    verdict = numtheory.PrimalityVerdict(numtheory.PROBABLY_PRIME, rounds=8)
    assert (verdict.kind, verdict.witness, verdict.rounds) == (numtheory.PROBABLY_PRIME, None, 8)
    assert numtheory.PrimalityVerdict(rounds=2, kind=numtheory.COMPOSITE).witness is None


@pytest.mark.parametrize("call", [
    lambda: bigmod.Residue(7, 7),
    lambda: bigmod.Residue(-1, 7),
    lambda: bigmod.Residue(0, 1),
    lambda: bigmod.Residue(value=0, modulus=0),
    lambda: ecc.EccPoint(3, None),
    lambda: ecc.EccPoint(None, 6),
    lambda: rsa.RsaPublicKey(323, 1),
    lambda: rsa.RsaPublicKey(n=323, e=323),
    lambda: rsa.RsaPrivateKey(323, 173, 17, 17),
    lambda: rsa.RsaPrivateKey(324, 173, 17, 19),
    lambda: rsa.RsaPrivateKey(323, 173, 1, 323),
    lambda: rsa.RsaPrivateKey(323, 0, 17, 19),
    lambda: rsa.RsaPrivateKey(n=323, d=323, p=17, q=19),
    lambda: rsa.BlockStream(0, 0, ()),
    lambda: rsa.BlockStream(2, 2, (5,)),
    lambda: rsa.BlockStream(2, -1, (5,)),
    lambda: rsa.BlockStream(2, 1, ()),
    lambda: rsa.BlockStream(width=2, pad=0, blocks=(5, -1)),
    lambda: sha1.Digest(bytes(19)),
    lambda: sha1.Digest(data=bytes(21)),
])
def test_post_init_refusals_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equal_records_hash_equal(cls):
    a, b = build(cls), build(cls)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(SAMPLES[cls].values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_record_differs_from_a_tuple_of_its_values(cls):
    record, values = build(cls), tuple(SAMPLES[cls].values())
    assert record != values and not record == values
    assert values != record


def test_equality_is_within_one_class():
    assert dh.DlogResult(6, 6) != ecc.EcdlogResult(6, 6)
    assert dh.DhParams(23, 5) != dh.DhKeyPair(23, 5)
    assert bigmod.Residue(3, 7) != bigmod.Residue(3, 11)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_records_refuse_assignment_and_deletion(cls):
    record = build(cls)
    first = next(iter(SAMPLES[cls]))
    with pytest.raises(AttributeError):
        setattr(record, first, SAMPLES[cls][first])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert record == build(cls) and not hasattr(record, "extra")


def test_cached_properties_fill_the_instance_dict():
    priv = rsa.RsaPrivateKey(323, 173, 17, 19)
    assert "crt" not in vars(priv)
    assert priv.crt == (173 % 16, 173 % 18, bigmod.mod_inv(19, 17).value)
    assert vars(priv)["crt"] is priv.crt
    params = dh.DhParams(23, 5)
    assert "generator_table" not in vars(params)
    table = params.generator_table
    assert vars(params)["generator_table"] is table is params.generator_table
    # a cached value is not a field: equality, hash and repr ignore it
    assert params == dh.DhParams(23, 5) and hash(params) == hash(dh.DhParams(23, 5))
    assert repr(priv) == "RsaPrivateKey(n=323, d=173, p=17, q=19)"
    # a point's comb memo appears with its first multiplication, not before
    curve = ecc.make_curve(2, 3, 97)
    point = ecc.EccPoint(3, 6)
    assert ecc.on_curve(curve, point) and ecc.render_point(point) == "3,6"
    assert "combs" not in vars(point)
    ecc.scalar_mul(curve, 2, point)
    assert vars(point)["combs"] == {curve: None}
    ecc.scalar_mul(curve, 3, point)
    assert vars(point)["combs"][curve] is not None
    assert point == ecc.EccPoint(3, 6) and hash(point) == hash(ecc.EccPoint(3, 6))
    assert repr(point) == "EccPoint(x=3, y=6)"
    with pytest.raises(AttributeError):
        point.x = 4
    with pytest.raises(AttributeError):
        del point.y
    assert (point.x, point.y) == (3, 6)


def test_pinned_reprs():
    assert repr(bigmod.Residue(3, 7)) == "Residue(value=3, modulus=7)"
    assert repr(ecc.EccPoint(None, None)) == "EccPoint(x=None, y=None)"
    assert repr(numtheory.PrimalityVerdict(numtheory.COMPOSITE, 3)) == (
        "PrimalityVerdict(kind='composite', witness=3, rounds=0)"
    )
    assert repr(dh.DhParams(23, 5)) == "DhParams(p=23, g=5)"
