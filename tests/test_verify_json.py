"""`polyaut verify --json` prints exactly what it printed when these digests
were recorded, for every suite at the default seed and count; a change to
any of them is a change to the library's observable output."""

import hashlib

import pytest

from polyaut.cli import main
from polyaut.verify import SUITES

#: sha256 of `verify --suite <name> --json` stdout.
VERIFY_JSON_SHA256 = {
    "jvdk-roundtrip": "e71e4442ddfd88c52ee200d62b7e8687a0402e0b6f1ef8966dc7ed0422fe89d0",
    "lemma-1<2": "8b05bff2d0bff0db5c55e05cc2e573c337eb43da8f8756eeb85bdb7f142da767",
    "lemma-1-2": "8b05bff2d0bff0db5c55e05cc2e573c337eb43da8f8756eeb85bdb7f142da767",
    "parachute": "01dbc075ee49a8ab75737820b4cb6fd98f757cc8f0e4a0a4199aa8bedfbb61a8",
    "lnd-witness": "5ddfe3f05d625684447f21c6e47c1df453f3565bd164880fdd4cfe9c9a9573bb",
    "lnd01": "2a5c5c636a0947b1b1f6e7d0b1f0e758c4817b787d1257041072d8e13e864b25",
    "degree-bound": "beb97c8d58124075077ad2b3ae0e07e78532b98ef6bf0fc7d220ad9834c03a98",
    "oracle-agreement": "2e013ce4094176d333e533ec8571edbe47504910c16d927ed9eea0a791e28147",
    "affine-ideal": "a0dd01f738fe39d8d7e871a75be3e7fe2d9f4d2c4b9afe90da37add4f1f01b9d",
    "classify-soundness": "f1ca56b3bf1e71ea0d88baa2a72ec4a03e3ec3e7d6b5b144d386a90007b97f79",
}


def test_every_suite_is_pinned():
    assert sorted(SUITES) == sorted(VERIFY_JSON_SHA256)


@pytest.mark.parametrize("suite", sorted(VERIFY_JSON_SHA256))
def test_verify_json_digest(capsys, suite):
    assert main(["verify", "--suite", suite, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_SHA256[suite]
