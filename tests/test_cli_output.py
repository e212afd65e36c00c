"""The CLI prints exactly what it printed when this digest was recorded:
stdout, stderr and exit status of every subcommand, in text and --json
mode.  A change to any byte below is a change to the CLI's observable
output."""

import hashlib
import json

from polyaut.cli import build_parser, main

ARGVS = [
    ["relations", "--map", "x1 + x2^2; x2"],
    ["relations", "--map", "x1; x2"],  # zero ideal: R = 0, deg2(R) = -inf
    ["relations", "--map", "x1 + x2^2; x2; x3 + x2^2"],  # not principal
    ["relations", "--word", "E 1 x2^2; T 1 2"],
    ["relations", "--word", "E 3 x1*x2; E 1 x2^2"],
    ["relations", "--word", "E 3 x1^3", "--no-shadow"],
    ["decompose2", "--map", "x1 + x2^2; x2 + (x1 + x2^2)^3"],
    ["decompose2", "--map", "x1 + x2^2; x2 + x1^2"],  # disproof
    ["decompose2", "--map", "x1 + 2; 3*x2"],  # affine: no steps
    ["classify3", "--rel", "x3^2 + 5*x2^3", "--weights", "1,2,3"],
    ["classify3", "--rel", "x2^2 + x1*x3", "--weights", "1,3,5"],
    ["classify3", "--rel", "x3^2 + x1^3 - 4*x2^2", "--weights", "2,3,3"],
    ["classify3", "--rel", "x3^2 + x1^3 + 2*x2^2", "--weights", "2,3,3"],
    ["classify3", "--rel", "x3^2 + x1^4 + x2^3", "--weights", "3,4,6"],
    ["classify3", "--rel", "x3^2 + x2^2 + x1^4", "--weights", "2,4,4"],
    ["classify3", "--rel", "x3^2 + x1", "--weights", "1,2,3"],
    ["classify3", "--rel", "x1^2 + x2^2", "--weights", "1,1,1"],
    ["lnd-witness", "--word", "E 1 x2^2"],
    ["lnd-witness", "--word", "E 3 x1*x2; E 1 x2^2"],
    ["lnd-witness", "--map", "x1 + x2^2; x2", "--inverse", "x1 - x2^2; x2"],
    ["compose", "--word", "E 1 x2^2; T 1 2"],
    ["compose", "--word", "E 1 x2^2", "--n", "3"],
    ["compose", "--word", "A 1 2 0 1 | 0 3; E 2 x1^2"],
    ["invert", "--word", "E 1 x2^2; T 1 2; E 1 2*x2^3"],
    ["invert", "--word", "A 0 1 1 0 | 2 -1/2"],
    ["verify", "--suite", "lemma-1-2", "--count", "5"],
    ["verify", "--suite", "parachute", "--seed", "9", "--count", "5"],
    # Usage and domain errors: one stderr line, nothing on stdout.
    ["lnd-witness", "--word", "E 1 x2^2", "--inverse", "x1; x2"],
    ["decompose2", "--map", "x1; x2; x3"],
    ["invert", "--map", "x1; x2"],
    ["relations", "--map", "x1^2; x2"],
]

#: sha256 over one JSON line [argv, status, stdout, stderr] per argv and mode.
CLI_OUTPUT_SHA256 = "4f269ff45b323d205101d5437815cc0edbbf4d3010b827bb0c5b64ccf9f96925"


def _records(argvs, capsys):
    """One [argv, status, stdout, stderr] pair (text, --json) per argv."""
    records = []
    for argv in argvs:
        pair = []
        for mode in ([], ["--json"]):
            status = main(mode + argv)
            captured = capsys.readouterr()
            pair.append([mode + argv, status, captured.out, captured.err])
        records.append(pair)
    return records


def _digest(records):
    h = hashlib.sha256()
    for pair in records:
        for record in pair:
            h.update((json.dumps(record) + "\n").encode())
    return h.hexdigest()


def test_cli_output_digest(capsys):
    assert _digest(_records(ARGVS, capsys)) == CLI_OUTPUT_SHA256


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # build_parser is built once per process: a second pass, in reverse
    # order, parses every argv with the parser the first pass used.
    assert build_parser() is build_parser()
    assert _digest(_records(ARGVS, capsys)) == CLI_OUTPUT_SHA256
    assert _digest(_records(ARGVS[::-1], capsys)[::-1]) == CLI_OUTPUT_SHA256
