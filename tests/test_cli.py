"""Command-line interface: reports, exit codes, machine-readable output."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polyaut.cli import main
from polyaut.classify3 import WitnessVerificationFailed
from polyaut.derivation import NoWitnessIndex
from polyaut.groebner import ResourceCapExceeded
from polyaut.polycore import MAX_EXPONENT, MAX_PAREN_DEPTH, MAX_VARIABLES, parse_poly
from polyaut.autmap import parse_word, parse_map
from polyaut.relations import OracleMismatch


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run(capsys, "--json", *argv)
    return status, json.loads(out)


def test_relations_text_report(capsys):
    status, out = run(capsys, "relations", "--map", "x1 + x2^2; x2")
    assert status == 0
    assert "R = z1 - z2^2" in out
    assert "bound deg2(R) <= nabla + 1: holds" in out


def test_relations_bound_scales_with_uniform_weights(capsys):
    # Under w1 = 2*(1, 1, 1) every degree doubles: deg2(R) = 6, nabla = 4,
    # and the proved bound is nabla + 2.
    argv = ["relations", "--word", "E 3 x1^3", "--weights", "2,2,2"]
    status, out = run(capsys, *argv)
    assert status == 0
    assert "deg2(R) = 6\nparachute nabla = 4\n" in out
    assert out.endswith("bound deg2(R) <= nabla + 2: holds\n")
    status, doc = run_json(capsys, *argv)
    assert status == 0
    assert doc["bound_ok"] is True


def test_relations_bound_not_proved_for_non_uniform_weights(capsys):
    argv = ["relations", "--word", "E 3 x1^3", "--weights", "1,2,2"]
    status, doc = run_json(capsys, *argv)
    assert status == 0
    assert doc["principal"] is True and doc["R"] not in (None, "0")
    assert doc["bound_ok"] is None
    status, out = run(capsys, *argv)
    assert status == 0
    assert out.endswith("bound deg2(R): not proved (w1 not uniform)\n")


def test_no_shadow_skips_the_oracle_and_keeps_the_report(capsys, count_calls):
    from polyaut import relations

    shadow_calls = count_calls(relations, "_shadow_check")
    argv = ["relations", "--word", "E 3 x1*x2^2; E 1 x2^2"]
    status, default = run(capsys, *argv)
    assert status == 0
    assert len(shadow_calls) == 1
    status, no_shadow = run(capsys, *argv, "--no-shadow")
    assert status == 0
    assert len(shadow_calls) == 1
    assert no_shadow == default


def test_relations_json_reparses(capsys):
    status, doc = run_json(capsys, "relations", "--map", "x1 + x2^2; x2")
    assert status == 0
    assert doc["status"] == "ok"
    R = parse_poly(doc["R"].replace("z", "x"), 2)
    assert R == parse_poly("x1 - x2^2", 2)
    for f in doc["fbars"]:
        parse_poly(f, 2)


def test_relations_accepts_word_input(capsys):
    status, doc = run_json(capsys, "relations", "--word", "E 1 x2^2")
    assert status == 0
    assert doc["d"] == ["2", "1"]


def test_decompose2_identity(capsys):
    status, out = run(capsys, "decompose2", "--map", "x1; x2")
    assert status == 0
    assert "(identity)" in out


def test_decompose2_word_reparses(capsys):
    status, doc = run_json(capsys, "decompose2", "--map", "x1 + x2^2; x2")
    assert status == 0
    word = parse_word("\n".join(doc["word"]), 2)
    from polyaut.autmap import expand

    assert expand(word) == parse_map("x1 + x2^2\nx2", 2)


def test_decompose2_rejects_non_automorphism(capsys):
    status, out = run(capsys, "decompose2", "--map", "x1 + x2^2; x2 + x1^2")
    assert status == 1
    assert "not an automorphism" in out


@pytest.mark.parametrize("argv, stage, detail", [
    (["decompose2", "--map", "x2^2; x2"], "reduce step",
     "coordinate vanished after reduction (f = c*g^r)"),
    (["decompose2", "--map", "x2^4 + 1; x2^2"], "degenerate coordinate",
     "a coordinate degenerated to a constant"),
])
def test_decompose2_rejects_degenerate_maps(capsys, argv, stage, detail):
    status, out = run(capsys, *argv)
    assert status == 1
    assert out == f"not an automorphism ({stage}): {detail}\n"
    status, doc = run_json(capsys, *argv)
    assert status == 1
    assert doc == {"command": "decompose2", "detail": detail, "stage": stage,
                   "status": "not-an-automorphism"}


def test_classify3_support_bound_is_not_in_list(capsys):
    argv = ["classify3", "--rel", "x3^3 + x1^6", "--weights", "1,2,2"]
    diagnostic = ("support bound violated: exponent (0, 0, 3) has weighted "
                  "degree 6 > d1+d2+d3-2 = 3")
    status, out = run(capsys, *argv)
    assert status == 1
    assert out == f"matches no line: {diagnostic}\n"
    status, doc = run_json(capsys, *argv)
    assert status == 1
    assert doc == {"command": "classify3", "diagnostic": diagnostic,
                   "status": "not-in-list"}


def test_classify3_t5(capsys):
    status, doc = run_json(
        capsys, "classify3", "--rel", "x3^2 + 5*x2^3", "--weights", "1,2,3"
    )
    assert status == 0
    assert doc["tag"] == "T5"
    assert doc["params"] == {"c": "5"}
    assert doc["normal_form"]["kind"] == "Binomial"
    parse_poly(doc["normal_form"]["canonical_poly"], 3)


def test_classify3_forbidden_exit_code(capsys):
    status, doc = run_json(
        capsys, "classify3", "--rel", "x3^2 + x1^4 + x2^3", "--weights", "3,4,6"
    )
    assert status == 1
    assert doc["status"] == "forbidden"
    assert doc["entry"] == 1


def test_classify3_needs_extension_inside_classified(capsys):
    status, doc = run_json(
        capsys, "classify3", "--rel", "x3^2 + x1^3 + 2*x2^2", "--weights", "2,3,3"
    )
    assert status == 0  # classification succeeded; only the rescale needs roots
    assert doc["normal_form"]["status"] == "needs-extension"


def test_lnd_witness_word(capsys):
    status, doc = run_json(capsys, "lnd-witness", "--word", "E 1 x2^2")
    assert status == 0
    assert doc["index"] == 2
    assert doc["annihilates_R"] is True
    assert doc["leading_derivation"] == ["2*x2", "1"]


def test_compose_and_invert_round_trip(capsys):
    word_text = "E 1 x2^2; T 1 2; E 1 2*x2^3"
    status, doc = run_json(capsys, "invert", "--word", word_text)
    assert status == 0
    inv = parse_word("\n".join(doc["word"]), 2)
    fwd = parse_word(word_text)
    from polyaut.autmap import compose_map, expand

    assert compose_map(expand(fwd), expand(inv)).is_identity()


def test_verify_suite_passes(capsys):
    status, doc = run_json(
        capsys, "verify", "--suite", "lemma-1-2", "--seed", "5", "--count", "10"
    )
    assert status == 0
    assert doc["passed"] is True
    assert doc["count"] == 10


@pytest.mark.parametrize("count", ["0", "-5"])
def test_verify_count_below_one_is_usage_error(capsys, count):
    status = main(["verify", "--suite", "parachute", "--count", count])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "--count must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "--word", "E 1 x2", "--n", "٢"],
        ["compose", "--word", "E 1 x2", "--n", "0_2"],
        ["compose", "--word", "E 1 x2", "--n", "+2"],
        ["verify", "--suite", "parachute", "--count", "٣"],
        ["verify", "--suite", "parachute", "--count", "-٣"],
        ["verify", "--suite", "parachute", "--seed", "1_0"],
        ["verify", "--suite", "parachute", "--seed", "²"],
    ],
    ids=["n-arabic-indic", "n-underscore", "n-plus", "count-arabic-indic",
         "count-negative-arabic-indic", "seed-underscore", "seed-superscript"],
)
def test_integer_options_are_ascii_digits(capsys, argv):
    # The options follow the [0-9]+ rule of input text, not int().
    flag, value = argv[-2:]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {flag} must be an integer of ASCII digits, got {value!r}"
    ]


def test_json_flag_before_and_after_subcommand(capsys):
    argv = ["relations", "--word", "E 1 x2^2; T 1 2"]
    status_before, before = run(capsys, "--json", *argv)
    status_after, after = run(capsys, *argv, "--json")
    status_both, both = run(capsys, "--json", *argv, "--json")
    assert status_before == status_after == status_both == 0
    assert before == after == both
    assert json.loads(before)["R"] == "z1 - z2^2"
    status_text, text = run(capsys, *argv)
    assert status_text == 0
    assert "R = z1 - z2^2" in text


def _readme_command_lines():
    """The polyaut lines of the sh block under README's "Command line"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("polyaut ")]


def test_readme_command_lines_exit_zero(capsys):
    lines = _readme_command_lines()
    assert len(lines) >= 8
    for line in lines:
        status = main(shlex.split(line)[1:])
        capsys.readouterr()
        assert status == 0, line


def test_verify_unknown_suite_is_usage_error(capsys):
    status = main(["verify", "--suite", "nope"])
    assert status == 2
    # The message itself, not the repr a KeyError gives it.
    assert capsys.readouterr().err == (
        "error: unknown suite 'nope'; available: affine-ideal, classify-soundness, "
        "degree-bound, jvdk-roundtrip, lemma-1-2, lemma-1<2, lnd-witness, lnd01, "
        "oracle-agreement, parachute\n")


def test_verify_output_is_deterministic(capsys):
    _, first = run(capsys, "--json", "verify", "--suite", "parachute",
                   "--seed", "9", "--count", "8")
    _, second = run(capsys, "--json", "verify", "--suite", "parachute",
                    "--seed", "9", "--count", "8")
    assert first == second


def test_usage_error_without_input(capsys):
    status = main(["relations"])
    assert status == 2


def test_io_error_status(capsys):
    status = main(["relations", "--map-file", "/nonexistent/path.txt"])
    assert status == 3


def test_word_file_input(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("E 1 x2^2\nT 1 2\n")
    status, doc = run_json(capsys, "compose", "--word-file", str(path))
    assert status == 0
    # expand([E, T]) = E o T: substitute the swap into the elementary map.
    assert parse_map("\n".join(doc["map"]), 2) == parse_map("x1^2 + x2\nx1", 2)


def test_explicit_variable_count_flag(capsys):
    # A word mentioning only x2 still lives in three variables with --n.
    status, doc = run_json(capsys, "compose", "--word", "E 1 x2^2", "--n", "3")
    assert status == 0
    assert len(doc["map"]) == 3


def test_affine_word_line_round_trips_through_cli(capsys):
    word_text = "A 0 1 1 0 | 2 -1/2"
    status, doc = run_json(capsys, "invert", "--word", word_text)
    assert status == 0
    from polyaut.autmap import compose_map, expand

    fwd = parse_word(word_text, 2)
    inv = parse_word("\n".join(doc["word"]), 2)
    assert compose_map(expand(fwd), expand(inv)).is_identity()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relations", "--map", "x1^2; x2"],
         "error: jacobian determinant is not constant: 2*x1"),
        (["relations", "--map", "x1+x2; x1+x2"],
         "error: jacobian determinant is identically zero"),
        (["lnd-witness", "--map", "x1+x2^2; x2", "--inverse", "x1; x2"],
         "error: supplied inverse does not invert the map"),
    ],
    ids=["non-constant-jacobian", "zero-jacobian", "inverse-mismatch"],
)
def test_non_automorphism_input_is_domain_outcome(capsys, argv, message):
    # Well-formed input that is not an automorphism exits 1, not 2 (usage).
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["compose", "--word", "A 1/0 0 0 1 | 0 0"], "line 1: "),
        (["compose", "--word", "A 1 0 0 1 | 1/0 0"], "line 1: "),
        (["relations", "--map", "x1;x2", "--weights", "1/0,1"], ""),
        (["classify3", "--rel", "x3^2 + x2^3", "--weights", "1,2,1/0"], ""),
    ],
    ids=["word-matrix", "word-shift", "relations-weights", "classify3-weights"],
)
def test_zero_denominator_is_usage_error(capsys, argv, line):
    # A word line names itself; a weight list is not line input.
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {line}zero denominator in '1/0'"]


@pytest.mark.parametrize(
    "argv, line, token",
    [
        (["compose", "--word", "A 1e3 0 0 1 | 0 0"], "line 1: ", "1e3"),
        (["compose", "--word", "A 1 0 0 1 | 2E-1 0"], "line 1: ", "2E-1"),
        (["relations", "--map", "x1;x2", "--weights", "1_0,1"], "", "1_0"),
        (["classify3", "--rel", "x3^2 + x2^3", "--weights", "1,2,1e3"], "", "1e3"),
    ],
    ids=["word-matrix", "word-shift", "relations-weights", "classify3-weights"],
)
def test_rational_outside_the_grammar_is_usage_error(capsys, argv, line, token):
    # Affine entries and weights are integers, p/q or decimals; exponent
    # notation and underscores are malformed input, like 1/0.
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {line}invalid rational literal '{token}': expected an integer, p/q or a decimal"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compose", "--word", "A 1 2 3 | 0 0"],
         "line 1: affine line does not contain a square matrix"),
        (["relations", "--map", ";"], "empty map input"),
        (["relations", "--map", "x1; x2", "--weights", "1"], "expected 2 weights, got 1"),
        (["lnd-witness", "--map", "x1 + x2^2; x2"],
         "a raw map needs --inverse (or pass a --word)"),
    ],
    ids=["affine-not-square", "empty-map", "weight-count", "raw-map-without-inverse"],
)
def test_malformed_input_is_usage_error(capsys, argv, message):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def _nested(text, depth):
    return "(" * depth + text + ")" * depth


@pytest.mark.parametrize(
    "make_argv, line, offset",
    [
        (lambda depth: ["relations", "--map", _nested("x1", depth) + "; x2"], "line 1: ", 0),
        (lambda depth: ["classify3", "--rel", _nested("x3", depth), "--weights", "1,1,1"],
         "", 0),
        (lambda depth: ["relations", "--word", "E 1 " + _nested("x2", depth)], "line 1: ", 4),
    ],
    ids=["relations-map", "classify3-rel", "word-elementary"],
)
def test_parentheses_past_the_bound_are_usage_errors(capsys, make_argv, line, offset):
    # A map or word line names itself, and the position is in the text as
    # given: the word's polynomial starts after "E 1 ".
    assert main(make_argv(MAX_PAREN_DEPTH)) == 0
    capsys.readouterr()
    status = main(make_argv(MAX_PAREN_DEPTH + 1))
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {line}parentheses nested deeper than {MAX_PAREN_DEPTH} "
        f"(at position {MAX_PAREN_DEPTH + offset})"]


def test_nonpositive_weights_echo_the_input(capsys):
    status = main(["relations", "--map", "x1;x2", "--weights", "0,1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "'0,1'" in captured.err
    assert "Fraction(" not in captured.err


def test_exponent_overflow_is_domain_outcome(capsys):
    status = main(["compose", "--map", f"x1^{MAX_EXPONENT + 1}; x2"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: line 1: exponent {MAX_EXPONENT + 1} exceeds the largest exponent {MAX_EXPONENT}"
    ]


def test_product_overflow_is_domain_outcome(capsys):
    # The reader multiplies a term's powers itself, with the check of *.
    status = main(["compose", "--map", f"x1^{MAX_EXPONENT}*x1; x2"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: line 1: exponent {MAX_EXPONENT + 1} exceeds the largest exponent {MAX_EXPONENT}"
    ]


def test_constant_power_overflow_is_domain_outcome(capsys):
    status = main(["compose", "--map", f"1^{MAX_EXPONENT + 1}*x1; x2"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: line 1: exponent {MAX_EXPONENT + 1} exceeds the largest exponent {MAX_EXPONENT}"
    ]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_past_the_digit_limit_is_domain_outcome(capsys, json_flag):
    # 3^9100 has 4342 digits, more than the interpreter prints by default:
    # the input is valid, so the refusal is a budget, not a usage error.
    limit = sys.get_int_max_str_digits()
    status = main([*json_flag, "compose", "--map", "3^9100*x1; x2"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: a coefficient past the limit of {limit} digits"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("argv", [
    ["decompose2", "--map", "3^9100*x1; x2"],
    ["classify3", "--rel", "3^9100*x3", "--weights", "1,1,1"],
    ["classify3", "--rel", "x3^2 + x1^5 + 3^9101*x1*x2^2", "--weights", "2,4,5"],
], ids=["decompose2-affine-entry", "classify3-scalar", "classify3-forbidden-detail"])
def test_rationals_past_the_digit_limit_are_domain_outcomes(capsys, json_flag, argv):
    # An affine entry of a word, the scalars of a classify3 report and the
    # rationals in the detail of a classify3 outcome are printed like a
    # coefficient: refused past the limit, as a budget.
    limit = sys.get_int_max_str_digits()
    status = main([*json_flag, *argv])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: a coefficient past the limit of {limit} digits"]


@pytest.mark.parametrize("argv, noun", [
    (["relations", "--map", "x1 + x2^9; x2", "--weights", "1,{w}"], "a weight"),
    (["classify3", "--rel", "x1^9", "--weights", "{w},{w},{w}"], "a degree"),
], ids=["relations-induced-weight", "classify3-diagnostic"])
def test_degrees_past_the_digit_limit_are_domain_outcomes(capsys, argv, noun):
    # A weight w of limit digits is read, and a degree 9 * w has one digit
    # more: the induced weight of x1 + x2^9, or the weighted degree of x1^9
    # in the diagnostic of a relation that matches no line.
    limit = sys.get_int_max_str_digits()
    status = main([a.format(w="9" * limit) for a in argv])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {noun} past the limit of {limit} digits"]


@pytest.mark.parametrize("argv, where", [
    (["compose", "--word", "E {long} x2"], "line 1"),
    (["compose", "--word", "E 1 x2; T 1 {long}"], "line 2"),
    (["compose", "--word", "A {long} 0 0 1 | 0 0"], "line 1"),
    (["compose", "--word", "A 1 0 0 1 | 0 -1/{long}"], "line 1"),
    (["compose", "--word", "A 1 0 0 1 | 0 .{long}"], "line 1"),
    (["relations", "--map", "x1; x2", "--weights", "{long},1"], "--weights"),
    (["compose", "--map", "x1; x2", "--n", "{long}"], "--n"),
    (["verify", "--suite", "parachute", "--seed", "-{long}"], "--seed"),
    (["verify", "--suite", "parachute", "--count", "{long}"], "--count"),
], ids=["word-target", "word-index", "word-entry", "word-denominator", "word-decimal",
        "weights", "n", "seed", "count"])
def test_integers_past_the_digit_limit_are_usage_errors(capsys, argv, where):
    # A number too long for the interpreter to read, in a word line or an
    # option, gets the polynomial reader's message and names where it is.
    limit = sys.get_int_max_str_digits()
    status = main([a.format(long="1" * (limit + 1)) for a in argv])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {where}: a number of more than {limit} digits"]


@pytest.mark.parametrize("flag, text, position", [
    ("--map", "x1 + {long}; x2", 5),
    ("--map", "x1; x2^{long}", 7),
    ("--word", "T 1 2\nE 1 x{long}", 10),
    ("--word", "E 2 3*x1^{long}", 9),
])
def test_input_past_the_digit_limit_is_a_parse_error(capsys, flag, text, position):
    # A number too long for the interpreter to read is a PolyParseError at
    # its position in the whole input, also where a word infers its
    # variable count from an E line.
    limit = sys.get_int_max_str_digits()
    status = main(["compose", flag, text.format(long="1" * (limit + 1))])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    line = text[:position].count("\n") + text[:position].count(";") + 1
    assert captured.err.splitlines() == [
        f"error: line {line}: a number of more than {limit} digits (at position {position})"]


def test_other_value_errors_stay_usage_errors(capsys):
    status = main(["lnd-witness", "--map", "x1+x2^2; x2", "--inverse", "x1; x2; x3"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, expands, stepwise",
    [
        (["relations", "--word", "E 1 x2^2; T 1 2"], 1, 0),
        (["invert", "--word", "E 1 x2^2; T 1 2"], 1, 0),
        # The forward map once (certify, whose Certified relation_report and
        # lnd_witness share), and the inverse once, step by step, for the
        # chain rule.
        (["lnd-witness", "--word", "E 1 x2^2"], 1, 1),
    ],
    ids=["relations", "invert", "lnd-witness"],
)
def test_word_input_expansions(capsys, count_calls, expand_calls, argv, expands, stepwise):
    from polyaut import autmap

    steps_calls = count_calls(autmap, "expansion")
    assert main(argv) == 0
    capsys.readouterr()
    assert len(expand_calls) == expands
    # expand runs through expansion; lnd_witness then expands the inverse
    # word step by step.
    assert steps_calls == expand_calls + [
        autmap.invert_word(w) for w in expand_calls[:stepwise]]


def test_raw_map_witness_computes_one_jacobian(capsys, count_calls):
    # certify computes mu once; relation_report and lnd_witness read it.
    from polyaut import polycore

    jacobian_calls = count_calls(polycore, "jacobian")
    assert main(["lnd-witness", "--map", "x1+x2^2; x2", "--inverse", "x1-x2^2; x2"]) == 0
    capsys.readouterr()
    assert len(jacobian_calls) == 1


def test_inverse_with_word_is_usage_error(capsys, count_calls):
    from polyaut import cli

    report_calls = count_calls(cli, "relation_report")
    status = main(["lnd-witness", "--word", "E 1 x2^2", "--inverse", "x1 + 5; x2^7"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "inverse" in captured.err
    # The usage error comes before any relation-ideal work.
    assert report_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compose", "--word", "E 1 x2", "--n", "0"],
        ["compose", "--word", "E 1 x2", "--n", "-1"],
        ["compose", "--word", "E 1 x2", "--n", str(MAX_VARIABLES + 1)],
        ["compose", "--word", f"E 1 x{MAX_VARIABLES + 1}"],
        ["compose", "--word", f"T 1 {MAX_VARIABLES + 1}"],
        ["relations", "--map", "; ".join(["x1"] * (MAX_VARIABLES + 1))],
    ],
    ids=["n-zero", "n-negative", "n-over-cap", "x-index-over-cap",
         "t-index-over-cap", "map-over-cap"],
)
def test_variable_count_outside_the_cap_is_usage_error(capsys, count_calls, argv):
    from polyaut import polycore

    parse_calls = count_calls(polycore, "parse_poly")
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert parse_calls == []  # the reader rejects before any polynomial is parsed


def test_variable_count_at_the_cap_is_accepted(capsys):
    status, doc = run_json(capsys, "compose", "--word", f"E 1 x{MAX_VARIABLES}")
    assert status == 0
    assert len(doc["map"]) == MAX_VARIABLES


@pytest.mark.parametrize("word", ["T", "T 1", "T a b"])
def test_malformed_transposition_is_usage_error(capsys, word):
    status = main(["compose", "--word", word])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relations", "--word", "T x 1"], "line 1: bad transposition line 'T x 1'"),
        (["relations", "--word", "E 1 x2\nE 2 (x1 +"],
         "line 2: unexpected end of input (at position 16)"),
        (["relations", "--map", "x1 + x2^2; x2 +"],
         "line 2: unexpected end of input (at position 15)"),
        (["lnd-witness", "--map", "x1 + x2^2; x2", "--inverse", "x1 - x2^2; x2 )"],
         "line 2: unexpected trailing input (at position 14)"),
    ],
    ids=["transposition", "word-line-2", "map-line-2", "inverse-line-2"],
)
def test_parse_errors_name_the_line(capsys, argv, message):
    # The position is in the text as typed, not in a rewritten copy (see also
    # test_parentheses_past_the_bound_are_usage_errors).
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compose", "--map", "x²; x1"], "line 1: expected an integer (at position 1)"),
        (["compose", "--word", "E 1_0 x2"], "line 1: bad elementary target in 'E 1_0 x2'"),
        (["compose", "--word", "E +1 x2"], "line 1: bad elementary target in 'E +1 x2'"),
        (["compose", "--word", "T ١ ٢"], "line 1: bad transposition line 'T ١ ٢'"),
        (["compose", "--word", "E 1 x٣"], "line 1: expected an integer (at position 5)"),
        (["compose", "--word", "E 1 x2; T 1 2; E 3 x1", "--n", "2"],
         "line 3: target 3 out of range 1..2"),
        (["compose", "--word", "T 1 2; T 1 1"],
         "line 2: transposition needs two distinct indices"),
        (["compose", "--word", "E 1 x1"],
         "line 1: elementary addend must not involve the target variable"),
        (["compose", "--word", "A 1 2 2 4 | 0 0"], "line 1: affine generator has singular matrix"),
        (["compose", "--word", "T 1 2; A 1 2 3 | 0 0", "--n", "2"],
         "line 2: affine line needs 4 matrix entries and 2 shifts"),
    ],
    ids=["superscript-digit", "underscore-target", "signed-target", "arabic-indic-indices",
         "arabic-indic-variable", "target-out-of-range", "equal-indices", "target-in-addend",
         "singular-matrix", "affine-entry-count"],
)
def test_invalid_lines_are_usage_errors_naming_the_line(capsys, argv, message):
    # Digits are ASCII [0-9] in every reader, and a line that reads but builds
    # no generator names its line like a parse error does.
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_power_coefficient_budget_is_a_domain_outcome(capsys, monkeypatch):
    # 3^6 may need 6 * ceil(log2(3)) = 12 coefficient bits; a budget of 11
    # stands in for a runaway power such as 3^4294967295.
    from polyaut import polycore

    argv = ["compose", "--map", "3^6*x1; x2"]
    assert run(capsys, *argv) == (0, "729*x1\nx2\n")
    monkeypatch.setattr(polycore, "MAX_COEFFICIENT_BITS", 11)
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == "error: the coefficients of a power to 6 could need more than 11 bits\n"


def test_literal_power_past_the_coefficient_budget_is_a_domain_outcome(capsys):
    # The gcd that makes 3^1398101/2^1398101 canonical would take seconds.
    status = main(["compose", "--map", "3/2^1398101*x1; x2"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == ("error: the coefficients of a power to 1398101 could need "
                            "more than 1048576 bits\n")


def test_determinant_budget_is_a_domain_outcome(capsys, monkeypatch):
    # A raw map's Jacobian is expanded by Laplace, in up to e * n! steps;
    # past polycore.MAX_DET_STEPS the CLI exits 1.  A dense 4 x 4 linear
    # map takes 41 steps, so a budget of 40 stands in for a runaway input.
    from polyaut import polycore
    # x |-> (I + J) x with J all ones: every entry nonzero, determinant 5.
    dense = "; ".join(" + ".join(f"{1 + (i == j)}*x{j}" for j in range(1, 5))
                      for i in range(1, 5))
    assert run(capsys, "relations", "--no-shadow", "--map", dense)[0] == 0
    monkeypatch.setattr(polycore, "MAX_DET_STEPS", 40)
    status = main(["relations", "--no-shadow", "--map", dense])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == "error: determinant expansion exceeded 40 steps\n"


def test_oracle_budget_is_a_domain_outcome(capsys, monkeypatch):
    # The shadow check of x1 + x2^2; x2 enumerates 4 monomials; a budget of
    # 3 stands in for a runaway input such as x1 + x2^4294967295; x2.
    from polyaut import groebner

    argv = ["relations", "--map", "x1 + x2^2; x2"]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(groebner, "MAX_ORACLE_MONOMIALS", 3)
    assert run(capsys, "relations", "--no-shadow", "--map", "x1 + x2^2; x2")[0] == 0
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == "error: graded oracle exceeded 3 monomials\n"


def test_division_step_budget_is_a_domain_outcome(capsys, monkeypatch):
    # Buchberger divides x1 + x2^8; x2's elimination generators one step per
    # degree; a budget of 3 stands in for x1 + x2^4294967295; x2, whose
    # division would run for hours.
    from polyaut import groebner

    argv = ["relations", "--map", "x1 + x2^8; x2"]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(groebner, "MAX_DIVISION_STEPS", 3)
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == "error: a division exceeded 3 steps\n"


@pytest.mark.parametrize("argv, line", [
    (["decompose2", "--map", f"x1 + x2^{MAX_EXPONENT}; x2"], f"  E 1 x2^{MAX_EXPONENT}"),
    (["compose", "--word", f"E 1 x2^{MAX_EXPONENT}"], f"x1 + x2^{MAX_EXPONENT}"),
])
def test_largest_exponent_takes_logarithmic_products(capsys, argv, line):
    # A power to k takes O(log k) products (polycore._power), so a plane
    # reduction by g^(2^32 - 1) and a substitution into x2^(2^32 - 1) take
    # about 62 products, not one per power up to the exponent.
    status, out = run(capsys, *argv)
    assert status == 0
    assert line in out.splitlines()


@pytest.mark.parametrize("argv, k", [
    (["compose", "--word", "E 2 x1^6; A 2 0 0 1 | 0 0"], 6),
    (["decompose2", "--map", "x1 + x2^6; 2*x2"], 6),
])
def test_substituted_power_coefficient_budget_is_a_domain_outcome(capsys, monkeypatch,
                                                                  argv, k):
    # (2*x1)^6, a power of a coordinate inside a substitution, and (2*x2)^6,
    # the g^r of a plane reduction, may need 6 coefficient bits; a budget of
    # 5 stands in for a runaway power such as (2*x1)^4294967295.
    from polyaut import polycore

    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(polycore, "MAX_COEFFICIENT_BITS", 5)
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err == f"error: the coefficients of a power to {k} could need more than 5 bits\n"


def test_python_m_polyaut_runs_the_cli():
    # python -m polyaut is the CLI, as the polyaut script is.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "polyaut", "compose", "--word", "E 1 x2^2"],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(root / "src")})
    assert (done.returncode, done.stdout, done.stderr) == (0, "x1 + x2^2\nx2\n", "")


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize(
    "target, exc, argv",
    [
        ("polyaut.relations.kernel_ideal",
         ResourceCapExceeded("buchberger exceeded 1 S-pair reductions"),
         ["relations", "--map", "x1 + x2^2; x2"]),
        ("polyaut.relations._shadow_check",
         OracleMismatch("kernel generator outside the oracle span"),
         ["relations", "--word", "E 1 x2^2"]),
        ("polyaut.cli.lnd_witness",
         NoWitnessIndex("no index satisfies deg2(Delta_i) >= -w_i"),
         ["lnd-witness", "--word", "E 1 x2^2"]),
        ("polyaut.cli.normalize",
         WitnessVerificationFailed("witness composition mismatch"),
         ["classify3", "--rel", "x3^2 + 5*x2^3", "--weights", "1,2,3"]),
    ],
    ids=["resource-cap", "oracle-mismatch", "no-witness-index", "witness-verification"],
)
def test_runtime_errors_are_domain_outcomes(capsys, monkeypatch, target, exc, argv):
    monkeypatch.setattr(target, _raising(exc))
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {exc}"]
