"""Command-line front end.

Subcommands:

  relations    leading terms, induced weights, relation ideal, principal
               generator and the degree bound for a map or word: under
               uniform weights w1 = c*(1,..,1) it reads deg2(R) <= nabla + c
               (holds or FAILS); for other w1 it is "not proved" (JSON null)
  decompose2   tame decomposition of a two-variable map (or a disproof)
  classify3    classify a candidate principal relation generator for n = 3
               and produce its tame normal form
  lnd-witness  witness index and leading locally nilpotent derivation
  compose      expand a word to its coordinate map
  invert       invert a word
  verify       run a named property suite with an explicit seed

Inline polynomials use the x1..xn grammar.  Maps and words, inline or in a
file, are read by autmap.parse_map and parse_word alone: a line ends at a
newline or a ';', and the variable count is --n or, when omitted, inferred
and bounded by the parser (1..MAX_VARIABLES, 64).
--json (before or after the subcommand) switches every report to a
machine-readable document whose polynomial fields re-parse through the same
grammar.

Exit status: 0 success, 1 domain outcomes (not an automorphism, forbidden,
needs-extension, no match, failing verification, and the errors
NonConstantJacobian and ZeroJacobian, a map whose Jacobian is not a nonzero
constant; InverseMismatch, a supplied inverse that does not invert the map;
ResourceCapExceeded, an exhausted budget of S-pairs, division steps, oracle
monomials, determinant steps, coefficient bits or printed digits;
OracleMismatch; NoWitnessIndex; WitnessVerificationFailed, a failed witness
check; ExponentOverflow, an exponent past the packed field), 2 usage
errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import classify3 as c3
from .autmap import (
    AutWord,
    InverseMismatch,
    NonConstantJacobian,
    PolyMap,
    ZeroJacobian,
    certify,
    expand,
    format_map,
    format_word,
    invert_word,
    parse_map,
    parse_word,
)
from .classify3 import (
    Classified,
    Forbidden,
    NeedsExtension,
    NormalForm,
    NotInList,
    NotWeightedHomogeneous,
    WitnessVerificationFailed,
    classify,
    normalize,
)
from .derivation import (
    NoWitnessIndex,
    apply as d_apply,
    is_locally_nilpotent,
    lnd_witness,
)
from .groebner import ResourceCapExceeded
from .jvdk import NotAnAutomorphism, decompose2
from .polycore import (
    ExponentOverflow,
    NumberTooLong,
    Polynomial,
    WeightVector,
    _UINT,
    format_poly,
    format_rational,
    parse_fraction,
    parse_poly,
    read_uint,
)
from .relations import OracleMismatch, relation_report
from .verify import SUITES, run_suite

OK, DOMAIN, USAGE, IO = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, message: str, status: int = USAGE):
        super().__init__(message)
        self.status = status


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", IO)


def _option(flag: str, read, text: str):
    """read(text) of an option's value: a number in it too long to read
    (polycore.NumberTooLong) is a usage error that names the option."""
    try:
        return read(text)
    except NumberTooLong as err:
        raise CliError(f"{flag}: {err}") from None


def _int_option(flag: str, text: str | None) -> int | None:
    """The value of an integer option: ASCII digits [0-9]+, as in input
    text, after an optional '-'; any other text is a usage error."""
    if text is None:
        return None
    digits = text.removeprefix("-")
    if not _UINT.fullmatch(digits):
        raise CliError(f"{flag} must be an integer of ASCII digits, got {text!r}")
    value = _option(flag, read_uint, digits)
    return -value if digits != text else value


def _load_map_or_word(args) -> PolyMap | AutWord:
    """The parsed --map/--word/--map-file/--word-file input, unexpanded;
    parse_map and parse_word infer and bound its variable count."""
    if sum(bool(s) for s in (args.map, args.word, args.map_file, args.word_file)) != 1:
        raise CliError("exactly one of --map / --word / --map-file / --word-file is required")
    n = _int_option("--n", args.n)
    if args.map or args.map_file:
        return parse_map(args.map or _read_file(args.map_file), n)
    return parse_word(args.word or _read_file(args.word_file), n)


def _load_map(args) -> PolyMap:
    """The input as a coordinate map; a word is expanded."""
    source = _load_map_or_word(args)
    return expand(source) if isinstance(source, AutWord) else source


def _weights(arg: str | None, n: int) -> WeightVector:
    if not arg:
        return WeightVector.standard(n)
    parts = [_option("--weights", parse_fraction, tok.strip()) for tok in arg.split(",")]
    if len(parts) != n:
        raise CliError(f"expected {n} weights, got {len(parts)}")
    if any(w.numerator <= 0 for w in parts):
        raise CliError(f"weights must be positive, got {arg!r}")
    return WeightVector(tuple(parts))


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


# -- subcommands -------------------------------------------------------------


def cmd_relations(args) -> int:
    source = _load_map_or_word(args)
    w1 = _weights(args.weights, source.n)
    report = relation_report(source, w1, oracle_shadow=not args.no_shadow)
    payload = {"command": "relations", "status": "ok", **report.to_dict()}
    lines = [
        f"n = {payload['n']}",
        f"w1 = ({', '.join(payload['w1'])})",
        f"d  = ({', '.join(payload['d'])})",
        "leading terms:",
        *(f"  f{i}bar = {f}" for i, f in enumerate(payload["fbars"], 1)),
    ]
    if payload["ideal"]:
        lines += ["relation ideal generators:", *(f"  {g}" for g in payload["ideal"])]
    else:
        lines.append("relation ideal: (0)")
    lines.append(f"principal: {payload['principal']}")
    if payload["R"] is not None:
        lines += [f"R = {payload['R']}", f"deg2(R) = {payload['deg2_of_R']}"]
    lines.append(f"parachute nabla = {payload['parachute']}")
    if payload["bound_ok"] is None:
        lines.append("bound deg2(R): not proved (w1 not uniform)")
    else:
        verdict = "holds" if payload["bound_ok"] else "FAILS"
        lines.append(f"bound deg2(R) <= nabla + {payload['w1'][0]}: {verdict}")
    _emit(args, payload, lines)
    return OK


def cmd_decompose2(args) -> int:
    m = _load_map(args)
    if m.n != 2:
        raise CliError("decompose2 needs a two-variable map")
    dec = decompose2(m)
    if isinstance(dec, NotAnAutomorphism):
        payload = {"command": "decompose2", "status": "not-an-automorphism", **asdict(dec)}
        _emit(args, payload, [f"not an automorphism ({dec.stage}): {dec.detail}"])
        return DOMAIN
    payload = {
        "command": "decompose2",
        "status": "ok",
        "word": format_word(dec.word).splitlines(),
        "steps": [{**asdict(s), "c": format_rational(s.c)} for s in dec.steps],
    }
    lines = ["word:", *([f"  {l}" for l in payload["word"]] or ["  (identity)"]), "steps:"]
    lines += [
        f"  {'swap, then ' if s['swapped'] else ''}subtract {s['c']} * g^{s['r']}: degree "
        f"sum {s['degree_sum_before']} -> {s['degree_sum_after']}"
        for s in payload["steps"]
    ] or ["  (none: affine map)"]
    _emit(args, payload, lines)
    return OK


def _canonical_payload(nf: NormalForm) -> dict:
    c = nf.canonical
    kind = {"kind": type(c).__name__}  # Zero, X3, Binomial or TriangularFiber
    if isinstance(c, c3.Binomial):
        kind.update(r=c.r, s=c.s)
    elif isinstance(c, c3.TriangularFiber):
        kind.update(k=c.k, fiber=format_poly(c.fiber))
    return {
        **kind,
        "canonical_poly": format_poly(nf.canonical_poly),
        "witness": format_word(nf.witness).splitlines(),
        "residual_scalar": format_rational(nf.residual_scalar),
    }


#: classify3's outcomes other than Classified: the payload status and the
#: text line, filled in from the outcome's fields (which the payload carries).
_CLASSIFY3_OUTCOMES = {
    Forbidden: ("forbidden", "forbidden (entry {entry}): {detail}"),
    NeedsExtension: ("needs-extension", "needs extension: {reason}"),
    NotWeightedHomogeneous: ("not-homogeneous", "not weighted homogeneous: {detail}"),
    NotInList: ("not-in-list", "matches no line: {diagnostic}"),
}


def cmd_classify3(args) -> int:
    R = parse_poly(args.rel, 3)
    d = _weights(args.weights, 3)
    out = classify(R, d)
    if isinstance(out, Classified):
        rt = out.info
        params = {
            k: (format_poly(v) if isinstance(v, Polynomial) else format_rational(v))
            for k, v in sorted(rt.params.items())
        }
        payload = {
            "command": "classify3",
            "status": "ok",
            "tag": rt.tag.value,
            "params": params,
            "h": format_poly(rt.shift_h),
            "scalar": format_rational(rt.scalar),
        }
        lines = [f"tag: {payload['tag']}", f"params: {params}", f"h = {payload['h']}",
                 f"scalar = {payload['scalar']}"]
        nf = normalize(rt)
        if isinstance(nf, NeedsExtension):
            payload["normal_form"] = {"status": "needs-extension", "reason": nf.reason}
            lines.append(f"normal form: needs extension ({nf.reason})")
        else:
            form = payload["normal_form"] = _canonical_payload(nf)
            lines += [
                f"normal form: {form['kind']}",
                f"  canonical = {form['canonical_poly']}",
                f"  residual scalar = {form['residual_scalar']}",
                "  witness word:",
                *([f"    {l}" for l in form["witness"]] or ["    (identity)"]),
            ]
        _emit(args, payload, lines)
        return OK
    status, text = _CLASSIFY3_OUTCOMES[type(out)]
    fields = asdict(out)
    _emit(args, {"command": "classify3", "status": status, **fields}, [text.format(**fields)])
    return DOMAIN


def cmd_lnd_witness(args) -> int:
    source = _load_map_or_word(args)
    w1 = _weights(args.weights, source.n)
    if isinstance(source, AutWord):
        if args.inverse:
            raise CliError("a word carries its own inverse; pass no --inverse with it")
    elif not args.inverse:
        raise CliError("a raw map needs --inverse (or pass a --word)")
    inv = parse_map(args.inverse, source.n) if args.inverse else None
    cert = certify(source, inv)
    report = relation_report(cert, w1)
    i, dbar = lnd_witness(cert, w1)
    verdict = is_locally_nilpotent(dbar)
    kills = None
    if report.R is not None and not report.R.is_zero():
        kills = d_apply(dbar, report.R).is_zero()
    payload = {
        "command": "lnd-witness",
        "status": "ok",
        "index": i,
        "leading_derivation": [format_poly(c) for c in dbar.coeffs],
        "verdict": type(verdict).__name__,
        "R": None if report.R is None else format_poly(report.R, var="z"),
        "annihilates_R": kills,
    }
    lines = [
        f"witness index: {i}",
        "leading derivation coefficients:",
        *(f"  d/dx{j}: {c}" for j, c in enumerate(payload["leading_derivation"], 1)),
        # The payload names the verdict's type only; the text shows its orders.
        f"nilpotence verdict: {verdict}",
    ]
    if kills is not None:
        lines.append(f"annihilates R = {payload['R']}: {kills}")
    _emit(args, payload, lines)
    return OK


def cmd_compose(args) -> int:
    lines = format_map(_load_map(args)).splitlines()
    _emit(args, {"command": "compose", "status": "ok", "map": lines}, lines)
    return OK


def cmd_invert(args) -> int:
    word = _load_map_or_word(args)
    if not isinstance(word, AutWord):
        raise CliError("invert needs a --word (raw maps carry no certificate)")
    inv = invert_word(word)
    payload = {
        "command": "invert",
        "status": "ok",
        "word": format_word(inv).splitlines(),
        "map": format_map(expand(inv)).splitlines(),
    }
    _emit(args, payload, payload["word"] or ["(identity)"])
    return OK


def cmd_verify(args) -> int:
    count = _int_option("--count", args.count)
    if count < 1:
        raise CliError(f"--count must be at least 1, got {count}")
    try:
        result = run_suite(args.suite, _int_option("--seed", args.seed), count)
    except KeyError as exc:
        raise CliError(exc.args[0])
    payload = {
        "command": "verify",
        "suite": result.name,
        "seed": result.seed,
        "count": len(result.cases),
        "passed": result.passed,
        "failures": [{"index": c.index, "detail": c.detail} for c in result.failures],
    }
    lines = [
        f"{'PASS' if result.passed else 'FAIL'} {result.name}: "
        f"{payload['count'] - len(result.failures)}/{payload['count']} cases "
        f"(seed={result.seed})",
        *(f"  case {f['index']}: {f['detail']}" for f in payload["failures"]),
    ]
    _emit(args, payload, lines)
    return OK if result.passed else DOMAIN


# -- argument parsing --------------------------------------------------------


def _add_input_flags(p, with_inverse=False):
    p.add_argument("--map", help="semicolon-separated coordinate polynomials")
    p.add_argument("--word", help="semicolon-separated generator lines")
    p.add_argument("--map-file", help="file with one coordinate per line")
    p.add_argument("--word-file", help="file with one generator per line")
    p.add_argument("--n", help="variable count (inferred when omitted)")
    if with_inverse:
        p.add_argument("--inverse",
                       help="inverse map for raw-map input (a word carries its own)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The polyaut parser, built once per process.  --json is accepted
    before and after the subcommand; its default is suppressed everywhere,
    so that a subcommand does not reset a leading --json, and main()
    supplies json=False in a fresh namespace on every call.  Parsing keeps
    no state in the parser: no argument type or action holds any."""
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                           help="machine-readable output")
    parser = argparse.ArgumentParser(
        prog="polyaut",
        description="Exact relations between leading terms of polynomial automorphisms",
        parents=[json_flag],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", parents=[json_flag],
                       help="relation ideal and degree bound")
    _add_input_flags(p)
    p.add_argument("--weights", help="comma-separated deg1 weights (default: all 1)")
    p.add_argument("--no-shadow", action="store_true",
                   help="skip the graded oracle shadow check")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("decompose2", parents=[json_flag],
                       help="tame decomposition for n = 2")
    _add_input_flags(p)
    p.set_defaults(func=cmd_decompose2)

    p = sub.add_parser("classify3", parents=[json_flag],
                       help="classify a relation generator for n = 3")
    p.add_argument("--rel", required=True, help="the candidate generator R(x1,x2,x3)")
    p.add_argument("--weights", required=True, help="d1,d2,d3 ascending positive integers")
    p.set_defaults(func=cmd_classify3)

    p = sub.add_parser("lnd-witness", parents=[json_flag],
                       help="locally nilpotent witness derivation")
    _add_input_flags(p, with_inverse=True)
    p.add_argument("--weights", help="comma-separated deg1 weights (default: all 1)")
    p.set_defaults(func=cmd_lnd_witness)

    p = sub.add_parser("compose", parents=[json_flag],
                       help="expand a word to a coordinate map")
    _add_input_flags(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("invert", parents=[json_flag], help="invert a word")
    _add_input_flags(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", parents=[json_flag], help="run a named property suite")
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(sorted(set(SUITES)))}")
    p.add_argument("--seed", default="20260810")
    p.add_argument("--count", default="25")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv, argparse.Namespace(json=False))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except (NonConstantJacobian, ZeroJacobian, InverseMismatch, NoWitnessIndex,
            OracleMismatch, ResourceCapExceeded, WitnessVerificationFailed,
            ExponentOverflow) as exc:
        # The input parsed, but it is not an automorphism or the computation
        # on it failed a budget or a cross-check: a domain outcome.
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO


if __name__ == "__main__":
    sys.exit(main())
