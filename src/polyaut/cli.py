"""Command-line front end.

Subcommands:

  relations    leading terms, induced weights, relation ideal, principal
               generator and the degree bound for a map or word
  decompose2   tame decomposition of a two-variable map (or a disproof)
  classify3    classify a candidate principal relation generator for n = 3
               and produce its tame normal form
  lnd-witness  witness index and leading locally nilpotent derivation
  compose      expand a word to its coordinate map
  invert       invert a word
  verify       run a named property suite with an explicit seed

Inline polynomials use the x1..xn grammar; maps are semicolon-separated
coordinate lists; words are semicolon-separated generator lines
("E <i> <poly>", "T <i> <j>", "A <n*n rationals> | <n rationals>").
--json (before or after the subcommand) switches every report to a
machine-readable document whose polynomial fields re-parse through the same
grammar.

Exit status: 0 success, 1 domain outcomes (not an automorphism, forbidden,
needs-extension, no match, failing verification, an exhausted S-pair
budget, an oracle mismatch, no witness index, a failed witness check, an
exponent past the packed field), 2 usage errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify3 as c3
from .autmap import (
    AutWord,
    NonConstantJacobian,
    PolyMap,
    ZeroJacobian,
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
    NotWeightedHomogeneous,
    WitnessVerificationFailed,
    classify,
    normalize,
)
from .derivation import (
    InverseMismatch,
    NoWitnessIndex,
    apply as d_apply,
    is_locally_nilpotent,
    lnd_witness,
)
from .groebner import ResourceCapExceeded
from .jvdk import NotAnAutomorphism, decompose2
from .polycore import (
    MINUS_INFINITY,
    ExponentOverflow,
    Polynomial,
    WeightVector,
    format_poly,
    parse_fraction,
    parse_poly,
)
from .relations import OracleMismatch, relation_report
from .verify import SUITES, run_suite

OK, DOMAIN, USAGE, IO = 0, 1, 2, 3


class CliError(Exception):
    def __init__(self, message: str, status: int = USAGE):
        super().__init__(message)
        self.status = status


def _split_lines(text: str) -> str:
    return "\n".join(part.strip() for part in text.split(";") if part.strip())


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", IO)


def _infer_word_n(text: str) -> int:
    """Variable count of a word from its generator lines."""
    best = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "T":
            best = max([best, *(int(tok) for tok in rest.split())])
        elif kind == "A":
            body = rest.partition("|")[0]
            entries = len(body.split())
            n = 1
            while n * n < entries:
                n += 1
            if n * n != entries:
                raise CliError("affine line does not contain a square matrix")
            best = max(best, n)
        elif kind == "E":
            idx_str, _, poly = rest.strip().partition(" ")
            best = max(best, int(idx_str))
            tokens = poly.replace("^", " ").replace("*", " ")
            for tok in tokens.replace("(", " ").replace(")", " ").replace("+", " ").replace("-", " ").split():
                if tok.startswith("x") and tok[1:].isdigit():
                    best = max(best, int(tok[1:]))
    if best < 1:
        raise CliError("cannot infer the variable count; pass --n")
    return best


def _load_map_or_word(args) -> PolyMap | AutWord:
    """The parsed --map/--word/--map-file/--word-file input, unexpanded."""
    sources = [s for s in ("map", "word", "map_file", "word_file")
               if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliError("exactly one of --map / --word / --map-file / --word-file is required")
    if getattr(args, "map", None) or getattr(args, "map_file", None):
        text = _split_lines(args.map) if args.map else _read_file(args.map_file)
        lines = [l for l in text.splitlines() if l.strip()]
        n = getattr(args, "n", None) or len(lines)
        if n < 1:
            raise CliError("empty map input")
        return parse_map(text, n)
    text = _split_lines(args.word) if args.word else _read_file(args.word_file)
    n = getattr(args, "n", None) or _infer_word_n(text)
    return parse_word(text, n)


def _load_map(args) -> PolyMap:
    """The input as a coordinate map; a word is expanded."""
    source = _load_map_or_word(args)
    return expand(source) if isinstance(source, AutWord) else source


def _weights(arg: str | None, n: int) -> WeightVector:
    if not arg:
        return WeightVector.standard(n)
    parts = [parse_fraction(tok.strip()) for tok in arg.split(",")]
    if len(parts) != n:
        raise CliError(f"expected {n} weights, got {len(parts)}")
    if any(w <= 0 for w in parts):
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
    payload = report.to_dict()
    payload["command"] = "relations"
    payload["status"] = "ok"
    lines = [
        f"n = {report.n}",
        f"w1 = ({', '.join(str(w) for w in report.w1)})",
        f"d  = ({', '.join(str(w) for w in report.d)})",
        "leading terms:",
    ]
    lines += [f"  f{i}bar = {format_poly(f)}" for i, f in enumerate(report.fbars, 1)]
    if report.ideal.is_zero_ideal():
        lines.append("relation ideal: (0)")
    else:
        lines.append("relation ideal generators:")
        lines += [f"  {format_poly(g, var='z')}" for g in report.ideal.gens]
    lines.append(f"principal: {report.principal}")
    if report.R is not None:
        lines.append(f"R = {format_poly(report.R, var='z')}")
        deg = report.deg2_of_R
        lines.append(f"deg2(R) = {'-inf' if deg is MINUS_INFINITY else deg}")
    lines.append(f"parachute nabla = {report.parachute}")
    lines.append(f"bound deg2(R) <= nabla + 1: {'holds' if report.bound_ok else 'FAILS'}")
    _emit(args, payload, lines)
    return OK


def cmd_decompose2(args) -> int:
    m = _load_map(args)
    if m.n != 2:
        raise CliError("decompose2 needs a two-variable map")
    dec = decompose2(m)
    if isinstance(dec, NotAnAutomorphism):
        payload = {
            "command": "decompose2",
            "status": "not-an-automorphism",
            "stage": dec.stage,
            "detail": dec.detail,
        }
        _emit(args, payload, [f"not an automorphism ({dec.stage}): {dec.detail}"])
        return DOMAIN
    word_text = format_word(dec.word)
    payload = {
        "command": "decompose2",
        "status": "ok",
        "word": word_text.splitlines(),
        "steps": [
            {
                "swapped": s.swapped,
                "c": str(s.c),
                "r": s.r,
                "degree_sum_before": s.degree_sum_before,
                "degree_sum_after": s.degree_sum_after,
            }
            for s in dec.steps
        ],
    }
    lines = ["word:"]
    lines += [f"  {l}" for l in word_text.splitlines()] if word_text else ["  (identity)"]
    lines.append("steps:")
    if not dec.steps:
        lines.append("  (none: affine map)")
    for s in dec.steps:
        swap = "swap, then " if s.swapped else ""
        lines.append(
            f"  {swap}subtract {s.c} * g^{s.r}: degree sum "
            f"{s.degree_sum_before} -> {s.degree_sum_after}"
        )
    _emit(args, payload, lines)
    return OK


def _canonical_payload(nf: NormalForm) -> dict:
    c = nf.canonical
    if isinstance(c, c3.Zero):
        kind = {"kind": "Zero"}
    elif isinstance(c, c3.X3):
        kind = {"kind": "X3"}
    elif isinstance(c, c3.Binomial):
        kind = {"kind": "Binomial", "r": c.r, "s": c.s}
    else:
        kind = {"kind": "TriangularFiber", "k": c.k, "fiber": format_poly(c.fiber)}
    return {
        **kind,
        "canonical_poly": format_poly(nf.canonical_poly),
        "witness": format_word(nf.witness).splitlines(),
        "residual_scalar": str(nf.residual_scalar),
    }


def cmd_classify3(args) -> int:
    R = parse_poly(args.rel, 3)
    d = _weights(args.weights, 3)
    out = classify(R, d)
    if isinstance(out, Classified):
        rt = out.info
        params = {
            k: (format_poly(v) if isinstance(v, Polynomial) else str(v))
            for k, v in sorted(rt.params.items())
        }
        payload = {
            "command": "classify3",
            "status": "ok",
            "tag": rt.tag.value,
            "params": params,
            "h": format_poly(rt.shift_h),
            "scalar": str(rt.scalar),
        }
        lines = [
            f"tag: {rt.tag.value}",
            f"params: {params}",
            f"h = {format_poly(rt.shift_h)}",
            f"scalar = {rt.scalar}",
        ]
        nf = normalize(rt)
        if isinstance(nf, NeedsExtension):
            payload["normal_form"] = {"status": "needs-extension", "reason": nf.reason}
            lines.append(f"normal form: needs extension ({nf.reason})")
        else:
            payload["normal_form"] = _canonical_payload(nf)
            lines.append(f"normal form: {payload['normal_form']['kind']}")
            lines.append(f"  canonical = {format_poly(nf.canonical_poly)}")
            lines.append(f"  residual scalar = {nf.residual_scalar}")
            lines.append("  witness word:")
            wl = format_word(nf.witness).splitlines()
            lines += [f"    {l}" for l in wl] if wl else ["    (identity)"]
        _emit(args, payload, lines)
        return OK
    if isinstance(out, Forbidden):
        payload = {
            "command": "classify3",
            "status": "forbidden",
            "entry": out.entry,
            "detail": out.detail,
        }
        _emit(args, payload, [f"forbidden (entry {out.entry}): {out.detail}"])
        return DOMAIN
    if isinstance(out, NeedsExtension):
        payload = {"command": "classify3", "status": "needs-extension", "reason": out.reason}
        _emit(args, payload, [f"needs extension: {out.reason}"])
        return DOMAIN
    if isinstance(out, NotWeightedHomogeneous):
        payload = {"command": "classify3", "status": "not-homogeneous", "detail": out.detail}
        _emit(args, payload, [f"not weighted homogeneous: {out.detail}"])
        return DOMAIN
    payload = {"command": "classify3", "status": "not-in-list", "diagnostic": out.diagnostic}
    _emit(args, payload, [f"matches no line: {out.diagnostic}"])
    return DOMAIN


def cmd_lnd_witness(args) -> int:
    source = _load_map_or_word(args)
    w1 = _weights(args.weights, source.n)
    if isinstance(source, AutWord):
        if args.inverse:
            raise CliError("a word carries its own inverse; pass no --inverse with it")
    elif not args.inverse:
        raise CliError("a raw map needs --inverse (or pass a --word)")
    inv = parse_map(_split_lines(args.inverse), source.n) if args.inverse else None
    report = relation_report(source, w1)
    i, dbar = lnd_witness(source, w1, inverse=inv, report=report)
    verdict = is_locally_nilpotent(dbar)
    kills = None
    if report.principal and report.R is not None and not report.R.is_zero():
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
    ]
    lines += [f"  d/dx{j}: {format_poly(c)}" for j, c in enumerate(dbar.coeffs, 1)]
    lines.append(f"nilpotence verdict: {verdict}")
    if kills is not None:
        lines.append(f"annihilates R = {format_poly(report.R, var='z')}: {kills}")
    _emit(args, payload, lines)
    return OK


def cmd_compose(args) -> int:
    m = _load_map(args)
    payload = {
        "command": "compose",
        "status": "ok",
        "map": format_map(m).splitlines(),
    }
    _emit(args, payload, format_map(m).splitlines())
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
    lines = format_word(inv).splitlines() or ["(identity)"]
    _emit(args, payload, lines)
    return OK


def cmd_verify(args) -> int:
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    try:
        result = run_suite(args.suite, args.seed, args.count)
    except KeyError as exc:
        raise CliError(str(exc))
    payload = {
        "command": "verify",
        "suite": result.name,
        "seed": result.seed,
        "count": len(result.cases),
        "passed": result.passed,
        "failures": [
            {"index": c.index, "detail": c.detail} for c in result.failures
        ],
    }
    status = "PASS" if result.passed else "FAIL"
    lines = [
        f"{status} {result.name}: "
        f"{len(result.cases) - len(result.failures)}/{len(result.cases)} cases "
        f"(seed={result.seed})"
    ]
    for c in result.failures:
        lines.append(f"  case {c.index}: {c.detail}")
    _emit(args, payload, lines)
    return OK if result.passed else DOMAIN


# -- argument parsing --------------------------------------------------------


def _add_input_flags(p, with_inverse=False):
    p.add_argument("--map", help="semicolon-separated coordinate polynomials")
    p.add_argument("--word", help="semicolon-separated generator lines")
    p.add_argument("--map-file", help="file with one coordinate per line")
    p.add_argument("--word-file", help="file with one generator per line")
    p.add_argument("--n", type=int, help="variable count (inferred when omitted)")
    if with_inverse:
        p.add_argument("--inverse",
                       help="inverse map for raw-map input (a word carries its own)")


def build_parser() -> argparse.ArgumentParser:
    """The polyaut parser.  --json is accepted before and after the
    subcommand; its default is suppressed everywhere, so that a subcommand
    does not reset a leading --json, and main() supplies json=False."""
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
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--count", type=int, default=25)
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
