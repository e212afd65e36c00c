"""Polynomial automorphisms as generator words and coordinate tuples.

An automorphism of affine n-space enters the system as an AutWord: an
ordered list of generators, each one of

  * Affine(matrix, shift)      x |-> M x + s with det(M) != 0,
  * Elementary(target, addend) adds a polynomial in the other variables
                               to one coordinate,
  * Transposition(i, j)        swaps two coordinates.

expand() turns a word into a PolyMap, the explicit coordinate tuple
(f1,..,fn); composition of maps is substitution, (F o G)(x) = F(G(x)),
and expand([g1,..,gk]) = G1 o G2 o .. o Gk.  It evaluates the word as
G1(G2(..Gk(x))), last generator first: starting from the identity,
apply_generator(g, coords) applies each generator to the coordinates
built so far, and expansion(word) yields every tuple on the way; expand
is its last.  A word carries its own certificate of invertibility:
invert_word reverses the list and inverts each generator, an Affine by
one elimination, its inverse keeping the reciprocal of its determinant.

certify(phi) returns the Certified every later step reads: the map F, its
constant Jacobian mu, the inverse and the induced weights.  For a word, mu
is the product of the generator determinants (each Affine keeps its det).
A raw PolyMap must have a nonzero constant Jacobian (jacobian_constant), a
necessary but, for n >= 2, not sufficient check; it is *certified* as an
automorphism only by a supplied inverse (certify(m, inverse), one
composition, InverseMismatch when it fails).  certify never decomposes a
map: jvdk.decompose2 decides automorphy for n = 2 on its own.

Text formats, read by parse_word and parse_map alone; a line ends at a
newline or at a ';':
  word: one generator per line,
        "E <i> <poly>" | "T <i> <j>" | "A <n*n rationals> | <n rationals>",
        each rational an integer, p/q or a decimal (parse_fraction)
  map:  n lines, one polynomial per coordinate.
n may be omitted: a word's is the largest index it names, a map's its line
count.  n lies in 1..MAX_VARIABLES, checked before any polynomial is parsed.
A parse error in a line names the line and points into the text as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Union

from .polycore import (
    MAX_VARIABLES,
    PolyParseError,
    Polynomial,
    WeightVector,
    _UINT,
    _ZERO,
    _fraction,
    _rref,
    _substitution,
    _tokenize,
    _variable_indices,
    compose,
    format_poly,
    format_rational,
    jacobian,
    linear_combination,
    parse_fraction,
    parse_poly,
    read_uint,
    wdeg,
)


class NonConstantJacobian(ValueError):
    """The Jacobian determinant is not constant: the map is not certified."""


class ZeroJacobian(ValueError):
    """The Jacobian determinant vanishes identically."""


class InverseMismatch(ValueError):
    """The inverse supplied with a raw map does not invert it."""


@dataclass(frozen=True)
class Affine:
    """x |-> M x + s with an invertible rational matrix M."""

    matrix: tuple  # n rows, each a tuple of n Fractions
    shift: tuple  # n Fractions
    det: Fraction = field(init=False, repr=False, compare=False)  # det(M)

    def __post_init__(self):
        m = tuple(tuple(map(_fraction, row)) for row in self.matrix)
        s = tuple(map(_fraction, self.shift))
        n = len(m)
        if n == 0 or any(len(row) != n for row in m) or len(s) != n:
            raise ValueError("affine generator needs a square matrix and a matching shift")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)
        det = _rref(m)[2]
        if det == 0:
            raise ValueError("affine generator has singular matrix")
        object.__setattr__(self, "det", det)

    @property
    def n(self) -> int:
        return len(self.matrix)

    def is_identity(self) -> bool:
        return not any(self.shift) and all(
            a == int(i == j) for i, row in enumerate(self.matrix) for j, a in enumerate(row)
        )


@dataclass(frozen=True)
class Elementary:
    """Adds a polynomial in the other variables to coordinate `target` (1-based)."""

    target: int
    addend: Polynomial

    def __post_init__(self):
        if not 1 <= self.target <= self.addend.n:
            raise ValueError(f"target {self.target} out of range 1..{self.addend.n}")
        if self.addend.involves(self.target):
            raise ValueError("elementary addend must not involve the target variable")

    @property
    def n(self) -> int:
        return self.addend.n


@dataclass(frozen=True)
class Transposition:
    """Swaps coordinates i and j (1-based)."""

    i: int
    j: int
    n: int

    def __post_init__(self):
        if not (1 <= self.i <= self.n and 1 <= self.j <= self.n):
            raise ValueError("transposition index out of range")
        if self.i == self.j:
            raise ValueError("transposition needs two distinct indices")


Generator = Union[Affine, Elementary, Transposition]


@dataclass(frozen=True)
class AutWord:
    """An ordered list of generators sharing one variable count."""

    n: int
    gens: tuple

    def __post_init__(self):
        gens = tuple(self.gens)
        for g in gens:
            if g.n != self.n:
                raise ValueError("generator variable count does not match word")
        object.__setattr__(self, "gens", gens)

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)


@dataclass(frozen=True)
class PolyMap:
    """A coordinate tuple (f1,..,fn), each f_i a polynomial in n variables."""

    n: int
    coords: tuple

    def __post_init__(self):
        cs = tuple(self.coords)
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(cs)}")
        for c in cs:
            if c.n != self.n:
                raise ValueError("coordinate has wrong variable count")
        object.__setattr__(self, "coords", cs)

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap(n, tuple(Polynomial.variable(i, n) for i in range(1, n + 1)))

    def is_identity(self) -> bool:
        return self == PolyMap.identity(self.n)


def compose_map(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """(outer o inner)(x) = outer(inner(x)): substitute inner into outer."""
    if outer.n != inner.n:
        raise ValueError("variable-count mismatch in map composition")
    return PolyMap(outer.n, tuple(compose(c, inner.coords) for c in outer.coords))


def apply_generator(g: Generator, coords: tuple, powers: list) -> tuple:
    """The coordinates of g o C, for the map C with coordinates coords: the
    generator's coordinate functions with coords substituted for x1..xn.

    An Affine coordinate is the linear_combination of coords with one
    matrix row plus its shift.  An Elementary coordinate is one
    linear_combination too: coords[t] times the addend's denominator plus
    each term's numerator times its product of coordinate powers (compose's
    pairs, polycore._substitution), over that denominator.  A Transposition
    swaps two coordinates.

    powers holds one power memo per coordinate, kept by the caller across
    generators; it is only read here.  polycore._power_products matches
    each memo to its coordinate by its base when it next substitutes, so
    a memo follows a swapped coordinate and a rewritten one gets a fresh
    memo.
    """
    if isinstance(g, Affine):
        one = Polynomial.constant(1, g.n)
        return tuple(linear_combination([(s, one), *zip(row, coords)], g.n)
                     for row, s in zip(g.matrix, g.shift))
    out = list(coords)
    if isinstance(g, Elementary):
        t, a = g.target - 1, g.addend
        out[t] = linear_combination([(a.den, coords[t]), *_substitution(a, coords, powers)],
                                    g.n, a.den)
    elif isinstance(g, Transposition):
        i, j = g.i - 1, g.j - 1
        out[i], out[j] = coords[j], coords[i]
    else:
        raise TypeError(f"unknown generator {g!r}")
    return tuple(out)


def expansion(word: AutWord):
    """Yield the coordinate tuples of the outside-in expansion of the word
    [G1,..,Gk]: the identity, then Gk, G(k-1) o Gk, .., G1 o .. o Gk.

    Each tuple is the generator, last to first, applied to the one before
    (apply_generator), so every step substitutes the accumulated map into
    one small generator.  One power memo per coordinate lives for the whole
    expansion and stays with its coordinate while that is unchanged, even
    when a Transposition moves it: along a run of Elementaries with one
    target the powers of the others are formed once.  The last tuple is
    expand(word).
    """
    coords = PolyMap.identity(word.n).coords
    powers = [{1: c} for c in coords]
    yield coords
    for g in reversed(word.gens):
        coords = apply_generator(g, coords, powers)
        yield coords


def expand(word: AutWord) -> PolyMap:
    """Expand a word to its coordinate tuple: G1 o G2 o .. o Gk, evaluated
    G1(G2(..Gk(x))) as the last tuple of expansion(word).

    expand is a monoid homomorphism: the word of u's generators followed by
    v's expands to expand(u) o expand(v), and the empty word to the identity.
    """
    for coords in expansion(word):
        pass
    return PolyMap(word.n, coords)


def _affine(matrix: tuple, shift: tuple, det: Fraction) -> Affine:
    """An Affine from Fraction entries whose det(M) is already known, built
    without the constructor's elimination."""
    a = object.__new__(Affine)
    object.__setattr__(a, "matrix", matrix)
    object.__setattr__(a, "shift", shift)
    object.__setattr__(a, "det", det)
    return a


def invert_generator(g: Generator) -> Generator:
    """The inverse generator.  An Affine x |-> M x + s is inverted by one
    elimination of [M | I | s] to [I | M^-1 | M^-1 s], read off the int
    rows as x |-> M^-1 x - M^-1 s, and its inverse keeps
    det(M^-1) = 1/det(M)."""
    if isinstance(g, Affine):
        n = g.n
        augmented = [[*row, *[int(i == j) for j in range(n)], s]
                     for i, (row, s) in enumerate(zip(g.matrix, g.shift))]
        inverse = [[Fraction(x, row[i]) if x else _ZERO for x in [*row[n:-1], -row[-1]]]
                   for i, row in enumerate(_rref(augmented)[0])]
        return _affine(tuple(tuple(row[:-1]) for row in inverse),
                       tuple(row[-1] for row in inverse), 1 / g.det)
    if isinstance(g, Elementary):
        return Elementary(g.target, -g.addend)
    return g  # transpositions are involutions


def invert_word(word: AutWord) -> AutWord:
    """Reversed word of inverted generators; composes with the word to identity."""
    return AutWord(word.n, tuple(invert_generator(g) for g in reversed(word.gens)))


def jacobian_constant(m: PolyMap) -> Fraction:
    """The Jacobian determinant of m, required to be a nonzero constant.

    Raises ZeroJacobian / NonConstantJacobian otherwise.  A nonzero constant
    Jacobian is necessary but (for n >= 2 inputs not built from words) not
    known to be sufficient for m to be an automorphism.
    """
    j = jacobian(m.coords)
    if j.is_zero():
        raise ZeroJacobian("jacobian determinant is identically zero")
    if not j.is_constant():
        raise NonConstantJacobian(f"jacobian determinant is not constant: {j}")
    return j.constant_value()


def word_jacobian(word: AutWord) -> Fraction:
    """Product of generator Jacobians: det for Affine, -1 for Transposition, 1 else."""
    mu = Fraction(1)
    for g in word.gens:
        if isinstance(g, Affine):
            mu *= g.det
        elif isinstance(g, Transposition):
            mu *= -1
    return mu


@dataclass(frozen=True)
class Certified:
    """The input phi, its map m and constant Jacobian mu, its inverse and
    its induced weights d(w1), built by certify.  A word's inverse and each
    d(w1) are memos, computed on first use from the fields and kept."""

    phi: AutWord | PolyMap
    m: PolyMap
    mu: Fraction
    map_inverse: PolyMap | None = None  # the checked inverse of a raw map
    _d: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def inverse_steps(self) -> tuple:
        """expansion(invert_word(phi)) of a word phi, identity to inverse.
        TypeError for a raw map, which has no generator word."""
        if not isinstance(self.phi, AutWord):
            raise TypeError("a raw map has no generator word to invert; "
                            "its Delta_i come from delta_derivation")
        return tuple(expansion(invert_word(self.phi)))

    @cached_property
    def inverse(self) -> PolyMap | None:
        """The inverse map; None for a raw map certified without one."""
        if isinstance(self.phi, AutWord):
            return PolyMap(self.m.n, self.inverse_steps[-1])
        return self.map_inverse

    def d(self, w1: WeightVector) -> WeightVector:
        """deg2_weights(m, w1), kept per w1."""
        if w1 not in self._d:
            self._d[w1] = deg2_weights(self.m, w1)
        return self._d[w1]


def certify(phi: AutWord | PolyMap | Certified,
            inverse: PolyMap | None = None) -> Certified:
    """The Certified of phi (a Certified is returned unchanged).  A raw map
    F must pass jacobian_constant, and a supplied inverse G must give
    G o F = id (InverseMismatch otherwise).  One order suffices: then
    F*: p |-> p o F is a surjective endomorphism of the Noetherian ring
    Q[x], the kernels of its powers form an ascending chain that stabilises,
    so F* is injective too, hence bijective, and F o G = id follows."""
    if inverse is not None and not isinstance(phi, PolyMap):
        raise ValueError("a word or a Certified carries its own inverse")
    if isinstance(phi, Certified):
        return phi
    if isinstance(phi, AutWord):
        return Certified(phi, expand(phi), word_jacobian(phi))
    mu = jacobian_constant(phi)
    if inverse is not None and not compose_map(inverse, phi).is_identity():
        raise InverseMismatch("supplied inverse does not invert the map")
    return Certified(phi, phi, mu, inverse)


def deg2_weights(m: PolyMap, w1: WeightVector) -> WeightVector:
    """The weights d_i = wdeg(f_i, w1) of the degree induced by the map.

    Every coordinate must have positive weighted degree (in particular be
    nonzero and nonconstant), which holds for every automorphism.
    """
    if len(w1) != m.n:
        raise ValueError("weight vector length does not match map")
    ds = []
    for i, c in enumerate(m.coords, start=1):
        if c.is_zero():
            raise ValueError(f"coordinate {i} is zero")
        d = wdeg(c, w1)
        if d <= 0:
            raise ValueError(f"coordinate {i} has nonpositive degree {d}")
        ds.append(d)
    return WeightVector(tuple(ds))


# -- text formats -----------------------------------------------------------


def format_word(word: AutWord) -> str:
    lines = []
    for g in word.gens:
        if isinstance(g, Elementary):
            lines.append(f"E {g.target} {format_poly(g.addend)}")
        elif isinstance(g, Transposition):
            lines.append(f"T {g.i} {g.j}")
        else:
            entries = " ".join(format_rational(a) for row in g.matrix for a in row)
            shift = " ".join(map(format_rational, g.shift))
            lines.append(f"A {entries} | {shift}")
    return "\n".join(lines)


def _lines(text: str):
    """Yield (k, start, line) for each nonblank line: its number k from 1,
    blank lines counted, the offset of its first character in text, and its
    stripped text.  A line ends at a str.splitlines boundary or at a ';'."""
    k = start = 0
    for physical in text.splitlines(keepends=True):
        for piece in physical.split(";"):
            k += 1
            if piece.strip():
                yield k, start + len(piece) - len(piece.lstrip()), piece.strip()
            start += len(piece) + 1
        start -= 1  # no ';' follows the last piece


def _variable_count(n: int) -> int:
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"the variable count must lie in 1..{MAX_VARIABLES}, got {n}")
    return n


def _in_line(k: int, offset: int, read, text: str, *args):
    """read(text, *args) of polynomial text at offset in line k: a
    PolyParseError names the line and its position in the whole input."""
    try:
        return read(text, *args)
    except PolyParseError as err:
        raise PolyParseError(f"line {k}: {err.message}", offset + err.position) from None


def _at_line(k: int, build, *args):
    """build(*args) for line k: a ValueError it raises names the line (a
    PolyParseError names it already, see _in_line)."""
    try:
        return build(*args)
    except PolyParseError:
        raise
    except ValueError as err:
        raise type(err)(f"line {k}: {err}") from None


def _word_line(k: int, start: int, line: str, infer: bool):
    """The largest index word line k names (an E target and every variable
    of its polynomial, read off the token list that its parse reads, the T
    indices, the side of an A matrix, which must be square while inferring)
    and the function from n to its generator."""
    kind, _, rest = line.partition(" ")
    if kind == "E":
        idx_str, _, poly_str = rest.strip().partition(" ")
        if not _UINT.fullmatch(idx_str):
            raise ValueError(f"bad elementary target in {line!r}")
        target = read_uint(idx_str)
        offset = start + len(line) - len(poly_str)  # poly_str ends the line
        tokens = _in_line(k, offset, _tokenize, poly_str)
        top = max([target, *_variable_indices(tokens)])
        return top, lambda n: Elementary(
            target, _in_line(k, offset, parse_poly, poly_str, n, tokens))
    if kind == "T":
        parts = rest.split()
        if len(parts) != 2 or not all(map(_UINT.fullmatch, parts)):
            raise ValueError(f"bad transposition line {line!r}")
        i, j = map(read_uint, parts)
        return max(i, j), lambda n: Transposition(i, j, n)
    if kind == "A":
        body, _, shift_str = rest.partition("|")
        entries = [parse_fraction(tok) for tok in body.split()]
        shift = tuple(parse_fraction(tok) for tok in shift_str.split())
        side = math.isqrt(len(entries))
        if infer and (side < 1 or side * side != len(entries)):
            raise ValueError("affine line does not contain a square matrix")

        def affine(n):
            if len(entries) != n * n or len(shift) != n:
                raise ValueError(f"affine line needs {n * n} matrix entries and {n} shifts")
            return Affine(tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n)), shift)

        return side, affine
    raise ValueError(f"unknown generator line {line!r}")


def parse_word(text: str, n: int | None = None) -> AutWord:
    """Parse the one-generator-per-line word format, each line classified
    once.  n, when None, is the largest index the lines name.  An error in
    a line, read or built, names the line."""
    lines = [(k, *_at_line(k, _word_line, k, start, line, n is None))
             for k, start, line in _lines(text)]
    n = _variable_count(max((top for _, top, _ in lines), default=0) if n is None else n)
    return AutWord(n, tuple(_at_line(k, generator, n) for k, _, generator in lines))


def format_map(m: PolyMap) -> str:
    return "\n".join(format_poly(c) for c in m.coords)


def parse_map(text: str, n: int | None = None) -> PolyMap:
    """Parse one polynomial per line; n, when None, is the number of nonblank
    lines.  An error in a line names the line."""
    lines = list(_lines(text))
    if n is None and not lines:
        raise ValueError("empty map input")
    n = _variable_count(len(lines) if n is None else n)
    if len(lines) != n:
        raise ValueError(f"expected {n} coordinate lines, got {len(lines)}")
    return PolyMap(n, tuple(_at_line(k, _in_line, k, start, parse_poly, line, n)
                            for k, start, line in lines))
