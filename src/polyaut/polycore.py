"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored as a mapping from exponent
tuples to nonzero Fraction coefficients, so every operation is exact and
identity testing is reliable.  On top of the ring operations the module
provides positive weighted homogeneous (p.w.h.) degree functions: a weight
vector (w1,..,wn) with all wi > 0 assigns the degree a1*w1 + .. + an*wn to
the monomial x1^a1 .. xn^an, the degree of a polynomial is the maximum over
its support, and deg(0) = -infinity.  The leading term of a polynomial is
the sum of its monomials of maximal weighted degree.

Also here: formal partial derivatives, substitution of a tuple of
polynomials (composition with a polynomial map) and the Jacobian
determinant j(P1,..,Pn) = det(dPi/dxj).

Variable indices in the public API are 1-based, matching the x1..xn naming
of the text grammar; exponent tuples are plain 0-based Python tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

Exponent = tuple  # tuple[int, ...], one entry per variable


class _MinusInfinity:
    """Degree of the zero polynomial; smaller than every rational."""

    __slots__ = ()

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return other is not MINUS_INFINITY

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is MINUS_INFINITY

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self

    def __sub__(self, other):
        return self


MINUS_INFINITY = _MinusInfinity()

#: A weighted degree: an exact rational, or MINUS_INFINITY for the zero polynomial.
WDegree = Union[Fraction, _MinusInfinity]


class PolyParseError(ValueError):
    """Syntax or range error while parsing polynomial text; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class WeightVector:
    """Positive rational weights (w1,..,wn) defining a p.w.h. degree."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if not ws:
            raise ValueError("weight vector must be nonempty")
        if any(w <= 0 for w in ws):
            raise ValueError(f"weights must be positive, got {ws}")
        object.__setattr__(self, "weights", ws)

    @staticmethod
    def standard(n: int) -> "WeightVector":
        return WeightVector((Fraction(1),) * n)

    @property
    def n(self) -> int:
        return len(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        """Weight of x_i, 1-based."""
        if not 1 <= i <= len(self.weights):
            raise IndexError(f"variable index {i} out of range 1..{len(self.weights)}")
        return self.weights[i - 1]

    def __iter__(self):
        return iter(self.weights)

    def is_standard(self) -> bool:
        return all(w == 1 for w in self.weights)

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


class Polynomial:
    """A sparse exact polynomial: {exponent tuple: nonzero Fraction}.

    Instances are immutable by convention: no method mutates self, and the
    terms dict must not be modified by callers.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n < 1:
            raise ValueError("variable count must be >= 1")
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != n:
                    raise ValueError(f"monomial {mono} has wrong length for n={n}")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(mono)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(c, n: int) -> "Polynomial":
        return Polynomial(n, {(0,) * n: Fraction(c)})

    @staticmethod
    def variable(i: int, n: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        exp = [0] * n
        exp[i - 1] = 1
        return Polynomial(n, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(exponents: Sequence[int], coeff, n: int) -> "Polynomial":
        return Polynomial(n, {tuple(exponents): Fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self.terms)

    def constant_value(self) -> Fraction:
        """Coefficient of the constant monomial (0 if absent)."""
        return self.terms.get((0,) * self.n, Fraction(0))

    def coeff(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def total_degree(self):
        """Standard total degree; MINUS_INFINITY for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(mono) for mono in self.terms)

    def involves(self, i: int) -> bool:
        """True if x_i (1-based) occurs in some term."""
        return any(mono[i - 1] > 0 for mono in self.terms)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError(f"variable-count mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.n)
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, Fraction(0)) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.n)
            return Polynomial(self.n, {m: co * c for m, co in self.terms.items()})
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.n)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(mono, Fraction(0)) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "Polynomial":
        return self * Fraction(c)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({self.n}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# -- weighted degrees and leading terms -----------------------------------


def wdeg(p: Polynomial, w: WeightVector) -> WDegree:
    """Weighted degree of p: max over the support of sum(a_i * w_i).

    Returns MINUS_INFINITY exactly for the zero polynomial.
    """
    if len(w) != p.n:
        raise ValueError("weight vector length does not match variable count")
    if not p.terms:
        return MINUS_INFINITY
    ws = w.weights
    return max(sum(e * wi for e, wi in zip(mono, ws)) for mono in p.terms)


def leading_term(p: Polynomial, w: WeightVector) -> Polynomial:
    """Sum of the terms of p of maximal weighted degree; 0 for p = 0.

    The result is weighted homogeneous, and the operation is idempotent.
    """
    if not p.terms:
        return p
    ws = w.weights
    degs = {mono: sum(e * wi for e, wi in zip(mono, ws)) for mono in p.terms}
    top = max(degs.values())
    return Polynomial(p.n, {m: c for m, c in p.terms.items() if degs[m] == top})


def homogeneous_component(p: Polynomial, w: WeightVector, degree) -> Polynomial:
    """The w-homogeneous part of p of the given weighted degree (may be 0)."""
    ws = w.weights
    return Polynomial(
        p.n,
        {
            m: c
            for m, c in p.terms.items()
            if sum(e * wi for e, wi in zip(m, ws)) == degree
        },
    )


def is_homogeneous(p: Polynomial, w: WeightVector) -> bool:
    """True if all terms of p share one weighted degree (vacuously for 0)."""
    ws = w.weights
    degs = {sum(e * wi for e, wi in zip(m, ws)) for m in p.terms}
    return len(degs) <= 1


# -- calculus --------------------------------------------------------------


def partial(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative dp/dx_i (1-based index)."""
    if not 1 <= i <= p.n:
        raise IndexError(f"variable index {i} out of range 1..{p.n}")
    k = i - 1
    out = {}
    for mono, coeff in p.terms.items():
        e = mono[k]
        if e == 0:
            continue
        new = list(mono)
        new[k] = e - 1
        out[tuple(new)] = coeff * e
    return Polynomial(p.n, out)


def compose(p: Polynomial, coords) -> Polynomial:
    """Substitute coords[i-1] for x_i in p, exactly.

    coords may be a sequence of Polynomials or anything with a .coords
    attribute (a polynomial map); all must share p's variable count.
    """
    cs = list(getattr(coords, "coords", coords))
    if len(cs) != p.n:
        raise ValueError(f"expected {p.n} coordinates, got {len(cs)}")
    if not cs:
        raise ValueError("empty coordinate list")
    m = cs[0].n
    for c in cs:
        if c.n != m:
            raise ValueError("coordinates have inconsistent variable counts")
    # Per-variable power cache: powers[i][k] = coords[i] ** k.
    powers = [[Polynomial.constant(1, m)] for _ in range(p.n)]
    result = Polynomial.zero(m)
    for mono, coeff in sorted(p.terms.items()):
        term = Polynomial.constant(coeff, m)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * cs[i])
            term = term * cache[e]
        result = result + term
    return result


def jacobian(ps: Sequence[Polynomial]) -> Polynomial:
    """Jacobian determinant det(dP_i/dx_j) of n polynomials in n variables."""
    ps = list(ps)
    if not ps:
        raise ValueError("empty polynomial list")
    n = ps[0].n
    if len(ps) != n:
        raise ValueError(f"need exactly {n} polynomials, got {len(ps)}")
    for p in ps:
        if p.n != n:
            raise ValueError("variable-count mismatch in jacobian input")
    rows = [[partial(p, j) for j in range(1, n + 1)] for p in ps]
    return _det(rows, list(range(n)))


def _det(rows, cols):
    """Determinant by expansion along the first remaining row."""
    if len(cols) == 1:
        return rows[len(rows) - len(cols)][cols[0]]
    r = len(rows) - len(cols)
    acc = Polynomial.zero(rows[0][0].n)
    for k, c in enumerate(cols):
        entry = rows[r][c]
        if not entry.is_zero():
            term = entry * _det(rows, cols[:k] + cols[k + 1 :])
            acc = acc - term if k % 2 else acc + term
    return acc


def _rref(matrix):
    """Reduced row echelon form of a matrix of Fractions, by Gauss-Jordan
    elimination with the first nonzero entry of each column as pivot.

    Returns (rows, pivots, det): the reduced rows as new lists, the pivot
    column of each nonzero reduced row, and, when there are at least as many
    columns as rows, the determinant of the leading square block: the
    product of the pivots with the sign of the row swaps, or 0 when one of
    its columns has no pivot.  This is the one row elimination of the
    library: determinants, inverses (of [M | I]), nullspaces and span
    membership all read off its result.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pivot_row = rows[r]
        pivot = pivot_row[c]
        det *= pivot
        # Zero entries are skipped: they are most of a sparse matrix, and
        # every entry left of c in the pivot row is zero.
        if pivot != 1:
            pivot_row = rows[r] = [a / pivot if a else a for a in pivot_row]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], pivot_row)]
        pivots.append(c)
    return rows, pivots, det


# -- text grammar ----------------------------------------------------------
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ['^' UINT]
# atom   := UINT ['/' UINT] | 'x' UINT | '(' expr ')'
#
# Whitespace is insignificant.  Variables are x1..xn (multi-digit indices
# allowed, e.g. x12); rational literals are written p/q.


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_char(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect_char(self, ch: str):
        if not self.take_char(ch):
            raise PolyParseError(f"expected '{ch}'", self.pos)

    def take_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected an integer", start)
        return int(self.text[start : self.pos])


class _Parser:
    def __init__(self, text: str, n: int):
        self.tok = _Tokenizer(text)
        self.n = n

    def parse(self) -> Polynomial:
        p = self._expr()
        self.tok._skip_ws()
        if self.tok.pos != len(self.tok.text):
            raise PolyParseError("unexpected trailing input", self.tok.pos)
        return p

    def _expr(self) -> Polynomial:
        negate = self.tok.take_char("-")
        p = self._term()
        if negate:
            p = -p
        while True:
            if self.tok.take_char("+"):
                p = p + self._term()
            elif self.tok.take_char("-"):
                p = p - self._term()
            else:
                return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while self.tok.take_char("*"):
            p = p * self._factor()
        return p

    def _factor(self) -> Polynomial:
        base = self._atom()
        if self.tok.take_char("^"):
            return base ** self.tok.take_uint()
        return base

    def _atom(self) -> Polynomial:
        ch = self.tok.peek()
        if ch is None:
            raise PolyParseError("unexpected end of input", self.tok.pos)
        if ch == "(":
            self.tok.expect_char("(")
            p = self._expr()
            self.tok.expect_char(")")
            return p
        if ch == "x":
            pos = self.tok.pos
            self.tok.expect_char("x")
            idx = self.tok.take_uint()
            if not 1 <= idx <= self.n:
                raise PolyParseError(
                    f"variable x{idx} out of range for n={self.n}", pos
                )
            return Polynomial.variable(idx, self.n)
        if ch.isdigit():
            num = self.tok.take_uint()
            if self.tok.take_char("/"):
                den_pos = self.tok.pos
                den = self.tok.take_uint()
                if den == 0:
                    raise PolyParseError("zero denominator", den_pos)
                return Polynomial.constant(Fraction(num, den), self.n)
            return Polynomial.constant(num, self.n)
        raise PolyParseError(f"unexpected character {ch!r}", self.tok.pos)


def parse_poly(text: str, n: int) -> Polynomial:
    """Parse polynomial text (grammar above) into canonical sparse form."""
    return _Parser(text, n).parse()


def parse_fraction(text: str) -> Fraction:
    """Parse a rational literal such as 3, -1/2 or 0.25; ValueError when it
    is malformed or has a zero denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_poly(p: Polynomial, var: str = "x") -> str:
    """Render p with terms in descending lexicographic monomial order.

    Round-trips through parse_poly for var='x'.
    """
    if not p.terms:
        return "0"
    parts = []
    for mono in sorted(p.terms, reverse=True):
        coeff = p.terms[mono]
        factors = [
            f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}"
            for i, e in enumerate(mono)
            if e > 0
        ]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)
