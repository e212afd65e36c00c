"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in n variables x1..xn is stored as integer numerators over one
common denominator.  Each exponent vector (a1,..,an) is packed into one int
of n fixed-width fields of FIELD_BITS = 64 bits, x1 in the most significant
field: adding two packed exponents multiplies the monomials, and integer
order on packed exponents is lexicographic order on the vectors.  A
Polynomial holds a dict from packed exponents to nonzero int numerators and
one positive int denominator den, reduced so that gcd(den, all numerators)
is 1 (den is 1 for the zero polynomial).  That form is canonical, so
equality and hashing compare it directly, and the ring operations,
substitution, derivatives, weighted degrees and formatting run on ints
alone.  Fraction appears only at the API: every scalar taken is an int or
a Fraction (_ratio), coefficients are returned as Fractions, and .terms is
a read-only {exponent tuple: Fraction} view.

Exponents range over 0..MAX_EXPONENT = 2^32 - 1, so every field keeps 32
bits of headroom: neither a sum of two exponents nor a weighted sum whose
int weights add up to at most 2^32 + 1 carries into the next field.  An
exponent past MAX_EXPONENT in such a sum sets a guard bit (_overflow_mask),
tested where exponents are formed (products, popped division terms, terms
of text) to raise ExponentOverflow (a ValueError), as does p ** k when k
times p's degree (1 for a constant) passes MAX_EXPONENT.  A power whose
coefficients could need more than MAX_COEFFICIENT_BITS bits raises
ResourceCapExceeded.  The headroom also leaves the top bit of each field
free, so the field-wise maximum of packed exponents (_join), the
exponent of their lcm and p's degree in each variable, is a borrow test
on whole words.

On top of the ring operations the module provides positive weighted
homogeneous (p.w.h.) degree functions: a weight vector (w1,..,wn) with all
wi > 0 assigns the degree a1*w1 + .. + an*wn to the monomial
x1^a1 .. xn^an, the degree of a polynomial is the maximum over its support,
and deg(0) = -infinity.  The leading term of a polynomial is the sum of its
monomials of maximal weighted degree.  Scaled to ints, a monomial's degree
is one linear form of its packed exponent, which each WeightVector builds
once (_scaled_degrees).  total_degree is that degree under the standard
weights.

Also here: formal partial derivatives, substitution of a tuple of
polynomials (composition with a polynomial map) and the Jacobian
determinant j(P1,..,Pn) = det(dPi/dxj), within MAX_DET_STEPS steps.  Every
product (+, -, *, compositions, affine coordinates, derivations applied,
chain-rule columns, cofactor rows, determinants) is accumulated by
linear_combination, into one dict of numerators over one denominator, and
every power (p ** k, a coordinate's powers in a substitution) comes from
_power, which keeps the powers it forms in a memo owned by one call.

Variable indices in the public API are 1-based, matching the x1..xn naming
of the text grammar; exponent tuples are plain 0-based Python tuples.
"""

from __future__ import annotations

import functools
import re
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul, or_
from typing import Callable, Sequence, Union

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
    """Syntax or range error while parsing polynomial text; carries the bare
    message and the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


FIELD_BITS = 64
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_EXPONENT = (1 << 32) - 1
#: The largest variable count autmap.parse_word and parse_map accept, given
#: or inferred.  Every packed exponent has FIELD_BITS bits per variable and
#: an identity map has one coordinate per variable, so an unbounded count (a
#: word naming x99999999999) would ask for unbounded memory.
MAX_VARIABLES = 64


@dataclass(frozen=True)
class WeightVector:
    """Positive rational weights (w1,..,wn) defining a p.w.h. degree.

    Two forms are computed once here for the degree functions and the
    monomial orders.  _int_form is (s, ws): s the least common denominator
    and ws the weights times s.  _form maps a packed exponent a to its
    scaled degree sum(a_i * ws_i).  When sum(ws) <= FIELD_MASK //
    MAX_EXPONENT = 2^32 + 1 it is one int multiply: with W = sum(ws_i <<
    FIELD_BITS * (i - 1)), ws in reverse field order, every field of a * W
    is a sum of products a_i * ws_j over one diagonal, at most
    MAX_EXPONENT * sum(ws), so none carries and the form is the middle
    field.  For larger weights it unpacks a and sums."""

    weights: tuple
    _int_form: tuple = field(init=False, repr=False, compare=False)
    _form: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = tuple(map(_fraction, self.weights))
        if not ws:
            raise ValueError("weight vector must be nonempty")
        if any(w.numerator <= 0 for w in ws):
            raise ValueError(f"weights must be positive, got {ws}")
        object.__setattr__(self, "weights", ws)
        s, ints = _int_weights(ws)
        object.__setattr__(self, "_int_form", (s, ints))
        if sum(ints) <= FIELD_MASK // MAX_EXPONENT:
            dot = sum(w << FIELD_BITS * i for i, w in enumerate(ints))
            shift = FIELD_BITS * (len(ints) - 1)
            form = lambda a: a * dot >> shift & FIELD_MASK
        else:
            unpack = _unpacker(len(ints))
            form = lambda a: sum(map(mul, unpack(a), ints))
        object.__setattr__(self, "_form", form)

    @staticmethod
    @functools.lru_cache(maxsize=MAX_VARIABLES)
    def standard(n: int) -> "WeightVector":
        return WeightVector((Fraction(1),) * n)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        """Weight of x_i, 1-based."""
        if not 1 <= i <= len(self.weights):
            raise IndexError(f"variable index {i} out of range 1..{len(self.weights)}")
        return self.weights[i - 1]

    def __iter__(self):
        return iter(self.weights)

    def total(self) -> Fraction:
        s, ints = self._int_form
        return Fraction(sum(ints), s)


class ExponentOverflow(ValueError):
    """An exponent exceeds MAX_EXPONENT, the largest one a packed exponent may hold."""


class ResourceCapExceeded(RuntimeError):
    """A work budget ran out: groebner.MAX_S_PAIRS,
    groebner.MAX_DIVISION_STEPS, groebner.MAX_ORACLE_MONOMIALS,
    MAX_DET_STEPS, MAX_COEFFICIENT_BITS, or the interpreter's limit on the
    digits of a number printed by format_rational (_digit_limit)."""


#: The most bits a coefficient of a power p^k may need.  For p with T terms,
#: integer numerators num over den, every coefficient of p^k is a numerator
#: of at most (T * max|num|)^k over den^k, so __pow__, parse_poly's power
#: of a literal, and _power before it squares its way up to a power, bound
#: its size by k * ceil(log2(T * max|num| * den)) and raise
#: ResourceCapExceeded past the cap: 3^4000000 (8000000 bits) is refused,
#: and 0, 1, -1 and monomials with coefficient 1 need 0 bits.  The cap also
#: bounds the gcd that makes a coefficient canonical, whose time grows with
#: the square of its size: 3/2^1398101 (4194303 bits), whose gcd took
#: seconds, is refused.
MAX_COEFFICIENT_BITS = 1 << 20


def _check_coefficient_bits(p: "Polynomial", k: int):
    """ResourceCapExceeded when a coefficient of p^k could need more than
    MAX_COEFFICIENT_BITS bits (the bound above)."""
    nums = p._nums.values()
    _check_power_size(max(len(nums), 1) * max(map(abs, nums), default=1) * p.den, k)


def _check_power_size(size: int, k: int):
    """ResourceCapExceeded when k * ceil(log2(size)) passes MAX_COEFFICIENT_BITS."""
    if k * (size - 1).bit_length() > MAX_COEFFICIENT_BITS:
        raise ResourceCapExceeded(f"the coefficients of a power to {k} could need "
                                  f"more than {MAX_COEFFICIENT_BITS} bits")


@functools.cache
def _layout(n: int) -> struct.Struct:
    """n exponents as big-endian unsigned FIELD_BITS-bit fields."""
    return struct.Struct(f">{n}Q")


def _pack(mono, n: int) -> int:
    """The packed form of an exponent tuple of length n."""
    try:
        packed = int.from_bytes(_layout(n).pack(*mono), "big")
    except struct.error:
        pass
    else:
        if max(mono) <= MAX_EXPONENT:
            return packed
    if len(mono) != n:
        raise ValueError(f"monomial {mono} has wrong length for n={n}")
    if all(isinstance(e, int) and e >= 0 for e in mono):
        _check_exponents(mono)
    raise ValueError(f"monomial {mono} needs nonnegative integer exponents")


@functools.cache
def _unpacker(n: int):
    """The function from a packed exponent to its exponent tuple."""
    unpack = _layout(n).unpack
    size = n * FIELD_BITS // 8
    return lambda key: unpack(key.to_bytes(size, "big"))


def _check_exponents(exponents):
    """ExponentOverflow naming the largest exponent when it does not fit a field."""
    top = max(exponents)
    if top > MAX_EXPONENT:
        raise ExponentOverflow(
            f"exponent {top} exceeds the largest exponent {MAX_EXPONENT}")


@functools.cache
def _overflow_mask(n: int) -> int:
    """The bits of n packed fields above MAX_EXPONENT: a sum of two in-range
    packed exponents carries into no field, so it has an exponent past
    MAX_EXPONENT iff one of these guard bits is set."""
    return sum((FIELD_MASK ^ MAX_EXPONENT) << FIELD_BITS * i for i in range(n))


@functools.cache
def _top_bits(n: int) -> int:
    """The top bit of each of n packed fields, above every exponent and
    every sum of two: the borrow test of _join and groebner._divides."""
    return sum(1 << FIELD_BITS * (i + 1) - 1 for i in range(n))


def _join(keys, n: int) -> int:
    """The field-wise maximum of packed exponents on n variables (0 for
    none), the exponent of their lcm.  A field of (a | H) - b, for H the
    top bits (_top_bits), keeps its top bit iff a_i >= b_i and borrows
    from no other field, so each field is picked from a or b whole."""
    high = _top_bits(n)
    out = 0
    for a in keys:
        pick = ((out | high) - a & high) >> FIELD_BITS - 1
        out = a ^ (out ^ a) & pick * FIELD_MASK
    return out


def _sum_operator(a: int, b: int):
    """The ring operator (self, other) |-> a*self + b*other, one linear_combination."""

    def operator(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        if not isinstance(other, Polynomial):
            other = _constant(other, self.n)
        return linear_combination(((a, self), (b, other)), self.n)

    return operator


class Polynomial:
    """A sparse exact polynomial in n variables: int numerators over one
    positive int denominator.

    _nums maps packed exponents (one FIELD_BITS = 64-bit field per
    variable, x1 most significant) to nonzero ints, and den > 0 with
    gcd(den, all numerators) == 1, den == 1 for zero: the canonical form,
    compared directly by == and hash, and all a Polynomial holds.  Every
    exponent is at most MAX_EXPONENT (see _overflow_mask).

    Polynomial(n, terms) takes a {exponent tuple: int or Fraction} mapping,
    checked by _ratio; .terms reads it back as a {exponent tuple: Fraction}
    view.  Instances are immutable.
    """

    __slots__ = ("n", "den", "_nums")

    def __init__(self, n: int, terms: Mapping[Exponent, Fraction] | None = None):
        _check_n(n)
        ratios = {}
        if terms:
            for mono, coeff in terms.items():
                key = _pack(mono, n)
                num, d = _ratio(coeff)
                if num:
                    ratios[key] = num, d
        den = lcm(*(d for _, d in ratios.values()))
        nums = {k: num * (den // d) for k, (num, d) in ratios.items()}
        _init(self, n, nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping:
        """Read-only {exponent tuple: Fraction} view of the nonzero terms."""
        return _TermsView(self)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "Polynomial":
        _check_n(n)
        return _poly(n, {}, 1)

    @staticmethod
    def constant(c, n: int) -> "Polynomial":
        _check_n(n)
        return _constant(c, n)

    @staticmethod
    def variable(i: int, n: int) -> "Polynomial":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        return _poly(n, {1 << (FIELD_BITS * (n - i)): 1}, 1)

    @staticmethod
    def monomial(exponents: Sequence[int], coeff, n: int) -> "Polynomial":
        _check_n(n)
        exponents = tuple(exponents)
        key = _pack(exponents, n)
        num, den = _ratio(coeff)
        return _poly(n, {key: num} if num else {}, den)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return self._nums.keys() <= {0}

    def constant_value(self) -> Fraction:
        """Coefficient of the constant monomial (0 if absent)."""
        return Fraction(self._nums.get(0, 0), self.den)

    def coeff(self, exponents: Sequence[int]) -> Fraction:
        """Coefficient of the monomial with these exponents: 0 if absent,
        as for an exponent past MAX_EXPONENT, which no term has.  Like
        monomial, raises ValueError for a tuple of the wrong length or an
        exponent that is not a nonnegative int."""
        try:
            key = _pack(tuple(exponents), self.n)
        except ExponentOverflow:
            return Fraction(0)
        return Fraction(self._nums.get(key, 0), self.den)

    def support(self):
        """Iterator over the exponent tuples of the nonzero terms."""
        return map(_unpacker(self.n), self._nums)

    def total_degree(self):
        """Standard total degree; MINUS_INFINITY for the zero polynomial."""
        if not self._nums:
            return MINUS_INFINITY
        return max(_scaled_degrees(self, WeightVector.standard(self.n))[1].values())

    def involves(self, i: int) -> bool:
        """True if x_i (1-based) occurs in some term."""
        shift = FIELD_BITS * (self.n - i)
        return any(key >> shift & FIELD_MASK for key in self._nums)

    # -- ring operations ---------------------------------------------------

    __add__ = __radd__ = _sum_operator(1, 1)
    __sub__ = _sum_operator(1, -1)
    __rsub__ = _sum_operator(-1, 1)

    def __neg__(self):
        return _poly(self.n, {k: -c for k, c in self._nums.items()}, self.den)

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return linear_combination(((other, self),), self.n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        # A constant counts as degree 1: no field bounds c^k, whose
        # coefficient grows without bound.
        _check_exponents([max(1, *_unpacker(self.n)(_join(self._nums, self.n))) * k])
        _check_coefficient_bits(self, k)
        if not k:
            return _constant(1, self.n)
        return _power({1: self}, k)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self._nums == other._nums

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self._nums.items())))

    def __repr__(self):
        return f"Polynomial({self.n}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


_new = object.__new__
_set = object.__setattr__


def _init(p: Polynomial, n: int, nums: dict, den: int):
    _set(p, "n", n)
    _set(p, "den", den)
    _set(p, "_nums", nums)


def _poly(n: int, nums: dict, den: int) -> Polynomial:
    """The trusted constructor: nums and den are already in canonical form."""
    p = _new(Polynomial)
    _init(p, n, nums, den)
    return p


def _canon(n: int, nums: dict, den: int) -> Polynomial:
    """The trusted constructor for nums without zero values over den > 0, not
    yet reduced."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: c // g for k, c in nums.items()}
    return _poly(n, nums, den)


def _check_n(n: int):
    if n < 1:
        raise ValueError("variable count must be >= 1")


def _ratio(c):
    """(numerator, denominator > 0) of a scalar: the one scalar check, an
    int or a Fraction, and TypeError for anything else (a float, a str)."""
    if isinstance(c, int):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"a scalar must be an int or a Fraction, not {type(c).__name__}")


def _fraction(c) -> Fraction:
    """A scalar as a Fraction: one whose class is exactly Fraction is kept
    as it is, an int is converted, and any other is built from _ratio
    (TypeError for a non-scalar)."""
    if c.__class__ is Fraction:
        return c
    if c.__class__ is int:
        return Fraction(c)
    return Fraction(*_ratio(c))


def _constant(c, n: int) -> Polynomial:
    num, den = _ratio(c)
    return _poly(n, {0: num} if num else {}, den)


#: The operand types of +, - and *, on either side: anything else gives
#: NotImplemented, so Python raises TypeError.
_OPERANDS = (Polynomial, int, Fraction)


class _TermsView(Mapping):
    """Read-only {exponent tuple: Fraction} view of a Polynomial's terms.

    len() and membership tests build no Fraction.
    """

    __slots__ = ("_p",)

    def __init__(self, p: Polynomial):
        self._p = p

    def __len__(self):
        return len(self._p._nums)

    def __iter__(self):
        return self._p.support()

    def _key(self, mono):
        try:
            return _pack(mono, self._p.n)
        except (TypeError, ValueError):
            return None

    def __contains__(self, mono):
        return self._key(mono) in self._p._nums

    def __getitem__(self, mono) -> Fraction:
        num = self._p._nums.get(self._key(mono))
        if num is None:
            raise KeyError(mono)
        return Fraction(num, self._p.den)

    def __repr__(self):
        return repr(dict(self.items()))


# -- weighted degrees and leading terms -----------------------------------


def _int_weights(weights):
    """(s, ints): s the least common denominator of the rational weights
    and ints the tuple of the weights times s."""
    s, ints = _int_row(weights)
    return s, tuple(ints)


def _scaled_degrees(p: Polynomial, w: WeightVector):
    """(s, {packed exponent: s * weighted degree}) with s the least common
    denominator of the weights, so that every degree is an int: the
    weight vector's own linear form (WeightVector._form) of each packed
    exponent."""
    if len(w) != p.n:
        raise ValueError("weight vector length does not match variable count")
    form = w._form
    return w._int_form[0], {key: form(key) for key in p._nums}


def wdeg(p: Polynomial, w: WeightVector) -> WDegree:
    """Weighted degree of p: max over the support of sum(a_i * w_i).

    Returns MINUS_INFINITY exactly for the zero polynomial.
    """
    s, degs = _scaled_degrees(p, w)
    if not degs:
        return MINUS_INFINITY
    return Fraction(max(degs.values()), s)


def leading_term(p: Polynomial, w: WeightVector) -> Polynomial:
    """Sum of the terms of p of maximal weighted degree; 0 for p = 0.

    The result is weighted homogeneous, and the operation is idempotent.
    """
    return _leading(p, w)[2]


def _leading(p: Polynomial, w: WeightVector):
    """(s, s * wdeg(p, w), leading_term(p, w)) from one _scaled_degrees
    pass, s as there; the scaled degree is None for p = 0."""
    s, degs = _scaled_degrees(p, w)
    if not degs:
        return s, None, p
    top = max(degs.values())
    return s, top, _part(p, {k: c for k, c in p._nums.items() if degs[k] == top})


def _part(p: Polynomial, nums: dict) -> Polynomial:
    """The polynomial of some of p's terms, given as a subdict of p's numerators."""
    if len(nums) == len(p._nums):
        return p
    return _canon(p.n, nums, p.den)


def is_homogeneous(p: Polynomial, w: WeightVector) -> bool:
    """True if all terms of p share one weighted degree (vacuously for 0)."""
    return len(set(_scaled_degrees(p, w)[1].values())) <= 1


# -- calculus --------------------------------------------------------------


def partial(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative dp/dx_i (1-based index)."""
    if not 1 <= i <= p.n:
        raise IndexError(f"variable index {i} out of range 1..{p.n}")
    shift = FIELD_BITS * (p.n - i)
    unit = 1 << shift
    out = {}
    for key, c in p._nums.items():
        e = key >> shift & FIELD_MASK
        if e:
            out[key - unit] = c * e
    return _canon(p.n, out, p.den)


def linear_combination(pairs, n: int, divisor: int = 1) -> Polynomial:
    """sum(a * p) / divisor over the (a, p) pairs as a polynomial in n
    variables, each p a Polynomial, each a a Polynomial or a rational, and
    divisor a positive int.

    This is the library's one product of terms: +, -, * and every sum of
    products (compose, affine coordinates, determinants, ...) run through
    it.  A rational a is read as the one-term polynomial at packed exponent
    0, and the factor with fewer terms drives the outer loop.  Every term
    goes straight into one {packed exponent: numerator} dict over one
    common denominator: no product or partial sum is built as a
    Polynomial.  When some a is a Polynomial, a guard bit (_overflow_mask)
    in a key of the sum, cancelled or not, raises ExponentOverflow naming
    the largest exponent of the sum.
    """
    acc: dict = {}
    den = 1
    moved = False
    for a, p in pairs:
        if p.n != n:
            raise ValueError(f"variable-count mismatch: {n} vs {p.n}")
        inner = p._nums.items()
        if isinstance(a, Polynomial):
            if a.n != n:
                raise ValueError(f"variable-count mismatch: {n} vs {a.n}")
            outer, tden = a._nums.items(), a.den * p.den
            moved = True
        else:
            num, tden = (a, 1) if a.__class__ is int else _ratio(a)
            outer, tden = ((0, num),) if num else (), tden * p.den
        if not outer or not inner:
            continue
        if len(outer) > len(inner):
            outer, inner = inner, outer
        # acc / den += a * p, with a * p over the denominator tden
        if den % tden:
            f = tden // gcd(den, tden)
            acc = {k: v * f for k, v in acc.items()}
            den *= f
        scale = den // tden
        rows = iter(outer)
        if not acc:
            # Nothing to collide with yet: the first row is written at once.
            ka, ca = next(rows)
            f = ca * scale
            acc = {ka + kb: f * cb for kb, cb in inner}
        get = acc.get
        for ka, ca in rows:
            f = ca * scale
            for kb, cb in inner:
                k = ka + kb
                acc[k] = get(k, 0) + f * cb
    if moved and functools.reduce(or_, acc, 0) & _overflow_mask(n):
        _check_exponents(_unpacker(n)(_join(acc, n)))
    if 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
    return _canon(n, acc, den * divisor)


def _power(memo: dict, k: int) -> Polynomial:
    """g^k for g = memo[1] and k >= 1, from the powers of g cached in memo
    ({exponent: power}); every power formed on the way is cached there.

    This is the library's one power routine.  A cached power is returned
    as it is, and the power after a cached one takes one product: a walk
    through consecutive powers multiplies once per power.  Any other k
    starts from the largest cached j < k and squares while 2j < k; then
    g^k = g^j * g^(k - j), by the same rule.  From {1: g} that takes no
    more products than left-to-right binary powering, and any k takes
    O(log k) products.  Before it squares, the coefficient budget of g^k
    is checked (MAX_COEFFICIENT_BITS).  A memo lives for one call of its
    owner (one expansion, compose or decompose2), so no power outlives the
    computation that formed it.
    """
    p = memo.get(k)
    if p is None:
        if k - 1 in memo:
            p = memo[k - 1] * memo[1]
        else:
            _check_coefficient_bits(memo[1], k)
            j = max(i for i in memo if i < k)
            while 2 * j < k:
                memo[2 * j] = memo[j] * memo[j]
                j *= 2
            p = memo[j] * (memo[j] if 2 * j == k else _power(memo, k - j))
        memo[k] = p
    return p


def _power_products(exponents, coords, powers=None):
    """Yield prod(coords[i] ** a[i]) for each exponent tuple a, each power
    read from powers[i], the _power memo of coords[i]; no product is
    multiplied by 1.

    powers is a list of memos, one per coordinate, that the caller keeps
    across calls, or None for fresh ones.  A memo whose base is not
    coords[i] is replaced by the memo in the list whose base is coords[i]
    (one a swap of coordinates moved), or else by a fresh one, so a memo
    follows its coordinate and one of another base is never read.
    """
    if powers is None:
        powers = [{1: c} for c in coords]
    else:
        memos = powers[:]
        for i, c in enumerate(coords):
            if memos[i][1] is not c:
                powers[i] = next((m for m in memos if m[1] is c), None) or {1: c}
    one = _constant(1, coords[0].n)
    for a in exponents:
        term = one
        for memo, e in zip(powers, a):
            if e:
                pe = _power(memo, e)
                term = pe if term is one else term * pe
        yield term


def _substitution(p: Polynomial, coords, powers=None):
    """The (numerator, power product) pair of each term of p at coords:
    p(coords) is their linear_combination over p.den.  powers as in
    _power_products."""
    return zip(p._nums.values(),
               _power_products(map(_unpacker(p.n), p._nums), coords, powers))


def compose(p: Polynomial, coords) -> Polynomial:
    """Substitute coords[i-1] for x_i in p, exactly.

    coords is a sequence of p.n Polynomials sharing one variable count.  The
    monomials of p, built by _power_products from the powers of the
    coordinates (one _power memo per coordinate, for this call), are summed
    by linear_combination with p's numerators as the scalars, over p's one
    denominator.
    """
    cs = list(coords)
    if len(cs) != p.n:
        raise ValueError(f"expected {p.n} coordinates, got {len(cs)}")
    m = cs[0].n
    for c in cs:
        if c.n != m:
            raise ValueError("coordinates have inconsistent variable counts")
    return linear_combination(_substitution(p, cs), m, p.den)


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


#: The most expansion steps one determinant may take: a dense k x k matrix
#: takes 1 + k + k(k-1) + .. + k!, 41 at k = 4 and 69281 at k = 8.
MAX_DET_STEPS = 100_000


def _det(rows, cols, steps=None):
    """Determinant by expansion along the first remaining row, skipping zero
    entries; ResourceCapExceeded past MAX_DET_STEPS steps (calls)."""
    if steps is None:
        steps = iter(range(MAX_DET_STEPS))
    if next(steps, None) is None:
        raise ResourceCapExceeded(f"determinant expansion exceeded {MAX_DET_STEPS} steps")
    row = rows[len(rows) - len(cols)]
    if len(cols) == 1:
        return row[cols[0]]
    return linear_combination(
        ((-row[c] if k % 2 else row[c], _det(rows, cols[:k] + cols[k + 1 :], steps))
         for k, c in enumerate(cols) if not row[c].is_zero()),
        row[0].n)


_ZERO = Fraction(0)


def _int_row(row) -> tuple:
    """(l, ints) for a row of scalars: the lcm l of their denominators and
    the row times l, a list of ints; a row of ints is copied as it is.
    This is the one place that scales rows: _rref's, autmap.Affine's and
    the weights' (_int_weights).  TypeError for a non-scalar (_ratio)."""
    types = set(map(type, row))
    if types <= {int}:
        return 1, list(row)
    if not types <= {int, Fraction}:
        row = [Fraction(*_ratio(a)) for a in row]
    l = lcm(*[a.denominator for a in row])
    if l == 1:
        return l, [a.numerator for a in row]
    return l, [a.numerator * (l // a.denominator) for a in row]


def _rref(matrix):
    """Reduced row echelon form of a rational matrix, by Gauss-Jordan
    elimination with the first nonzero entry of each column as pivot.

    Entries are ints or Fractions.  Each row is scaled to ints by the lcm
    of its denominators (_int_row), which leaves the reduced form
    unchanged, and the elimination runs on ints alone
    (fraction-free, after Bareiss): a row is cleared against the pivot row
    by cross-multiplication and divided by the gcd of its entries, and the
    row scalings are kept so that the determinant stays exact.

    Returns (rows, pivots, det): the reduced rows as new lists of ints, the
    pivot column of each nonzero reduced row, and the determinant of a
    square matrix (0 for any other shape; 1 for the empty matrix).  Row
    r < len(pivots) has a nonzero entry at pivots[r], zeros at the other
    pivot columns, and stands for itself divided by that entry; the rows
    after the pivot rows are zero.  This is the one row elimination of the library:
    determinants, affine inverses and shifts ([M | I | s] to
    [I | M^-1 | M^-1 s]), nullspaces and span membership (no pivot in the
    target column of [vectors | target]) all read off its result.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    # det(rows) = det(matrix) * num / den throughout.
    num = den = 1
    rows = []
    for row in matrix:
        l, ints = _int_row(row)
        rows.append(ints)
        num *= l
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            num = -num
        pivot_row = rows[r]
        pivot = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                # row <- (a * row - b * pivot_row) / g with a : b = pivot : f.
                h = gcd(pivot, f)
                a, b = pivot // h, f // h
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    den *= g
                rows[i] = row
                num *= a
        pivots.append(c)
    if nrows == ncols and pivots == list(range(nrows)):
        # A square matrix with a pivot in every column is diagonal now;
        # otherwise it is singular.
        for i in range(nrows):
            den *= rows[i][i]
        det = Fraction(den, num)
    else:
        det = _ZERO
    return rows, pivots, det


# -- text grammar ----------------------------------------------------------
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ['^' UINT]
# atom   := UINT ['/' UINT] | 'x' UINT | '(' expr ')'
#
# Whitespace is insignificant.  UINT is ASCII digits, [0-9]+, in every
# reader of input text.  Variables are x1..xn (multi-digit indices allowed,
# e.g. x12); rational literals are written p/q.  Parentheses nest at most
# MAX_PAREN_DEPTH deep, and a UINT has at most as many digits as the
# interpreter converts to an int (_digit_limit).

_UINT = re.compile(r"[0-9]+")

#: The tokens of polynomial text: a variable ('x', whitespace, UINT), a
#: UINT, or any one character other than whitespace (str.isspace, which is
#: what \s matches).  A token is never whitespace.
_TOKEN = re.compile(r"x\s*[0-9]+|[0-9]+|\S")
_END = " "  # the token after the last: whitespace, so no token of the text

#: The deepest nesting of parentheses parse_poly accepts; a '(' past it is a
#: PolyParseError at that '('.  Each level costs the recursive-descent reader
#: two Python frames, so the bound keeps a parse far below the interpreter's
#: recursion limit, with room left for the callers' own frames.
MAX_PAREN_DEPTH = 100


#: The most digits the interpreter converts between int and str, 0 for no limit.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _tokenize(text: str) -> list:
    """The tokens of text (_TOKEN) in order, then _END; a PolyParseError at
    a UINT of more than _digit_limit() digits, which only a text longer
    than the limit can hold."""
    tokens = _TOKEN.findall(text)
    limit = _digit_limit()
    if 0 < limit < len(text):
        for j, tok in enumerate(tokens):
            if len(tok.lstrip("x").strip()) > limit:
                raise PolyParseError(f"a number of more than {limit} digits", _position(text, j))
    tokens.append(_END)
    return tokens


def _position(text: str, j: int) -> int:
    """Where token j of text starts (its length for _END)."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[j] if j < len(starts) else len(text)


def _variable_indices(tokens: list) -> list:
    """The index of every variable in a token list."""
    return [int(t[1:].lstrip()) for t in tokens if t[0] == "x" and t != "x"]


@functools.cache
def _units(n: int) -> tuple:
    """The packed exponent of x_i at index i, 1..n (index 0 unused)."""
    return (0, *(1 << FIELD_BITS * (n - i) for i in range(1, n + 1)))


class _Reader:
    """Recursive descent over one token list (_tokenize).

    A term without parentheses is collected as it is read: its factors
    multiply an int numerator and denominator and add to one packed
    exponent, and the term goes straight into its expression's
    {packed exponent: numerator} dict over one common denominator, which
    _canon makes canonical once.  Only a parenthesized group, and a power
    of one (Polynomial ** k), is a Polynomial: a term's groups are
    multiplied together, and the expression adds each such product, times
    the term's monomial, in one linear_combination.  Every check runs where
    it did when each atom was a Polynomial combined with *, + and **: a
    power of an atom, and each product of a term's running value with its
    next factor, raise the same ExponentOverflow or ResourceCapExceeded at
    the same point of the text.  A token's position is found only for an
    error message (_position).
    """

    __slots__ = ("text", "tokens", "n", "units", "guard", "i", "depth")

    def __init__(self, text: str, tokens: list, n: int):
        self.text = text
        self.tokens = tokens
        self.n = n
        self.units = _units(n)
        self.guard = _overflow_mask(n)
        self.i = 0
        self.depth = 0

    def error(self, message: str, j: int) -> PolyParseError:
        return PolyParseError(message, _position(self.text, j))

    def uint(self, j: int) -> int:
        tok = self.tokens[j]
        if "0" <= tok[0] <= "9":
            return int(tok)
        raise self.error("expected an integer", j)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.tokens[self.i] != _END:
            raise self.error("unexpected trailing input", self.i)
        return p

    def expr(self) -> Polynomial:
        tokens, n = self.tokens, self.n
        nums = {}
        den = 1
        groups = []  # (monomial, product of groups) of each term with a group
        negate = tokens[self.i] == "-"
        if negate:
            self.i += 1
        while True:
            num, d, key, prod = self.term()
            if num:
                if negate:
                    num = -num
                if prod is not None:
                    groups.append((_canon(n, {key: num}, d), prod))
                else:
                    if den % d:
                        f = d // gcd(den, d)
                        nums = {k: v * f for k, v in nums.items()}
                        den *= f
                    nums[key] = nums.get(key, 0) + num * (den // d)
            tok = tokens[self.i]
            if tok != "+" and tok != "-":
                break
            negate = tok == "-"
            self.i += 1
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        p = _canon(n, nums, den)
        if groups:
            p = linear_combination([(1, p), *groups], n)
        return p

    def term(self):
        """(num, d, key, prod): the term is num / d * x^key * prod, prod the
        product of its groups (None without one), formed once the term is
        read.  After each factor, key plus the packed degrees of the groups
        has a guard bit (_overflow_mask) iff multiplying by that factor
        would pass MAX_EXPONENT.  Once num is 0 the term is 0, and its later
        factors are read and checked but not multiplied: a product with 0
        has no exponents to pass MAX_EXPONENT."""
        tokens = self.tokens
        num = d = 1
        key = degrees = 0
        groups = []
        guard = self.guard
        i = self.i
        while True:
            tok = tokens[i]
            c = tok[0]
            i += 1
            if c == "x":
                if tok == "x":
                    raise self.error("expected an integer", i)
                idx = int(tok[1:].lstrip())
                if not 0 < idx <= self.n:
                    raise self.error(f"variable x{idx} out of range for n={self.n}", i - 1)
                k = 1
                if tokens[i] == "^":
                    k = self.uint(i + 1)
                    i += 2
                    if k > MAX_EXPONENT:
                        _check_exponents([k])
                if num:
                    key += k * self.units[idx]
            elif "0" <= c <= "9":
                a, q = int(tok), 1
                if tokens[i] == "/":
                    q = self.uint(i + 1)
                    if not q:
                        raise PolyParseError("zero denominator", _position(self.text, i) + 1)
                    i += 2
                if tokens[i] == "^":
                    k = self.uint(i + 1)
                    i += 2
                    if k > MAX_EXPONENT:
                        # No field bounds a^k, whose coefficient grows without bound.
                        _check_exponents([k])
                    g = gcd(a, q)
                    a, q = a // g, q // g
                    _check_power_size(a * q if a else 1, k)
                    a, q = a ** k, q ** k
                num *= a
                d *= q
            elif c == "(":
                if self.depth == MAX_PAREN_DEPTH:
                    raise self.error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", i - 1)
                self.depth += 1
                self.i = i
                f = self.expr()
                i = self.i
                if tokens[i] != ")":
                    raise self.error("expected ')'", i)
                self.depth -= 1
                i += 1
                top = _join(f._nums, self.n)
                if tokens[i] == "^":
                    k = self.uint(i + 1)
                    f = f ** k
                    # Over Q, deg_xi(f^k) = k * deg_xi(f), which ** bounded.
                    top *= k
                    i += 2
                if not f._nums:
                    num = 0
                elif num:
                    degrees += top
                    groups.append(f)
            elif tok == _END:
                raise self.error("unexpected end of input", i - 1)
            else:
                raise self.error(f"unexpected character {tok!r}", i - 1)
            if (key + degrees) & guard:
                _check_exponents(_unpacker(self.n)(key + degrees))
            if tokens[i] != "*":
                self.i = i
                prod = functools.reduce(mul, groups) if num and groups else None
                return num, d, key, prod
            i += 1


def parse_poly(text: str, n: int, tokens: list | None = None) -> Polynomial:
    """Parse polynomial text (grammar above) into canonical sparse form.

    tokens, when given, is _tokenize(text), read already by the caller."""
    return _Reader(text, _tokenize(text) if tokens is None else tokens, n).parse()


# rational := ['+'|'-'] (UINT ['/' UINT] | UINT '.' [UINT] | '.' UINT)
_RATIONAL = re.compile(
    r"\s*([+-]?)(?:([0-9]+)(?:/([0-9]+))?|(?=\.?[0-9])([0-9]*)\.([0-9]*))\s*")


class NumberTooLong(ValueError):
    """A number outside polynomial text has more digits than the
    interpreter reads (_digit_limit); its caller names the line or option."""


def read_uint(digits: str) -> int:
    """The int of a UINT outside polynomial text (a word line's index or
    entry, an option): NumberTooLong, with the reader's message (_tokenize),
    past _digit_limit() digits, where int() would refuse it with the
    interpreter's own text."""
    limit = _digit_limit()
    if 0 < limit < len(digits):
        raise NumberTooLong(f"a number of more than {limit} digits")
    return int(digits)


def parse_fraction(text: str) -> Fraction:
    """Parse a rational literal: an integer, p/q or a decimal, optionally
    signed, such as 3, -1/2 or 0.25.  ValueError naming the text when it is
    anything else (exponents such as 1e3 and underscores are refused before
    any number is built) or has a zero denominator; NumberTooLong when a
    number in it is too long (read_uint).  The value is built from the
    match itself, exactly."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational literal {text!r}: "
                         "expected an integer, p/q or a decimal")
    sign, whole, q, ipart, fpart = m.groups()
    if whole is not None:
        num = -read_uint(whole) if sign == "-" else read_uint(whole)
        if q is None:
            return Fraction(num)
        q = read_uint(q)
        if not q:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, q)
    scale = 10 ** len(fpart)
    num = read_uint(ipart or "0") * scale + read_uint(fpart or "0")
    return Fraction(-num if sign == "-" else num, scale)


def format_rational(num, den: int = 1, noun: str = "a coefficient") -> str:
    """The text of the rational num / den: str(num) when den is 1 (num an
    int, a Fraction or a WDegree), else "num/den" of two ints.  Every
    printed rational is written here: past _digit_limit() digits, where
    str() would raise the interpreter's own ValueError, it raises
    ResourceCapExceeded naming noun and the limit."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        limit = _digit_limit()
        raise ResourceCapExceeded(f"{noun} past the limit of {limit} digits") from None


def format_poly(p: Polynomial, var: str = "x") -> str:
    """Render p with terms in descending lexicographic monomial order.

    Round-trips through parse_poly for var='x'.  A coefficient of more
    digits than _digit_limit() raises ResourceCapExceeded (format_rational).
    """
    if not p._nums:
        return "0"
    unpack = _unpacker(p.n)
    parts = []
    for key in sorted(p._nums, reverse=True):
        num = p._nums[key]
        g = gcd(num, p.den)
        a, b = abs(num) // g, p.den // g
        factors = [
            f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}"
            for i, e in enumerate(unpack(key))
            if e > 0
        ]
        coeff = format_rational(a, b)
        if not factors:
            body = coeff
        elif a == b == 1:
            body = "*".join(factors)
        else:
            body = "*".join([coeff] + factors)
        if not parts:
            parts.append(body if num > 0 else "-" + body)
        else:
            parts.append((" + " if num > 0 else " - ") + body)
    return "".join(parts)
