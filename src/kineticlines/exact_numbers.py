"""Exact arithmetic for event times.

Every time value the engine produces is either a rational number or an
element (p + q*sqrt(d))/r of a real quadratic field, held in a canonical
integer form. Equality is a structural comparison of canonical forms.
Order is the exact sign of a difference, found from integer products
alone, so comparisons never touch floating point; time_order orders
many times at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

__all__ = [
    "AlgebraicTime",
    "QuadraticRootReport",
    "compare_times",
    "evaluate_at_time",
    "parse_rational",
    "rational_str",
    "solve_quadratic",
    "square_reduce",
]

RationalLike = Union[int, str, Fraction]

# Trial division bound used when splitting square factors out of a radicand.
SQUAREFREE_TRIAL_BOUND = 10_000

# Most decimal digits a scene coordinate may have in its numerator or its
# denominator; Scene and parse_rational enforce it. A root's radicand
# comes from the discriminant of a triple polynomial times its squared
# leading coefficient, at most 64*L + 5 digits for L-digit coordinates, so
# at this limit every event time stays under Python's 4300-digit
# int-to-str limit and serialises.
RATIONAL_DIGIT_LIMIT = 64
_DIGIT_CEILING = 10**RATIONAL_DIGIT_LIMIT


def rational_str(value: RationalLike) -> str:
    """Canonical "num/den" form with positive denominator, e.g. "-3/4", "7/1"."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse a "num/den" string (plain integers and decimals also accepted).

    Raises OverflowError when the numerator or the denominator in lowest
    terms has more than RATIONAL_DIGIT_LIMIT digits. The literal is
    bounded first: one whose exponent exceeds the limit, or that holds more
    than twice the limit in digits, is refused before any integer is built.
    """
    literal = str(text).strip()
    mantissa, _, exponent = literal.lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
    too_long = sum(c.isdigit() for c in mantissa) > 2 * RATIONAL_DIGIT_LIMIT
    # an exponent with more digits than the limit itself is above it
    too_far = exponent.isdecimal() and (
        len(exponent) > len(str(RATIONAL_DIGIT_LIMIT)) or int(exponent) > RATIONAL_DIGIT_LIMIT
    )
    if too_long or too_far:
        raise _over_digit_limit()
    try:
        value = Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc
    return check_digit_limit(value)


def check_digit_limit(value: Fraction) -> Fraction:
    """value, if its numerator and denominator in lowest terms have at most
    RATIONAL_DIGIT_LIMIT digits; OverflowError otherwise."""
    if abs(value.numerator) >= _DIGIT_CEILING or value.denominator >= _DIGIT_CEILING:
        raise _over_digit_limit()
    return value


def _over_digit_limit() -> OverflowError:
    return OverflowError(
        f"rational over the limit of {RATIONAL_DIGIT_LIMIT} digits"
        " per numerator and denominator"
    )


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d), for d not a perfect square when q != 0:
    then p + q*sqrt(d) vanishes only when p == q == 0, and otherwise
    p*p != q*q*d."""
    sp, sq = _sign(p), _sign(q)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > q * q * d else sq


def _interval(p: int, q: int, r: int, root: int, bits: int) -> tuple[int, int]:
    """Integer lo, hi with lo <= (p + q*sqrt(d))/r * 2**bits <= hi, for
    r > 0 and root = isqrt(d << 2*bits), 0 for a rational: then
    root <= sqrt(d) * 2**bits < root + 1."""
    num = (p << bits) + q * root
    return (num + min(q, 0)) // r, -(-(num + max(q, 0)) // r)


# bit r of _SQm is set when r is a square mod m
_SQ63, _SQ65, _SQ11 = (sum(1 << r for r in {i * i % m for i in range(m)}) for m in (63, 65, 11))


@lru_cache(maxsize=None)
def _primorial() -> int:
    """The product of the primes up to SQUAREFREE_TRIAL_BOUND."""
    bound = SQUAREFREE_TRIAL_BOUND
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    return math.prod(i for i, flag in enumerate(sieve) if flag)


def square_reduce(n: int) -> tuple[int, int]:
    """Write n > 0 as m*m*d, pulling every found square factor into m:
    the one-element case of square_reduce_all."""
    return square_reduce_all([n])[0]


def square_reduce_all(ns: Sequence[int]) -> list[tuple[int, int]]:
    """square_reduce of each n in ns, in order; ValueError if some n <= 0.

    The primes up to SQUAREFREE_TRIAL_BOUND are split out by gcds, then
    the remaining cofactor is tested for being a perfect square, by
    residues mod 63, 65 and 11 and, if they allow it, one isqrt. A square
    factor built entirely from primes above the bound stays inside d, so d
    need not be squarefree. Canonical keys do not need it to be: they rest
    on reducing an integer that depends only on the value, and on the
    reduction being a fixed function of that integer, whatever batch it
    comes in.

    g = gcd(n, product of those primes) is the product of the small primes
    that divide n, and each level divides them out once more: at level j,
    g holds the primes whose exponent is at least 2j - 1, h those whose
    exponent is at least 2j. The primes of g // h have odd exponent 2j - 1
    and go into d once; the primes of h give one more factor of m.
    """
    if any(n <= 0 for n in ns):
        raise ValueError("square_reduce needs a positive integer")
    reduced = []
    for n, g in zip(ns, _primorial_gcds(ns)):
        m, d, rest = 1, 1, n
        while g > 1:
            rest //= g
            h = math.gcd(rest, g)
            d *= g // h
            rest //= h
            m *= h
            g = math.gcd(rest, h)
        if rest > 1:
            # root_keys' residue test; root = 0 fails the test below
            root = 0
            if _SQ63 >> rest % 63 & 1 and _SQ65 >> rest % 65 & 1 and _SQ11 >> rest % 11 & 1:
                root = math.isqrt(rest)
            if root * root == rest:
                m *= root
            else:
                d *= rest
        reduced.append((m, d))
    return reduced


def _primorial_gcds(ns: Sequence[int]) -> list[int]:
    """gcd(n, P) for each n in ns, P = _primorial().

    P % n for one n costs a long division of P's ~14,000 bits. Instead
    ns is cut into consecutive groups whose product just reaches P's bit
    length, and each group takes one product tree and one remainder tree
    (Bernstein, "How to find smooth parts of integers", 2004): P % x once
    for the group's product x, then each node's remainder reduced modulo
    its two children, down to P % n at the leaves, and gcd(n, P % n).
    """
    primorial = _primorial()
    limit = primorial.bit_length()
    gcds: list[int] = []
    start = bits = 0
    for stop, n in enumerate(ns, 1):
        bits += n.bit_length()
        if bits >= limit or stop == len(ns):
            group = ns[start:stop]
            # levels[0] is the group; each level above holds the products
            # of adjacent pairs, an odd last node carried up as it is
            levels = [group]
            while len(levels[-1]) > 1:
                below = levels[-1]
                pairs = [x * y for x, y in zip(below[::2], below[1::2])]
                levels.append(pairs + below[len(below) & ~1 :])
            rems = [primorial % levels[-1][0]]
            for level in reversed(levels[:-1]):
                rems = [rems[i >> 1] % x for i, x in enumerate(level)]
            gcds += map(math.gcd, group, rems)
            start, bits = stop, 0
    return gcds


def _check_canonical(t: AlgebraicTime) -> None:
    """ValueError unless t's integers are in the canonical form that
    AlgebraicTime states: every constructor but key_times runs it."""
    if t.r <= 0:
        raise ValueError("denominator r must be positive")
    if (t.q == 0) != (t.d == 0):
        raise ValueError("q and d must be zero together")
    if t.q != 0:
        if t.d < 2:
            raise ValueError("radicand must be at least 2")
        root = math.isqrt(t.d)
        if root * root == t.d:
            raise ValueError("radicand must not be a perfect square")
        if math.gcd(math.gcd(abs(t.p), abs(t.q)), t.r) != 1:
            raise ValueError("p, q, r must be coprime")
    elif math.gcd(abs(t.p), t.r) != 1:
        raise ValueError("p and r must be coprime")


@dataclass(frozen=True, slots=True)
class AlgebraicTime:
    """A real number (p + q*sqrt(d))/r with integer entries.

    Rational values are stored with q == 0 and d == 0. Canonical form:
    r > 0, the stored integers share no common factor, square factors
    found in d are folded into q, and a zero q forces d == 0.

    Every time the engine produces is an output of `make` or of
    `key_times`. Both build a rational from its lowest-terms pair, as
    `from_rational` does, and both reduce an irrational value's radicand
    from the same integer, the square of its radical part in lowest terms
    as num*den, by the same square_reduce_all. So equal values are equal
    objects with equal hashes, which the oracle's set of candidate times
    and render's == on event times rely on; event bucketing keys roots by
    root_keys and hashes no time. test_equal_values_share_canonical_key
    tests this invariant.

    Every constructor checks the canonical form (_check_canonical) except
    key_times, whose forms hold by construction: root_keys gives a
    rational's lowest-terms pair with a positive denominator, and a pair
    key's b_num*b_den is not a square (b is a non-square in lowest
    terms), so its reduced d is neither 1 nor a square and m != 0;
    key_times divides p, q, r by their gcd, and r = a_den*b_den > 0.

    +, -, * work inside one quadratic field, with int and Fraction
    operands taken as rationals; operands with two different radicands
    raise ValueError. A result is divided by gcd(p, q, r) and collapses to
    the rational form when q vanishes, but its radicand is the operands'
    own, never reduced again. The library relies on three facts:
    - arithmetic keeps its operands' radicand, so == is exact between
      values of one radicand, for example all positions at one event time;
    - between other spellings of a value, equality is compare_times;
    - arithmetic results are never used as bucket keys.
    """

    p: int
    q: int
    d: int
    r: int

    # lo and hi - lo of the value's 64-bit bounds, as _bounds(64) gives
    # them: key_times sets both, every other constructor neither
    _lo64: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _span64: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_canonical(self)

    @classmethod
    def from_rational(cls, value: RationalLike) -> "AlgebraicTime":
        f = Fraction(value)
        return cls(f.numerator, 0, 0, f.denominator)

    @classmethod
    def make(cls, p: int, q: int, d: int, r: int) -> "AlgebraicTime":
        """Canonicalize (p + q*sqrt(d))/r; collapses to a rational when possible.

        The radicand is reduced from the square of the radical part,
        q*q*d/(r*r) in lowest terms num/den, as the integer num*den. That
        square depends on the value alone, so two spellings of one value
        reduce the same integer and get the same canonical form, even when
        a square factor escapes the trial division.
        """
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if q == 0 or d == 0:
            return _rational(p, r)
        if r < 0:
            p, q, r = -p, -q, -r
        square, rr = q * q * d, r * r
        g = math.gcd(square, rr)
        den = rr // g
        # |q|*sqrt(d)/r == m*sqrt(dd)/den
        m, dd = square_reduce(square // g * den)
        if q < 0:
            m = -m
        if dd == 1:
            return _rational(p * den + m * r, r * den)
        return _field_value(p * den, m * r, dd, r * den)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.p, self.r)

    def sign(self) -> int:
        """Exact sign; r > 0 and d is never a perfect square."""
        return _surd_sign(self.p, self.q, self.d)

    def is_zero(self) -> bool:
        return self.q == 0 and self.p == 0

    def _operand(self, other) -> Optional[AlgebraicTime]:
        """other as a value of self's field; None for types it does not take."""
        if isinstance(other, (int, Fraction)):
            return AlgebraicTime.from_rational(other)
        if not isinstance(other, AlgebraicTime):
            return None
        if self.q != 0 and other.q != 0 and self.d != other.d:
            raise ValueError(f"mixed quadratic fields: sqrt({self.d}) vs sqrt({other.d})")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return _field_value(
            self.p * other.r + other.p * self.r,
            self.q * other.r + other.q * self.r,
            self.d or other.d,
            self.r * other.r,
        )

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicTime":
        return AlgebraicTime(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        d = self.d or other.d
        return _field_value(
            self.p * other.p + self.q * other.q * d,
            self.p * other.q + self.q * other.p,
            d,
            self.r * other.r,
        )

    __rmul__ = __mul__

    def _bounds(self, bits: int) -> tuple[int, int]:
        """Integer lo, hi with lo <= value * 2**bits <= hi."""
        return _interval(self.p, self.q, self.r, math.isqrt(self.d << (2 * bits)), bits)

    def _bounds64(self) -> tuple[int, int]:
        """_bounds(64): the ones key_times carried, or computed now."""
        if self._lo64 is None:
            return self._bounds(64)
        return self._lo64, self._lo64 + self._span64

    def approx(self) -> float:
        """Float approximation; a display hint, never used for decisions.

        The midpoint of the 64-bit bounds, which a time from key_times
        carries from its construction, where time_order sorts by them.
        """
        lo, hi = self._bounds64()
        # int / int is correctly rounded
        return (lo + hi) / (1 << 65)

    def __lt__(self, other):
        return compare_times(self, other) < 0

    def __le__(self, other):
        return compare_times(self, other) <= 0

    def __gt__(self, other):
        return compare_times(self, other) > 0

    def __ge__(self, other):
        return compare_times(self, other) >= 0

    def __str__(self) -> str:
        if self.q == 0:
            return rational_str(Fraction(self.p, self.r))
        return f"({self.p}{self.q:+d}*sqrt({self.d}))/{self.r}"

    def to_json(self) -> dict:
        if self.q == 0:
            # canonical p/r is already in lowest terms with r > 0
            return {"kind": "rational", "value": f"{self.p}/{self.r}"}
        return {
            "kind": "quadratic",
            "p": str(self.p),
            "q": str(self.q),
            "d": self.d,
            "r": str(self.r),
            "approx": self.approx(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraicTime":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("time value must be an object with a 'kind' field")
        if obj["kind"] == "rational":
            # "num/den" as to_json writes it; event times run far longer
            # than the scene literals parse_rational takes
            num, _, den = str(obj["value"]).partition("/")
            return cls.make(int(num), 0, 0, int(den or 1))
        if obj["kind"] == "quadratic":
            try:
                return cls.make(int(obj["p"]), int(obj["q"]), int(obj["d"]), int(obj["r"]))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed quadratic time: {obj!r}") from exc
        raise ValueError(f"unknown time kind {obj['kind']!r}")


def compare_times(x: AlgebraicTime, y: AlgebraicTime) -> int:
    """Total order on exact times: -1, 0, or 1 as x <, ==, > y.

    The sign of x - y, scaled by x.r * y.r > 0, is the sign of
    a + b*sqrt(dx) - c*sqrt(dy) with integer a, b, c. With one radicand,
    or y rational, that is one surd; with x rational, likewise. Otherwise
    u = a + b*sqrt(dx) and -c*sqrt(dy) either share a sign, which is the
    answer, or the larger magnitude wins: sign(u) times the sign of
    u*u - c*c*dy, again one surd over dx. Every stored radicand is a
    non-square, so each surd sign is exact (_surd_sign), for any
    spellings of the two values.
    """
    a = x.p * y.r - y.p * x.r
    b = x.q * y.r
    c = y.q * x.r
    if y.q == 0 or x.d == y.d:
        return _surd_sign(a, b - c, x.d)
    if x.q == 0:
        return _surd_sign(a, -c, y.d)
    su, sv = _surd_sign(a, b, x.d), -_sign(c)
    if su * sv >= 0:
        return su or sv
    return su * _surd_sign(a * a + b * b * x.d - c * c * y.d, 2 * a * b, x.d)


def time_order(times: Sequence[AlgebraicTime]) -> list[int]:
    """The indices of times in exact ascending order of their times.

    Each time is keyed by its 64-bit interval bounds: the ones a time from
    key_times carries, computed here for any other time. Times whose
    intervals are disjoint are ordered by the bounds alone; compare_times,
    through AlgebraicTime.__lt__, runs only inside a run of overlapping
    intervals.
    """
    bounds = [t._bounds64() for t in times]
    runs: list[list[int]] = []
    run_hi = 0
    for i in sorted(range(len(times)), key=bounds.__getitem__):
        lo, hi = bounds[i]
        if runs and lo <= run_hi:
            runs[-1].append(i)
            run_hi = max(run_hi, hi)
        else:
            runs.append([i])
            run_hi = hi
    return [i for run in runs for i in sorted(run, key=times.__getitem__)]


@dataclass(frozen=True)
class QuadraticRootReport:
    """Real roots of c2*t^2 + c1*t + c0 plus degeneracy flags."""

    roots: tuple[AlgebraicTime, ...]
    identically_zero: bool
    double_root: bool


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator, for den != 0."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def _rational(num: int, den: int) -> AlgebraicTime:
    """The canonical time num/den, for den != 0."""
    num, den = _lowest(num, den)
    return AlgebraicTime(num, 0, 0, den)


def _field_value(p: int, q: int, d: int, r: int) -> AlgebraicTime:
    """(p + q*sqrt(d))/r in lowest terms for r > 0 and an already reduced
    radicand d; the rational p/r when q == 0."""
    if q == 0:
        return _rational(p, r)
    g = math.gcd(p, q, r)
    return AlgebraicTime(p // g, q // g, d, r // g)


# (num, den) for a rational root, (a_num, a_den, b_num, b_den) for the
# conjugate pair of irrational roots a -+ sqrt(b); see root_keys
RootKey = tuple[int, ...]

def root_keys(c2: int, c1: int, c0: int) -> tuple[tuple[RootKey, ...], bool, bool]:
    """Exact real roots of c2*t^2 + c1*t + c0 for integer coefficients, as
    keys, ascending, each once; then the identically-zero and double-root
    flags.

    A key is plain integers, found with no factoring; key_times turns keys
    into times. A rational root is keyed by its lowest-terms pair
    (num, den), den > 0. Two distinct roots (-c1 -+ sqrt(disc))/(2*c2),
    c2 > 0, are rational exactly when disc is a square, which residue
    tests and one isqrt decide. Otherwise they are a + e*sqrt(b) for
    e = -1 and 1, a = -c1/(2*c2) and b = disc/(4*c2*c2) a rational
    non-square, and one pair key (a_num, a_den, b_num, b_den), in lowest
    terms, stands for both: two gcds.

    Equal times have equal keys. A rational and an irrational root differ
    in value and in key length. If a + e*sqrt(b) == a' + e'*sqrt(b') with
    both radical parts irrational, then e*sqrt(b) - e'*sqrt(b') is a
    rational x; were x nonzero, squaring e*sqrt(b) = x + e'*sqrt(b') would
    make sqrt(b') rational. So a == a' and e*sqrt(b) == e'*sqrt(b'), which
    for b, b' > 0 gives e == e' and b == b', and lowest terms are unique.
    """
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return (), False, False
    if c2 == 0:
        if c1 == 0:
            return (), c0 == 0, False
        return (_lowest(-c0, c1),), False, False
    if disc == 0:
        return (_lowest(-c1, 2 * c2),), False, True
    if c2 < 0:
        c2, c1 = -c2, -c1
    # a square is a square mod 63, 65 and 11; for evenly spread residues
    # that rejects about 95% of non-squares before the isqrt (Cohen 1993,
    # Algorithm 1.7.3), and s = 0 then fails the test below
    s = 0
    if _SQ63 >> disc % 63 & 1 and _SQ65 >> disc % 65 & 1 and _SQ11 >> disc % 11 & 1:
        s = math.isqrt(disc)
    if s * s == disc:
        return (_lowest(-c1 - s, 2 * c2), _lowest(-c1 + s, 2 * c2)), False, False
    two_c2 = 2 * c2
    g = math.gcd(c1, two_c2)
    square = two_c2 * two_c2
    h = math.gcd(disc, square)
    return ((-c1 // g, two_c2 // g, disc // h, square // h),), False, False


# AlgebraicTime's slot writers: no frozen __setattr__, no __post_init__
_SLOT_SETTERS = tuple(
    getattr(AlgebraicTime, name).__set__ for name in ("p", "q", "d", "r", "_lo64", "_span64")
)


def key_times(keys: Sequence[RootKey]) -> list[AlgebraicTime]:
    """The canonical AlgebraicTimes of root_keys keys, in order, a pair
    key's two ascending, each carrying the 64-bit bounds that time_order
    sorts by and approx reads.

    A rational key (num, den) is the time num/den. A pair key gives
    a -+ sqrt(b) = (a_num*b_den -+ m*a_den*sqrt(d))/(a_den*b_den) with
    b_num*b_den = m*m*d, the integer that AlgebraicTime.make reduces for
    either value, so each time is the one make gives. One
    square_reduce_all call reduces the batch's distinct radicands; then
    a pair takes one gcd(p, q, r) and one isqrt(d << 128), from which
    _interval gives both roots the bounds that _bounds(64) computes.
    These forms are canonical by construction (see AlgebraicTime) and
    are not checked again.
    """
    radicands = dict.fromkeys(key[2] * key[3] for key in keys if len(key) == 4)
    reduced = dict(zip(radicands, square_reduce_all(list(radicands))))
    new = object.__new__
    set_p, set_q, set_d, set_r, set_lo, set_span = _SLOT_SETTERS
    times = []
    for key in keys:
        if len(key) == 2:
            (p, r), d, root, signed = key, 0, 0, (0,)
        else:
            a_num, a_den, b_num, b_den = key
            m, d = reduced[b_num * b_den]
            p, q, r = a_num * b_den, m * a_den, a_den * b_den
            g = math.gcd(p, q, r)
            p, q, r = p // g, q // g, r // g
            root = math.isqrt(d << 128)
            signed = (-q, q)
        for q in signed:
            lo, hi = _interval(p, q, r, root, 64)
            t = new(AlgebraicTime)
            set_p(t, p)
            set_q(t, q)
            set_d(t, d)
            set_r(t, r)
            set_lo(t, lo)
            set_span(t, hi - lo)
            times.append(t)
    return times


def solve_quadratic(c2: RationalLike, c1: RationalLike, c0: RationalLike) -> QuadraticRootReport:
    """Exact real roots of c2*t^2 + c1*t + c0, ascending, each reported once.

    The coefficients are scaled by their positive common denominator,
    which leaves the roots alone; root_keys finds the roots of the integer
    polynomial and key_times builds their canonical times.
    """
    coeffs = [Fraction(c) for c in (c2, c1, c0)]
    scale = math.lcm(*(c.denominator for c in coeffs))
    keys, identically_zero, double_root = root_keys(
        *(c.numerator * (scale // c.denominator) for c in coeffs)
    )
    return QuadraticRootReport(tuple(key_times(keys)), identically_zero, double_root)


def evaluate_at_time(
    poly: Sequence[RationalLike], t: AlgebraicTime
) -> tuple[int, AlgebraicTime]:
    """Exact (sign, value) of a polynomial at t.

    Coefficients run highest power first, matching solve_quadratic's
    (c2, c1, c0) argument order.
    """
    acc = AlgebraicTime.from_rational(0)
    for coeff in poly:
        acc = acc * t + Fraction(coeff)
    return acc.sign(), acc
