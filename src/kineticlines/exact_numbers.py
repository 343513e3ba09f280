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
    """Exact sign of p + q*sqrt(d), for q == 0 or d > 0 not a perfect
    square: then p*p == q*q*d only when p == q == 0, and otherwise the
    term of larger magnitude, p or q*sqrt(d), gives the sign."""
    return _sign(p) if p * p > q * q * d else _sign(q)


def _intervals(
    p: int, q: int, r: int, root: int, bits: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer bounds (lo, hi) of (p - q*sqrt(d))/r * 2**bits, then of
    (p + q*sqrt(d))/r * 2**bits, for q >= 0, r > 0 and
    root = isqrt(d << 2*bits), 0 for a rational: then
    q*root <= q*sqrt(d) * 2**bits <= q*root + q."""
    base, shift = p << bits, q * root
    return (
        ((base - shift - q) // r, -((shift - base) // r)),
        ((base + shift) // r, -((-base - shift - q) // r)),
    )


# bit r of _SQm is set when r is a square mod m
_SQ63, _SQ65, _SQ11 = (sum(1 << r for r in {i * i % m for i in range(m)}) for m in (63, 65, 11))


def _square_root(n: int) -> int:
    """For n >= 0: isqrt(n) when n is a perfect square, -1 otherwise.

    A square is a square mod 63, 65 and 11; for evenly spread residues
    that rejects about 95% of non-squares before the isqrt (Cohen 1993,
    Algorithm 1.7.3), which pays where n spans several machine words.
    """
    # with a plain isqrt test a tight-extremal pass took 3.9% longer, and
    # a random-scenes pass, whose radicands are shorter, 1.4% less
    # (medians of 60 paired in-process passes)
    if _SQ63 >> n % 63 & 1 and _SQ65 >> n % 65 & 1 and _SQ11 >> n % 11 & 1:
        root = math.isqrt(n)
        if root * root == n:
            return root
    return -1


# cached: one build takes 0.64 ms (timeit, best of 5), which at its two
# square_reduce_all calls would be about 19% of a tight-extremal pass
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
    _square_root tests whether the remaining cofactor is a perfect square,
    as 1 is.
    A square factor built entirely from primes above the bound stays
    inside d, so d need not be squarefree. Canonical keys do not need it
    to be: they rest on reducing an integer that depends only on the
    value, and on the reduction being a fixed function of that integer,
    whatever batch it comes in.

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
        root = _square_root(rest)
        if root > 0:
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
    # a direct gcd(n, P % n) per n made a random-scenes pass 12.5% and a
    # tight-extremal pass 12.9% slower (medians of 60 paired in-process
    # passes)
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
    AlgebraicTime states: every constructor but key_times, through which
    make builds its irrational values, runs it."""
    if t.r <= 0:
        raise ValueError("denominator r must be positive")
    if (t.q == 0) != (t.d == 0):
        raise ValueError("q and d must be zero together")
    if t.q != 0:
        if t.d < 2:
            raise ValueError("radicand must be at least 2")
        if _square_root(t.d) >= 0:
            raise ValueError("radicand must not be a perfect square")
    # gcd(p, 0, r) is gcd(p, r), so this covers the rational form too
    if math.gcd(t.p, t.q, t.r) != 1:
        raise ValueError("p, q, r must be coprime")


@dataclass(frozen=True, slots=True)
class AlgebraicTime:
    """A real number (p + q*sqrt(d))/r with integer entries.

    Rational values are stored with q == 0 and d == 0. Canonical form:
    r > 0, the stored integers share no common factor, square factors
    found in d are folded into q, and a zero q forces d == 0.

    Every time the engine produces is an output of `make` or of
    `key_times`. A rational is built from its lowest-terms pair, as
    `from_rational` does. An irrational value a -+ sqrt(b), with a and b
    in lowest terms, is built by key_times alone, from its pair key
    (a, b): make hands its value's key to key_times, as root_keys' keys
    are. The key depends on the value alone, so equal values are equal
    objects with equal hashes, which the oracle's set of candidate times
    and its sort key, and render's == on event times, rely on; event
    bucketing keys roots by root_keys and hashes no time.
    test_equal_values_share_canonical_key tests this invariant.

    Every constructor checks the canonical form (_check_canonical) except
    key_times, whose forms hold by construction: a rational key is a
    lowest-terms pair with a positive denominator, and a pair key's
    b_num*b_den is not a square (b is a non-square in lowest terms), so
    its reduced d is neither 1 nor a square and m != 0; key_times divides
    p, q, r by their gcd, and r = a_den*b_den > 0.

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
    # them: key_times sets both, from its key's one _intervals call, and
    # every other constructor neither; time_order sorts by lo, approx
    # reads both. Without them a random-scenes pass took 6.3% longer and
    # a tight-extremal pass 4.2% (medians of 60 paired in-process
    # passes). One (lo, hi) tuple in their place was 1-2% faster, but
    # raised random-scenes' peak_rss_mb from 25.48 to 26.09 MiB
    # (bench/run.py --seconds 4, two runs per side).
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

        The value is a + sqrt(b) or a - sqrt(b), by the sign of q/r, for
        a = p/r and b = q*q*d/(r*r) in lowest terms. b depends on the value
        alone, so two spellings of one value give the same a and b. b is a
        square exactly when b_num*b_den is one, m*m, and then sqrt(b) is
        m/b_den and the value rational, as when q*q*d == 0 makes b == 0;
        otherwise the value is a time of the pair key (a, b), which
        key_times builds.
        """
        if r == 0:
            raise ValueError("denominator r must be nonzero")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        b_num, b_den = _lowest(q * q * d, r * r)
        sign = 1 if q * r > 0 else -1
        m = _square_root(b_num * b_den)
        if m >= 0:
            return _rational(p * b_den + sign * m * r, r * b_den)
        low, high = key_times([(*_lowest(p, r), b_num, b_den)])
        return high if sign > 0 else low

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
        root = math.isqrt(self.d << (2 * bits))
        return _intervals(self.p, abs(self.q), self.r, root, bits)[self.q > 0]

    def _bounds64(self) -> tuple[int, int]:
        """_bounds(64): the ones key_times carried, or computed now."""
        if self._lo64 is None:
            return self._bounds(64)
        return self._lo64, self._lo64 + self._span64

    def approx(self) -> float:
        """Float approximation; a display hint, never used for decisions.

        A rational is p / r, correctly rounded. An irrational is the
        midpoint of its 64-bit bounds, which a time from key_times carries
        from its construction. Those bounds are about |q|/r units wide, so
        they are recomputed with twice the bits until lo has 53 bits
        (below 2**-12 in size it has fewer) and the width is at most 2
        units or at most |lo| / 2**52: then the midpoint is within about
        one float ulp. A value beyond float range gives inf or -inf.
        """
        try:
            if self.q == 0:
                # int / int is correctly rounded
                return self.p / self.r
            lo, hi = self._bounds64()
            bits = 64
            while abs(lo) < 1 << 52 or (hi - lo > 2 and (hi - lo) << 52 > abs(lo)):
                bits *= 2
                lo, hi = self._bounds(bits)
            return (lo + hi) / (1 << (bits + 1))
        except OverflowError:
            return math.inf * self.sign()

    # Python evaluates t > u as u < t, and t >= u as u <= t, since
    # object's __gt__ and __ge__ return NotImplemented
    def __lt__(self, other):
        if not isinstance(other, AlgebraicTime):
            return NotImplemented
        return compare_times(self, other) < 0

    def __le__(self, other):
        if not isinstance(other, AlgebraicTime):
            return NotImplemented
        return compare_times(self, other) <= 0

    def __str__(self) -> str:
        if self.q == 0:
            return f"{self.p}/{self.r}"
        return f"({self.p}{self.q:+d}*sqrt({self.d}))/{self.r}"

    def to_json(self) -> dict:
        if self.q == 0:
            # canonical p/r is already in lowest terms with r > 0
            return {"kind": "rational", "value": f"{self.p}/{self.r}"}
        approx = self.approx()
        return {
            "kind": "quadratic",
            "p": str(self.p),
            "q": str(self.q),
            "d": self.d,
            "r": str(self.r),
            # strict JSON has no Infinity; from_json ignores this field
            "approx": approx if math.isfinite(approx) else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraicTime":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("time value must be an object with a 'kind' field")
        if obj["kind"] == "rational":
            # "num/den" as to_json writes it; event times run far longer
            # than the scene literals parse_rational takes
            value = obj.get("value")
            num, _, den = value.partition("/") if isinstance(value, str) else (None, "", "")
            name = f"each side of '/' in rational time field 'value' {value!r}"
            return cls.make(_json_integer(num, name), 0, 0, _json_integer(den, name))
        if obj["kind"] == "quadratic":
            fields = (_json_integer(obj.get(f), f"quadratic time field {f!r}") for f in "pqdr")
            return cls.make(*fields)
        raise ValueError(f"unknown time kind {obj['kind']!r}")


def _json_integer(value: object, name: str) -> int:
    """The integer in value, a part of a JSON time that name describes: an
    int that is not a bool, or a string of ASCII digits after an optional
    minus sign, as to_json writes them; ValueError naming the part for
    anything else, such as a float, which int() would truncate to another
    value, or another script's digits, an underscore or spaces, which
    int() reads too."""
    if type(value) is int or (
        isinstance(value, str) and value.isascii() and value.removeprefix("-").isdecimal()
    ):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def compare_times(x: AlgebraicTime, y: AlgebraicTime) -> int:
    """Total order on exact times: -1, 0, or 1 as x <, ==, > y.

    The sign of x - y, scaled by x.r * y.r > 0, is the sign of u + v with
    u = a + b*sqrt(dx) and v = -c*sqrt(dy) for integer a, b, c. Either u
    and v share a sign, which is the answer, or the larger magnitude wins:
    sign(u) times the sign of u*u - c*c*dy, one surd over dx. A rational
    has q == d == 0, so this holds for either time rational, and for any
    spellings of the two values: every stored radicand is a non-square,
    so each surd sign is exact (_surd_sign).
    """
    a = x.p * y.r - y.p * x.r
    b = x.q * y.r
    c = y.q * x.r
    su, sv = _surd_sign(a, b, x.d), -_sign(c)
    if su * sv >= 0:
        return su or sv
    return su * _surd_sign(a * a + b * b * x.d - c * c * y.d, 2 * a * b, x.d)


def time_order(times: Sequence[AlgebraicTime]) -> list[int]:
    """The indices of times in exact ascending order of their times.

    Each time has its 64-bit interval bounds: the ones a time from
    key_times carries, computed here for any other time. The indices are
    sorted by lo alone, and a sweep cuts them into runs: an interval joins
    the current run when its lo is at most the largest hi in it. Equal
    lo's, in whatever order, land in one run, and every value of a run
    lies below the next run's first lo, so runs are ordered by the bounds
    alone; compare_times, through AlgebraicTime.__lt__, orders each run
    exactly.
    """
    bounds = [t._bounds64() for t in times]
    lows = [lo for lo, _ in bounds]
    runs: list[list[int]] = []
    run_hi = 0
    for i in sorted(range(len(times)), key=lows.__getitem__):
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
    c2 > 0, are rational exactly when disc is a square, which _square_root
    decides. Otherwise they are a + e*sqrt(b) for e = -1 and 1,
    a = -c1/(2*c2) and b = disc/(4*c2*c2) a rational non-square, and one
    pair key (a_num, a_den, b_num, b_den), in lowest terms, stands for
    both: two gcds.

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
    s = _square_root(disc)
    if s >= 0:
        return (_lowest(-c1 - s, 2 * c2), _lowest(-c1 + s, 2 * c2)), False, False
    two_c2 = 2 * c2
    g = math.gcd(c1, two_c2)
    square = two_c2 * two_c2
    h = math.gcd(disc, square)
    return ((-c1 // g, two_c2 // g, disc // h, square // h),), False, False


# AlgebraicTime's slot writers: no frozen __setattr__, no __post_init__.
# Kept for random-scenes and tight-extremal, whose every time key_times
# builds: with the checked constructor a pass of each took 7.0% and 9.9%
# longer (medians of 60 paired in-process passes, 8 and 2 faster).
_SLOT_SETTERS = tuple(
    getattr(AlgebraicTime, name).__set__ for name in ("p", "q", "d", "r", "_lo64", "_span64")
)


def key_times(keys: Sequence[RootKey]) -> list[AlgebraicTime]:
    """The canonical AlgebraicTimes of root_keys keys, in order, a pair
    key's two ascending, each carrying the 64-bit bounds that time_order
    sorts by and approx reads.

    A rational key (num, den) is the time num/den. A pair key gives
    a -+ sqrt(b) = (a_num*b_den -+ m*a_den*sqrt(d))/(a_den*b_den) with
    b_num*b_den = m*m*d. This is the one place an irrational time's
    radicand is reduced and its canonical form built; AlgebraicTime.make
    comes here with its value's pair key. One square_reduce_all call
    reduces each pair key's b_num*b_den, in key order, with no dedupe: two
    keys may share one, as 1 + sqrt(2) and 3 + sqrt(2) do, but no batch of
    a bench workload at seeds 1-3, of gen_random(40, 3) (7,846 pair keys)
    or of gen_tight(20) (1,140) repeats one. Then a pair takes one
    gcd(b_den, m*a_den) and one isqrt(d << 128), and each key one
    _intervals call, which gives both roots of a pair the bounds that
    _bounds(64) computes. These forms are canonical by construction (see
    AlgebraicTime) and are not checked again.
    """
    reduced = iter(square_reduce_all([key[2] * key[3] for key in keys if len(key) == 4]))
    new = object.__new__
    set_p, set_q, set_d, set_r, set_lo, set_span = _SLOT_SETTERS
    times = []
    for key in keys:
        if len(key) == 2:
            (p, r), q, d, root, signed = key, 0, 0, 0, (0,)
        else:
            a_num, a_den, b_num, b_den = key
            m, d = next(reduced)
            # root_keys and make build keys in lowest terms, so
            # gcd(a_num, a_den) = 1 and the gcd of a_num*b_den, m*a_den
            # and a_den*b_den is gcd(b_den, m*a_den)
            g = math.gcd(b_den, m * a_den)
            e = b_den // g
            p, q, r = a_num * e, m * a_den // g, a_den * e
            root = math.isqrt(d << 128)
            signed = (-q, q)
        # a rational key takes the first of the two equal intervals
        for q, (lo, hi) in zip(signed, _intervals(p, q, r, root, 64)):
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
