"""Exact-number layer: canonical forms, quadratic solving, ordering."""

import json
import math
import random
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kineticlines import exact_numbers
from kineticlines.exact_numbers import (
    RATIONAL_DIGIT_LIMIT,
    SQUAREFREE_TRIAL_BOUND,
    AlgebraicTime,
    compare_times,
    evaluate_at_time,
    key_times,
    parse_rational,
    rational_str,
    root_keys,
    solve_quadratic,
    square_reduce,
    square_reduce_all,
    time_order,
)

from conftest import rationals


F = Fraction


class TestRationalStrings:
    def test_canonical_forms(self):
        assert rational_str(F(-3, 4)) == "-3/4"
        assert rational_str(F(7)) == "7/1"
        assert rational_str(F(2, 4)) == "1/2"

    def test_parse_round_trip(self):
        for text in ("-3/4", "7/1", "0/1", "22/7"):
            assert rational_str(parse_rational(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("sqrt(2)")

    def test_digit_limit_per_numerator_and_denominator(self):
        top = "9" * RATIONAL_DIGIT_LIMIT
        for text in (top, f"-{top}/7", f"1/{top}", f"{top}/{top[:-1]}8", "1e-63", "5e63"):
            parse_rational(text)
        for text in (top + "9", f"1/{top}9", f"-{top}9/7", "1e64", "1e-64", "1.5e64"):
            with pytest.raises(OverflowError, match="limit"):
                parse_rational(text)

    def test_huge_literals_refused_before_building(self):
        # building 10**100000000 alone would take minutes
        start = time.perf_counter()
        for text in ("1e100000000", "1e-100000000", "1e1_000_000_000", "7" * 100_000):
            with pytest.raises(OverflowError):
                parse_rational(text)
        assert time.perf_counter() - start < 1.0


def trial_division_reduce(n: int, bound: int = SQUAREFREE_TRIAL_BOUND) -> tuple[int, int]:
    """Reference square_reduce: divide by every prime up to the bound in turn."""
    m, d, rest = 1, 1, n
    for p in range(2, bound + 1):
        if p * p > rest:
            break
        exp = 0
        while rest % p == 0:
            rest //= p
            exp += 1
        m *= p ** (exp // 2)
        if exp % 2:
            d *= p
    if rest > 1:
        root = math.isqrt(rest)
        if root * root == rest:
            m *= root
        else:
            d *= rest
    return m, d


class TestSquareReduce:
    @given(
        st.integers(min_value=1, max_value=2**200),
        st.sampled_from([1, 4, 9973**2, 9973 * 10007, 10007**2, 9967 * 9973**3]),
    )
    def test_matches_plain_trial_division(self, n, factor):
        assert square_reduce(n * factor) == trial_division_reduce(n * factor)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_product_identity(self, n):
        m, d = square_reduce(n)
        assert m * m * d == n
        assert m >= 1 and d >= 1

    @given(st.integers(min_value=1, max_value=3000))
    def test_small_values_fully_squarefree(self, n):
        _, d = square_reduce(n)
        # below the trial bound the reduction is complete
        for p in range(2, math.isqrt(d) + 1):
            assert d % (p * p) != 0

    @pytest.mark.parametrize(
        "n",
        [
            *(p**e for p in (2, 3, 9973) for e in range(1, 10)),
            2**5 * 3**4 * 9973**3,
            # a square cofactor above the bound, alone or beside small primes
            10007**2,
            2 * 10007**2,
            6 * 10007**2,
            10007**2 * 10009**2,
            6 * 10007**2 * 10009**2,
            9967 * 9973,
            # non-square cofactors: the residue test rejects the first two,
            # and 10007 * 10193 passes it, so its isqrt decides
            10007 * 10009,
            6 * 10007**3,
            10007 * 10193,
            2 * 10007 * 10193 * 10009**2,
        ],
    )
    def test_gcd_levels_match_trial_division(self, n):
        assert square_reduce(n) == trial_division_reduce(n)

    def test_perfect_squares_always_detected(self):
        big = (10**40 + 7) ** 2
        m, d = square_reduce(big)
        assert d == 1 and m == 10**40 + 7


def radicand_batches():
    """Lists of positive integers: small ones, ones with square factors
    above the trial bound, and ones near the largest radicand a scene
    within the digit limit can give, so that a batch can cross the group
    size in few elements."""
    big = 10 ** (64 * RATIONAL_DIGIT_LIMIT + 4)
    factor = st.sampled_from([1, 4, 9973**2, 10007**2, 9967 * 10009**2, 2 * 3**5 * 10007**4])
    plain = st.integers(min_value=1, max_value=2**200)
    near_limit = st.integers(min_value=big // 1000, max_value=big)
    n = st.builds(lambda v, f: v * f, st.one_of(plain, plain, near_limit), factor)
    return st.lists(n, max_size=8)


class TestSquareReduceAll:
    """square_reduce_all is square_reduce element by element, whatever
    the batch's order or grouping."""

    def test_empty_and_one_element(self):
        assert square_reduce_all([]) == []
        for n in (1, 2, 12, 9973**3, 6 * 10007**2):
            assert square_reduce_all([n]) == [square_reduce(n)] == [trial_division_reduce(n)]

    @given(radicand_batches(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_matches_trial_division_in_any_order_and_split(self, batch, rng):
        want = [trial_division_reduce(n) for n in batch]
        assert square_reduce_all(batch) == want
        order = list(range(len(batch)))
        rng.shuffle(order)
        assert square_reduce_all([batch[i] for i in order]) == [want[i] for i in order]
        cut = rng.randint(0, len(batch))
        assert square_reduce_all(batch[:cut]) + square_reduce_all(batch[cut:]) == want

    def test_duplicates_and_batches_crossing_the_group_size(self):
        rng = random.Random(2004)
        limit = exact_numbers._primorial().bit_length()
        small = [rng.randrange(1, 2**90) * rng.choice([1, 9, 10007**2]) for _ in range(400)]
        # 400 radicands of about 100 bits span several groups
        assert sum(n.bit_length() for n in small) > 2 * limit
        batch = small + small[::-1] + [small[0]] * 3
        assert square_reduce_all(batch) == [trial_division_reduce(n) for n in batch]
        near_limit = 10 ** (64 * RATIONAL_DIGIT_LIMIT + 4) - 1
        for n in (near_limit, near_limit * 10007**2, near_limit * 2**7 * 9973**2):
            want = trial_division_reduce(n)
            assert square_reduce_all([n, 12, n]) == [want, (2, 3), want]

    def test_nonpositive_anywhere_raises(self):
        for batch in ([0], [-5], [12, 0, 3], [7, 9, -1]):
            with pytest.raises(ValueError):
                square_reduce_all(batch)
        with pytest.raises(ValueError):
            square_reduce(0)


class TestAlgebraicTimeCanonicalForm:
    def test_collapses_to_rational(self):
        t = AlgebraicTime.make(2, 2, 2, 2)  # (2 + 2*sqrt(2)) / 2
        assert t.p == 1 and t.q == 1 and t.d == 2 and t.r == 1

    def test_square_radicand_becomes_rational(self):
        t = AlgebraicTime.make(1, 3, 4, 2)  # (1 + 3*sqrt(4))/2 = 7/2
        assert t.is_rational
        assert t.as_fraction() == F(7, 2)

    def test_common_factor_removed(self):
        t = AlgebraicTime.make(6, 4, 3, 10)
        assert math.gcd(t.p, t.q, t.r) == 1
        assert t.r > 0

    def test_idempotent(self):
        t = AlgebraicTime.make(5, -7, 6, 3)
        again = AlgebraicTime.make(t.p, t.q, t.d, t.r)
        assert again == t

    def test_invalid_forms_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicTime(1, 1, 4, 1)  # d must not be a perfect square
        with pytest.raises(ValueError):
            AlgebraicTime(1, 0, 2, 1)  # q=0 requires d=0
        with pytest.raises(ValueError):
            AlgebraicTime(1, 1, 2, -1)  # r must be positive

    @given(rationals(), rationals(), rationals(), rationals().filter(bool), st.integers(2, 12))
    @settings(max_examples=200)
    def test_equal_values_share_canonical_key(self, c2, c1, c0, scale, m):
        # the oracle's set of candidate times hashes AlgebraicTime, so
        # compare_times == 0 must imply equal canonical forms and equal hashes
        times = [AlgebraicTime.make(0, 1, 12, 1), AlgebraicTime.make(0, 2, 3, 1)]
        # 10007 is a prime above the trial bound, so 10007**2 is a square
        # factor that the reduction cannot split off
        big_square = AlgebraicTime.make(0, 1, 3 * 10007**2 * 10009, 1)
        split = AlgebraicTime.make(0, 10007, 30027, 1)
        assert compare_times(big_square, split) == 0
        assert big_square == split and hash(big_square) == hash(split)
        times += [big_square, split]
        roots = solve_quadratic(c2, c1, c0).roots
        times += roots
        times += solve_quadratic(scale * c2, scale * c1, scale * c0).roots
        for t in roots:
            # (p*m + q*sqrt(d*m*m)) / (r*m) is t with a square factor in d
            times.append(AlgebraicTime.make(t.p * m, t.q, t.d * m * m, t.r * m))
            times.append(AlgebraicTime.from_json(t.to_json()))
        for x, y in combinations(times, 2):
            if compare_times(x, y) == 0:
                assert x == y and hash(x) == hash(y)

    def test_json_round_trip(self):
        for t in (AlgebraicTime.from_rational(F(-3, 4)), AlgebraicTime.make(1, 1, 2, 1)):
            assert AlgebraicTime.from_json(t.to_json()) == t

    def test_json_round_trip_beyond_scene_digit_limit(self):
        # event times run far longer than the coordinates they come from
        long = AlgebraicTime.from_rational(F(-(10 ** (4 * RATIONAL_DIGIT_LIMIT)) - 1, 3))
        assert AlgebraicTime.from_json(long.to_json()) == long

    def test_json_shape(self):
        rational = AlgebraicTime.from_rational(F(-3, 4)).to_json()
        assert rational == {"kind": "rational", "value": "-3/4"}
        quad = AlgebraicTime.make(1, 1, 2, 1).to_json()
        assert quad["kind"] == "quadratic"
        assert (quad["p"], quad["q"], quad["d"], quad["r"]) == ("1", "1", 2, "1")
        assert abs(quad["approx"] - (1 + 2**0.5)) < 1e-9

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", 2.9),  # read as 2 by int(), that is 1 + sqrt(2)
            ("p", 1.5),
            ("q", True),
            ("r", False),
            ("d", "2.0"),
            ("p", " 1"),
            ("q", "+1"),
            ("p", "-"),
            ("p", "\u0661"),  # ARABIC-INDIC DIGIT ONE, read as 1 by int()
            ("q", "\uff11"),  # FULLWIDTH DIGIT ONE
            ("r", None),
            ("d", [2]),
            ("r", "missing"),
        ],
    )
    def test_json_quadratic_field_must_be_an_integer(self, field, value):
        obj = {"kind": "quadratic", "p": "1", "q": "1", "d": 3, "r": "1"}
        obj[field] = value
        if value == "missing":
            del obj[field]
        with pytest.raises(ValueError, match=f"quadratic time field '{field}' must be an integer"):
            AlgebraicTime.from_json(obj)

    @pytest.mark.parametrize(
        "value",
        [
            "1_0/3",  # read as 10/3 by int()
            "1/",
            " 7 / 2",
            "\u0661/2",  # ARABIC-INDIC DIGIT ONE, read as 1 by int()
            "1/2/3",
            "3",
            7,
            None,
            "missing",
        ],
    )
    def test_json_rational_value_must_be_num_over_den(self, value):
        obj = {"kind": "rational", "value": value}
        if value == "missing":
            del obj["value"]
        with pytest.raises(ValueError, match="rational time field 'value'"):
            AlgebraicTime.from_json(obj)

    def test_json_quadratic_integers_and_digit_strings(self):
        # to_json writes p, q and r as strings and d as an int; either form
        # is read, with a minus sign on the string
        expected = AlgebraicTime.make(-3, -1, 2, 2)
        assert AlgebraicTime.from_json(
            {"kind": "quadratic", "p": -3, "q": "-1", "d": "2", "r": 2}
        ) == expected

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([], "must be an object with a 'kind' field"),
            ({"value": "1/2"}, "must be an object with a 'kind' field"),
            ({"kind": "complex", "value": "1/2"}, "unknown time kind 'complex'"),
        ],
    )
    def test_json_not_a_time(self, obj, message):
        with pytest.raises(ValueError, match=message):
            AlgebraicTime.from_json(obj)

    def test_json_beyond_float_range_is_strict(self):
        # strict JSON has no Infinity: a non-finite approx is written null
        for t in (AlgebraicTime.make(10**320, 1, 2, 1), AlgebraicTime.make(-(10**320), 1, 2, 1)):
            obj = t.to_json()
            assert obj["approx"] is None
            assert AlgebraicTime.from_json(json.loads(json.dumps(obj, allow_nan=False))) == t


class TestSolveQuadratic:
    def test_difference_of_squares(self):
        report = solve_quadratic(F(1), F(0), F(-4))
        assert [t.as_fraction() for t in report.roots] == [F(-2), F(2)]
        assert not report.identically_zero and not report.double_root

    def test_linear(self):
        report = solve_quadratic(F(0), F(1), F(-1))
        assert [t.as_fraction() for t in report.roots] == [F(1)]

    def test_irrational_pair(self):
        report = solve_quadratic(F(1), F(-2), F(-1))
        lo, hi = report.roots
        assert (lo.p, lo.q, lo.d, lo.r) == (1, -1, 2, 1)
        assert (hi.p, hi.q, hi.d, hi.r) == (1, 1, 2, 1)

    def test_identically_zero(self):
        report = solve_quadratic(F(0), F(0), F(0))
        assert report.identically_zero and report.roots == ()

    def test_double_root(self):
        report = solve_quadratic(F(1), F(-2), F(1))
        assert report.double_root
        assert [t.as_fraction() for t in report.roots] == [F(1)]

    def test_no_real_roots(self):
        report = solve_quadratic(F(1), F(0), F(1))
        assert report.roots == () and not report.identically_zero

    def test_constant_nonzero(self):
        report = solve_quadratic(F(0), F(0), F(5))
        assert report.roots == () and not report.identically_zero

    @given(rationals(), rationals())
    def test_expanded_rational_roots_recovered(self, a, b):
        report = solve_quadratic(F(1), -(a + b), a * b)
        want = sorted({a, b})
        assert [t.as_fraction() for t in report.roots] == want
        assert report.double_root == (a == b)

    @given(rationals(), rationals(), rationals())
    @settings(max_examples=300)
    def test_roots_resubstitute_to_zero(self, c2, c1, c0):
        report = solve_quadratic(c2, c1, c0)
        assert len(report.roots) <= 2
        for root in report.roots:
            sign, value = evaluate_at_time((c2, c1, c0), root)
            assert sign == 0 and value.is_zero()

    def test_proportional_polynomials_share_roots(self):
        # canonical forms must be identical so dedup by value works
        r1 = solve_quadratic(F(1), F(-2), F(-1))
        r2 = solve_quadratic(F(7, 3), F(-14, 3), F(-7, 3))
        assert r1.roots == r2.roots

    def test_huge_discriminant_still_exact(self):
        # forces radicand far beyond the trial-division bound
        big = F(2**130 + 1)
        report = solve_quadratic(F(1), F(0), -big)
        root = report.roots[1]
        sign, value = evaluate_at_time((F(1), F(0), -big), root)
        assert sign == 0 and value.is_zero()


def make_roots(c2: int, c1: int, c0: int):
    """Reference solve_quadratic: make on the larger root, then its conjugate,
    or -c1/c2 minus it when make collapses it to a rational."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return (), False, False
    if c2 == 0:
        if c1 == 0:
            return (), c0 == 0, False
        return (AlgebraicTime.from_rational(F(-c0, c1)),), False, False
    if disc == 0:
        return (AlgebraicTime.from_rational(F(-c1, 2 * c2)),), False, True
    if c2 < 0:
        c2, c1 = -c2, -c1
    hi = AlgebraicTime.make(-c1, 1, disc, 2 * c2)
    if hi.is_rational:
        lo = AlgebraicTime.from_rational(F(-c1, c2) - hi.as_fraction())
    else:
        lo = AlgebraicTime(hi.p, -hi.q, hi.d, hi.r)
    return (lo, hi), False, False


def assert_built_once(times):
    """Each time from key_times is in the canonical form that every other
    constructor checks, and carries the 64-bit bounds that a fresh
    _bounds(64) gives. approx is p / r for a rational, and the bounds'
    midpoint for an irrational with |lo| >= 2**52 whose bounds are at
    most 2 units or at most |lo| / 2**52 wide; any other irrational, whose
    bounds approx refines, is within 2**-50 of a 1024-bit reference."""
    for t in times:
        exact_numbers._check_canonical(t)
        lo, hi = t._bounds(64)
        assert t._bounds64() == (lo, hi)
        if t.q == 0:
            assert t.approx() == t.p / t.r
        elif abs(lo) >= 1 << 52 and (hi - lo <= 2 or (hi - lo) << 52 <= abs(lo)):
            assert t.approx() == (lo + hi) / 2**65
        else:
            lo, hi = reference_brackets(t, 1024)
            assert math.isclose(t.approx(), (lo + hi) / 2**1025, rel_tol=2**-50)


def assert_keys_match_make(c2: int, c1: int, c0: int):
    keys, identically_zero, double_root = root_keys(c2, c1, c0)
    report = solve_quadratic(c2, c1, c0)
    want = make_roots(c2, c1, c0)
    assert (report.roots, report.identically_zero, report.double_root) == want
    assert (tuple(key_times(keys)), identically_zero, double_root) == want
    assert_built_once(key_times(keys))
    # one key alone gives the times it gets beside the others
    assert tuple(t for key in keys for t in key_times([key])) == want[0]
    for key in keys:
        # the dedup invariant: each key is the lowest-terms integers of
        # its values, so equal times have equal keys
        if len(key) == 2:
            num, den = key
            assert den > 0 and math.gcd(num, den) == 1
            ts = [AlgebraicTime.from_rational(F(num, den))]
        else:
            a_num, a_den, b_num, b_den = key
            assert a_den > 0 and math.gcd(a_num, a_den) == 1
            assert b_num > 0 and b_den > 0 and math.gcd(b_num, b_den) == 1
            assert math.isqrt(b_num * b_den) ** 2 != b_num * b_den
            # a + sign*sqrt(b) = (a_num*b_den + sign*a_den*sqrt(b_num*b_den))/(a_den*b_den)
            ts = [
                AlgebraicTime.make(a_num * b_den, sign * a_den, b_num * b_den, a_den * b_den)
                for sign in (-1, 1)
            ]
            assert not any(t.is_rational for t in ts)
        assert key_times([key]) == ts
        assert [hash(t) for t in key_times([key])] == [hash(t) for t in ts]


def square_products():
    """s*(a*t - b)*(c*t - d) with s != 0: the discriminant is a square."""
    small = st.integers(-10**6, 10**6)
    return st.tuples(small, small, small, small, small.filter(bool)).map(
        lambda v: (v[4] * v[0] * v[2], -v[4] * (v[0] * v[3] + v[1] * v[2]), v[4] * v[1] * v[3])
    )


class TestRootKeys:
    @given(
        st.one_of(st.integers(-10**6, 10**6), st.integers(-(2**80), 2**80)),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
    )
    @settings(max_examples=300)
    def test_random_coefficients_match_make(self, c2, c1, c0):
        assert_keys_match_make(c2, c1, c0)

    @given(square_products())
    @settings(max_examples=300)
    def test_square_discriminants_match_make(self, coeffs):
        assert_keys_match_make(*coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (0, 3, -6),  # linear
            (0, -4, 6),
            (0, 7, 0),
            (9, -12, 4),  # double roots
            (-9, 12, -4),
            (2, 0, 0),
            (0, 0, 5),  # constant
            (0, 0, -1),
            (0, 0, 0),  # identically zero
            (1, 0, 1),  # no real roots
            (6, -5, 1),  # square discriminant, roots 1/3 and 1/2
            (-6, 5, -1),
            (1, -2, -1),  # irrational pair
            (-1, 2, 1),
        ],
    )
    def test_degenerate_cases_match_make(self, coeffs):
        assert_keys_match_make(*coeffs)

    @given(
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70)).filter(bool),
    )
    @settings(max_examples=300)
    def test_proportional_polynomials_share_keys(self, c2, c1, c0, k):
        assert root_keys(k * c2, k * c1, k * c0)[0] == root_keys(c2, c1, c0)[0]

    @given(
        st.lists(st.tuples(*[st.integers(-(10**4), 10**4)] * 3), max_size=40)
    )
    @settings(max_examples=100)
    def test_key_times_matches_make_on_batches(self, polys):
        # a batch with duplicates and conjugate pairs gives each key the
        # times it gets alone; key_times reduces every pair key's radicand
        polys += polys[: len(polys) // 3]
        keys = [key for coeffs in polys for key in root_keys(*coeffs)[0]]
        assert key_times(keys) == [t for coeffs in polys for t in make_roots(*coeffs)[0]]
        assert_built_once(key_times(keys))
        # a pair key's two times stay in ascending order
        per_key = [key_times([key]) for key in keys]
        assert key_times(keys[::-1]) == [t for times in per_key[::-1] for t in times]

    def test_repeated_radicand_in_one_batch(self, monkeypatch):
        # 1 -+ sqrt(2), 3 -+ sqrt(2) and 1 -+ sqrt(1/2) share the radicand
        # b_num*b_den = 2 under two values of a and two of b; each is
        # reduced once per key, in key order, by one square_reduce_all call
        keys = [(1, 1, 2, 1), (1, 3), (3, 1, 2, 1), (1, 1, 1, 2)]
        calls = []
        reduce_all = exact_numbers.square_reduce_all
        monkeypatch.setattr(
            exact_numbers, "square_reduce_all", lambda ns: calls.append(ns) or reduce_all(ns)
        )
        times = key_times(keys)
        assert calls == [[2, 2, 2]]
        assert times == [t for key in keys for t in key_times([key])]
        assert times == [
            AlgebraicTime.make(*form)
            for form in [(1, -1, 2, 1), (1, 1, 2, 1), (1, 0, 0, 3), (3, -1, 2, 1), (3, 1, 2, 1)]
            + [(2, -1, 2, 2), (2, 1, 2, 2)]
        ]
        assert_built_once(times)

    def test_square_discriminant_skips_square_reduce(self, monkeypatch):
        # key_times reduces the radicands of its pair keys, an empty batch
        # when there is none
        def refuse(ns):
            if ns:
                raise AssertionError("square_reduce_all called for a square discriminant")
            return []

        monkeypatch.setattr(exact_numbers, "square_reduce_all", refuse)
        assert root_keys(6, -5, 1) == (((1, 3), (1, 2)), False, False)
        assert root_keys(-4, 0, 9 * 10007**2) == (((-3 * 10007, 2), (3 * 10007, 2)), False, False)
        assert solve_quadratic(6, -5, 1).roots == tuple(
            map(AlgebraicTime.from_rational, (F(1, 3), F(1, 2)))
        )
        assert solve_quadratic(-4, 0, 9 * 10007**2).roots == tuple(
            map(AlgebraicTime.from_rational, (F(-3 * 10007, 2), F(3 * 10007, 2)))
        )
        # control: the irrational roots of t**2 - 2 reach the patched reducer
        with pytest.raises(AssertionError, match="square_reduce_all"):
            solve_quadratic(1, 0, -2)


class TestCompareTimes:
    def test_examples(self):
        one_plus_rt2 = AlgebraicTime.make(1, 1, 2, 1)
        assert compare_times(one_plus_rt2, AlgebraicTime.from_rational(F(5, 2))) == -1
        assert compare_times(AlgebraicTime.make(2, 2, 2, 2), one_plus_rt2) == 0
        assert compare_times(one_plus_rt2, AlgebraicTime.make(1, 1, 3, 1)) == -1

    def test_close_values_separated(self):
        # sqrt(2) vs 665857/470832, a convergent accurate to ~1e-12
        rt2 = AlgebraicTime.make(0, 1, 2, 1)
        near = AlgebraicTime.from_rational(F(665857, 470832))
        assert compare_times(rt2, near) == -1

    def test_conjugates_differ(self):
        plus = AlgebraicTime.make(1, 1, 2, 1)
        minus = AlgebraicTime.make(1, -1, 2, 1)
        assert compare_times(minus, plus) == -1

    @given(rationals(), rationals())
    def test_rational_order_matches_fractions(self, a, b):
        ta, tb = AlgebraicTime.from_rational(a), AlgebraicTime.from_rational(b)
        assert compare_times(ta, tb) == (a > b) - (a < b)

    @given(st.data())
    @settings(max_examples=200)
    def test_total_order_axioms(self, data):
        def draw_time():
            if data.draw(st.booleans()):
                return AlgebraicTime.from_rational(data.draw(rationals(10, 6)))
            p = data.draw(st.integers(-20, 20))
            q = data.draw(st.integers(-10, 10).filter(bool))
            d = data.draw(st.sampled_from([2, 3, 5, 6, 7, 10]))
            r = data.draw(st.integers(1, 10))
            return AlgebraicTime.make(p, q, d, r)

        x, y, z = draw_time(), draw_time(), draw_time()
        assert compare_times(x, x) == 0
        assert compare_times(x, y) == -compare_times(y, x)
        cxy, cyz, cxz = compare_times(x, y), compare_times(y, z), compare_times(x, z)
        if cxy <= 0 and cyz <= 0:
            assert cxz <= 0
        if cxy >= 0 and cyz >= 0:
            assert cxz >= 0
        # equality agrees with float separation when floats clearly differ
        if abs(x.approx() - y.approx()) > 1e-6:
            assert cxy == (1 if x.approx() > y.approx() else -1)

    def test_cross_field_never_equal(self):
        a = AlgebraicTime.make(0, 1, 2, 1)
        b = AlgebraicTime.make(0, 1, 3, 1)
        assert compare_times(a, b) != 0

    def test_dunder_ordering(self):
        a = AlgebraicTime.make(1, -1, 2, 1)
        b = AlgebraicTime.from_rational(F(1))
        assert a < b and b > a and a <= a and b >= b
        # the four operators agree with compare_times, also between two
        # spellings of one value, which == tells apart
        spelled = (AlgebraicTime(0, 1, 12, 1), AlgebraicTime.make(0, 2, 3, 1))
        for x, y in [(a, b), (b, a), (a, a), spelled, spelled[::-1]]:
            c = compare_times(x, y)
            assert ((x < y), (x <= y), (x > y), (x >= y)) == (c < 0, c <= 0, c > 0, c >= 0)

    @pytest.mark.parametrize("other", [2, F(1, 2), 0.5, "1", None])
    def test_ordering_against_another_type_raises_type_error(self, other):
        # as == never equates a time with an int, < never orders them:
        # Python raises TypeError, not the AttributeError of compare_times
        t = AlgebraicTime.from_rational(1)
        assert t != other
        for order in (
            lambda: t < other,
            lambda: t <= other,
            lambda: t > other,
            lambda: t >= other,
            lambda: other < t,
            lambda: other >= t,
        ):
            with pytest.raises(TypeError):
                order()

    def test_rt2_convergents_inside_one_64_bit_interval(self):
        rt2 = AlgebraicTime.make(0, 1, 2, 1)
        for index in (40, 50, 80, 200):
            for num, den in sqrt2_convergents(index)[-2:]:
                c = AlgebraicTime.from_rational(F(num, den))
                # consecutive convergents lie on both sides of sqrt(2);
                # negated, each lies on the other side of -sqrt(2)
                expected = -1 if num * num > 2 * den * den else 1
                for x, y, want in ((rt2, c, expected), (-rt2, -c, -expected)):
                    assert reference_compare(x, y) == want
                    assert compare_times(x, y) == want
                    assert compare_times(y, x) == -want

    def test_cross_radicand_near_ties(self):
        # 1 + sqrt(2) against sqrt(D)/10**k and sqrt(D + 1)/10**k, with
        # D = floor((1 + sqrt(2))**2 * 10**(2k)): the two lie within about
        # 10**(-2k) of 1 + sqrt(2), on either side, under other radicands
        one_plus_rt2 = AlgebraicTime.make(1, 1, 2, 1)
        for k in (10, 20, 40):
            scale = 10**k
            big = 3 * scale * scale + math.isqrt(8 * scale**4)
            for radicand, expected in ((big, 1), (big + 1, -1)):
                y = AlgebraicTime.make(0, 1, radicand, scale)
                assert y.d != 2
                assert reference_compare(one_plus_rt2, y) == expected
                assert compare_times(one_plus_rt2, y) == expected
                assert compare_times(y, one_plus_rt2) == -expected

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_same_radicand_near_ties(self, k):
        # x = 3 + 5*sqrt(2) against x -+ (sqrt(2) - 1)**k, all in Z[sqrt(2)]:
        # u = a + b*sqrt(2) and -c*sqrt(2) nearly cancel, with opposite signs
        x = AlgebraicTime.make(3, 5, 2, 1)
        e_p, e_q = pell_power(k)
        for sign, expected in ((1, -1), (-1, 1)):
            y = AlgebraicTime.make(3 + sign * e_p, 5 + sign * e_q, 2, 1)
            assert y.d == x.d == 2
            assert reference_compare(x, y) == expected
            assert compare_times(x, y) == expected
            assert compare_times(y, x) == -expected

    @pytest.mark.parametrize("k", [10, 20, 40])
    def test_spelled_radicand_near_ties(self, k):
        # 3 + 5*sqrt(8) = 3 + 10*sqrt(2) spelled over 8, against the same
        # value, and against it -+ (sqrt(2) - 1)**k spelled over 2
        x = AlgebraicTime(3, 5, 8, 1)
        e_p, e_q = pell_power(k)
        for sign, expected in ((0, 0), (1, -1), (-1, 1)):
            y = AlgebraicTime.make(3 + sign * e_p, 10 + sign * e_q, 2, 1)
            assert y.d == 2
            assert reference_compare(x, y) == expected
            assert compare_times(x, y) == expected
            assert compare_times(y, x) == -expected

    @pytest.mark.parametrize("d", [2, 3, 12, 10**40 + 1])
    def test_surd_sign_on_every_sign_pattern(self, d):
        # p the floor and the ceiling of q*sqrt(d), so that p and
        # q*sqrt(d) nearly cancel, and each of p, q negative, zero or positive
        q = 10**6
        for p in (math.isqrt(d * q * q), math.isqrt(d * q * q) + 1):
            for sp, sq in product((-1, 0, 1), repeat=2):
                got = exact_numbers._surd_sign(sp * p, sq * q, d)
                assert got == isqrt_surd_sign(sp * p, sq * q, d)
        assert exact_numbers._surd_sign(-7, 0, 0) == -1
        assert exact_numbers._surd_sign(0, 0, 0) == 0

    def test_other_spellings_compare_equal(self):
        pairs = [
            (AlgebraicTime(0, 1, 12, 1), AlgebraicTime.make(0, 2, 3, 1)),
            (AlgebraicTime(0, 1, 8, 1), AlgebraicTime.make(0, 2, 2, 1)),
            (AlgebraicTime(1, -1, 12, 2), AlgebraicTime.make(1, -2, 3, 2)),
            (AlgebraicTime(3, 1, 50, 1), AlgebraicTime.make(3, 5, 2, 1)),
        ]
        for x, y in pairs:
            assert x != y
            assert reference_compare(x, y) == 0
            assert compare_times(x, y) == compare_times(y, x) == 0
            # the conjugate lies on the other side of x's rational part
            conjugate = AlgebraicTime(x.p, -x.q, x.d, x.r)
            expected = -1 if x.q > 0 else 1
            assert compare_times(conjugate, y) == reference_compare(conjugate, y) == expected


class TestSortedTimes:
    def test_matches_comparator_sort_inside_one_interval(self):
        rt2 = AlgebraicTime.make(0, 1, 2, 1)
        scale = 10**20
        big = 2 * scale * scale
        near = [
            rt2,
            AlgebraicTime.make(0, 1, big - 1, scale),
            AlgebraicTime.make(0, 1, big + 1, scale),
            AlgebraicTime(0, 1, 8, 2),  # sqrt(2) again, under another spelling
        ]
        near += [AlgebraicTime.from_rational(F(n, d)) for n, d in sqrt2_convergents(60)[-3:]]
        times = near + [-t for t in near] + [AlgebraicTime.from_rational(F(1, 3))]
        # all of near share one 64-bit interval, up to a unit
        assert all(abs(t._bounds(64)[0] - rt2._bounds(64)[0]) <= 1 for t in near)
        rng = random.Random(2011)
        for _ in range(20):
            rng.shuffle(times)
            got = [times[i] for i in time_order(times)]
            assert got == sorted(times, key=cmp_to_key(compare_times))
            assert all(reference_compare(x, y) <= 0 for x, y in zip(got, got[1:]))

    def test_bounds_alone_then_planted_overlaps_at_scale(self, monkeypatch):
        # about 2,000 roots of random quadratics: their bounds are pairwise
        # disjoint, so time_order orders them with no exact comparison
        rng = random.Random(37)
        keys = []
        while len(keys) < 1000:
            keys += root_keys(*(rng.randint(-(10**6), 10**6) for _ in range(3)))[0]
        times = key_times(keys)
        bounds = sorted(t._bounds64() for t in times)
        assert all(hi < lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        want = sorted(times, key=cmp_to_key(compare_times))

        def refuse(x, y):
            raise AssertionError("compare_times called on disjoint bounds")

        with monkeypatch.context() as patch:
            patch.setattr(exact_numbers, "compare_times", refuse)
            assert [times[i] for i in time_order(times)] == want
        # for these d, 2*sqrt(d) lies less than half a unit above its lo:
        # the dyadic rational half a unit above that lo is larger, shares
        # the lo and ends a unit lower, so listed first it comes first in
        # the lo order and only the exact sort moves it; a neighbour test
        # of hi against the next hi would miss these overlaps
        planted = []
        for d in (3, 17, 21):
            root = key_times([(0, 1, 4 * d, 1)])[1]
            lo, hi = root._bounds64()
            above = key_times([(2 * lo + 1, 2**65)])[0]
            assert above._bounds64() == (lo, lo + 1) and hi == lo + 2 and root < above
            planted += [above, root]
        mixed = times[:1000] + planted + times[1000:]
        got = [mixed[i] for i in time_order(mixed)]
        assert got == sorted(mixed, key=cmp_to_key(compare_times))


class TestTrustedConstruction:
    @pytest.mark.parametrize(
        "p, q, d, r",
        [
            (1, 0, 0, 0),  # zero denominator
            (1, 0, 0, -3),  # negative denominator
            (2, 0, 0, 4),  # rational not in lowest terms
            (1, 1, 0, 2),  # q without d
            (1, 0, 5, 2),  # d without q
            (1, 1, 1, 2),  # radicand below 2
            (1, 3, 49, 2),  # perfect square radicand
            (2, 4, 3, 6),  # p, q, r share 2
        ],
    )
    def test_constructor_checks_the_canonical_form(self, p, q, d, r):
        with pytest.raises(ValueError):
            AlgebraicTime(p, q, d, r)
        # the one check that __post_init__ runs, on the same integers
        unchecked = object.__new__(AlgebraicTime)
        for name, value in zip("pqdr", (p, q, d, r)):
            object.__setattr__(unchecked, name, value)
        with pytest.raises(ValueError):
            exact_numbers._check_canonical(unchecked)

    @pytest.mark.parametrize(
        "p, q, d, r",
        [(1, 1, 2, 0), (1, 0, 0, 0), (1, 1, -2, 3), (0, -1, -5, 1)],
    )
    def test_make_and_from_json_reject_invalid_integers(self, p, q, d, r):
        with pytest.raises(ValueError):
            AlgebraicTime.make(p, q, d, r)
        quadratic = {"kind": "quadratic", "p": str(p), "q": str(q), "d": d, "r": str(r)}
        with pytest.raises(ValueError):
            AlgebraicTime.from_json(quadratic)
        if q == 0:
            with pytest.raises(ValueError):
                AlgebraicTime.from_json({"kind": "rational", "value": f"{p}/{r}"})

    def test_other_constructors_carry_no_bounds(self):
        # key_times carries bounds, and so do make and from_json on an
        # irrational value, which they build through key_times; every
        # other time computes them
        # 1/3, then the upper root of the pair key for -+sqrt(2)
        built = key_times([(1, 3), (0, 1, 2, 1)])[::2]
        through = [
            AlgebraicTime.make(0, 1, 2, 1),
            AlgebraicTime.from_json(built[1].to_json()),
        ]
        others = [
            AlgebraicTime(1, 0, 0, 3),
            AlgebraicTime.from_rational(F(1, 3)),
            built[1] + 1,
            -built[1],
        ]
        assert built == [others[0], through[0]] and through[1] == built[1]
        assert all(t._lo64 is None for t in others)
        assert all(t._lo64 is not None for t in through)
        assert [t._bounds64() for t in through] == [built[1]._bounds(64)] * 2
        assert [t._bounds64() for t in (others[0], through[0])] == [t._bounds64() for t in built]
        assert [t.approx() for t in (others[0], through[0])] == [t.approx() for t in built]

    @given(
        st.lists(st.tuples(*[st.integers(-(10**4), 10**4)] * 3), min_size=1, max_size=20),
        st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 50)), max_size=10),
    )
    @settings(max_examples=100)
    def test_time_order_on_built_and_computed_bounds(self, polys, scales):
        # key_times times carry their bounds, field arithmetic results
        # compute theirs; time_order gives the compare_times order for both
        built = key_times([key for coeffs in polys for key in root_keys(*coeffs)[0]])
        mixed = built + [t * F(a, b) + 1 for t, (a, b) in zip(built, scales)]
        got = [mixed[i] for i in time_order(mixed)]
        assert all(compare_times(x, y) <= 0 for x, y in zip(got, got[1:]))
        assert got == sorted(mixed, key=cmp_to_key(compare_times))

    @given(
        st.integers(-(10**30), 10**30),
        st.integers(-(10**30), 10**30),
        st.one_of(st.integers(0, 10**6), st.integers(0, 2**200)),
        st.integers(-(10**30), 10**30).filter(bool),
    )
    @settings(max_examples=300)
    def test_make_builds_through_key_times(self, p, q, d, r):
        # make's irrational values come from key_times: canonical, with the
        # bounds that _bounds(64) gives, and equal to the other spelling
        # (p*m + q*sqrt(d*m*m))/(r*m) of the same value
        t = AlgebraicTime.make(p, q, d, r)
        exact_numbers._check_canonical(t)
        if t.is_rational:
            assert t._lo64 is None
        else:
            assert t._bounds64() == t._bounds(64) and t._lo64 is not None
        assert AlgebraicTime.make(p * 6, q, d * 36, r * 6) == t
        assert AlgebraicTime.from_json(t.to_json()) == t


def at_least(x: int, y: int, d: int) -> bool:
    """Whether y*sqrt(d) >= x, for d > 0, by integer squares alone."""
    if y >= 0:
        return x <= 0 or y * y * d >= x * x
    return x <= 0 and x * x >= y * y * d


class TestIntervals:
    @given(
        st.integers(-(10**40), 10**40),
        st.one_of(st.just(0), st.integers(1, 10**30)),
        st.integers(1, 10**30),
        st.one_of(st.integers(2, 10**6), st.integers(2, 2**300)).filter(
            lambda d: math.isqrt(d) ** 2 != d
        ),
        st.sampled_from((0, 1, 64, 128, 200)),
    )
    @settings(max_examples=400)
    def test_both_roots_bounded(self, p, q, r, d, bits):
        # the lower root's bounds come first, and each interval holds
        # (p -+ q*sqrt(d))/r * 2**bits: lo*r - p*2**bits <= -+q*sqrt(d)*2**bits
        # <= hi*r - p*2**bits, checked with integer squares
        intervals = exact_numbers._intervals(p, q, r, math.isqrt(d << (2 * bits)), bits)
        assert len(intervals) == 2
        for sign, (lo, hi) in zip((-1, 1), intervals):
            assert lo <= hi
            assert at_least(lo * r - (p << bits), sign * q << bits, d)
            assert at_least((p << bits) - hi * r, -sign * q << bits, d)
        if bits not in (64, 128):
            return
        # at the widths that key_times and approx use, they are the
        # bounds of the two conjugate times with these integers
        g = math.gcd(p, q, r)
        p, q, r = p // g, q // g, r // g
        if q == 0:
            times = [AlgebraicTime.from_rational(F(p, r))] * 2
        else:
            times = [AlgebraicTime(p, -q, d, r), AlgebraicTime(p, q, d, r)]
        root = math.isqrt(d << (2 * bits))
        assert exact_numbers._intervals(p, q, r, root, bits) == tuple(
            t._bounds(bits) for t in times
        )


class TestApprox:
    def test_rational_is_correctly_rounded(self):
        # the midpoint of the 64-bit bounds gave 9.99986768738e-16 here
        assert AlgebraicTime.from_rational(F(1, 10**15)).approx() == 1e-15
        for value in (F(-1, 3), F(1, 2107), F(7, 2**70), F(10**300, 7)):
            t = AlgebraicTime.from_rational(value)
            assert t.approx() == value.numerator / value.denominator

    def test_small_irrational_keeps_its_digits(self):
        # at 64 fractional bits sqrt(2)/10**12 holds 25 bits, and the
        # midpoint read 1.41421355e-12
        assert AlgebraicTime.make(0, 1, 2, 10**12).approx() == 1.414213562373095e-12
        # the small root of t*t - 2*10**6*t + 1, about 5e-7
        small = solve_quadratic(1, -2 * 10**6, 1).roots[0]
        lo, hi = reference_brackets(small, 256)
        assert math.isclose(small.approx(), (lo + hi) / 2**257, rel_tol=2**-52)

    @given(
        st.integers(1, 10**6),
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(2, 10**4),
        st.integers(13, 400),
    )
    @settings(max_examples=200)
    def test_small_irrationals_within_float_precision(self, p, q, d, scale):
        t = AlgebraicTime.make(p, q, d, 10**scale)
        if t.is_rational:
            return
        lo, hi = reference_brackets(t, 2048)
        assert math.isclose(t.approx(), (lo + hi) / 2**2049, rel_tol=2**-50)

    def test_wide_bounds_keep_their_digits(self):
        # the small root of t*t - 2*a*t + (a*a - 2*2**80) is a - 2**40*sqrt(2),
        # about 0.26; its 64-bit bounds are about 2**40 units wide, and their
        # midpoint read 0.2625574767589569
        a = 1554944255988
        small = solve_quadratic(1, -2 * a, a * a - 2 * 2**80).roots[0]
        assert (small.p, small.q, small.d, small.r) == (a, -(2**40), 2, 1)
        lo, hi = reference_brackets(small, 1024)
        assert small.approx() == (lo + hi) / 2**1025 == 0.26255746488907263

    @pytest.mark.parametrize("coeffs", [(1, -198, 1), (1, -1154, 1)])
    def test_wide_bounds_built_once(self, coeffs):
        # the roots 99 -+ 70*sqrt(2) and 577 -+ 408*sqrt(2): the small
        # one's 64-bit bounds are 70 and 408 units wide, and approx
        # refines them; the large one's are as wide but narrow against
        # |lo|, and approx stays their midpoint
        assert_keys_match_make(*coeffs)

    @pytest.mark.parametrize("scale", [1, 3, 2**20, 10**12])
    def test_large_radical_coefficients_within_float_precision(self, scale):
        # num/den - sqrt(2) over scale nearly cancels: a value about
        # 1/(den*scale) with q/r = den/scale
        for num, den in sqrt2_convergents(40):
            t = AlgebraicTime.make(num, -den, 2, scale)
            lo, hi = reference_brackets(t, 1024)
            assert math.isclose(t.approx(), (lo + hi) / 2**1025, rel_tol=2**-50)

    def test_beyond_float_range_is_infinite(self):
        big = 10**400
        assert AlgebraicTime.from_rational(big).approx() == math.inf
        assert AlgebraicTime.from_rational(F(-big, 3)).approx() == -math.inf
        assert AlgebraicTime.make(big, 1, 2, 1).approx() == math.inf
        assert AlgebraicTime.make(-big, 1, 2, 1).approx() == -math.inf
        # and below it, zero
        assert AlgebraicTime.make(0, -1, 2, big).approx() == 0.0


def sqrt2_convergents(count):
    """The first count convergents num/den of sqrt(2), alternately below
    and above it; the last lies within 1/den**2 of it."""
    out = [(1, 1)]
    while len(out) < count:
        num, den = out[-1]
        out.append((num + 2 * den, num + den))
    return out


def pell_power(k):
    """(a, b) with (sqrt(2) - 1)**k == a + b*sqrt(2), a positive number
    below 2**-k that nearly cancels in Z[sqrt(2)]."""
    a, b = 1, 0
    for _ in range(k):
        a, b = 2 * b - a, a - b
    return a, b


def isqrt_surd_sign(p, q, d):
    """Sign of p + q*sqrt(d), for d > 0 not a perfect square, from
    s = isqrt(q*q*d) < |q|*sqrt(d) < s + 1 when q != 0."""
    if q == 0:
        return (p > 0) - (p < 0)
    s = math.isqrt(q * q * d)
    if q > 0:
        return 1 if -p <= s else -1
    return 1 if p > s else -1


def reference_compare(x, y, max_bits=1 << 13):
    """Order of x and y from integer brackets of value * 2**bits, with the
    bits doubling until the brackets separate; 0 when they never do below
    max_bits, which for the values above means equal."""
    bits = 64
    while bits <= max_bits:
        (xlo, xhi), (ylo, yhi) = reference_brackets(x, bits), reference_brackets(y, bits)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        bits *= 2
    return 0


def reference_brackets(t, bits):
    """Integers lo <= t * 2**bits <= hi, at most 3 apart."""
    # |q|*sqrt(d) * 2**bits lies in [root, root + 1]
    root = math.isqrt(t.q * t.q * t.d << (2 * bits))
    lo, hi = (root, root + 1) if t.q >= 0 else (-root - 1, -root)
    base = t.p << bits
    return (base + lo) // t.r, -(-(base + hi) // t.r)


class TestEvaluateAtTime:
    def test_examples(self):
        t = AlgebraicTime.make(1, 1, 2, 1)
        sign, value = evaluate_at_time((F(1), F(0), F(-4)), t)
        assert sign == 1
        assert value == AlgebraicTime.make(-1, 2, 2, 1)
        sign, _ = evaluate_at_time((F(1), F(0), F(-4)), AlgebraicTime.from_rational(F(2)))
        assert sign == 0
        sign, _ = evaluate_at_time((F(5),), AlgebraicTime.make(3, -2, 7, 5))
        assert sign == 1

    def test_negative_sign(self):
        t = AlgebraicTime.make(0, 1, 2, 1)  # sqrt(2), between the roots of t^2-4
        sign, _ = evaluate_at_time((F(1), F(0), F(-4)), t)
        assert sign == -1


def field_value(a: F, b: F, d: int) -> AlgebraicTime:
    """a + b*sqrt(d) built by field arithmetic from rationals."""
    return AlgebraicTime.make(0, 1, d, 1) * b + a


class TestFieldArithmetic:
    def test_rational_collapse(self):
        rt2 = AlgebraicTime.make(0, 1, 2, 1)
        v = rt2 * rt2
        assert v == AlgebraicTime.from_rational(2)
        assert v.d == 0 and v.is_rational

    def test_mixed_field_rejected(self):
        a = AlgebraicTime.make(1, 1, 2, 1)
        b = AlgebraicTime.make(1, 1, 3, 1)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_rational_broadcast(self):
        a = AlgebraicTime.make(1, 1, 2, 1)
        assert (a + 1) - 1 == a
        assert F(1, 3) * (a - F(1, 3)) == (1 - a) * F(-1, 3) + F(2, 9)
        assert a * 0 == AlgebraicTime.from_rational(0)

    def test_results_match_make_canonical_form(self):
        one_plus_rt2 = AlgebraicTime.make(1, 1, 2, 1)
        assert one_plus_rt2 * one_plus_rt2 == AlgebraicTime.make(3, 2, 2, 1)
        half = AlgebraicTime.make(2, 4, 3, 4)  # (1 + 2*sqrt(3))/2
        assert half + half == AlgebraicTime.make(2, 4, 3, 2)
        assert -half * 2 == AlgebraicTime.make(-1, -2, 3, 1)

    @given(rationals(10, 6), rationals(10, 6), rationals(10, 6), rationals(10, 6))
    def test_field_arithmetic_matches_floats(self, a, b, c, d):
        x = field_value(a, b, 2)
        y = field_value(c, d, 2)
        rt2 = 2**0.5
        fx, fy = float(a) + float(b) * rt2, float(c) + float(d) * rt2
        assert abs((x + y).approx() - (fx + fy)) < 1e-6
        assert abs((x * y).approx() - (fx * fy)) < 1e-6
        assert abs((x - y).approx() - (fx - fy)) < 1e-6

    @given(rationals(20, 8), rationals(20, 8))
    def test_sign_agrees_with_value(self, a, b):
        v = field_value(a, b, 5)
        approx = float(a) + float(b) * 5**0.5
        if abs(approx) > 1e-9:
            assert v.sign() == (1 if approx > 0 else -1)
        assert (v.sign() == 0) == v.is_zero()
