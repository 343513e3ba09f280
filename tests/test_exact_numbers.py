"""Exact-number layer: canonical forms, quadratic solving, ordering."""

import math
import random
import time
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

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
    constructor checks, and carries the 64-bit bounds and the approx that
    a fresh _bounds(64) gives."""
    for t in times:
        exact_numbers._check_canonical(t)
        lo, hi = t._bounds(64)
        assert t._bounds64() == (lo, hi)
        assert t.approx() == (lo + hi) / 2**65


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
        # duplicates and conjugate pairs share reductions inside one batch
        polys += polys[: len(polys) // 3]
        keys = [key for coeffs in polys for key in root_keys(*coeffs)[0]]
        assert key_times(keys) == [t for coeffs in polys for t in make_roots(*coeffs)[0]]
        assert_built_once(key_times(keys))
        # a pair key's two times stay in ascending order
        per_key = [key_times([key]) for key in keys]
        assert key_times(keys[::-1]) == [t for times in per_key[::-1] for t in times]

    def test_square_discriminant_skips_square_reduce(self, monkeypatch):
        def refuse(n):
            raise AssertionError("square_reduce called for a square discriminant")

        monkeypatch.setattr(exact_numbers, "square_reduce", refuse)
        assert root_keys(6, -5, 1) == (((1, 3), (1, 2)), False, False)
        assert root_keys(-4, 0, 9 * 10007**2) == (((-3 * 10007, 2), (3 * 10007, 2)), False, False)


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

    def test_rt2_convergents_inside_one_64_bit_interval(self):
        rt2 = AlgebraicTime.make(0, 1, 2, 1)
        for index in (40, 50, 80, 200):
            for num, den in sqrt2_convergents(index)[-2:]:
                c = AlgebraicTime.from_rational(F(num, den))
                # consecutive convergents lie on both sides of sqrt(2)
                expected = -1 if num * num > 2 * den * den else 1
                assert reference_compare(rt2, c) == expected
                assert compare_times(rt2, c) == expected
                assert compare_times(c, rt2) == -expected

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
        # only key_times carries bounds; every other time computes them
        # 1/3, then the upper root of the pair key for -+sqrt(2)
        built = key_times([(1, 3), (0, 1, 2, 1)])[::2]
        others = [
            AlgebraicTime(1, 0, 0, 3),
            AlgebraicTime.make(0, 1, 2, 1),
            AlgebraicTime.from_rational(F(1, 3)),
            AlgebraicTime.from_json(built[1].to_json()),
            built[1] + 1,
            -built[1],
        ]
        assert built == [others[0], others[1]]
        assert all(t._lo64 is None for t in others)
        assert [t._bounds64() for t in others[:2]] == [t._bounds64() for t in built]
        assert [t.approx() for t in others[:2]] == [t.approx() for t in built]

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


def sqrt2_convergents(count):
    """The first count convergents num/den of sqrt(2), alternately below
    and above it; the last lies within 1/den**2 of it."""
    out = [(1, 1)]
    while len(out) < count:
        num, den = out[-1]
        out.append((num + 2 * den, num + den))
    return out


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
