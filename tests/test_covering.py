import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invk.catalog import make
from invk.covering import (
    CoveringSystem,
    covering_identity_check,
    is_disjoint_covering,
    parse_system,
)
from invk.errors import CapacityError, ParseError, RejectedInputError


class TestParsing:
    def test_basic(self):
        sys_ = parse_system("0/2,1/4,3/4")
        assert sys_.classes == ((0, 2), (1, 4), (3, 4))

    def test_whole_line(self):
        assert parse_system("0/1").classes == ((0, 1),)

    def test_reduction(self):
        assert parse_system("5/3").classes == ((2, 3),)
        assert parse_system("-1/4").classes == ((3, 4),)

    def test_whitespace_tolerated(self):
        assert parse_system(" 0/2 , 1/2 ").classes == ((0, 2), (1, 2))

    @pytest.mark.parametrize("bad", ["", "0", "0/0", "a/2", "1/2;3/4", "1/-2"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError) as err:
            parse_system(bad)
        assert hasattr(err.value, "position")


@pytest.mark.parametrize("classes", [
    ((0, 2.5), (1, 2)),  # once truncated to 0/2, 1/2 and accepted
    ((0.5, 2), (1, 2)),
    ((True, 2), (0, 2)),
    ((0, 0), (0, 1)),
])
def test_classes_are_integers(classes):
    with pytest.raises(RejectedInputError):
        CoveringSystem(classes)


class TestDecision:
    def test_accepts_partition(self):
        d = is_disjoint_covering(parse_system("0/2,1/4,3/4"))
        assert d.accepted and d.lcm == 4 and d.density == 1
        assert d.witness is None

    def test_accepts_whole_integers(self):
        assert is_disjoint_covering(parse_system("0/1")).accepted

    def test_rejects_with_uncovered_witness(self):
        d = is_disjoint_covering(parse_system("0/2,0/3"))
        assert not d.accepted
        assert d.witness == 1 and d.witness_kind == "uncovered"
        assert d.density == Fraction(5, 6)

    def test_rejects_overlap(self):
        d = is_disjoint_covering(parse_system("0/2,1/2,0/4"))
        assert not d.accepted
        assert d.witness == 0 and d.witness_kind == "multiply-covered"

    def test_uncovered_preferred_over_earlier_overlap(self):
        d = is_disjoint_covering(CoveringSystem(((0, 2), (0, 4), (2, 4), (1, 8))))
        assert not d.accepted
        assert d.witness == 3 and d.witness_kind == "uncovered"

    def test_accepted_density_is_exactly_one(self):
        for text in ("0/1", "0/2,1/2", "0/2,1/4,3/4", "0/2,1/4,3/8,7/8"):
            d = is_disjoint_covering(parse_system(text))
            assert d.accepted and d.density == 1

    def test_capacity_cap(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        sys_ = CoveringSystem(tuple((0, p) for p in primes))
        assert sys_.lcm > 10 ** 9
        with pytest.raises(CapacityError):
            is_disjoint_covering(sys_)

    @settings(max_examples=60, deadline=None)
    @given(
        classes=st.lists(
            st.tuples(st.integers(-10, 10), st.integers(1, 8)),
            min_size=1,
            max_size=5,
        )
    )
    def test_matches_bruteforce_oracle(self, classes):
        sys_ = CoveringSystem(tuple(classes))
        L = math.lcm(*(n for _, n in classes))
        counts = [0] * L
        for a, n in classes:
            for v in range(a % n, L, n):
                counts[v] += 1
        want = all(c == 1 for c in counts)
        d = is_disjoint_covering(sys_)
        assert d.accepted == want
        if not want:
            assert counts[d.witness] != 1


class TestCertificates:
    def test_exponential_exact_unit(self):
        rep = covering_identity_check(
            parse_system("0/2,1/4,3/4"), make("E5", a=2.0), 0.0, 1.0, tol=1e-12
        )
        assert rep.passed
        assert rep.worst_witness["lhs"] == pytest.approx(1.0, abs=1e-15)
        assert rep.worst_witness["rhs"] == pytest.approx(1.0, abs=1e-15)

    def test_trivial_system_any_entry(self):
        rep = covering_identity_check(parse_system("0/1"), make("E10"), 0.37, 1.4, tol=1e-14)
        assert rep.passed and rep.max_abs_error == 0.0

    def test_floor_example(self):
        rep = covering_identity_check(parse_system("0/2,1/2"), make("E3a"), 0.3, 1.0, tol=1e-12)
        assert rep.passed
        assert rep.worst_witness["lhs"] == 0.0 == rep.worst_witness["rhs"]

    def test_rejected_system_is_precondition_error(self):
        with pytest.raises(RejectedInputError):
            covering_identity_check(parse_system("0/2,0/3"), make("E1"), 0.0, 1.0)

    def test_rejected_system_breaks_identity_somewhere(self):
        # diagnostic: a non-partition generally misses the identity
        sys_ = parse_system("0/2,0/3")
        f = make("E5", a=2.0)
        lhs = math.fsum(f.value(0.0 + a * 1.0, n * 1.0) for a, n in sys_.classes)
        assert abs(lhs - f.value(0.0, 1.0)) > 1e-3
