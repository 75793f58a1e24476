"""GTID and GtidSet tests, including interval-algebra properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GtidError
from repro.mysql.gtid import Gtid, GtidSet

UUID_A = "3E11FA47-71CA-11E1-9E33-C80AA9429562"
UUID_B = "AAAAAAAA-0000-0000-0000-000000000000"


class TestGtid:
    def test_parse_roundtrip(self):
        gtid = Gtid.parse(f"{UUID_A}:23")
        assert gtid.source_uuid == UUID_A
        assert gtid.txn_id == 23
        assert str(gtid) == f"{UUID_A}:23"

    def test_ordering(self):
        assert Gtid(UUID_A, 1) < Gtid(UUID_A, 2)

    def test_invalid(self):
        with pytest.raises(GtidError):
            Gtid.parse("no-colon-here")
        with pytest.raises(GtidError):
            Gtid(UUID_A, 0)
        with pytest.raises(GtidError):
            Gtid("", 1)
        with pytest.raises(GtidError):
            Gtid.parse(f"{UUID_A}:notanumber")


class TestGtidSetBasics:
    def test_empty(self):
        s = GtidSet()
        assert s.is_empty()
        assert s.count() == 0
        assert str(s) == ""

    def test_add_and_contains(self):
        s = GtidSet()
        s.add(Gtid(UUID_A, 5))
        assert Gtid(UUID_A, 5) in s
        assert Gtid(UUID_A, 6) not in s
        assert Gtid(UUID_B, 5) not in s

    def test_adjacent_intervals_coalesce(self):
        s = GtidSet()
        s.add_range(UUID_A, 1, 3)
        s.add_range(UUID_A, 4, 6)
        assert str(s) == f"{UUID_A}:1-6"

    def test_overlapping_intervals_coalesce(self):
        s = GtidSet()
        s.add_range(UUID_A, 1, 5)
        s.add_range(UUID_A, 3, 8)
        assert str(s) == f"{UUID_A}:1-8"

    def test_disjoint_intervals_stay_separate(self):
        s = GtidSet()
        s.add_range(UUID_A, 1, 2)
        s.add_range(UUID_A, 5, 6)
        assert str(s) == f"{UUID_A}:1-2:5-6"

    def test_parse_roundtrip(self):
        text = f"{UUID_A}:1-5:7,{UUID_B}:3"
        assert str(GtidSet.parse(text)) == text

    def test_parse_empty(self):
        assert GtidSet.parse("").is_empty()

    def test_parse_malformed(self):
        with pytest.raises(GtidError):
            GtidSet.parse("garbage")
        with pytest.raises(GtidError):
            GtidSet.parse(f"{UUID_A}:x-y")

    def test_invalid_range(self):
        s = GtidSet()
        with pytest.raises(GtidError):
            s.add_range(UUID_A, 5, 3)
        with pytest.raises(GtidError):
            s.add_range(UUID_A, 0, 3)

    def test_last_txn_id(self):
        s = GtidSet.parse(f"{UUID_A}:1-5:9")
        assert s.last_txn_id(UUID_A) == 9
        assert s.last_txn_id(UUID_B) == 0

    def test_count(self):
        s = GtidSet.parse(f"{UUID_A}:1-5:7,{UUID_B}:2-3")
        assert s.count() == 8


class TestGtidSetRemove:
    def test_remove_middle_splits(self):
        s = GtidSet.parse(f"{UUID_A}:1-5")
        assert s.remove(Gtid(UUID_A, 3)) is True
        assert str(s) == f"{UUID_A}:1-2:4-5"

    def test_remove_edge(self):
        s = GtidSet.parse(f"{UUID_A}:1-5")
        s.remove(Gtid(UUID_A, 5))
        assert str(s) == f"{UUID_A}:1-4"

    def test_remove_single(self):
        s = GtidSet.parse(f"{UUID_A}:7")
        s.remove(Gtid(UUID_A, 7))
        assert s.is_empty()

    def test_remove_absent(self):
        s = GtidSet.parse(f"{UUID_A}:1-3")
        assert s.remove(Gtid(UUID_A, 9)) is False
        assert s.remove(Gtid(UUID_B, 1)) is False


class TestGtidSetAlgebra:
    def test_union(self):
        a = GtidSet.parse(f"{UUID_A}:1-3")
        b = GtidSet.parse(f"{UUID_A}:5-6,{UUID_B}:1")
        u = a.union(b)
        assert str(u) == f"{UUID_A}:1-3:5-6,{UUID_B}:1"
        # originals untouched
        assert str(a) == f"{UUID_A}:1-3"

    def test_subtract(self):
        a = GtidSet.parse(f"{UUID_A}:1-10")
        b = GtidSet.parse(f"{UUID_A}:3-4:8")
        assert str(a.subtract(b)) == f"{UUID_A}:1-2:5-7:9-10"

    def test_subtract_disjoint_uuid(self):
        a = GtidSet.parse(f"{UUID_A}:1-3")
        b = GtidSet.parse(f"{UUID_B}:1-3")
        assert a.subtract(b) == a

    def test_subset(self):
        small = GtidSet.parse(f"{UUID_A}:2-3")
        big = GtidSet.parse(f"{UUID_A}:1-5")
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_equality_and_hash(self):
        a = GtidSet.parse(f"{UUID_A}:1-3")
        b = GtidSet()
        for i in (1, 2, 3):
            b.add(Gtid(UUID_A, i))
        assert a == b
        assert hash(a) == hash(b)


ids = st.lists(st.integers(min_value=1, max_value=60), min_size=0, max_size=30)


class TestGtidSetProperties:
    @given(ids)
    def test_membership_matches_reference_set(self, txn_ids):
        s = GtidSet()
        for txn in txn_ids:
            s.add(Gtid(UUID_A, txn))
        reference = set(txn_ids)
        for candidate in range(1, 70):
            assert (Gtid(UUID_A, candidate) in s) == (candidate in reference)
        assert s.count() == len(reference)

    @given(ids)
    def test_parse_str_roundtrip(self, txn_ids):
        s = GtidSet()
        for txn in txn_ids:
            s.add(Gtid(UUID_A, txn))
        assert GtidSet.parse(str(s)) == s

    @given(ids, ids)
    def test_union_matches_reference(self, left, right):
        a, b = GtidSet(), GtidSet()
        for txn in left:
            a.add(Gtid(UUID_A, txn))
        for txn in right:
            b.add(Gtid(UUID_A, txn))
        union = a.union(b)
        reference = set(left) | set(right)
        assert union.count() == len(reference)
        for candidate in reference:
            assert Gtid(UUID_A, candidate) in union

    @given(ids, ids)
    def test_subtract_matches_reference(self, left, right):
        a, b = GtidSet(), GtidSet()
        for txn in left:
            a.add(Gtid(UUID_A, txn))
        for txn in right:
            b.add(Gtid(UUID_A, txn))
        diff = a.subtract(b)
        reference = set(left) - set(right)
        assert diff.count() == len(reference)
        for candidate in reference:
            assert Gtid(UUID_A, candidate) in diff

    @given(ids, ids)
    def test_subset_iff_reference_subset(self, left, right):
        a, b = GtidSet(), GtidSet()
        for txn in left:
            a.add(Gtid(UUID_A, txn))
        for txn in right:
            b.add(Gtid(UUID_A, txn))
        assert a.is_subset_of(b) == (set(left) <= set(right))

    @given(ids)
    def test_remove_then_absent(self, txn_ids):
        s = GtidSet()
        for txn in txn_ids:
            s.add(Gtid(UUID_A, txn))
        for txn in set(txn_ids):
            assert s.remove(Gtid(UUID_A, txn))
            assert Gtid(UUID_A, txn) not in s
        assert s.is_empty()


def _runs(txn_ids):
    """The normal form of a set of ints: sorted, coalesced, non-adjacent
    closed intervals."""
    runs: list[tuple[int, int]] = []
    for txn in sorted(txn_ids):
        if runs and txn == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], txn)
        else:
            runs.append((txn, txn))
    return runs


# One mutation of a two-uuid set. "next" ranges start at, just past or
# inside the current tail (the in-order steady state); "any" ranges land
# anywhere, so they also arrive out of order and overlap earlier spans.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("next"), st.sampled_from([UUID_A, UUID_B]),
            st.integers(-3, 2), st.integers(0, 4),
        ),
        st.tuples(
            st.just("any"), st.sampled_from([UUID_A, UUID_B]),
            st.integers(1, 60), st.integers(0, 6),
        ),
        st.tuples(st.just("remove"), st.sampled_from([UUID_A, UUID_B]), st.integers(1, 70)),
        st.tuples(st.just("update"), st.sampled_from([UUID_A, UUID_B]), ids),
    ),
    max_size=40,
)


class TestGtidSetMixedSequences:
    """``add_range`` extends the tail in place when a range arrives in
    order and merges only when it does not; whatever the mix of adds,
    removes and unions, the set must hold exactly the reference ids in
    the normal form ``_merge_intervals`` produces."""

    @given(_ops)
    def test_matches_reference_and_normal_form(self, ops):
        from repro.mysql.gtid import _merge_intervals

        s = GtidSet()
        reference: dict[str, set[int]] = {UUID_A: set(), UUID_B: set()}
        for op in ops:
            kind, uuid = op[0], op[1]
            if kind in ("next", "any"):
                if kind == "next":
                    start = max(1, s.last_txn_id(uuid) + op[2])
                else:
                    start = op[2]
                end = start + op[3]
                s.add_range(uuid, start, end)
                reference[uuid].update(range(start, end + 1))
            elif kind == "remove":
                assert s.remove(Gtid(uuid, op[2])) == (op[2] in reference[uuid])
                reference[uuid].discard(op[2])
            else:
                other = GtidSet()
                for txn in op[2]:
                    other.add(Gtid(uuid, txn))
                s.update(other)
                reference[uuid].update(op[2])
            for name, members in reference.items():
                spans = s._intervals.get(name, [])
                assert spans == _runs(members)
                assert spans == _merge_intervals(spans)
        assert s.count() == sum(len(members) for members in reference.values())
        assert s.is_empty() == (not any(reference.values()))

    def test_in_order_ranges_extend_the_tail(self):
        s = GtidSet()
        s.add_range(UUID_A, 1, 3)
        s.add_range(UUID_A, 4, 4)  # adjacent
        s.add_range(UUID_A, 2, 6)  # overlaps the tail
        s.add_range(UUID_A, 3, 5)  # inside the tail
        s.add_range(UUID_A, 9, 9)  # after a gap
        assert str(s) == f"{UUID_A}:1-6:9"
        s.add_range(UUID_A, 7, 8)  # out of order: fills the gap
        assert str(s) == f"{UUID_A}:1-9"

    def test_invalid_range_rejected_on_the_fast_path_too(self):
        s = GtidSet()
        s.add_range(UUID_A, 1, 5)
        with pytest.raises(GtidError):
            s.add_range(UUID_A, 7, 6)
        with pytest.raises(GtidError):
            s.add_range(UUID_A, 0, 9)
        assert str(s) == f"{UUID_A}:1-5"
