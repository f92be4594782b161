"""Tests for repro.workload.request."""

import pytest

from repro.exceptions import WorkloadError
from repro.workload.request import Request, RequestSet

from tests.conftest import make_request


class TestRequest:
    def test_duration_inclusive(self):
        assert make_request(start=2, end=4).duration == 3
        assert make_request(start=3, end=3).duration == 1

    def test_rate_at(self):
        req = make_request(start=1, end=2, rate=0.4)
        assert req.rate_at(0) == 0.0
        assert req.rate_at(1) == 0.4
        assert req.rate_at(2) == 0.4
        assert req.rate_at(3) == 0.0

    def test_is_active_and_slots(self):
        req = make_request(start=1, end=3)
        assert list(req.slots) == [1, 2, 3]
        assert req.is_active(1) and req.is_active(3)
        assert not req.is_active(0) and not req.is_active(4)

    def test_source_equals_dest_rejected(self):
        with pytest.raises(WorkloadError, match="source equals destination"):
            make_request(source="A", dest="A")

    def test_bad_window_rejected(self):
        with pytest.raises(WorkloadError):
            make_request(start=3, end=2)
        with pytest.raises(WorkloadError):
            make_request(start=-1, end=2)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(WorkloadError):
            make_request(rate=0.0)
        with pytest.raises(WorkloadError):
            make_request(rate=-0.5)

    def test_negative_value_rejected(self):
        with pytest.raises(WorkloadError):
            make_request(value=-1.0)

    @pytest.mark.parametrize("field", ["rate", "value"])
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rate_and_value_rejected(self, field, bad):
        with pytest.raises(WorkloadError, match=f"{field} must be finite"):
            make_request(**{field: bad})

    def test_zero_value_allowed(self):
        assert make_request(value=0.0).value == 0.0

    def test_negative_id_rejected(self):
        with pytest.raises(WorkloadError):
            make_request(request_id=-1)


class TestRequestSet:
    def make_set(self):
        return RequestSet(
            [
                make_request(0, start=0, end=1, value=3.0),
                make_request(1, start=2, end=3, value=2.0),
            ],
            num_slots=4,
        )

    def test_len_iter_contains(self):
        rs = self.make_set()
        assert len(rs) == 2
        assert [r.request_id for r in rs] == [0, 1]
        assert 0 in rs and 5 not in rs

    def test_getitem(self):
        rs = self.make_set()
        assert rs[1].value == 2.0
        with pytest.raises(WorkloadError):
            rs[9]

    def test_total_value(self):
        assert self.make_set().total_value == 5.0

    def test_max_rate(self):
        rs = RequestSet(
            [make_request(0, rate=0.2), make_request(1, rate=0.7)], num_slots=1
        )
        assert rs.max_rate == 0.7
        assert RequestSet([], num_slots=1).max_rate == 0.0

    def test_duplicate_id_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            RequestSet([make_request(0), make_request(0)], num_slots=1)

    def test_window_outside_cycle_rejected(self):
        with pytest.raises(WorkloadError, match="outside the billing cycle"):
            RequestSet([make_request(0, start=0, end=5)], num_slots=4)

    def test_subset_preserves_order(self):
        rs = self.make_set()
        sub = rs.subset([1])
        assert sub.request_ids == [1]
        assert sub.num_slots == rs.num_slots

    def test_subset_unknown_id_rejected(self):
        with pytest.raises(WorkloadError, match="unknown request ids"):
            self.make_set().subset([42])

    def test_active_at(self):
        rs = self.make_set()
        assert [r.request_id for r in rs.active_at(0)] == [0]
        assert [r.request_id for r in rs.active_at(3)] == [1]

    def test_bad_num_slots(self):
        with pytest.raises(WorkloadError):
            RequestSet([], num_slots=0)
