"""Tests for repro.core.online — the slot-by-slot online extension."""

import time

import numpy as np
import pytest

import repro.core.online as online_mod
from repro.baselines.opt import solve_opt_spm
from repro.core.instance import SPMInstance
from repro.core.online import OnlineScheduler, solve_batch
from repro.exceptions import SolverTimeoutError
from repro.lp.result import RawSolution, SolveStatus
from repro.sim.validator import validate_schedule
from repro.workload.request import RequestSet

from tests.conftest import make_request
from tests.oracles.online import build_incremental_spm
from tests.oracles.online import solve_batch as reference_batch


class TestIncrementalModel:
    def test_free_ride_on_paid_unit(self, diamond):
        # One unit already charged on the cheap path; a small batch request
        # fits for free and must be accepted even with a tiny bid.
        requests = RequestSet(
            [make_request(0, rate=0.3, value=0.05)], num_slots=1
        )
        inst = SPMInstance.build(diamond, requests, k_paths=2)
        committed = np.zeros((inst.num_edges, 1))
        committed[inst.edge_index[("A", "B")], 0] = 0.5
        committed[inst.edge_index[("B", "D")], 0] = 0.5
        charged = np.zeros(inst.num_edges)
        charged[inst.edge_index[("A", "B")]] = 1
        charged[inst.edge_index[("B", "D")]] = 1
        model, x_vars, extra_vars = build_incremental_spm(
            inst, [0], committed, charged
        )
        sol = model.solve()
        assert sol.objective == pytest.approx(0.05)
        assert sol.values[x_vars[(0, 0)]] == 1

    def test_declines_when_extra_unit_costs_more(self, diamond):
        # No committed bandwidth: accepting a 0.5-bid request needs fresh
        # units on two price-1 links -> decline (objective 0).
        requests = RequestSet(
            [make_request(0, rate=0.3, value=0.5)], num_slots=1
        )
        inst = SPMInstance.build(diamond, requests, k_paths=2)
        model, x_vars, _ = build_incremental_spm(
            inst,
            [0],
            np.zeros((inst.num_edges, 1)),
            np.zeros(inst.num_edges),
        )
        sol = model.solve()
        assert sol.objective == pytest.approx(0.0)
        assert all(sol.values[v] == 0 for v in x_vars.values())


class TestOnlineScheduler:
    def test_outcome_validates(self, small_sub_b4_instance):
        outcome = OnlineScheduler().run(small_sub_b4_instance)
        assert validate_schedule(outcome.schedule).ok

    def test_profit_nonnegative(self, small_sub_b4_instance):
        outcome = OnlineScheduler().run(small_sub_b4_instance)
        assert outcome.profit >= -1e-9, (
            "exact incremental batches never accept a loss-making batch"
        )

    def test_bounded_by_offline_opt(self, small_sub_b4_instance):
        online = OnlineScheduler().run(small_sub_b4_instance)
        offline = solve_opt_spm(small_sub_b4_instance)
        assert online.profit <= offline.profit + 1e-6

    def test_decisions_cover_all_requests(self, small_sub_b4_instance):
        outcome = OnlineScheduler().run(small_sub_b4_instance)
        decided = set(outcome.schedule.assignment)
        assert decided == set(small_sub_b4_instance.requests.request_ids)
        total_batch = sum(n for _, n, _ in outcome.decisions_per_slot)
        assert total_batch == small_sub_b4_instance.num_requests

    def test_batch_telemetry_consistent(self, small_sub_b4_instance):
        outcome = OnlineScheduler().run(small_sub_b4_instance)
        accepted_total = sum(a for _, _, a in outcome.decisions_per_slot)
        assert accepted_total == outcome.num_accepted

    def test_empty_instance(self, small_sub_b4_instance):
        empty = small_sub_b4_instance.restrict([])
        outcome = OnlineScheduler().run(empty)
        assert outcome.profit == 0.0
        assert outcome.decisions_per_slot == []

    def test_batch_is_jointly_optimal(self, diamond):
        # Two same-slot requests that are only profitable together: a
        # one-at-a-time greedy (EcoFlow) declines both; the batch MILP
        # accepts both.
        requests = RequestSet(
            [
                make_request(0, rate=0.5, value=1.2),
                make_request(1, rate=0.5, value=1.2),
            ],
            num_slots=1,
        )
        inst = SPMInstance.build(diamond, requests, k_paths=2)
        outcome = OnlineScheduler().run(inst)
        assert outcome.num_accepted == 2
        assert outcome.profit == pytest.approx(2.4 - 2.0)

    def test_fast_and_expression_paths_agree(
        self, small_sub_b4_instance, monkeypatch
    ):
        # Every batch goes to the MILP, built array-natively on one side
        # and by the expression-layer reference on the other.
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
        fast = OnlineScheduler().run(small_sub_b4_instance)
        monkeypatch.setattr(online_mod, "solve_batch", reference_batch)
        slow = OnlineScheduler().run(small_sub_b4_instance)
        assert fast.schedule.assignment == slow.schedule.assignment
        assert fast.profit == pytest.approx(slow.profit)


def _one_request_state(diamond):
    requests = RequestSet([make_request(0, rate=0.3, value=5.0)], num_slots=1)
    inst = SPMInstance.build(diamond, requests, k_paths=2)
    return inst, np.zeros((inst.num_edges, 1)), np.zeros(inst.num_edges)


class TestLimitHandling:
    """solve_batch under limit-hit solves: keep incumbents, never guess."""

    def test_timeout_without_incumbent_raises(self, diamond, monkeypatch):
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
        monkeypatch.setattr(
            online_mod,
            "solve_compiled_raw",
            lambda *a, **k: RawSolution(
                status=SolveStatus.TIME_LIMIT, objective=float("nan")
            ),
        )
        inst, committed, charged = _one_request_state(diamond)
        with pytest.raises(SolverTimeoutError, match="no incumbent"):
            solve_batch(inst, [0], committed, charged, time_limit=5.0)

    def test_feasible_incumbent_accepted_and_flagged(self, diamond, monkeypatch):
        # One bid is enumerated by default; force it to the MILP backend.
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
        inst, committed, charged = _one_request_state(diamond)
        optimal = solve_batch(inst, [0], committed, charged)
        assert optimal.status is SolveStatus.OPTIMAL
        assert not optimal.suboptimal

        real = online_mod.solve_compiled_raw

        def relabel(*args, **kwargs):
            raw = real(*args, **kwargs)
            return RawSolution(
                status=SolveStatus.FEASIBLE, objective=raw.objective, x=raw.x
            )

        monkeypatch.setattr(online_mod, "solve_compiled_raw", relabel)
        decision = solve_batch(inst, [0], committed, charged)
        assert decision.status is SolveStatus.FEASIBLE
        assert decision.suboptimal
        assert decision.choices == optimal.choices

    @pytest.mark.parametrize(
        "cap", [online_mod.ENUMERATION_CAP, 0], ids=["enumeration", "milp"]
    )
    def test_poll_counts_against_the_time_limit(self, diamond, monkeypatch, cap):
        # One bid is enumerated by default; a zero cap sends it to HiGHS.
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", cap)
        real = online_mod.solve_compiled_raw
        milp_limits = []

        def recording(compiled, *, time_limit=None, check_cancelled=None):
            assert check_cancelled is None  # the batch was polled already
            milp_limits.append(time_limit)
            return real(compiled, time_limit=time_limit)

        monkeypatch.setattr(online_mod, "solve_compiled_raw", recording)
        polls = []

        def slow_poll():
            polls.append(None)
            time.sleep(0.1)
            return False

        inst, committed, charged = _one_request_state(diamond)
        with pytest.raises(SolverTimeoutError):
            solve_batch(
                inst, [0], committed, charged,
                time_limit=0.05, check_cancelled=slow_poll,
            )
        assert len(polls) == 1 and milp_limits == []
        # With time to spare, HiGHS gets only what the poll left.
        decision = solve_batch(
            inst, [0], committed, charged,
            time_limit=1.0, check_cancelled=slow_poll,
        )
        assert decision.status is SolveStatus.OPTIMAL and len(polls) == 2
        if cap == 0:
            [limit] = milp_limits
            assert limit < 1.0 - 0.1
