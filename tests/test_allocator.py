"""Bit-assignment solver tests against an exact rational oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from lowbit import allocator as al
from lowbit.errors import ContractError, InfeasibleError, SizeError


def oracle_best(problem):
    """Exhaustive search with Fraction-exact cost sums and the
    larger-bits-earlier tie-break; independent of the solvers."""
    n = len(problem.names)
    kk = len(problem.options)
    t = problem.target
    budget = t.numerator * sum(problem.params)
    best = None
    order = list(range(kk - 1, -1, -1))
    for combo in itertools.product(order, repeat=n):
        w = sum(problem.options[k][1] * p
                for k, p in zip(combo, problem.params)) * t.denominator
        if w > budget:
            continue
        c = sum(Fraction(problem.costs[i][k]) for i, k in enumerate(combo))
        if best is None or c < best[0]:
            best = (c, combo)
    return best


def rand_problem(rng, n=None, kk=None, pmax=10_000):
    n = n or int(rng.integers(1, 7))
    kk = kk or int(rng.integers(2, 4))
    bits = sorted(rng.choice([2, 3, 4, 5, 6, 8], size=kk, replace=False).tolist())
    options = [(f"w{b}g32", int(b)) for b in bits]
    params = [int(rng.integers(1, pmax + 1)) for _ in range(n)]
    costs = []
    for _ in range(n):
        row = sorted((float(x) for x in rng.gamma(2.0, 5.0, size=kk)), reverse=True)
        if rng.random() < 0.2:
            row[-1] = 0.0
        costs.append(row)
    lo, hi = bits[0], bits[-1]
    target = Fraction(int(rng.integers(lo * 4, hi * 4 + 1)), 4)
    return al.AllocationProblem.build(
        [f"l{i}" for i in range(n)], params, options, costs, target)


class TestWorkedExample:
    def test_three_layer_upgrade_choice(self):
        prob = al.AllocationProblem.build(
            ["a", "b", "c"], [1, 1, 1], [("w2", 2), ("w4", 4)],
            [[5.0, 0.0], [1.0, 0.0], [1.0, 0.0]], Fraction(8, 3))
        for solve in (al.allocate_dp, al.allocate_brute):
            got = solve(prob)
            assert got.bits == (4, 2, 2)
            assert got.objective == 2.0
            assert got.avg_bits == Fraction(8, 3)
            al.validate_assignment(prob, got)

    def test_single_layer(self):
        prob = al.AllocationProblem.build(
            ["only"], [7], [("w2", 2), ("w4", 4), ("w8", 8)],
            [[3.0, 1.0, 0.5]], 4)
        got = al.allocate_brute(prob)
        assert got.bits == (4,)
        assert got.objective == 1.0

    def test_non_binding_budget_takes_argmin(self):
        prob = al.AllocationProblem.build(
            ["a", "b"], [10, 1], [("w2", 2), ("w8", 8)],
            [[1.0, 0.25], [0.5, 0.125]], 8)
        got = al.allocate_dp(prob)
        assert got.bits == (8, 8)
        assert got.objective == 0.375

    def test_equal_costs_tie_break_prefers_larger_bits(self):
        prob = al.AllocationProblem.build(
            ["a", "b"], [1, 1], [("w2", 2), ("w4", 4)],
            [[1.0, 1.0], [1.0, 1.0]], 3)
        for solve in (al.allocate_dp, al.allocate_brute):
            got = solve(prob)
            # budget 6 weighted bits: one upgrade fits; earlier layer gets it
            assert got.bits == (4, 2)


class TestSolverAgreement:
    def test_dp_matches_brute_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            prob = rand_problem(rng)
            a = al.allocate_dp(prob)
            b = al.allocate_brute(prob)
            assert a.objective == b.objective
            assert a.choices == b.choices
            assert a.avg_bits == b.avg_bits
            al.validate_assignment(prob, a)
            al.validate_assignment(prob, b)

    def test_dp_matches_rational_oracle(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            prob = rand_problem(rng, n=int(rng.integers(1, 5)))
            want = oracle_best(prob)
            got = al.allocate_dp(prob)
            assert want is not None
            picks = tuple(dict((b, k) for k, (_, b) in enumerate(prob.options))[b]
                          for b in got.bits)
            assert picks == want[1]
            assert got.objective == math.fsum(
                prob.costs[i][k] for i, k in enumerate(want[1]))

    def test_objective_monotone_in_budget(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            prob = rand_problem(rng)
            lo, hi = prob.bits_list()[0], prob.bits_list()[-1]
            prev = None
            for q in range(lo * 4, hi * 4 + 1, 2):
                p2 = al.AllocationProblem.build(
                    prob.names, prob.params, prob.options, prob.costs,
                    Fraction(q, 4))
                obj = al.allocate_dp(p2).objective
                if prev is not None:
                    assert obj <= prev
                prev = obj


class TestCoarsening:
    def test_tiny_capacity_still_feasible_in_original_units(self):
        # ceil rounding may rightly refuse zero-slack targets; whenever
        # a coarsened solve returns, it must be feasible in original
        # units and no better than the exact optimum
        rng = np.random.default_rng(80)
        solved = 0
        for _ in range(30):
            prob = rand_problem(rng, pmax=9973)
            exact = al.allocate_dp(prob)
            try:
                coarse = al.allocate_dp(prob, cap=97)
            except InfeasibleError:
                continue
            solved += 1
            al.validate_assignment(prob, coarse)
            assert coarse.objective >= exact.objective
        assert solved >= 20

    def test_infeasible_after_coarsening_raises(self):
        # target exactly min bits leaves zero slack; ceil rounding on
        # odd parameter counts then overshoots the floored capacity
        prob = al.AllocationProblem.build(
            ["a", "b", "c"], [3, 5, 7], [("w2", 2), ("w4", 4)],
            [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], 2)
        with pytest.raises(InfeasibleError, match="all-2-bit"):
            al.allocate_dp(prob, cap=7)
        assert al.allocate_dp(prob).bits == (2, 2, 2)


class TestHeuristics:
    def base_problem(self, costs, target="4"):
        n = len(costs)
        return al.AllocationProblem.build(
            [f"l{i}" for i in range(n)], [100] * n,
            [("w2", 2), ("w8", 8)], costs, target)

    def test_head_upgrades_prefix(self):
        prob = self.base_problem([[9.0, 0.0]] * 6)
        got = al.allocate_heuristic(prob, "head")
        # avg budget 4 bits: 6*400 total, upgrades cost 600 each over base 1200
        assert got.bits == (8, 8, 2, 2, 2, 2)
        assert got.solver == "head"
        al.validate_assignment(prob, got)

    def test_tail_upgrades_suffix(self):
        prob = self.base_problem([[9.0, 0.0]] * 6)
        got = al.allocate_heuristic(prob, "tail")
        assert got.bits == (2, 2, 2, 2, 8, 8)

    def test_zero_budget_means_no_upgrades(self):
        prob = self.base_problem([[9.0, 0.0]] * 4, target=2)
        for mode in ("head", "tail"):
            got = al.allocate_heuristic(prob, mode)
            assert got.bits == (2, 2, 2, 2)

    def test_full_budget_upgrades_everything(self):
        prob = self.base_problem([[9.0, 0.0]] * 4, target=8)
        got = al.allocate_heuristic(prob, "head")
        assert got.bits == (8, 8, 8, 8)

    def test_dp_never_worse_than_heuristics(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            prob = rand_problem(rng)
            dp = al.allocate_dp(prob).objective
            for mode in ("head", "tail"):
                h = al.allocate_heuristic(prob, mode)
                al.validate_assignment(prob, h)
                assert dp <= h.objective

    def test_bad_mode_rejected(self):
        prob = self.base_problem([[1.0, 0.0]])
        with pytest.raises(ContractError):
            al.allocate_heuristic(prob, "middle")


class TestContracts:
    def test_float_budget_rejected(self):
        with pytest.raises(ContractError, match="float"):
            al.as_budget(2.5)
        assert al.as_budget("8/3") == Fraction(8, 3)
        assert al.as_budget("2.5") == Fraction(5, 2)
        assert al.as_budget(4) == 4

    def test_target_outside_option_range(self):
        with pytest.raises(ContractError):
            al.AllocationProblem.build(["a"], [1], [("w2", 2), ("w4", 4)],
                                       [[1.0, 0.0]], 5)
        with pytest.raises(ContractError):
            al.AllocationProblem.build(["a"], [1], [("w2", 2), ("w4", 4)],
                                       [[1.0, 0.0]], 1)

    def test_malformed_problems(self):
        with pytest.raises(ContractError):
            al.AllocationProblem.build([], [], [("w2", 2)], [], 2)
        with pytest.raises(ContractError):
            al.AllocationProblem.build(["a"], [0], [("w2", 2)], [[1.0]], 2)
        with pytest.raises(ContractError):
            al.AllocationProblem.build(["a"], [1], [("w4", 4), ("w2", 2)],
                                       [[0.0, 1.0]], 3)
        with pytest.raises(ContractError):
            al.AllocationProblem.build(["a"], [1], [("w2", 2)], [[-1.0]], 2)
        with pytest.raises(ContractError):
            al.AllocationProblem.build(["a"], [1], [("w2", 2)],
                                       [[float("nan")]], 2)

    def test_brute_size_guard(self):
        prob = al.AllocationProblem.build(
            ["a", "b", "c"], [1, 1, 1], [("w2", 2), ("w4", 4)],
            [[1.0, 0.0]] * 3, 4)
        with pytest.raises(SizeError):
            al.allocate_brute(prob, limit=7)

    def test_validator_catches_violations(self):
        prob = al.AllocationProblem.build(
            ["a", "b"], [1, 1], [("w2", 2), ("w4", 4)],
            [[1.0, 0.0], [1.0, 0.0]], 3)
        bad = al.BitAssignment(("w4", "w4"), (4, 4), 0.0, Fraction(4), "dp")
        with pytest.raises(ContractError, match="budget"):
            al.validate_assignment(prob, bad)
        short = al.BitAssignment(("w2",), (2,), 1.0, Fraction(2), "dp")
        with pytest.raises(ContractError, match="cover"):
            al.validate_assignment(prob, short)
        lying = al.BitAssignment(("w2", "w2"), (2, 2), 2.0, Fraction(3), "dp")
        with pytest.raises(ContractError, match="average"):
            al.validate_assignment(prob, lying)

    def test_serialization_round_trip(self):
        prob = al.AllocationProblem.build(
            ["x", "y", "z"], [1, 2, 3], [("w2", 2), ("w4", 4)],
            [[5.0, 0.0], [1.0, 0.0], [1.0, 0.0]], "8/3")
        a = al.allocate_dp(prob)
        d = a.to_dict(prob)
        assert d["target_bits"] == "8/3"
        assert [r["name"] for r in d["layers"]] == ["x", "y", "z"]
        back, names, target = al.assignment_from_dict(d)
        assert back == a
        assert names == ["x", "y", "z"]
        assert target == Fraction(8, 3)
