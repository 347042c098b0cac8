"""Exact bit-width assignment under an average-bits budget.

Each layer i picks one option b from the set B, minimizing the summed
sensitivity cost subject to

    sum_i b_i * P_i  <=  T * sum_i P_i

with T the target average bits per parameter. The solver is an exact
dynamic program over Pareto frontiers of (weight, cost) suffix states;
a pruned exhaustive search acts as its oracle, and prefix/suffix
upgrade heuristics serve as evaluation baselines.

Exactness rules. The budget is integer arithmetic end to end: T is a
Fraction (floats are refused; 8/3 has no float), parameter counts are
gcd-reduced, and feasibility checks cross-multiply. Cost comparisons
convert the float scores losslessly to integers on a shared power-of-
two grid, so optima never hinge on float addition order. Both solvers
break ties toward larger bits at earlier layers and report the same
canonical objective: math.fsum of the chosen per-layer scores.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, InfeasibleError, SizeError

DP_CAPACITY_LIMIT = 1_000_000
BRUTE_LIMIT = 10_000_000


def as_budget(t) -> Fraction:
    """Exact target average bits. Floats are rejected: 8/3 and friends
    do not survive the round trip through binary."""
    if isinstance(t, float):
        raise ContractError(
            f"budget {t!r} is a float; pass a string like '8/3' or a Fraction")
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise ContractError(f"bad budget {t!r}: {e}") from e


@dataclass(frozen=True)
class AllocationProblem:
    names: tuple          # layer names, model order
    params: tuple         # P_i, positive ints
    options: tuple        # (label, bits), ascending bits
    costs: tuple          # costs[i][k] >= 0, layer i option k
    target: Fraction      # average bits budget

    def __post_init__(self):
        n, k = len(self.names), len(self.options)
        if n == 0 or k == 0:
            raise ContractError("empty allocation problem")
        if len(self.params) != n or len(self.costs) != n:
            raise ContractError("layer count mismatch")
        if any(int(p) != p or p <= 0 for p in self.params):
            raise ContractError("parameter counts must be positive integers")
        bits = [b for _, b in self.options]
        if bits != sorted(bits) or len(set(bits)) != k:
            raise ContractError("options must have distinct ascending bits")
        for row in self.costs:
            if len(row) != k:
                raise ContractError("cost row length != option count")
            if any(not math.isfinite(c) or c < 0 for c in row):
                raise ContractError("costs must be finite and >= 0")
        if not min(bits) <= self.target <= max(bits):
            raise ContractError(
                f"target {self.target} outside option range [{min(bits)}, {max(bits)}]")

    @classmethod
    def build(cls, names, params, options, costs, target) -> "AllocationProblem":
        return cls(tuple(names), tuple(int(p) for p in params),
                   tuple((str(l), int(b)) for l, b in options),
                   tuple(tuple(float(c) for c in row) for row in costs),
                   as_budget(target))

    @classmethod
    def from_report(cls, report, target) -> "AllocationProblem":
        opts = [(s.label, s.bits) for s in report.options]
        return cls.build(
            [l.name for l in report.layers],
            [l.params for l in report.layers],
            opts,
            [[l.scores[lbl] for lbl, _ in opts] for l in report.layers],
            target)

    def bits_list(self) -> list:
        return [b for _, b in self.options]


@dataclass(frozen=True)
class BitAssignment:
    choices: tuple      # option label per layer
    bits: tuple         # chosen bits per layer
    objective: float    # canonical fsum of chosen scores
    avg_bits: Fraction  # exact achieved average
    solver: str         # dp | brute | head | tail

    def to_dict(self, problem: AllocationProblem) -> dict:
        return {
            "schema": "lowbit/assignment-v1",
            "solver": self.solver,
            "objective": self.objective,
            "avg_bits": str(self.avg_bits),
            "target_bits": str(problem.target),
            "layers": [{"name": n, "option": c, "bits": b}
                       for n, c, b in zip(problem.names, self.choices,
                                          self.bits)],
        }


def assignment_from_dict(d: dict):
    """(assignment, layer names, target) from serialized form."""
    if d.get("schema") != "lowbit/assignment-v1":
        raise ContractError(f"not a bit assignment: {d.get('schema')!r}")
    a = BitAssignment(
        tuple(l["option"] for l in d["layers"]),
        tuple(int(l["bits"]) for l in d["layers"]),
        float(d["objective"]),
        Fraction(d["avg_bits"]),
        d["solver"])
    return a, [l["name"] for l in d["layers"]], Fraction(d["target_bits"])


def canonical_objective(problem: AllocationProblem, picks) -> float:
    return math.fsum(problem.costs[i][k] for i, k in enumerate(picks))


def _finish(problem: AllocationProblem, picks, solver: str) -> BitAssignment:
    bits = tuple(problem.options[k][1] for k in picks)
    labels = tuple(problem.options[k][0] for k in picks)
    total = sum(b * p for b, p in zip(bits, problem.params))
    avg = Fraction(total, sum(problem.params))
    return BitAssignment(labels, bits, canonical_objective(problem, picks),
                         avg, solver)


def validate_assignment(problem: AllocationProblem, a: BitAssignment) -> None:
    """Exact post-hoc feasibility check; raises on any violation."""
    n = len(problem.names)
    if len(a.choices) != n or len(a.bits) != n:
        raise ContractError("assignment does not cover every layer")
    by_label = dict(problem.options)
    for lbl, b in zip(a.choices, a.bits):
        if by_label.get(lbl) != b:
            raise ContractError(f"option {lbl!r}/{b} not in the problem")
    t = problem.target
    used = sum(b * p for b, p in zip(a.bits, problem.params))
    total = sum(problem.params)
    if used * t.denominator > t.numerator * total:
        raise ContractError(f"budget violated: {used} bit-params over "
                            f"{total} params exceeds target {t}")
    if a.avg_bits != Fraction(used, total):
        raise ContractError(f"stated average bits {a.avg_bits} disagrees "
                            f"with choices ({Fraction(used, total)})")


# ---------------------------------------------------------------------------
# exact integer cost grid


def _int_costs(problem: AllocationProblem) -> list:
    """Scores as exact integers on a common power-of-two grid."""
    pairs = []
    for row in problem.costs:
        prow = []
        for c in row:
            m, e = math.frexp(c)
            prow.append((int(m * (1 << 53)), e - 53))
        pairs.append(prow)
    emin = min((e for row in pairs for n, e in row if n), default=0)
    return [[n << (e - emin) if n else 0 for n, e in row] for row in pairs]


def _normalized_weights(problem: AllocationProblem, cap: int):
    """(weights[i][k], capacity, coarsen factor) in reduced integer units."""
    g = math.gcd(*problem.params)
    u = [p // g for p in problem.params]
    su = sum(u)
    t = problem.target
    c0 = (t.numerator * su) // t.denominator
    bits = problem.bits_list()
    if c0 <= cap:
        return [[b * ui for b in bits] for ui in u], c0, 1
    d = -(-c0 // cap)
    w = [[-(-(b * ui) // d) for b in bits] for ui in u]
    return w, c0 // d, d


# ---------------------------------------------------------------------------
# dynamic program


def allocate_dp(problem: AllocationProblem,
                cap: int = DP_CAPACITY_LIMIT) -> BitAssignment:
    """Exact minimum-cost assignment via suffix Pareto frontiers.

    frontier[i] holds (weight, cost) states for layers i.. with weights
    strictly ascending and costs strictly descending, so the cheapest
    suffix within any capacity is the state with the largest weight
    under it. Reconstruction walks layers in order trying options
    largest-bits-first, which realizes the documented tie-break.
    """
    n = len(problem.names)
    w, capacity, coarsen = _normalized_weights(problem, cap)
    ic = _int_costs(problem)
    frontiers = [None] * (n + 1)
    frontiers[n] = [(0, 0)]
    for i in range(n - 1, -1, -1):
        merged = []
        for k in range(len(problem.options)):
            wo, co = w[i][k], ic[i][k]
            for wt, ct in frontiers[i + 1]:
                if wt + wo <= capacity:
                    merged.append((wt + wo, ct + co))
        merged.sort()
        front = []
        best = None
        for wt, ct in merged:
            if best is None or ct < best:
                front.append((wt, ct))
                best = ct
        if not front:
            _raise_infeasible(problem, coarsen)
        frontiers[i] = front

    def query(front, budget):
        idx = bisect_right(front, (budget, float("inf"))) - 1
        return None if idx < 0 else front[idx][1]

    target_cost = query(frontiers[0], capacity)
    if target_cost is None:
        _raise_infeasible(problem, coarsen)
    picks = []
    budget = capacity
    for i in range(n):
        for k in range(len(problem.options) - 1, -1, -1):
            rest = query(frontiers[i + 1], budget - w[i][k])
            if rest is not None and ic[i][k] + rest == target_cost:
                picks.append(k)
                budget -= w[i][k]
                target_cost = rest
                break
        else:
            raise ContractError("dp reconstruction lost the optimum")
    return _finish(problem, picks, "dp")


def _raise_infeasible(problem: AllocationProblem, coarsen: int) -> None:
    bmin = problem.bits_list()[0]
    sp = sum(problem.params)
    need = bmin * sp
    have = problem.target * sp
    note = f" (after conservative 1/{coarsen} unit coarsening)" if coarsen > 1 else ""
    raise InfeasibleError(
        f"no feasible assignment: all-{bmin}-bit needs {need} weighted bits, "
        f"budget {problem.target} x {sp} params = {have}{note}")


# ---------------------------------------------------------------------------
# exhaustive oracle


def allocate_brute(problem: AllocationProblem,
                   limit: int = BRUTE_LIMIT) -> BitAssignment:
    """Pruned exhaustive search; exact optimum, same tie-break as the DP.

    Enumeration visits options largest-bits-first, so the first strict
    minimum is the larger-bits-earlier optimum. Pruning only discards
    subtrees that cannot strictly improve, preserving that order.
    """
    n = len(problem.names)
    kk = len(problem.options)
    if kk ** n > limit:
        raise SizeError(f"{kk}^{n} assignments exceed the {limit} brute limit")
    ic = _int_costs(problem)
    t = problem.target
    # exact original-unit weights, scaled by the budget denominator
    wts = [[b * p * t.denominator for b in problem.bits_list()]
           for p in problem.params]
    budget = t.numerator * sum(problem.params)
    order = list(range(kk - 1, -1, -1))  # largest bits first
    min_w = [0] * (n + 1)
    min_c = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        min_w[i] = min_w[i + 1] + min(wts[i])
        min_c[i] = min_c[i + 1] + min(ic[i])
    best_cost = None
    best_picks = None
    picks = [0] * n

    def walk(i, wsum, csum):
        nonlocal best_cost, best_picks
        if wsum + min_w[i] > budget:
            return
        if best_cost is not None and csum + min_c[i] >= best_cost:
            return
        if i == n:
            best_cost = csum
            best_picks = picks.copy()
            return
        for k in order:
            picks[i] = k
            walk(i + 1, wsum + wts[i][k], csum + ic[i][k])

    walk(0, 0, 0)
    if best_picks is None:
        _raise_infeasible(problem, 1)
    return _finish(problem, best_picks, "brute")


# ---------------------------------------------------------------------------
# baselines


def allocate_heuristic(problem: AllocationProblem, mode: str) -> BitAssignment:
    """Upgrade a contiguous run of layers to the widest option, rest at min.

    head upgrades a prefix, tail a suffix, as many layers as the budget
    admits. Baseline only; never raises on a valid problem (zero
    upgrades is always feasible).
    """
    if mode not in ("head", "tail"):
        raise ContractError(f"unknown heuristic mode {mode!r}")
    bits = problem.bits_list()
    hi = len(bits) - 1
    n = len(problem.names)
    t = problem.target
    budget = t.numerator * sum(problem.params)
    base = bits[0] * sum(problem.params) * t.denominator
    idx = list(range(n)) if mode == "head" else list(range(n - 1, -1, -1))
    upgraded = set()
    used = base
    for i in idx:
        extra = (bits[hi] - bits[0]) * problem.params[i] * t.denominator
        if used + extra > budget:
            break
        used += extra
        upgraded.add(i)
    picks = [hi if i in upgraded else 0 for i in range(n)]
    return _finish(problem, picks, mode)
