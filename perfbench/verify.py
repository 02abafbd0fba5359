"""Checks of txmonsim's outputs that the benchmark computes on its own.

Every checker returns a list of problem strings; an empty list accepts the
output. They read only the public fields of traces, outcomes and states and
never call `txmonsim.checks`, so a fault shared by the engine and the
program's own checkers still shows here.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

# Outcome labels as the paper's tables name them, keyed by the class name of
# the abort reason (Committed has no reason).
OUTCOME_LABELS = {
    "ContractFail": "contract_fail",
    "InsufficientBalance": "insufficient_balance",
    "GasExhausted": "gas_exhausted",
    "MonitorInitFail": "monitor_init_fail",
    "MonitorBeginFail": "monitor_begin_fail",
    "MonitorEndFail": "monitor_end_fail",
    "MonitorTermFail": "monitor_term_fail",
    "HookupFail": "hookup_fail",
    "FailBitSet": "fail_bit_set",
    "RecurringEscape": "recurring_escape",
}

HOOK_KINDS = ("init", "begin", "end", "term")


def outcome_label(outcome) -> str:
    """Label of a live outcome, or of a verdict re-read from a report bundle
    (those carry only their serialized `kind`)."""
    kind = getattr(outcome, "kind", None)
    if isinstance(kind, str):
        return kind
    if type(outcome).__name__ == "Committed":
        return "committed"
    return OUTCOME_LABELS[type(outcome.reason).__name__]


def supply(state) -> int:
    return sum(acct.balance for _, acct in state.items())


def balances(state) -> dict:
    return {addr: acct.balance for addr, acct in state.items()}


def gas_law(trace) -> list[str]:
    """An operation record pays one unit plus one per emission; hook and
    end-of-transaction records leave gas unchanged; gas never jumps between
    records and starts at the limit."""
    problems = []
    level = trace.meta.gas_limit
    for r in trace.records:
        if r.gas_before != level:
            problems.append(f"record {r.index}: gas {r.gas_before} does not continue {level}")
        spent = r.gas_before - r.gas_after
        expect = 1 + len(r.emitted) if r.kind.value == "op" else 0
        if spent != expect:
            problems.append(f"record {r.index}: {r.kind.value} spent {spent} gas, law says {expect}")
        level = r.gas_after
    return problems


def queue_laws(trace) -> list[str]:
    """DFS: queue_after = emitted ++ tail(queue_before). BFS: tail ++ emitted.
    The executed operation is the head of queue_before, hook records keep the
    queue, and each record starts from the queue the previous one left (the
    first from the external operation alone)."""
    problems = []
    dfs = trace.meta.scheduler.value == "dfs"
    previous = (trace.meta.external,)
    for r in trace.records:
        if r.queue_before != previous:
            problems.append(f"record {r.index}: queue does not continue the previous record")
        if r.kind.value == "op":
            if not r.queue_before or r.queue_before[0] != r.executed:
                problems.append(f"record {r.index}: executed operation is not the queue head")
            tail = r.queue_before[1:]
            expect = r.emitted + tail if dfs else tail + r.emitted
            if r.queue_after != expect:
                problems.append(f"record {r.index}: {trace.meta.scheduler.value} queue law broken")
        elif r.queue_after != r.queue_before:
            problems.append(f"record {r.index}: {r.kind.value} record changed the queue")
        previous = r.queue_after
    return problems


def conservation(pre_supply: int, outcome) -> list[str]:
    if type(outcome).__name__ == "Committed" and supply(outcome.final) != pre_supply:
        return [f"token supply {pre_supply} became {supply(outcome.final)}"]
    return []


def transaction(pre_supply: int, result) -> list[str]:
    """The laws every transaction of every workload must keep."""
    return gas_law(result.trace) + queue_laws(result.trace) + conservation(pre_supply, result.outcome)


def fanout_expectation(plan_targets: Iterable[str], monitored: str) -> tuple[int, str]:
    """Executed operations and verdict of one forwarder transaction, worked
    out from its plan: the forwarder's own operation plus one per entry, and
    the once-monitor rejects exactly one call to the monitored contract."""
    targets = list(plan_targets)
    verdict = "monitor_term_fail" if targets.count(monitored) == 1 else "committed"
    return 1 + len(targets), verdict


def fanout(result, expect_ops: int, expect_verdict: str) -> list[str]:
    problems = []
    ops = sum(1 for r in result.trace.records if r.kind.value == "op")
    if ops != expect_ops:
        problems.append(f"{ops} operations executed, plan has {expect_ops}")
    got = outcome_label(result.outcome)
    if got != expect_verdict:
        problems.append(f"verdict {got}, plan says {expect_verdict}")
    return problems


def ledger(pre, result, expected: Mapping[str, int], commit: bool,
           storages: Optional[Mapping[str, object]] = None) -> list[str]:
    """A committed transaction leaves every balance as the benchmark's own
    ledger says, and each listed account's storage as the plan says; an
    aborted one leaves the pre-state exactly as the ledger had it."""
    committed = type(result.outcome).__name__ == "Committed"
    if committed != commit:
        return [f"verdict {outcome_label(result.outcome)}, plan expects "
                f"{'a commit' if commit else 'an abort'}"]
    state = result.outcome.final if committed else pre
    got = balances(state)
    problems = [f"balance of {a}: {got.get(a)} != ledger {n}"
                for a, n in expected.items() if got.get(a) != n]
    if len(got) != len(expected):
        problems.append(f"{len(got)} accounts, ledger has {len(expected)}")
    for addr, storage in (storages or {}).items():
        if state.storage(addr) != storage:
            problems.append(f"storage of {addr} differs from the plan")
    return problems


# The verdicts the paper's separation results state for each run of the five
# counter-example reports.
COUNTEREXAMPLE_VERDICTS = {
    "dfs_only_once": {"o1": "monitor_term_fail", "o2": "committed"},
    "dfs_no_queue": {
        "busy_plain": "committed",
        "quiet_plain": "committed",
        "busy_probed": "contract_fail",
        "quiet_probed": "committed",
    },
    "dfs_fail_queue": {
        "o1": "fail_bit_set",
        "o2": "committed",
        "o3": "fail_bit_set",
        "o3_native": "committed",
        "seq_o2": "committed",
        "seq_o1": "fail_bit_set",
    },
    "bfs_only_once": {
        "t": "gas_exhausted",
        "t0": "committed",
        "t1": "committed",
        "t2": "committed",
        "t_prime0": "gas_exhausted",
        "t_native": "monitor_term_fail",
        "t_prime0_native": "committed",
        "seq_t0": "committed",
        "seq_t": "gas_exhausted",
    },
    "bfs_queue_gap": {
        "busy_plain": "committed",
        "quiet_plain": "committed",
        "busy_probed": "contract_fail",
        "quiet_probed": "committed",
    },
}


def counterexample_run(name: str, run: str, outcome) -> list[str]:
    expected = COUNTEREXAMPLE_VERDICTS.get(name, {}).get(run)
    got = outcome_label(outcome)
    if got != expected:
        return [f"{name}/{run}: verdict {got}, paper states {expected}"]
    return []


def counterexample(name: str, verdicts: Mapping[str, object]) -> list[str]:
    """Every run of a report, and no other, has the verdict the paper states."""
    expected = COUNTEREXAMPLE_VERDICTS.get(name, {})
    if verdicts.keys() != expected.keys():
        return [f"{name}: runs {sorted(verdicts)} != {sorted(expected)}"]
    return [p for run, outcome in verdicts.items() for p in counterexample_run(name, run, outcome)]


# Flash-loan rows: whether the client's transaction should commit. Every
# lender variant must agree on the staged clients.
FLASHLOAN_COMMITS = {
    "two_loans_repaid": True,
    "malicious_unpaid": False,
    "partial_repay": False,
    "two_loans_flat@dfs": True,
    "two_loans_flat@dfs(naive)": False,
    "malicious@dfs(naive)": False,
}
LENDERS = ("L1", "L2")


def flashloan_row(scenario: str, pre, outcome) -> list[str]:
    """Expected verdict, and lender safety: a committed loan never lowers a
    lender's balance."""
    committed = type(outcome).__name__ == "Committed"
    problems = []
    if FLASHLOAN_COMMITS.get(scenario) != committed:
        problems.append(f"{scenario}: committed={committed}, expected {FLASHLOAN_COMMITS.get(scenario)}")
    if committed:
        for lender in LENDERS:
            if pre.has(lender) and outcome.final.balance(lender) < pre.balance(lender):
                problems.append(f"{scenario}: lender {lender} lost money on a commit")
    return problems


def flashloan_agreement(rows: Iterable[tuple[str, bool]]) -> set[str]:
    """Scenarios on which the lender variants disagree."""
    seen: dict[str, set[bool]] = {}
    for scenario, committed in rows:
        seen.setdefault(scenario, set()).add(committed)
    return {s for s, v in seen.items() if len(v) > 1}
