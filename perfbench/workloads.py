"""The benchmark's three workloads: inputs made from a seed, and one round.

A round runs the same operations every time, from the same pre-state, so that
every round of every run attempts the same transactions and fails the same
ones. txmonsim's process-wide `_value_blob` cache is emptied where a user's
fresh process would start empty: at each round, and at each suite of
`paper_suites`. Without that, later rounds would get cache hits that no user
of `txmonsim run` or `txmonsim suite` gets.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from txmonsim import checks, core, equivalence, scenarios, serialize
from txmonsim.contracts import build, call, callspec
from txmonsim.core import (
    Account,
    ChainState,
    ContractDef,
    Mechanism,
    MonitorMode,
    Operation,
    SchedulerKind,
    StepFail,
    StepOk,
    VAddr,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    as_addr,
    as_amt,
    as_bool,
    as_int,
    as_rec,
    as_seq,
)
from txmonsim.engine import Engine, EngineConfig

import verify

clock = time.perf_counter


class Recorder:
    """Everything a run measures, summed over its rounds.

    A segment is a fixed piece of a round (one transaction, one suite or one
    equivalence case). Its host time is kept per round, so the throughput can
    be taken from each segment's median and a burst of interference on a
    shared machine does not decide it. Time spent in the benchmark's own
    checks is taken out of segment times.
    """

    def __init__(self) -> None:
        self.tx_s: list[float] = []
        self.segment_s: dict[str, list[float]] = {}
        self.segment_ops: dict[str, int] = {}
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.run_problems: list[str] = []
        self.checked: dict[str, int] = {}
        self.count = dict.fromkeys(
            ("ops", "records", "emitted", "gas_used", "queue_len_sum", "aborts",
             "aborted_ops", "readings", "hook_records", "blob_entries", "blob_hits",
             "blob_misses"), 0)
        self.queue_len_max = 0
        self.dumped_bytes = 0

    @contextmanager
    def checking(self):
        start = clock()
        try:
            yield
        finally:
            self.check_s += clock() - start

    @contextmanager
    def segment(self, name: str):
        ops, checked_s = self.count["ops"], self.check_s
        start = clock()
        yield
        took = clock() - start - (self.check_s - checked_s)
        self.segment_s.setdefault(name, []).append(took)
        ops = self.count["ops"] - ops
        if self.segment_ops.setdefault(name, ops) != ops:
            self.run_problems.append(
                f"segment {name}: {ops} operations, {self.segment_ops[name]} in the first round")

    def check(self, checker: str, problems: list[str]) -> list[str]:
        self.checked[checker] = self.checked.get(checker, 0) + 1
        return problems

    def transaction(self, result, problems: list[str], label: str) -> bool:
        """Count one transaction that returned an outcome; False if a check
        rejected it."""
        self.attempted += 1
        self._tally(result)
        if problems:
            self.fail(label, problems[0])
        return not problems

    def raised(self, label: str, exc: BaseException) -> None:
        """Count one transaction that raised instead of returning an outcome."""
        self.attempted += 1
        self.fail(label, f"raised {type(exc).__name__}: {exc}")

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 1000:
            self.failures.append(f"{label}: {problem}")

    def fresh_cache(self) -> None:
        """Empty the program's value-blob cache, keeping its statistics."""
        info = core._value_blob.cache_info()
        self.count["blob_entries"] += info.currsize
        self.count["blob_hits"] += info.hits
        self.count["blob_misses"] += info.misses
        core._value_blob.cache_clear()

    def _tally(self, result) -> None:
        c = self.count
        ops = 0
        for r in result.trace.records:
            kind = r.kind.value
            if kind == "op":
                ops += 1
                c["emitted"] += len(r.emitted)
                c["gas_used"] += r.gas_before - r.gas_after
                c["readings"] += len(r.readings)
                depth = len(r.queue_before)
                c["queue_len_sum"] += depth
                if depth > self.queue_len_max:
                    self.queue_len_max = depth
            elif kind in verify.HOOK_KINDS:
                c["hook_records"] += 1
        c["ops"] += ops
        c["records"] += len(result.trace.records)
        if not result.committed:
            c["aborts"] += 1
            c["aborted_ops"] += ops


def _write_bundle(path: Path, payload: dict) -> dict:
    """Write a bundle as `txmonsim suite` does and read it back."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return json.loads(path.read_text())


@contextmanager
def _fresh_dir(parent: Path):
    """A new directory for one round's files, removed after the round.

    Rewriting the same file names every round would truncate files that
    exist, and the file system then flushes them to disk on close; the round
    would wait on the disk.
    """
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# paper_suites


class PaperSuites:
    """The paper's three experiments as `txmonsim suite` runs them.

    The inputs are the paper's fixed experiments; the equivalence suite runs
    at the CLI's `--seed 1` numbering with 64 instances per case, which
    includes the two `ustore_via_first_bfs` scenarios whose transformed
    transaction raises instead of returning an outcome. `--seed` sets the
    order of the suites and of the equivalence cases.
    """

    name = "paper_suites"
    tail_percentile = 99.97
    EQUIVALENCE_SEED = 1
    INSTANCES = 64
    COMPOSITION = "composition_count_first_count"

    def __init__(self, seed: int, out_dir: Path, tracer=None) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.suites = ["counterexamples", "flashloan", "equivalence"]
        rng.shuffle(self.suites)
        self.cases = list(equivalence.CASES) + [self.COMPOSITION]
        rng.shuffle(self.cases)
        base = self.EQUIVALENCE_SEED * 1_000_003
        self.seeds = range(base, base + self.INSTANCES)
        self.out_dir = out_dir
        self.label = ""
        self.captured: list | None = None
        self.scenario_failed = False
        self.raised = False

    def round(self, rec: Recorder) -> None:
        original = Engine.run_transaction
        Engine.run_transaction = self._capture(rec, original)
        try:
            with _fresh_dir(self.out_dir) as self.bundle_dir:
                for suite in self.suites:
                    rec.fresh_cache()
                    getattr(self, f"_{suite}")(rec)
        finally:
            Engine.run_transaction = original

    def _capture(self, rec: Recorder, original):
        workload = self

        def run_transaction(engine, state, external, *args, **kwargs):
            start = clock()
            try:
                result = original(engine, state, external, *args, **kwargs)
            except Exception as exc:
                rec.raised(workload.label, exc)
                workload.scenario_failed = workload.raised = True
                raise
            took = clock() - start
            with rec.checking():
                pre_supply = verify.supply(state)
                problems = rec.check("transaction_laws", verify.transaction(pre_supply, result))
                rec.tx_s.append(took)
                ok = rec.transaction(result, problems, workload.label)
                workload.scenario_failed |= not ok
                if workload.captured is not None:
                    workload.captured.append([state, result, ok])
            return result

        return run_transaction

    def _reject(self, rec: Recorder, entry: list, label: str, problems: list[str]) -> None:
        if problems and entry[2]:
            entry[2] = False
            rec.fail(label, problems[0])

    def _suite_raised(self, rec: Recorder, exc: Exception) -> None:
        """A suite that raises fails every transaction it ran."""
        for entry in self.captured:
            self._reject(rec, entry, self.label, [f"suite raised {exc!r}"])

    def _counterexamples(self, rec: Recorder) -> None:
        self.label = "counterexamples"
        self.captured = []
        with rec.segment("counterexamples"):
            try:
                reports = scenarios.counterexample_suite()
            except Exception as exc:  # e.g. a report that fails its own certification
                reports = []
                self._suite_raised(rec, exc)
            by_trace = {id(entry[1].trace): entry for entry in self.captured}
            if reports and {r.name for r in reports} != verify.COUNTEREXAMPLE_VERDICTS.keys():
                rec.run_problems.append(f"counter-example reports {[r.name for r in reports]}")
            for report in reports:
                with rec.checking():
                    for key, trace in report.traces.items():
                        entry = by_trace.get(id(trace))
                        if entry is None:
                            rec.run_problems.append(f"{report.name}/{key}: trace not from a transaction")
                            continue
                        problems = rec.check("paper_verdicts", verify.counterexample_run(
                            report.name, key, entry[1].outcome))
                        self._reject(rec, entry, f"counterexamples/{report.name}/{key}", problems)
                back = serialize.report_from_json(_write_bundle(
                    self.bundle_dir / f"{report.name}.json", serialize.report_to_json(report)))
                problems = scenarios.verify_report(back)
                with rec.checking():
                    problems += verify.counterexample(report.name, back.verdicts)
                    if back.traces != report.traces:
                        problems.append("traces changed across the bundle")
                    if problems:
                        rec.run_problems.append(f"bundle {report.name}: {problems[0]}")
        self.captured = None

    def _flashloan(self, rec: Recorder) -> None:
        self.label = "flashloan"
        self.captured = []
        with rec.segment("flashloan"):
            try:
                report = scenarios.run_flashloan_suite()
            except Exception as exc:
                self._suite_raised(rec, exc)
                self.captured = None
                return
            with rec.checking():
                if len(report.rows) != len(self.captured):
                    rec.run_problems.append(
                        f"flashloan: {len(report.rows)} rows from {len(self.captured)} transactions")
                rows = list(zip(report.rows, self.captured))
                split = verify.flashloan_agreement(
                    (row.scenario, entry[1].committed) for row, entry in rows)
                for row, entry in rows:
                    pre, result = entry[0], entry[1]
                    problems = verify.flashloan_row(row.scenario, pre, result.outcome)
                    if row.committed != result.committed:
                        problems.append(f"{row.scenario}: the table disagrees with its transaction")
                    if row.scenario in split:
                        problems.append(f"{row.scenario}: lender variants disagree")
                    rec.check("flashloan_rows", problems)
                    self._reject(rec, entry, f"flashloan/{row.scenario}/{row.variant}", problems)
            payload = {
                "rows": [
                    {"scenario": r.scenario, "variant": r.variant, "outcome": r.outcome_kind,
                     "expected_commit": r.expected_commit,
                     "lender_pre": list(r.lender_balances_pre),
                     "lender_post": list(r.lender_balances_post)}
                    for r in report.rows
                ],
                "agreement": {k: sorted(v) for k, v in report.agreement().items()},
            }
            if _write_bundle(self.bundle_dir / "flashloan.json", payload) != payload:
                rec.run_problems.append("flashloan bundle changed on re-reading")
        self.captured = None

    def _equivalence(self, rec: Recorder) -> None:
        cases = []
        for name in self.cases:
            totals = {"case": name, "scenarios": 0, "transactions": 0, "commits": 0,
                      "aborts": 0, "failures": []}
            with rec.segment(name):
                for seed in self.seeds:
                    self.label = f"equivalence/{name}/seed {seed}"
                    self.scenario_failed = self.raised = False
                    try:
                        if name == self.COMPOSITION:
                            report = equivalence.run_composition(range(seed, seed + 1))
                        else:
                            report = equivalence.run_case(equivalence.CASES[name], range(seed, seed + 1))
                    except Exception as exc:
                        if not self.raised:  # else the capture counted it as a failed transaction
                            rec.run_problems.append(f"{self.label}: raised {exc!r} outside a transaction")
                        continue
                    with rec.checking():
                        rec.check("zero_divergences", report.failures)
                        if report.failures and not self.scenario_failed:
                            rec.fail(self.label, report.failures[0].problem)
                    for key in ("scenarios", "transactions", "commits", "aborts"):
                        totals[key] += getattr(report, key)
                    totals["failures"] += [
                        {"seed": f.seed, "tx": f.tx_index, "problem": f.problem}
                        for f in report.failures
                    ]
            cases.append(totals)
        with rec.segment("equivalence_bundle"):
            payload = {"cases": cases}
            if _write_bundle(self.bundle_dir / "equivalence.json", payload) != payload:
                rec.run_problems.append("equivalence bundle changed on re-reading")


# ---------------------------------------------------------------------------
# Engine-driven workloads


def _step_spans(contract: ContractDef, tracer) -> ContractDef:
    """The contract, with its step function traced when the run is."""
    return tracer.wrap_step(contract) if tracer is not None else contract


class QueueFanout:
    """Monitored forwarder transactions with long pending queues.

    Per round and scheduler: ten plans of 100 entries, four of 1,000 and one
    of 4,000, all from the same pre-state. `--seed` sets each plan's money
    per entry, how many entries (0, 1 or 2) call the once-monitored contract
    A and where, and the order of the thirty transactions. The forwarder B
    forwards what the external operation pays it; A probes the queue.
    """

    name = "queue_fanout"
    tail_percentile = 95.0
    LADDER = (100,) * 10 + (1000,) * 4 + (4000,)
    GAS = 10_000

    def __init__(self, seed: int, out_dir: Path, tracer=None) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        registry, accounts = {}, {}
        for addr, builtin, params in (
            ("A", "once_monitored_A", {"probe": ("queue",)}),
            ("B", "forwarder_B", {}),
            ("C", "sink_C", {}),
        ):
            made = build(builtin, params, 0)
            registry[addr] = _step_spans(made.contract, tracer)
            accounts[addr] = Account(storage=made.storage, monitor_storage=made.monitor_storage)
        accounts["ext"] = Account(balance=10**9)
        self.registry = registry
        self.pre = ChainState(accounts)
        self.pre_supply = verify.supply(self.pre)
        self.engines = {
            s: Engine(registry, EngineConfig(
                scheduler=s, gas_limit=self.GAS, mechanisms=frozenset({Mechanism.QUEUE}),
                monitor_mode=MonitorMode.TRANSACTION))
            for s in (SchedulerKind.DFS, SchedulerKind.BFS)
        }
        self.txs = []
        for scheduler in self.engines:
            for n in self.LADDER:
                targets = ["C"] * n
                for i in rng.sample(range(n), rng.choice((0, 1, 2))):
                    targets[i] = "A"
                money = [rng.randint(0, 2) for _ in range(n)]
                plan = VSeq(tuple(callspec(t, money=m) for t, m in zip(targets, money)))
                op = Operation(dest="B", src="ext", method="run", param=plan, money=sum(money))
                ops, verdict = verify.fanout_expectation(targets, "A")
                balances = verify.balances(self.pre)
                balances["ext"] -= sum(money)
                for t, m in zip(targets, money):
                    balances[t] += m
                self.txs.append((scheduler, n, op, ops, verdict, balances))
        rng.shuffle(self.txs)

    def round(self, rec: Recorder) -> None:
        rec.fresh_cache()
        untouched = verify.balances(self.pre)
        for i, (scheduler, n, op, ops, verdict, balances) in enumerate(self.txs):
            label = f"{scheduler.value}-{n}-{i}"
            with rec.segment(label):
                start = clock()
                try:
                    result = self.engines[scheduler].run_transaction(self.pre, op)
                    consumed = checks.check_all(self.registry, self.pre, result)
                except Exception as exc:
                    rec.raised(label, exc)
                    continue
                took = clock() - start
                with rec.checking():
                    committed = verdict == "committed"
                    problems = (
                        rec.check("program_check_all", consumed)
                        + rec.check("transaction_laws", verify.transaction(self.pre_supply, result))
                        + rec.check("monitor_plan", verify.fanout(result, ops, verdict))
                        + rec.check("ledger", verify.ledger(
                            self.pre, result, balances if committed else untouched, committed))
                    )
                    rec.transaction(result, problems, label)
                # Dropping the trace is part of consuming it; freeing it here
                # keeps its cost off the next transaction's clock.
                start = clock()
                del result
                rec.tx_s.append(took + clock() - start)


def _holder_contract() -> ContractDef:
    """An account with record storage that logs every payment it receives."""

    def step(view, method, param, money, storage, balance):
        if method != "receive":
            return StepFail(f"no method {method!r}")
        s = as_rec(storage)
        return StepOk(VRec({
            "n": VInt(as_int(s.get("n")) + 1),
            "total": VAmt(as_amt(s.get("total")) + money),
            "last": VAmt(money),
        }))

    return ContractDef(step=step)


def _payer_contract() -> ContractDef:
    """Pays each listed account, then asks the gate to settle."""

    def step(view, method, param, money, storage, balance):
        if method != "pay":
            return StepFail(f"no method {method!r}")
        plan = as_rec(param)
        pays = tuple(
            call(as_addr(t.get("to")), "receive", money=as_amt(t.get("amt")))
            for t in as_seq(plan.get("transfers"))
        )
        paid = VRec({"paid": VInt(as_int(as_rec(storage).get("paid")) + 1)})
        return StepOk(paid, pays + (call("G", "settle", param=plan.get("settle")),))

    return ContractDef(step=step)


def _gate_contract() -> ContractDef:
    """Settles or rejects a payment run; rejecting aborts it after its transfers."""

    def step(view, method, param, money, storage, balance):
        if method != "settle" or not as_bool(param):
            return StepFail("settlement rejected")
        return StepOk(VRec({"settled": VInt(as_int(as_rec(storage).get("settled")) + 1)}))

    return ContractDef(step=step)


class WideState:
    """A stream of payment transactions over 1,000 accounts with record storage.

    Per round: forty transactions from the same pre-state, each committing
    on the state the previous commit left. Ten pay 3 accounts (five of them
    are rejected late, after their transfers), twenty pay 4, nine pay 6 and
    one pays 16. `--seed` sets the starting balances, which accounts each
    transaction pays and how much, which ones are rejected, and the order.
    Every trace is written out with `serialize.dump_traces`, as
    `txmonsim run --trace` does.
    """

    name = "wide_state"
    tail_percentile = 99.0
    ACCOUNTS = 1000
    MIX = ((3, True),) * 5 + ((3, False),) * 5 + ((4, False),) * 20 + ((6, False),) * 9 + ((16, False),)

    def __init__(self, seed: int, out_dir: Path, tracer=None) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        holders = [f"h{i:04d}" for i in range(self.ACCOUNTS)]
        holder = _step_spans(_holder_contract(), tracer)
        self.registry = {h: holder for h in holders}
        self.registry["P"] = _step_spans(_payer_contract(), tracer)
        self.registry["G"] = _step_spans(_gate_contract(), tracer)
        fresh = VRec({"n": VInt(0), "total": VAmt(0), "last": VAmt(0)})
        accounts = {h: Account(storage=fresh, balance=rng.randint(0, 1000)) for h in holders}
        accounts["P"] = Account(storage=VRec({"paid": VInt(0)}))
        accounts["G"] = Account(storage=VRec({"settled": VInt(0)}))
        accounts["ext"] = Account(balance=10**9)
        self.pre = ChainState(accounts)
        self.engine = Engine(self.registry, EngineConfig(scheduler=SchedulerKind.DFS, gas_limit=1000))
        self.txs = []
        mix = list(self.MIX)
        rng.shuffle(mix)
        for k, rejected in mix:
            transfers = [(h, rng.randint(1, 100)) for h in rng.sample(holders, k)]
            plan = VRec({
                "transfers": VSeq(tuple(VRec({"to": VAddr(h), "amt": VAmt(a)}) for h, a in transfers)),
                "settle": VBool(not rejected),
            })
            op = Operation(dest="P", src="ext", method="pay", param=plan,
                           money=sum(a for _, a in transfers))
            self.txs.append((op, transfers, not rejected))
        self.out_dir = out_dir

    def round(self, rec: Recorder) -> None:
        rec.fresh_cache()
        state = self.pre
        ledger = verify.balances(state)
        supply = sum(ledger.values())
        storage = {a: acct.storage for a, acct in state.items()}
        with _fresh_dir(self.out_dir) as traces, open(traces / "wide_state.trace", "w") as out:
            for i, (op, transfers, commit) in enumerate(self.txs):
                label = f"tx {i}"
                with rec.segment(label):
                    start = clock()
                    try:
                        result = self.engine.run_transaction(state, op)
                        text = serialize.dump_traces([result.trace])
                        out.write(text)
                    except Exception as exc:
                        rec.raised(label, exc)
                        continue
                    took = clock() - start
                    with rec.checking():
                        expected = ledger
                        touched = {h: storage[h] for h, _ in transfers}
                        if commit:
                            expected = dict(ledger)
                            expected["ext"] -= op.money
                            for h, amt in transfers:
                                expected[h] += amt
                                s = as_rec(storage[h])
                                touched[h] = VRec({"n": VInt(as_int(s.get("n")) + 1),
                                                   "total": VAmt(as_amt(s.get("total")) + amt),
                                                   "last": VAmt(amt)})
                            for addr, key in (("P", "paid"), ("G", "settled")):
                                touched[addr] = VRec({key: VInt(as_int(as_rec(storage[addr]).get(key)) + 1)})
                        problems = (
                            rec.check("transaction_laws", verify.transaction(supply, result))
                            + rec.check("ledger", verify.ledger(state, result, expected, commit, touched))
                        )
                        rec.dumped_bytes += len(text)
                        if text.count("\n") != 1 + len(result.trace.records):
                            problems.append("trace file lines do not match the records")
                        if rec.transaction(result, problems, label) and commit:
                            state, ledger = result.outcome.final, expected
                            storage.update(touched)
                    start = clock()
                    del result, text
                    rec.tx_s.append(took + clock() - start)


WORKLOADS = {w.name: w for w in (PaperSuites, QueueFanout, WideState)}
