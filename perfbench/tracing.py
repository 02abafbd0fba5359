"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install()` replaces public functions and methods of txmonsim's modules
with timing wrappers, and `uninstall()` puts the originals back; nothing under
`src/` changes. Each wrapped call is a span. A span's self time is its
duration minus the time of the wrapped calls it made. Spans are folded into
per-name totals as they close, so memory stays flat however long the run.
Calls of one group nested inside each other (`ChainState.with_storage`
calling `with_account`) count once, as the outer call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from txmonsim import checks, core, engine, equivalence, scenarios, serialize


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._open: list[list] = []  # [name, child seconds] per open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        span = spans.setdefault(name, Span())

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                span.calls += 1
                span.total_s += took
                span.self_s += took - frame[1]
                if stack:
                    stack[-1][1] += took

        return traced

    def wrap_step(self, contract):
        """A contract definition whose step function is a span; used where
        the benchmark builds the registry itself."""
        return replace(contract, step=self.wrap("contracts.step", contract.step))

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        # engine.py and checks.py bind these by name at import, so the
        # wrappers go where they are looked up.
        self._patch(engine, "digest", "core.digest")
        self._patch(engine, "storage_digest", "core.storage_digest")
        for method in ("with_account", "with_storage", "with_monitor_storage", "move"):
            self._patch(core.ChainState, method, "core.state_update")
        for method in ("visit", "with_gas", "with_fail_bit", "with_txmem"):
            self._patch(core.Context, method, "core.context_update")
        self._patch(engine.Engine, "run_transaction", "engine.run_transaction")
        self._patch(engine, "fold_effects", "mechanisms.fold_effects")
        self._patch(engine, "run_hookups", "mechanisms.run_hookups")
        self._patch(equivalence, "run_case", "equivalence.run_case")
        self._patch(equivalence, "run_composition", "equivalence.run_case")
        for fn in ("run_scenario", "counterexample_suite", "run_flashloan_suite", "verify_report"):
            self._patch(scenarios, fn, f"scenarios.{fn}")
        for fn in ("check_all", "check_queue_laws", "check_replay"):
            self._patch(checks, fn, f"checks.{fn}")
        for fn in ("dump_traces", "report_to_json", "report_from_json"):
            self._patch(serialize, fn, f"serialize.{fn}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def ms(self, name: str, self_time: bool = False) -> float:
        span = self.spans.get(name, Span())
        return 1000.0 * (span.self_s if self_time else span.total_s)

    def calls(self, name: str) -> int:
        return self.spans.get(name, Span()).calls
