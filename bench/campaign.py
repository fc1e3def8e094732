"""``campaign``: seeded differential scenarios, almost all cold compiles.

Closed loop, two clients, each running one-scenario campaigns
(``CampaignRunner`` with ``steer=False``), so two scenarios are in
flight at a time — the parallelism of a two-worker campaign — and each
scenario's latency is visible.  Every scenario is a new plan, so most of
the time goes to flatten → plan → optimize → lower → render → gcc → load
and to the oracles (``run_checks``, fault/resume, batch vs sequential);
the kernels only get short runs.  This is the mirror image of ``sweep``.

Scenario families follow a fixed rotation weighted like the campaign's
own draw (:data:`repro.scenarios.spec.FAMILIES`); the seed picks each
slot's scenario, so run-to-run cost varies with the scenarios drawn but
not with the family mix.  Gate: any divergence the differential oracle
reports is a failure, and so is a campaign that lost its native backend.
"""

from __future__ import annotations

import time

from bench.common import WARMUP, Measured, Op, closed_loop, op_span
from repro.scenarios.campaign import CampaignConfig, CampaignRunner
from repro.scenarios.spec import FAMILIES, ScenarioSpec

CLIENTS = 2
#: families in draw-weight proportion, one slot per unit weight
ROTATION = [name for name, weight in FAMILIES for __ in range(weight)]


class Campaign:
    name = "campaign"
    tail = 90

    def __init__(self, seed: int, smoke: bool, work, corrupt_reference):
        self.seed = seed
        #: the input stream continues across measured windows
        self.next_index = 0
        self.work_dir = work / "campaign"
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def config(self, index: int) -> CampaignConfig:
        """A one-scenario campaign whose scenario has the family of
        rotation slot ``index``: the first master seed, in a stream
        fixed by (seed, index), whose scenario 0 has that family."""
        family = ROTATION[index % len(ROTATION)]
        attempt = 0
        while True:
            master = (
                self.seed * 1_000_003 + index * 7_919 + attempt * 104_729
            ) % (2 ** 31)
            config = CampaignConfig(
                count=1, seed=master, workers=1, steer=False,
                round_size=1, work_dir=str(self.work_dir),
            )
            scenario = ScenarioSpec.from_seed(
                CampaignRunner(config).seed_for(0)
            )
            if scenario.family == family:
                return config
            attempt += 1

    def setup(self) -> None:
        report = CampaignRunner(self.config(WARMUP)).run()
        if not report.ok:
            raise RuntimeError(f"warm-up scenario diverged: {report.render()}")

    def _run_op(self, index: int, tracer) -> Op:
        config = self.config(index)
        op = Op(index=index, kind=ROTATION[index % len(ROTATION)],
                due=time.monotonic())
        op.start = op.due
        try:
            with op_span(tracer):
                report = CampaignRunner(config).run()
        except Exception as exc:  # a failed campaign is counted
            op.end = time.monotonic()
            op.fail(f"{type(exc).__name__}: {exc}")
            return op
        op.end = time.monotonic()
        op.exec_s = op.end - op.start
        if not report.ok:
            op.fail(report.divergences[0]["detail"])
        elif "native-c" not in report.backends:
            op.fail(f"campaign ran without native-c: {report.backends}")
        return op

    def measure(self, seconds: float, tracer=None) -> Measured:
        started = time.monotonic()
        ops = closed_loop(
            CLIENTS, seconds, lambda i: self._run_op(i, tracer),
            self.next_index,
        )
        self.next_index += len(ops)
        return Measured(ops, time.monotonic() - started)

    def verify(self, ops) -> None:
        """The oracle ran inside each operation; nothing is left to do."""

    def counters(self):
        return {}

    def close(self) -> None:
        pass
