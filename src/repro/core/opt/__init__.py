"""Plan optimizer: a pass pipeline ahead of every execution backend.

The :class:`~repro.core.plan.ExecutionPlan` IR is shared by the
interpreter, the thread partitions, the vectorised batch backend and the
code generators — so one optimizer that rewrites the plan's node/edge
tables speeds up *all* of them at once.  The pipeline runs four ordered,
individually toggleable passes:

1. **dead-code elimination** — drop blocks whose outputs nothing
   consumes, observes or probes and that have no discrete side channel
   (the transitive closure of the static checker's STR002 facts);
2. **constant folding** — evaluate time-invariant, stateless subgraphs
   fed only by constants once at compile time and replace the boundary
   producers with literal-constant blocks (STR004's fix, applied);
3. **common-subexpression elimination** — merge blocks computing the
   identical op over the identical inputs (relay-duplicated flows make
   these common in paper-style compositions);
4. **gain/sum/affine fusion** — collapse linear single-consumer chains
   into one fused node; at O2 the affine stages are additionally
   re-associated into a single multiply-add.

O-level contract (:class:`OptConfig`):

* **O0** — no passes; the plan is the literal drawn graph.
* **O1** — all four passes, every rewrite bitwise-identity-preserving
  for fixed-step runs: folded values are produced by the original
  blocks' own ``compute_outputs``, fused chains replay each member's
  exact float ops in sequence, and CSE only forwards values that are
  bit-identical by construction.
* **O2** — O1 plus float re-association (fused affine chains collapse
  to one ``a*x + b``); results may differ in the last ulp.

Every rewrite is recorded in an :class:`OptReport` carried on the
optimized plan (``plan.opt_report``) and surfaced through service
telemetry (``opt.blocks_removed``, ``opt.ops_fused``) and the check
CLI's ``--explain`` output.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.opt.config": ("OptConfig", "OptReport", "resolve_config"),
    "repro.core.opt.optimizer": ("PlanOptimizer",),
    "repro.core.opt.synth": ("FoldedBlock", "FusedChain", "PadCopy"),
})

if TYPE_CHECKING:
    from repro.core.opt.config import OptConfig, OptReport, resolve_config
    from repro.core.opt.optimizer import PlanOptimizer
    from repro.core.opt.synth import FoldedBlock, FusedChain, PadCopy
