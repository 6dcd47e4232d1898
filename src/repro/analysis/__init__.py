"""reprolint: AST-based static analysis of this repo's own invariants.

The headline guarantees — byte-identical selections across every exact
backend, deterministic serving responses, no worker pool outliving a
SIGKILL — rest on hand-maintained source invariants (seeded RNG only,
``__getstate__`` cache-dropping, paired resource teardown, sorted-key wire
JSON, complete worker-op dispatch, protocol-compatible engine
overrides).  This package machine-checks them: ``repro lint`` runs the
checkers in :mod:`repro.analysis.checkers` over ``src/repro`` and fails
on any non-baselined finding.  See the README "Static analysis" section
for what each checker enforces and how to suppress a finding.
"""

from repro.analysis.base import (
    Checker,
    Finding,
    Module,
    Project,
    Suppression,
    run_checkers,
)
from repro.analysis.checkers import (
    ALL_CHECKERS,
    DeterminismChecker,
    EngineProtocolChecker,
    FaultPointChecker,
    MpOpParityChecker,
    PickleBudgetChecker,
    ResourceLifecycleChecker,
    WireFormatChecker,
    default_checkers,
)
from repro.analysis.report import (
    apply_baseline,
    format_json,
    format_text,
    load_baseline,
    write_baseline,
)

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "DeterminismChecker",
    "EngineProtocolChecker",
    "FaultPointChecker",
    "Finding",
    "Module",
    "MpOpParityChecker",
    "PickleBudgetChecker",
    "Project",
    "ResourceLifecycleChecker",
    "Suppression",
    "WireFormatChecker",
    "apply_baseline",
    "default_checkers",
    "format_json",
    "format_text",
    "load_baseline",
    "run_checkers",
    "write_baseline",
]
