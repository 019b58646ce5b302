"""Dependency-free solver-layer constants and configuration.

These live in their own module (importing nothing from the rest of the
package) so that both the backend registry and the policy layer can read them
without creating an import cycle between :mod:`repro.solver` and
:mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: "auto" switches from the exact to the heuristic backend above this number
#: of candidate (application, server) pairs.
AUTO_EXACT_PAIR_LIMIT: int = 4000

#: "auto" never picks the exact backend with less than this much budget (s).
AUTO_MIN_EXACT_BUDGET_S: float = 1.0


@dataclass(frozen=True, kw_only=True)
class SolverConfig:
    """Execution configuration of one solve, orthogonal to *what* is solved.

    Everything here carries a determinism contract: changing it may change how
    fast an answer is produced, never which answer. The objective, budgets,
    and warm starts — the knobs that select *which* solution comes back —
    live on :class:`~repro.solver.backend.SolveRequest` instead.

    Two documented carve-outs. First, ``num_search_workers``: for the anytime
    exact backends (``cpsat``/``milp``) a wider portfolio search explores the
    tree in a different order, so under a *finite* time budget the incumbent
    held at the deadline may differ between worker counts (a run to proven
    optimality returns the same objective regardless). The recorded
    ``solver_params`` on the solution always state the worker count used, so
    artifacts remain attributable. The heuristic-family backends ignore the
    knob entirely.

    Second, the *hierarchy* knobs (``hierarchy_regions``,
    ``refine_backend``) select a different solver tier — the cluster-then-
    refine hierarchy of :mod:`repro.solver.hierarchy` — which deliberately
    trades optimality for memory/scale and therefore *does* change the answer
    versus the flat solve. Within a fixed hierarchy configuration the usual
    contract holds: the answer is deterministic, and the coarse/refine
    objective gap versus flat is recorded, never hidden.
    Backends themselves never see these knobs: the hierarchy tier consumes
    them above the backend layer and hands each region's restricted
    sub-problem to the registry with ``hierarchy_regions=1``.

    Every field is keyword-only, so a positional call written against an
    older field order fails instead of silently setting a different knob.

    Parameters
    ----------
    hierarchy_regions:
        Number of geographic regions for the cluster-then-refine hierarchy
        (:mod:`repro.solver.hierarchy`). ``1`` keeps the flat solve; higher
        values cluster the fleet into that many regions, run a coarse
        apps×regions pass, and refine each region independently. See the
        carve-out above: this knob changes *which* answer comes back.
    refine_backend:
        Registry backend name used for each region's refinement sub-solve
        when ``hierarchy_regions > 1`` (e.g. ``"greedy"``, ``"auto"``).
    num_search_workers:
        Parallel search workers for the anytime exact backends (CP-SAT's
        portfolio search; the MILP wrapper's thread count where supported).
        ``1`` keeps the single-worker search. See the carve-out above:
        under a finite time budget this knob may change which incumbent is
        returned.
    """

    hierarchy_regions: int = 1
    refine_backend: str = "greedy"
    num_search_workers: int = 1

    def __post_init__(self) -> None:
        if self.num_search_workers < 1:
            raise ValueError(
                f"num_search_workers must be >= 1, got {self.num_search_workers}")
        if self.hierarchy_regions < 1:
            raise ValueError(
                f"hierarchy_regions must be >= 1, got {self.hierarchy_regions}")
        if not self.refine_backend or not isinstance(self.refine_backend, str):
            raise ValueError(
                f"refine_backend must be a non-empty backend name, "
                f"got {self.refine_backend!r}")


#: Shared default configuration (flat solve, one search worker).
DEFAULT_SOLVER_CONFIG = SolverConfig()
