"""Placement solutions and their carbon / energy / latency accounting.

A :class:`PlacementSolution` holds the committed decisions (which server each
application goes to, which servers are powered on) and evaluates the paper's
three metrics (Section 6.1.4) against the problem it solves:

* carbon emissions (Equation 6: operational + newly-activated base power),
* energy consumption (dynamic + newly-activated base power),
* latency (per-application one-way latency to the chosen server, plus the
  increase relative to placing at the nearest feasible server).

The placement itself is one ``(A,)`` assignment vector: the server index of
each application, or ``-1`` when it is unplaced. ``placements``,
``unplaced`` and ``n_placed`` are read-only views derived from it on every
access, so they can never go stale; the metrics gather the placed ``(i, j)``
pairs from it and accumulate sequentially in ascending application index.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import PlacementProblem
from repro.utils.units import joules_to_kwh


@dataclass(frozen=True)
class Assignment:
    """One application-to-server assignment with its per-assignment metrics."""

    app_id: str
    server_id: str
    site: str
    zone_id: str
    one_way_latency_ms: float
    operational_carbon_g: float
    energy_j: float


class PlacementsView(Mapping):
    """Read-only ``app_id -> server index`` view of a solution's assignment vector.

    Iterates the placed applications in ascending application index and
    reads the vector on every access, so it always reflects the solution.
    """

    __slots__ = ("_solution",)

    def __init__(self, solution: "PlacementSolution") -> None:
        self._solution = solution

    def __getitem__(self, app_id: str) -> int:
        solution = self._solution
        j = int(solution.assignment[solution.problem.app_index(app_id)])
        if j < 0:
            raise KeyError(app_id)
        return j

    def __iter__(self):
        ids = self._solution.problem.app_ids()
        return iter([ids[i] for i in self._solution.placed_pairs()[0].tolist()])

    def __len__(self) -> int:
        return self._solution.n_placed

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass
class PlacementSolution:
    """The outcome of placing one batch of applications."""

    problem: PlacementProblem
    #: (A,) server index of each application, -1 when unplaced (the only
    #: placement state; defaults to nothing placed).
    assignment: np.ndarray | None = None
    #: (S,) final power decision y_j (1 = on).
    power_on: np.ndarray = field(default_factory=lambda: np.array([]))
    #: Wall-clock seconds the policy spent producing this solution.
    solve_time_s: float = 0.0
    #: Name of the policy that produced the solution.
    policy_name: str = ""
    #: Optimality gap reported by the solver (0 when exact, NaN when unknown).
    solver_gap: float = float("nan")
    #: Canonical name of the solver backend that produced the solution
    #: (empty when the solution did not come through the backend registry).
    backend_name: str = ""
    #: Number of batched wave commits the reconciliation replay executed
    #: (:class:`repro.solver.compile.FillStats`). Execution diagnostics only:
    #: the value never changes placements. ``None`` when the backend does not
    #: run the greedy kernel.
    wave_count: int | None = None
    #: Fraction of replayed applications that took the exact per-application
    #: step instead of a batched wave commit (1.0 on the live schedule,
    #: near 0.0 when the wave replay settles almost everything). ``None``
    #: when the backend does not run the greedy kernel.
    revalidation_rate: float | None = None
    #: Best proven objective bound reported by the solver (the anytime exact
    #: tier's certificate; NaN when the backend proves none).
    solver_bound: float = float("nan")
    #: Exact solver parameters of the run that produced this solution (time
    #: limit, worker count, seed, scaling, status) — recorded so every exact-
    #: tier artifact states how its incumbent was obtained. Empty for
    #: backends without tunable solver parameters.
    solver_params: dict = field(default_factory=dict)
    #: Number of malformed warm-start hints (departed applications, unknown
    #: server indices) the request sanitization dropped before solving.
    warm_hints_dropped: int = 0
    #: True when the construction phase hit the request's ``time_budget_s``
    #: deadline and returned early — the solution is valid but may leave
    #: placeable applications unplaced.
    construction_truncated: bool = False

    def __post_init__(self) -> None:
        n_apps = self.problem.n_applications
        if self.assignment is None:
            self.assignment = np.full(n_apps, -1, dtype=np.intp)
        assignment = np.asarray(self.assignment)
        if assignment.shape != (n_apps,):
            raise ValueError("assignment must have one entry per application")
        if assignment.size and assignment.dtype.kind not in "iu":
            raise ValueError("assignment must hold integer server indices")
        # A copy: the solution owns its vector, so writes to it never reach
        # the producer's array (a kernel state, a warm-start hint).
        self.assignment = assignment.astype(np.intp)
        if len(self.power_on) == 0:
            self.power_on = self.problem.current_power.copy()
        self.power_on = np.asarray(self.power_on, dtype=float)
        if self.power_on.shape != (self.problem.n_servers,):
            raise ValueError("power_on must have one entry per server")

    @classmethod
    def from_placements(cls, problem: PlacementProblem, placements: Mapping[str, int],
                        unplaced: Iterable[str] = (), **fields) -> "PlacementSolution":
        """A solution from an ``app_id -> server index`` mapping.

        Every application must be placed or listed in ``unplaced`` (Equation
        3); ``ValueError`` names the applications that are both, neither, or
        unknown. ``fields`` are the remaining :class:`PlacementSolution`
        fields (``power_on``, ``policy_name``, ...).
        """
        placed_ids, unplaced_ids = set(placements), set(unplaced)
        all_ids = set(problem.app_ids())
        defects: list[str] = []
        if placed_ids & unplaced_ids:
            defects.append(f"applications both placed and unplaced: {placed_ids & unplaced_ids}")
        missing = all_ids - placed_ids - unplaced_ids
        if missing:
            defects.append(f"applications neither placed nor marked unplaced: {sorted(missing)}")
        unknown = placed_ids - all_ids
        if unknown:
            defects.append(f"placements for unknown applications: {sorted(unknown)}")
        negative = sorted(a for a, j in placements.items() if int(j) < 0)
        if negative:
            defects.append(f"placements with negative server indices: {negative}")
        if defects:
            raise ValueError("; ".join(defects))
        assignment = np.full(problem.n_applications, -1, dtype=np.intp)
        if placements:
            assignment[problem.app_indices(list(placements))] = np.fromiter(
                placements.values(), dtype=np.intp, count=len(placements))
        return cls(problem=problem, assignment=assignment, **fields)

    # -- structure ---------------------------------------------------------------

    @property
    def placements(self) -> PlacementsView:
        """Placed applications as an ``app_id -> server index`` mapping."""
        return PlacementsView(self)

    @property
    def unplaced(self) -> tuple[str, ...]:
        """Ids of the applications that could not be placed, ascending index."""
        ids = self.problem.app_ids()
        return tuple(ids[i] for i in np.flatnonzero(self.assignment < 0).tolist())

    @property
    def n_placed(self) -> int:
        """Number of successfully placed applications."""
        return int(np.count_nonzero(self.assignment >= 0))

    @property
    def n_unplaced(self) -> int:
        """Number of applications that could not be placed."""
        return self.problem.n_applications - self.n_placed

    @property
    def all_placed(self) -> bool:
        """Whether every application in the batch was placed."""
        return self.n_unplaced == 0

    def placed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(P,) application and server index arrays of the placed applications,
        in ascending application index (the order every sum accumulates in)."""
        i_arr = (self.assignment >= 0).nonzero()[0]
        return i_arr, self.assignment[i_arr]

    def server_of(self, app_id: str) -> str:
        """Server id hosting the given application."""
        j = self.placements.get(app_id)
        if j is None:
            raise KeyError(f"application {app_id!r} was not placed")
        return self.problem.servers[j].server_id

    def server_ids_by_app(self) -> dict[str, str]:
        """``app_id -> server id`` of the placed applications, ascending index."""
        servers = self.problem.servers
        return {app_id: servers[j].server_id for app_id, j in self.placements.items()}

    def assignments(self) -> list[Assignment]:
        """Per-application assignment records."""
        problem = self.problem
        ids = problem.app_ids()
        i_arr, j_arr = self.placed_pairs()
        op_carbon = self._operational_carbon(i_arr, j_arr).tolist()
        out: list[Assignment] = []
        for k, (i, j) in enumerate(zip(i_arr.tolist(), j_arr.tolist())):
            server = problem.servers[j]
            out.append(Assignment(
                app_id=ids[i],
                server_id=server.server_id,
                site=server.site,
                zone_id=server.zone_id,
                one_way_latency_ms=float(problem.latency_ms[i, j]),
                operational_carbon_g=op_carbon[k],
                energy_j=float(problem.energy_j[i, j]),
            ))
        return out

    def apps_per_server(self) -> dict[str, int]:
        """Number of applications placed on each server (by server id)."""
        counts = np.bincount(self.placed_pairs()[1], minlength=self.problem.n_servers)
        return {s.server_id: n for s, n in zip(self.problem.servers, counts.tolist())}

    def apps_per_site(self) -> dict[str, int]:
        """Number of applications placed at each site, keyed in order of each
        site's first placement."""
        j_arr = self.placed_pairs()[1]
        counts = np.bincount(j_arr, minlength=self.problem.n_servers).tolist()
        out: dict[str, int] = {}
        # The used servers in first-use order; a site first appears with its
        # earliest-used server, so the sites come out in first-use order too.
        for j in dict.fromkeys(j_arr.tolist()):
            site = self.problem.servers[j].site
            out[site] = out.get(site, 0) + counts[j]
        return out

    # -- metrics -------------------------------------------------------------------

    def _operational_carbon(self, i_arr: np.ndarray, j_arr: np.ndarray) -> np.ndarray:
        """Per-pair operational emissions E_ij (kWh) x I_j of the given pairs, grams."""
        return joules_to_kwh(self.problem.energy_j[i_arr, j_arr]) * self.problem.intensity[j_arr]

    def newly_activated(self) -> np.ndarray:
        """(S,) indicator of servers switched on by this placement (y_j - y^curr_j)."""
        # np.minimum(np.maximum(...)) is what np.clip computes, minus its
        # Python-level dispatch (this runs several times per epoch record).
        return np.minimum(np.maximum(self.power_on - self.problem.current_power, 0.0), 1.0)

    def operational_carbon_g(self) -> float:
        """Total operational emissions of the placed applications, grams."""
        return float(sum(self._operational_carbon(*self.placed_pairs()).tolist()))

    def activation_carbon_g(self) -> float:
        """Emissions from newly activated servers' base power, grams."""
        return float(np.dot(self.newly_activated(), self.problem.activation_carbon_g()))

    def total_carbon_g(self) -> float:
        """Equation 6: operational + activation emissions, grams."""
        return self.operational_carbon_g() + self.activation_carbon_g()

    def dynamic_energy_j(self) -> float:
        """Dynamic energy of the placed applications, joules."""
        i_arr, j_arr = self.placed_pairs()
        return float(sum(self.problem.energy_j[i_arr, j_arr].tolist()))

    def activation_energy_j(self) -> float:
        """Base-power energy of newly activated servers over the horizon, joules."""
        return float(np.dot(self.newly_activated(), self.problem.activation_energy_j()))

    def total_energy_j(self) -> float:
        """Dynamic + activation energy, joules."""
        return self.dynamic_energy_j() + self.activation_energy_j()

    def mean_latency_ms(self) -> float:
        """Mean one-way latency of the placed applications."""
        i_arr, j_arr = self.placed_pairs()
        if not i_arr.size:
            return 0.0
        return float(np.mean(self.problem.latency_ms[i_arr, j_arr]))

    def max_latency_ms(self) -> float:
        """Worst-case one-way latency of the placed applications."""
        i_arr, j_arr = self.placed_pairs()
        if not i_arr.size:
            return 0.0
        return float(np.max(self.problem.latency_ms[i_arr, j_arr]))

    def latency_increase_ms(self) -> float:
        """Mean one-way latency increase vs. each application's nearest feasible server.

        This is the "Increased Latency" metric the paper reports (relative to
        the Latency-aware baseline, which always picks the nearest feasible
        server). An application with no feasible server at all cannot be
        placed by the validated pipeline, so every placed application
        normally has a finite nearest-server latency; should one appear
        anyway, it is excluded from the mean (the same rule the CDN
        simulator's metrics loop applies) rather than contributing its raw
        latency.
        """
        i_arr, j_arr = self.placed_pairs()
        if not i_arr.size:
            return 0.0
        problem = self.problem
        nearest = problem.nearest_feasible_ms()
        reachable = np.isfinite(nearest[i_arr])
        increases = (problem.latency_ms[i_arr, j_arr] - nearest[i_arr])[reachable]
        return float(np.mean(increases)) if increases.size else 0.0

    def summary(self) -> dict[str, float]:
        """Compact metric summary used by the experiment reports."""
        return {
            "placed": float(self.n_placed),
            "unplaced": float(self.n_unplaced),
            "carbon_g": self.total_carbon_g(),
            "operational_carbon_g": self.operational_carbon_g(),
            "activation_carbon_g": self.activation_carbon_g(),
            "energy_j": self.total_energy_j(),
            "mean_latency_ms": self.mean_latency_ms(),
            "latency_increase_ms": self.latency_increase_ms(),
            "solve_time_s": self.solve_time_s,
        }
