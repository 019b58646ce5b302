"""Carbon-intensity service.

:class:`CarbonIntensityService` is the component labelled "Carbon Intensity
Service" in the paper's Figure 6: it replays historical traces (our synthetic
Electricity-Maps stand-in), exposes the *current* intensity of every zone, and
produces per-zone forecast averages Ī_j that the placement service feeds into
the optimisation objective (Equation 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.carbon.forecasting import Forecaster, OracleForecaster
from repro.carbon.traces import CarbonIntensityTrace, TraceSet


@dataclass
class CarbonIntensityService:
    """Replays carbon-intensity traces and provides current values + forecasts.

    Parameters
    ----------
    traces:
        The per-zone hourly traces to replay.
    forecaster:
        Forecaster used for the horizon average Ī_j; defaults to the oracle
        (trace replay), matching the paper's evaluation setup.
    horizon_hours:
        Forecast horizon used when computing Ī_j (default 24 h).
    """

    traces: TraceSet
    forecaster: Forecaster = field(default_factory=OracleForecaster)
    horizon_hours: int = 24
    #: Memo of forecast means: one array per (zone, horizon, forecaster id)
    #: over the trace's hours, filled lazily (NaN = not computed yet). Traces
    #: are replayed (never mutated) and forecasters are deterministic, so an
    #: epoch's integral over an hourly window is computed exactly once per
    #: zone — a year-long simulation re-reads it for every server in the
    #: zone, every policy, every build. The memo is bounded by the data:
    #: zones x horizons in use x trace hours, for the current forecaster.
    _forecast_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.horizon_hours <= 0:
            raise ValueError(f"horizon_hours must be positive, got {self.horizon_hours}")
        if len(self.traces) == 0:
            raise ValueError("CarbonIntensityService requires at least one trace")

    def clear_forecast_cache(self) -> None:
        """Drop memoised forecast means (e.g. after swapping the forecaster)."""
        self._forecast_cache.clear()

    # -- queries -----------------------------------------------------------

    def zones(self) -> list[str]:
        """Zone ids known to the service."""
        return self.traces.zone_ids()

    def has_zone(self, zone_id: str) -> bool:
        """Whether the service has a trace for ``zone_id``."""
        return zone_id in self.traces

    def trace(self, zone_id: str) -> CarbonIntensityTrace:
        """The raw trace for a zone."""
        return self.traces.get(zone_id)

    def current_intensity(self, zone_id: str, hour: int) -> float:
        """Current (hour-of-year) carbon intensity of a zone, g CO2eq/kWh."""
        return self.traces.get(zone_id).at(hour)

    def current_intensities(self, zone_ids: list[str], hour: int) -> np.ndarray:
        """Vector of current intensities for several zones."""
        return np.array([self.current_intensity(z, hour) for z in zone_ids], dtype=float)

    def forecast_mean(self, zone_id: str, hour: int, horizon_hours: int | None = None) -> float:
        """Ī_j: mean forecast intensity of a zone over the placement horizon.

        Memoised per (zone, hour, horizon) for hours inside the trace: a
        year of epochs integrates each hourly trace window once instead of
        once per server per policy. The forecaster's identity is part of the
        key, so assigning a new forecaster never serves stale means.
        """
        horizon = int(horizon_hours) if horizon_hours is not None else self.horizon_hours
        trace = self.traces.get(zone_id)
        hour = int(hour)
        if not 0 <= hour < len(trace):
            return self.forecaster.forecast_mean(trace, hour, horizon)
        key = (zone_id, horizon, id(self.forecaster))
        cached = self._forecast_cache.get(key)
        # The cached entry pins the forecaster object, so its id() can never
        # be recycled onto a different forecaster while the entry lives.
        if cached is None or cached[0] is not self.forecaster:
            # The memo only ever holds the current forecaster's means.
            entries = self._forecast_cache
            if entries and next(iter(entries.values()))[0] is not self.forecaster:
                entries.clear()
            cached = (self.forecaster, np.full(len(trace), np.nan))
            entries[key] = cached
        means = cached[1]
        value = means[hour]
        if value != value:  # NaN: not computed yet
            means[hour] = value = self.forecaster.forecast_mean(trace, hour, horizon)
        return float(value)

    def forecast_means(self, zone_ids: list[str], hour: int,
                       horizon_hours: int | None = None) -> np.ndarray:
        """Vector of Ī_j for several zones."""
        return np.array(
            [self.forecast_mean(z, hour, horizon_hours) for z in zone_ids], dtype=float)

    def greenest_zone(self, zone_ids: list[str], hour: int) -> str:
        """Zone with the lowest current intensity among ``zone_ids``."""
        if not zone_ids:
            raise ValueError("zone_ids must not be empty")
        intensities = self.current_intensities(zone_ids, hour)
        return zone_ids[int(np.argmin(intensities))]

    def mean_intensity(self, zone_id: str) -> float:
        """Whole-trace mean intensity of a zone."""
        return self.traces.get(zone_id).mean()
