"""Golden digests of three smoke artifacts: the kernel's end-to-end oracle.

Each digest pins the exact bytes a smoke run produces, so any change to a
placement, a carbon figure or a serving decision anywhere in the pipeline
shows up here. The values were computed with CPython 3.11.7 and numpy 2.4.6
and repeated exactly across runs; a different numpy may round differently
and legitimately need new values. On a mismatch the test prints the
canonical JSON, so the diff against a known-good run is one step away.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.simulator.runner import ScenarioRunner

#: sha256 of ``json.dumps(artifact, sort_keys=True)`` per smoke experiment.
ARTIFACT_DIGESTS = {
    "fig11": "897cb0df28a5f267ab31335930ac0f3220ca181e2ee80ba030326b9bcae57712",
    "planetary_sweep": "8a5c57930fa7197e551155d4de19ed2ec2977432ed2e8a801960607808a94692",
}

#: The serving soak records wall-clock latencies, so only its decision log
#: digest is pinned.
SERVING_DECISION_DIGEST = \
    "6b57ddfa5d0e2e3c10b147e4b62e46d022530977c51b068b8dcd18ae05ab7a01"


@pytest.mark.parametrize("name", sorted(ARTIFACT_DIGESTS))
def test_smoke_artifact_matches_golden_digest(name):
    artifact = ScenarioRunner(smoke=True).run_one(name).artifact
    canonical = json.dumps(artifact, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == ARTIFACT_DIGESTS[name], \
        f"{name} smoke artifact changed; canonical JSON:\n{canonical}"


def test_serving_soak_matches_golden_decision_digest():
    artifact = ScenarioRunner(smoke=True).run_one("serving_soak").artifact
    serving = artifact["serving"]
    assert serving["decision_digest"] == SERVING_DECISION_DIGEST, (
        "serving soak decisions changed; serving artifact:\n"
        + json.dumps(serving, sort_keys=True))
    assert artifact["parity"]["ok"], json.dumps(artifact["parity"], sort_keys=True)
