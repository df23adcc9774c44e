"""Fleet spec files: what loads, what is refused."""

from __future__ import annotations

import json

import pytest

from repro.fleet.spec import FleetSpec, PolicySpec


def test_negative_scrub_interval_rejected():
    with pytest.raises(ValueError):
        PolicySpec("backwards", scrub_interval_hours=-1.0)
    with pytest.raises(ValueError):
        PolicySpec.from_dict({"name": "backwards",
                              "scrub_interval_hours": -24})
    assert PolicySpec("off", scrub_interval_hours=0.0).scrub_interval_hours == 0


def test_spec_file_written_before_a_field_was_dropped_still_loads(tmp_path):
    # Older spec files carry keys the spec no longer has (the clean-scrub
    # skip used to be one); they load, and the key is not written back.
    data = FleetSpec(trials=3).to_dict()
    data["skip_clean_scrubs"] = False
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    spec = FleetSpec.load(path)
    assert spec == FleetSpec(trials=3)
    assert "skip_clean_scrubs" not in spec.to_dict()
