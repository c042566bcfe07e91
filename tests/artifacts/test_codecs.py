"""Manifest codecs: the dict round-trips a checkpoint is built from.

``save_*`` writes configs, flash parameters and geometry into the JSON
manifest through these helpers and ``load_*`` rebuilds them; every value
must come back equal (tuples included), and malformed dicts must surface as
the zoo's :class:`ManifestError` rather than a bare ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.artifacts import (
    CheckpointManifest,
    ManifestError,
    checkpoint_registry_name,
    file_sha256,
    inspect_checkpoint,
    save_channel,
)
from repro.artifacts.checkpoint import (
    config_from_dict,
    config_to_dict,
    geometry_from_dict,
    geometry_to_dict,
    params_from_dict,
    params_to_dict,
    provenance,
)
from repro.channel import SimulatorChannel
from repro.core import ModelConfig
from repro.flash import BlockGeometry, FlashParameters

CONFIGS = {
    "tiny": ModelConfig.tiny(),
    "tiny_float64": dataclasses.replace(ModelConfig.tiny(), dtype="float64"),
    "paper": ModelConfig.paper(),
}


class TestModelConfigCodec:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_round_trip_is_exact(self, name):
        config = CONFIGS[name]
        assert config_from_dict(config_to_dict(config)) == config

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_survives_json(self, name):
        """Tuples become lists on the wire and tuples again on load."""
        data = json.loads(json.dumps(config_to_dict(CONFIGS[name])))
        assert isinstance(data["down_channels"], list)
        assert config_from_dict(data) == CONFIGS[name]

    def test_rejects_unknown_fields(self):
        data = config_to_dict(ModelConfig.tiny())
        data["dropout"] = 0.5
        with pytest.raises(ManifestError, match="dropout"):
            config_from_dict(data)

    def test_invalid_values_raise_manifest_error(self):
        data = config_to_dict(ModelConfig.tiny())
        data["dtype"] = "float16"
        with pytest.raises(ManifestError, match="invalid model_config"):
            config_from_dict(data)


class TestFlashParametersCodec:
    @pytest.mark.parametrize("params", [
        FlashParameters(),
        FlashParameters(reference_pe_cycles=3000.0, program_error_rate=0.01),
    ], ids=["default", "custom"])
    def test_round_trip_is_exact(self, params):
        data = json.loads(json.dumps(params_to_dict(params)))
        assert params_from_dict(data) == params

    def test_none_passes_through(self):
        assert params_from_dict(None) is None

    def test_unknown_field_raises_manifest_error(self):
        data = params_to_dict(FlashParameters())
        data["temperature"] = 85
        with pytest.raises(ManifestError, match="flash parameters"):
            params_from_dict(data)

    def test_invalid_values_raise_manifest_error(self):
        data = params_to_dict(FlashParameters())
        data["voltage_max"] = data["voltage_min"]
        with pytest.raises(ManifestError, match="flash parameters"):
            params_from_dict(data)


class TestGeometryCodec:
    @pytest.mark.parametrize("geometry", [BlockGeometry(),
                                          BlockGeometry(16, 32)],
                             ids=["default", "rectangular"])
    def test_round_trip_is_exact(self, geometry):
        data = json.loads(json.dumps(geometry_to_dict(geometry)))
        assert geometry_from_dict(data) == geometry

    def test_none_passes_through(self):
        assert geometry_from_dict(None) is None

    @pytest.mark.parametrize("data", [{"num_wordlines": 0, "num_bitlines": 8},
                                      {"rows": 8}],
                             ids=["non_positive", "unknown_field"])
    def test_bad_dicts_raise_manifest_error(self, data):
        with pytest.raises(ManifestError, match="block geometry"):
            geometry_from_dict(data)


class TestProvenance:
    def test_records_git_revision_key(self):
        metadata = provenance({"epochs": 2})
        assert metadata["epochs"] == 2
        assert "git_revision" in metadata

    def test_explicit_revision_is_kept(self):
        assert provenance({"git_revision": "abc"})["git_revision"] == "abc"

    def test_does_not_mutate_the_input(self):
        training = {"seed": 1}
        provenance(training)
        assert training == {"seed": 1}


class TestManifestRecord:
    def _manifest(self):
        return CheckpointManifest(
            kind="baseline", registry_name="gaussian",
            baseline={"family": "gaussian"},
            params=params_to_dict(FlashParameters()),
            geometry=geometry_to_dict(BlockGeometry(16, 16)),
            adapter={"strict_pe": True}, training={"seed": 3},
            files={"fitted.json": {"sha256": "0" * 64, "size": 10}})

    def test_dict_round_trip_through_json(self):
        manifest = self._manifest()
        data = json.loads(json.dumps(manifest.to_dict()))
        assert CheckpointManifest.from_dict(data) == manifest

    def test_rejects_non_mapping(self):
        with pytest.raises(ManifestError, match="JSON object"):
            CheckpointManifest.from_dict(["kind", "baseline"])

    def test_rejects_non_integer_version(self):
        data = self._manifest().to_dict()
        data["format_version"] = "1"
        with pytest.raises(ManifestError, match="format_version"):
            CheckpointManifest.from_dict(data)

    def test_rejects_file_entries_without_digest(self):
        data = self._manifest().to_dict()
        data["files"] = {"fitted.json": {"size": 10}}
        with pytest.raises(ManifestError, match="files"):
            CheckpointManifest.from_dict(data)

    def test_rejects_empty_registry_name(self):
        with pytest.raises(ManifestError, match="registry_name"):
            CheckpointManifest(kind="simulator", registry_name="")


class TestStoreHelpers:
    @pytest.mark.parametrize("size", [0, (1 << 20) + 7],
                             ids=["empty", "over_one_chunk"])
    def test_file_sha256_matches_hashlib(self, tmp_path, size):
        payload = np.random.default_rng(size).bytes(size)
        path = tmp_path / "payload.bin"
        path.write_bytes(payload)
        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()

    @pytest.fixture()
    def simulator_checkpoint(self, tmp_path):
        channel = SimulatorChannel(FlashParameters(),
                                   rng=np.random.default_rng(4))
        path = tmp_path / "sim"
        save_channel(channel, path)
        return path

    def test_checkpoint_registry_name_reads_the_manifest(
            self, simulator_checkpoint):
        assert checkpoint_registry_name(simulator_checkpoint) == "simulator"

    def test_inspect_reports_missing_payloads(self, tmp_path):
        manifest = CheckpointManifest(
            kind="simulator", registry_name="simulator",
            files={"present.bin": {"sha256": "0" * 64, "size": 3},
                   "absent.bin": {"sha256": "0" * 64, "size": 3}})
        (tmp_path / "present.bin").write_bytes(b"abcd")
        (tmp_path / "manifest.json").write_text(
            json.dumps(manifest.to_dict()))
        files = inspect_checkpoint(tmp_path)["files"]
        assert files["present.bin"]["present"] is True
        assert files["present.bin"]["size_on_disk"] == 4
        assert files["absent.bin"]["present"] is False
        assert "size_on_disk" not in files["absent.bin"]
