"""Configuration validation and overrides, and the API reference
listing every config field."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.common.config import DEFAULT_CONFIG, DatabaseConfig
from repro.common.errors import ConfigError
from repro.server import ServerConfig

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"


class TestValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_CONFIG.page_size == 4096

    def test_tiny_page_rejected(self):
        with pytest.raises(ConfigError):
            DatabaseConfig(page_size=128)

    def test_tiny_pool_rejected(self):
        with pytest.raises(ConfigError):
            DatabaseConfig(buffer_pool_pages=1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            DatabaseConfig(lock_timeout_seconds=0)

    def test_negative_checkpoint_interval_rejected(self):
        with pytest.raises(ConfigError):
            DatabaseConfig(checkpoint_interval_records=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tree_latch_mode", "locks"),
            ("tree_latch_mode", "tree_lock"),
        ],
    )
    def test_unknown_mode_string_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DatabaseConfig(**{field: value})

    def test_every_listed_mode_accepted(self):
        for mode in ("latch", "lock"):
            assert DatabaseConfig(tree_latch_mode=mode).tree_latch_mode == mode


class TestOverrides:
    def test_with_overrides_returns_new_config(self):
        updated = dataclasses.replace(DEFAULT_CONFIG, enable_sm_bit=False)
        assert updated.enable_sm_bit is False
        assert DEFAULT_CONFIG.enable_sm_bit is True

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.page_size = 1  # type: ignore[misc]

    def test_ablation_switches_exist(self):
        config = DatabaseConfig(
            enable_sm_bit=False,
            enable_delete_bit=False,
            enable_boundary_delete_posc=False,
            tree_latch_mode="lock",
        )
        assert config.tree_latch_mode == "lock"


def _field_names(text: str) -> set[str]:
    """Every backquoted lower-case identifier in ``text``."""
    return set(re.findall(r"`([a-z_]+)`", text))


class TestApiDocs:
    """docs/API.md names exactly the fields each config has."""

    def test_database_config_section_lists_every_field(self):
        doc = API_DOC.read_text()
        start = doc.index("## `repro.common.config.DatabaseConfig`")
        section = doc[start : doc.index("\n## ", start + 1)]
        fields = {f.name for f in dataclasses.fields(DatabaseConfig)}
        assert _field_names(section) == fields

    def test_server_config_row_lists_every_field(self):
        doc = API_DOC.read_text()
        (row,) = [line for line in doc.splitlines() if line.startswith("| `ServerConfig` |")]
        fields = {f.name for f in dataclasses.fields(ServerConfig)}
        assert _field_names(row) == fields
