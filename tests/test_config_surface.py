"""Every config field has a caller.

A settable field that nothing in the project ever sets is an option in
name only: it doubles the configurations a reader must consider while
every run takes its default.  This guard lists the fields of the config
dataclasses and fails when one is never passed (``field=``), assigned
(``.field =``) or given as a splatted dict key (``"field":``) anywhere
outside the module that defines it.  A value with one use belongs in a
named constant where it is read; an optional tier's off switch is
``None``.
"""

from __future__ import annotations

import dataclasses
import inspect
import pathlib
import re

import pytest

from repro.analytics.config import AnalyticsConfig
from repro.core.resilience import ResilienceConfig
from repro.core.tree import DataSourceConfig, GmetadConfig
from repro.gmond.config import GmondConfig
from repro.obs.config import ObservabilityConfig
from repro.readtier.config import ReadTierConfig
from repro.storage.config import StorageTierConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "benchmarks", "examples", "tests")
CONFIGS = (
    AnalyticsConfig,
    DataSourceConfig,
    GmetadConfig,
    GmondConfig,
    ObservabilityConfig,
    ReadTierConfig,
    ResilienceConfig,
    StorageTierConfig,
)


@pytest.fixture(scope="module")
def sources():
    return {
        path.resolve(): path.read_text()
        for top in SEARCHED
        for path in (ROOT / top).rglob("*.py")
    }


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_is_set_outside_its_module(config, sources):
    own = pathlib.Path(inspect.getsourcefile(config)).resolve()
    unset = []
    for field in dataclasses.fields(config):
        name = re.escape(field.name)
        setter = re.compile(
            rf"\b{name}=(?!=)|\.{name}\s*=(?!=)|[\"']{name}[\"']\s*:"
        )
        if not any(
            setter.search(text)
            for path, text in sources.items()
            if path != own
        ):
            unset.append(field.name)
    assert unset == [], (
        f"{config.__name__} fields nothing sets: {unset} -- make each a "
        "constant where it is read, or remove it"
    )
