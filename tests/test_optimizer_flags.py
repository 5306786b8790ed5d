"""The optimizer switches are resolved once, and every surface reads
that one resolution.

* :class:`OptimizerFlags` — read from the engine's config and nothing
  else (no environment variable), with the dependency chain
  codegen ⇒ columnar ⇒ pushdown;
* the scan has one prologue: the row and batch readers report the same
  ``rumble.pushdown.*`` counters for the same query.

(What ``explain()``, the shell and ``make_engine`` do with the resolved
flags is pinned in tests/test_engine.py.)
"""

import dataclasses

import pytest

from repro.core import RumbleConfig, make_engine
from repro.core.config import OptimizerFlags
from tests.test_engine import SCAN_LEVELS


def _engine(pushdown, columnar, codegen, **kwargs):
    return make_engine(
        executors=2, parallelism=4, pushdown=pushdown, columnar=columnar,
        codegen=codegen, **kwargs
    )


@pytest.fixture()
def data_path(jsonl_file):
    return jsonl_file(
        [{"v": i, "tag": "a" if i % 2 else "b"} for i in range(40)]
    )


class TestResolution:
    def test_default_is_everything_on(self):
        assert OptimizerFlags.resolve(RumbleConfig()) == OptimizerFlags(
            pushdown=True, columnar=True, codegen=True
        )

    def test_explicit_config_beats_environment(self, monkeypatch):
        # The variables that once supplied the defaults are not inputs.
        monkeypatch.setenv("RUMBLE_COLUMNAR", "0")
        monkeypatch.setenv("RUMBLE_CODEGEN", "0")
        assert OptimizerFlags.resolve(RumbleConfig()) \
            == OptimizerFlags(True, True, True)
        flags = OptimizerFlags.resolve(
            RumbleConfig(columnar=True, codegen=False)
        )
        assert flags == OptimizerFlags(True, True, False)

    @pytest.mark.parametrize("level", sorted(SCAN_LEVELS))
    def test_dependency_chain(self, level):
        (pushdown, columnar, codegen), effective = SCAN_LEVELS[level]
        config = RumbleConfig(
            pushdown=pushdown, columnar=columnar, codegen=codegen
        )
        assert dataclasses.astuple(OptimizerFlags.resolve(config)) \
            == effective
        # The rule is the object's own invariant, not the resolver's.
        assert dataclasses.astuple(
            OptimizerFlags(pushdown, columnar, codegen)
        ) == effective

    def test_environment_default_cannot_outrun_its_prerequisite(self):
        """A level left at its default (on) is still off when the level
        below it was turned off."""
        assert not OptimizerFlags.resolve(
            RumbleConfig(columnar=False)
        ).codegen

    def test_engine_resolves_once(self):
        engine = make_engine(executors=2, parallelism=4)
        engine.config.columnar = False
        assert engine.runtime.flags == OptimizerFlags(True, True, True)


class TestSinglePrologue:
    """The same filter query reports the same ``rumble.pushdown.*``
    counters whichever reader the plan picks."""

    COUNTERS = (
        "rumble.pushdown.scans", "rumble.pushdown.predicates",
        "rumble.pushdown.projections", "rumble.pushdown.records_pruned",
    )

    def _pushdown_counters(self, level, path):
        asked, _ = SCAN_LEVELS[level]
        # A small block size: several partitions, so the per-block
        # record counts really are summed by both readers.
        engine = _engine(*asked, block_size=256)
        report = engine.profile(
            'for $o in json-file("{}")\n'
            'where $o.tag eq "a"\n'
            'where $o.v ge 10\n'
            'return $o.v'.format(path),
            cap=1000,
        )
        counters = report.metrics["counters"]
        return {name: counters.get(name) for name in self.COUNTERS}

    def test_row_and_batch_readers_agree(self, data_path):
        row = self._pushdown_counters("pushdown", data_path)
        assert row["rumble.pushdown.scans"] == 1
        assert row["rumble.pushdown.predicates"] == 2
        assert row["rumble.pushdown.projections"] == 1
        # Every record but the odd (tag "a") ones from 10 up.
        assert row["rumble.pushdown.records_pruned"] == 40 - 15
        assert self._pushdown_counters("columnar", data_path) == row
        assert self._pushdown_counters("codegen", data_path) == row
        assert set(
            self._pushdown_counters("rowscan", data_path).values()
        ) == {None}
