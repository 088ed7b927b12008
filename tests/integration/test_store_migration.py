"""Migration of the committed v1 store fixture must be lossless.

``tests/fixtures/store_v1`` holds a real previous-layout store (one JSON
file per entry; see ``tests/fixtures/make_store_v1.py``).  These tests
replay the upgrade path the ``store-migration`` CI job exercises.  An
unmigrated copy is refused with a pointer to ``repro store migrate``; after
migrating it, nothing changed at the result level -- the snapshot equals
one built from the fixture's JSON files, ``store verify`` is clean, a warm
rerun of the frozen sweep simulates zero units, and rendered results are
byte-identical to a store-less run.
"""

import json
import pathlib
import shutil
import sys

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_store_v1 import FIXTURE_ROOT, OPERATOR, PATTERN  # noqa: E402

from _store_helpers import v1_snapshot  # noqa: E402

from repro.api import CharacterizeJob, Session, StoreMigrateJob  # noqa: E402
from repro.api.session import SessionError  # noqa: E402
from repro.core.store import (  # noqa: E402
    SweepResultStore,
    store_layout_version,
)
from repro.core.sweep import simulated_unit_count  # noqa: E402

pytestmark = pytest.mark.skipif(
    not FIXTURE_ROOT.is_dir(), reason="store_v1 fixture not generated"
)

JOB = CharacterizeJob(operator=OPERATOR, pattern=PATTERN)


@pytest.fixture()
def v1_store(tmp_path):
    """A private, writable copy of the committed v1 fixture."""
    root = tmp_path / "store_v1"
    shutil.copytree(FIXTURE_ROOT, root)
    return root


def _entry_files(root):
    return sorted(root.rglob("*.json"))


class TestFixtureMigration:
    def test_migrate_is_lossless_and_verifiable(self, v1_store):
        assert store_layout_version(v1_store) == 1
        before = v1_snapshot(v1_store)
        assert len(before) == 43

        report = SweepResultStore(v1_store).migrate()
        assert report.migrated == 43
        assert report.quarantined == 0
        assert report.io_errors == 0
        assert store_layout_version(v1_store) == 2
        # Every per-entry JSON file has been consumed into the packfiles.
        assert [path.name for path in _entry_files(v1_store)] == ["format.json"]

        migrated = SweepResultStore(v1_store)
        assert migrated.snapshot() == before
        fsck = migrated.verify()
        assert fsck.scanned == fsck.valid == 43
        assert fsck.quarantined == fsck.io_errors == 0

    def test_warm_rerun_simulates_zero_units(self, v1_store):
        SweepResultStore(v1_store).migrate()
        before = simulated_unit_count()
        Session(store=v1_store).run(JOB)
        assert simulated_unit_count() == before

    def test_rendered_results_are_byte_identical_across_migration(
        self, v1_store
    ):
        cold = Session(store=None).run(JOB).render()
        unmigrated = Session(store=v1_store)
        with pytest.raises(SessionError, match="repro store migrate"):
            unmigrated.run(JOB)
        with pytest.raises(SessionError, match="repro store migrate"):
            unmigrated.run_batch([JOB])
        SweepResultStore(v1_store).migrate()
        post = Session(store=v1_store).run(JOB).render()
        assert post == cold

    def test_migrate_job_reports_through_the_session(self, v1_store):
        result = Session(store=v1_store).run(StoreMigrateJob())
        assert result.report.migrated == 43
        assert "migrated   : 43" in result.render()

    def test_unreadable_legacy_entry_is_quarantined_not_dropped(self, v1_store):
        victim = _entry_files(v1_store)[0]
        victim.write_text("{ not json", encoding="utf-8")
        report = SweepResultStore(v1_store).migrate()
        assert report.migrated == 42
        assert report.quarantined == 1
        assert list((v1_store / "quarantine").iterdir())
        fsck = SweepResultStore(v1_store).verify()
        assert fsck.scanned == fsck.valid == 42


class TestFixtureFreshness:
    def test_committed_fixture_matches_regeneration(self, tmp_path):
        # The same byte-level comparison `make_store_v1.py --check` (and the
        # store-migration CI job) runs: the fixture must track the engine.
        from make_store_v1 import build, tree

        fresh = tmp_path / "store_v1"
        assert build(fresh) == 43
        assert tree(fresh) == tree(FIXTURE_ROOT)

    def test_jobs_file_replays_the_frozen_sweep(self, v1_store):
        document = json.loads(
            (FIXTURES / "store_v1_jobs.json").read_text(encoding="utf-8")
        )
        from repro.api.jobs import jobs_from_document

        (job,) = jobs_from_document(document)
        assert job == JOB
