"""Snapshot stream sources."""

from __future__ import annotations

import zipfile

import numpy as np
import pytest
from npz_damage import damaged_copy

from repro.resilience import retry as retry_module
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryExhaustedError, RetryPolicy
from repro.sim.io import save_snapshot
from repro.sim.nyx import FIELD_NAMES, NyxSimulator, NyxSnapshot
from repro.stream.source import (
    DirectoryStream,
    SimulatorStream,
    SnapshotSequence,
    SnapshotStream,
    as_stream,
)
from repro.util.errors import IncompleteArchiveError, PayloadError


@pytest.fixture(scope="module")
def small_sim() -> NyxSimulator:
    return NyxSimulator(shape=(8, 8, 8), box_size=8.0, seed=11)


class TestSimulatorStream:
    def test_length_and_order(self, small_sim):
        stream = SimulatorStream(small_sim, [3.0, 1.0, 0.5])
        assert len(stream) == 3
        assert [s.redshift for s in stream] == [3.0, 1.0, 0.5]

    def test_is_snapshot_stream(self, small_sim):
        assert isinstance(SimulatorStream(small_sim, [1.0]), SnapshotStream)

    def test_field_subset(self, small_sim):
        stream = SimulatorStream(small_sim, [1.0], fields=["temperature"])
        snap = next(iter(stream))
        assert sorted(snap.fields) == ["temperature"]

    def test_unknown_field_rejected(self, small_sim):
        stream = SimulatorStream(small_sim, [1.0], fields=["no_such_field"])
        with pytest.raises(KeyError, match="no_such_field"):
            next(iter(stream))

    def test_empty_schedule_rejected(self, small_sim):
        with pytest.raises(ValueError, match="schedule"):
            SimulatorStream(small_sim, [])

    def test_negative_redshift_rejected(self, small_sim):
        with pytest.raises(ValueError, match="non-negative"):
            SimulatorStream(small_sim, [1.0, -0.5])

    def test_repeatable(self, small_sim):
        stream = SimulatorStream(small_sim, [1.0])
        first = next(iter(stream))
        second = next(iter(stream))
        assert np.array_equal(first["baryon_density"], second["baryon_density"])


class TestDirectoryStream:
    @pytest.fixture()
    def seq_dir(self, tmp_path, small_sim):
        for i, z in enumerate([2.0, 1.0, 0.5]):
            save_snapshot(small_sim.snapshot(z=z), tmp_path / f"snapshot_{i:04d}.npz")
        return tmp_path

    def test_sorted_replay(self, seq_dir):
        stream = DirectoryStream(seq_dir)
        assert len(stream) == 3
        assert [s.redshift for s in stream] == [2.0, 1.0, 0.5]
        assert stream.shape == (8, 8, 8)

    def test_round_trips_fields(self, seq_dir, small_sim):
        snap = next(iter(DirectoryStream(seq_dir)))
        fresh = small_sim.snapshot(z=2.0)
        assert sorted(snap.fields) == sorted(FIELD_NAMES)
        assert np.array_equal(snap["temperature"], fresh["temperature"])

    def test_field_subset(self, seq_dir):
        stream = DirectoryStream(seq_dir, fields=["velocity_x"])
        assert sorted(next(iter(stream)).fields) == ["velocity_x"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DirectoryStream(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no snapshots"):
            DirectoryStream(tmp_path)


class TestDumpBeingCopied:
    """A directory dump read while it is still being copied is an archive
    cut short: retried under a policy, loaded whole once the copy is done.
    Damage inside a member, or an archive that is not a snapshot, is not
    what a copy in flight looks like and fails on the first attempt."""

    @pytest.fixture()
    def seq_dir(self, tmp_path, small_sim):
        for i, z in enumerate([2.0, 1.0]):
            save_snapshot(small_sim.snapshot(z=z), tmp_path / f"snapshot_{i:04d}.npz")
        return tmp_path

    @pytest.fixture()
    def waits(self, monkeypatch):
        """The retry loop's backoff waits, recorded instead of slept."""
        waits: list[float] = []
        monkeypatch.setattr(retry_module.time, "sleep", waits.append)
        return waits

    def test_a_dump_cut_on_the_first_attempt_loads_whole_on_the_second(
        self, seq_dir, monkeypatch
    ):
        dump = sorted(seq_dir.glob("*.npz"))[1]
        whole = dump.read_bytes()
        clean = list(DirectoryStream(seq_dir))
        damaged_copy(dump, dump, "truncated")
        restores: list[float] = []

        def copy_finishes(delay: float) -> None:
            restores.append(delay)
            dump.write_bytes(whole)

        monkeypatch.setattr(retry_module.time, "sleep", copy_finishes)
        loaded = list(DirectoryStream(seq_dir, retry=RetryPolicy(max_attempts=3)))
        assert len(restores) == 1
        assert [s.redshift for s in loaded] == [s.redshift for s in clean]
        for got, want in zip(loaded, clean):
            for name in want.fields:
                assert np.array_equal(got[name], want[name])

    @pytest.mark.parametrize("kind", ["truncated", "empty", "not-a-zip"])
    def test_archive_damage_is_retried(self, seq_dir, waits, kind):
        dump = sorted(seq_dir.glob("*.npz"))[0]
        damaged_copy(dump, dump, kind)
        stream = DirectoryStream(seq_dir, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(RetryExhaustedError) as err:
            next(iter(stream))
        assert err.value.attempts == 3 and len(waits) == 2
        assert isinstance(err.value.last, IncompleteArchiveError)
        assert dump.name in str(err.value)

    def test_member_damage_is_not_retried(self, seq_dir, small_sim, waits):
        dump = sorted(seq_dir.glob("*.npz"))[0]
        # Stored members, so one flipped data byte fails the member's CRC
        # while the archive around it stays whole.
        np.savez(dump, **small_sim.snapshot(z=2.0).fields, __redshift=2.0, __box_size=8.0)
        with zipfile.ZipFile(dump) as zf:
            info = zf.getinfo("temperature.npy")
        raw = bytearray(dump.read_bytes())
        raw[info.header_offset + 200] ^= 0xFF
        dump.write_bytes(bytes(raw))
        stream = DirectoryStream(seq_dir, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(PayloadError, match="temperature") as err:
            next(iter(stream))
        assert not isinstance(err.value, IncompleteArchiveError)
        assert waits == []

    @pytest.mark.parametrize("kind", ["an-npy-array", "not-a-snapshot"])
    def test_an_archive_that_is_not_a_snapshot_is_not_retried(self, seq_dir, waits, kind):
        dump = sorted(seq_dir.glob("*.npz"))[0]
        if kind == "not-a-snapshot":
            np.savez(dump, temperature=np.zeros((8, 8, 8)))
        else:
            damaged_copy(dump, dump, kind)
        stream = DirectoryStream(seq_dir, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(ValueError) as err:
            next(iter(stream))
        assert not isinstance(err.value, IncompleteArchiveError)
        assert waits == []


class TestEveryLoadIsAFaultPoint:
    """``source.load`` fires once per dump loaded, whatever the source,
    and a resumed stream's skipped dumps are never loaded."""

    @pytest.mark.parametrize("source", ["simulator", "sequence", "directory"])
    def test_one_invocation_per_load(self, tmp_path, small_sim, source):
        redshifts = [2.0, 1.0, 0.5]
        if source == "simulator":
            stream = SimulatorStream(small_sim, redshifts)
        elif source == "sequence":
            stream = SnapshotSequence([small_sim.snapshot(z=z) for z in redshifts])
        else:
            for i, z in enumerate(redshifts):
                save_snapshot(small_sim.snapshot(z=z), tmp_path / f"snapshot_{i:04d}.npz")
            stream = DirectoryStream(tmp_path)
        plan = FaultPlan()
        with plan.activate():
            assert [s.redshift for s in stream.iter_from(1)] == redshifts[1:]
        assert plan.invocations("source.load") == 2

    def test_an_armed_load_fails_an_in_memory_source(self, small_sim):
        stream = SnapshotSequence([small_sim.snapshot(z=1.0)])
        plan = FaultPlan().arm("source.load", kind="crash", at=0)
        with plan.activate(), pytest.raises(Exception, match="source.load"):
            next(iter(stream))
        assert plan.fired("source.load") == 1


class TestSnapshotSequence:
    def test_wraps_list(self, small_sim):
        snaps = [small_sim.snapshot(z=z) for z in (1.0, 0.5)]
        stream = SnapshotSequence(snaps)
        assert len(stream) == 2
        assert [s.redshift for s in stream] == [1.0, 0.5]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SnapshotSequence([])

    def test_rejects_empty_field_subset(self, small_sim):
        with pytest.raises(ValueError, match="fields"):
            SnapshotSequence([small_sim.snapshot(z=1.0)], fields=[])


class TestAsStream:
    def test_passthrough(self, small_sim):
        stream = SimulatorStream(small_sim, [1.0])
        assert as_stream(stream) is stream

    def test_list_coercion(self, small_sim):
        snaps = [small_sim.snapshot(z=1.0)]
        stream = as_stream(snaps)
        assert isinstance(stream, SnapshotSequence)
        assert len(stream) == 1

    def test_single_snapshot(self, small_sim):
        stream = as_stream(small_sim.snapshot(z=1.0))
        assert isinstance(stream, SnapshotSequence)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_stream(object())


class TestRestrictPreservesMeta:
    def test_meta_and_box(self, small_sim):
        snap = small_sim.snapshot(z=0.5)
        restricted = next(
            iter(SnapshotSequence([snap], fields=["baryon_density"]))
        )
        assert isinstance(restricted, NyxSnapshot)
        assert restricted.box_size == snap.box_size
        assert restricted.meta == snap.meta
