"""Snapshot container round trips."""

from __future__ import annotations

import numpy as np
import pytest
from npz_damage import DAMAGES, damaged_copy

from repro.sim.io import load_snapshot, peek_snapshot_shape, save_snapshot
from repro.sim.nyx import FIELD_NAMES
from repro.util.errors import PayloadError


class TestSnapshotIO:
    def test_round_trip(self, snapshot, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.redshift == snapshot.redshift
        assert loaded.box_size == snapshot.box_size
        for name in FIELD_NAMES:
            assert np.array_equal(loaded[name], snapshot[name])

    def test_meta_preserved(self, snapshot, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.meta["growth_factor"] == pytest.approx(
            snapshot.meta["growth_factor"]
        )

    def test_rejects_non_snapshot_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a snapshot"):
            load_snapshot(path)

    def test_peek_shape_reads_headers_only(self, snapshot, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        assert peek_snapshot_shape(path) == snapshot.shape

    def test_peek_shape_rejects_field_free_container(self, tmp_path):
        path = tmp_path / "meta_only.npz"
        np.savez(path, __redshift=np.array(1.0))
        with pytest.raises(ValueError, match="no field arrays"):
            peek_snapshot_shape(path)

    @pytest.mark.parametrize("read", [load_snapshot, peek_snapshot_shape])
    @pytest.mark.parametrize("kind", sorted(DAMAGES))
    def test_a_damaged_file_is_a_payload_error(self, snapshot, tmp_path, kind, read):
        """A dump cut short, emptied or replaced by other bytes: a ``PayloadError``
        naming the file, not ``BadZipFile``, ``EOFError`` or numpy's
        advice to unpickle."""
        good = tmp_path / "snap.npz"
        save_snapshot(snapshot, good)
        path = damaged_copy(good, tmp_path / "bad.npz", kind)
        with pytest.raises(PayloadError, match=r"bad\.npz") as err:
            read(path)
        assert "allow_pickle" not in str(err.value)

    def test_compressed_on_disk(self, snapshot, tmp_path):
        """The container must actually compress (it stands in for HDF5+filters)."""
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        raw = sum(snapshot[n].nbytes for n in FIELD_NAMES)
        assert path.stat().st_size < raw
