"""The block container: compressed partitions in one ``.npz`` file.

A plain ``np.load``-able zip of ``.npy`` members: ``p<i>_<channel>``
holds block ``i``'s payload bytes (empty channels get no member),
``__ebs`` one bound per block, ``__blocks_per_axis`` the decomposition's
blocks per axis, and ``__meta`` one canonical-JSON document (a uint8
member) with a row per block: the :data:`_ROW_FIELDS` plus
``payloads``, the block's channel names in order.  Nothing in it needs
``pickle``; a container written before the JSON ``__meta`` (an
object-dtype array) is refused.

The file goes through :mod:`repro.util.npz`, the reader snapshots use
too: it checks the archive, each member's CRC and each ``.npy`` header
(a payload member's header must be numpy's own for its length, or it
goes through numpy's parser).  This module checks what the members
mean: one ``__meta`` row per ``__ebs`` bound, well-formed rows, one
integer ``__blocks_per_axis``, no ``p*`` member outside a row, and, in
:func:`load_field`, blocks that tile the grid.  Every failure is a
:class:`~repro.util.errors.PayloadError` naming the file and the
member.
"""

from __future__ import annotations

import json

import numpy as np

from repro.compression.api import decompress_many
from repro.compression.sz import CompressedBlock
from repro.parallel.decomposition import BlockDecomposition
from repro.util.errors import PayloadError
from repro.util.npz import Archive, archive_path, create_npz, open_npz

__all__ = ["save_blocks", "load_blocks", "load_field"]

#: A ``__meta`` row's fields as (key, block attribute, value -> attribute):
#: the writer emits each attribute, the reader converts each value back.
_ROW_FIELDS = (
    ("shape", "shape", lambda v: tuple(int(s) for s in v)),
    ("source_itemsize", "source_itemsize", int),
    ("eb", "eb", float),
    ("mode", "mode", str),
    ("engine", "engine", str),
    ("codec", "codec_name", str),
    ("radius", "radius", int),
    ("n_outliers", "n_outliers", int),
    ("layout", "layout", int),
)


def save_blocks(path: str, blocks: list[CompressedBlock], ebs: np.ndarray, blocks_per_axis: int) -> str:
    """Persist compressed partitions to an ``.npz`` container; returns
    the path written (``.npz`` appended if missing).

    Payloads of entropy-coded blocks are already DEFLATE/Huffman output,
    so they go in ``ZIP_STORED`` (re-deflating them bought ~2 % for most
    of the save time); raw-codec payloads and the metadata members are
    deflated.  Each payload is written as numpy's header for its length
    plus its bytes, no array in between, and the file with one write
    (:func:`repro.util.npz.create_npz`).  Timestamps are fixed: the
    same blocks give the same bytes.
    """
    path = archive_path(path)
    rows = [
        {key: getattr(b, attr) for key, attr, _ in _ROW_FIELDS} | {"payloads": list(b.payloads)}
        for b in blocks
    ]
    meta_json = json.dumps({"blocks": rows}, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with create_npz(path) as out:
        out.array("__ebs", np.asarray(ebs, dtype=np.float64))
        out.array("__blocks_per_axis", np.array(blocks_per_axis))
        out.array("__meta", np.frombuffer(meta_json.encode(), dtype=np.uint8))
        for i, b in enumerate(blocks):
            for name, blob in b.payloads.items():
                if blob:
                    out.u1(f"p{i}_{name}", blob, deflate=b.codec_name == "raw")
    return path


def _meta_rows(archive: Archive) -> list[dict]:
    """The block rows of the JSON ``__meta`` member."""
    path = archive.path
    try:
        meta = archive.array("__meta")
    except PayloadError:
        if archive.header("__meta")[1].hasobject:
            raise PayloadError(
                f"{path}: member '__meta' is an object array, the block table of "
                "containers written before the JSON form, which only pickle reads"
            ) from None
        raise
    try:
        rows = json.loads(meta.tobytes())["blocks"]
    except (ValueError, TypeError, KeyError) as exc:
        raise PayloadError(f"{path}: member '__meta' is not a block table: {exc!r}") from None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise PayloadError(f"{path}: member '__meta' is not a list of block rows")
    return rows


def _block(archive: Archive, i: int, row: dict, stored: dict[str, str]) -> CompressedBlock:
    """Block ``i`` from its row and its payload members (``stored``:
    channel name -> member name)."""
    path = archive.path
    where = f"{path}: member '__meta' block {i}"
    try:
        fields = {attr: convert(row[key]) for key, attr, convert in _ROW_FIELDS}
        names = row["payloads"]
    except KeyError as exc:
        raise PayloadError(f"{where} has no {exc.args[0]!r} field") from None
    except (ValueError, TypeError) as exc:
        raise PayloadError(f"{where}: {exc}") from None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise PayloadError(f"{where}: 'payloads' is not a list of names")
    unlisted = sorted(stored.keys() - set(names))
    if unlisted:
        raise PayloadError(f"{path}: member {stored[unlisted[0]]!r} is not a payload of block {i}")
    payloads = {
        name: archive.array(stored[name]).tobytes() if name in stored else b""
        for name in names
    }
    return CompressedBlock(**fields, payloads=payloads)


def load_blocks(path: str) -> tuple[list[CompressedBlock], np.ndarray, int]:
    """Inverse of :func:`save_blocks`: ``(blocks, ebs, blocks_per_axis)``.

    ``path`` is the name given to :func:`save_blocks` (with or without
    its ``.npz``).  A damaged file (empty, truncated, not a zip) or a
    container that does not agree with itself — a missing or unreadable
    member, an ``__ebs`` without one bound per row, a
    ``__blocks_per_axis`` that is not one integer, a ``p*`` member no
    row lists, a ``__meta`` that is not a JSON table of well-formed
    block rows — raises :class:`~repro.util.errors.PayloadError` naming
    the file and the member.  A payload a row lists with no member is
    an empty channel.
    """
    with open_npz(path) as archive:
        path = archive.path
        ebs = archive.array("__ebs")
        bpa = archive.array("__blocks_per_axis")
        if bpa.size != 1 or bpa.dtype.kind not in "iu":
            raise PayloadError(
                f"{path}: member '__blocks_per_axis' is not one integer "
                f"(dtype {bpa.dtype}, shape {bpa.shape})"
            )
        # One pass over the member list: block index -> payload members.
        members: dict[int, dict[str, str]] = {}
        for key in archive.names:
            if key.startswith("p"):
                index, _, name = key[1:].partition("_")
                try:
                    members.setdefault(int(index), {})[name] = key
                except ValueError:
                    raise PayloadError(
                        f"{path}: member {key!r} is not named p<index>_<payload>"
                    ) from None
        rows = _meta_rows(archive)
        if ebs.shape != (len(rows),):
            raise PayloadError(
                f"{path}: member '__ebs' has shape {ebs.shape}, not one bound per block row"
            )
        blocks = [_block(archive, i, row, members.pop(i, {})) for i, row in enumerate(rows)]
        if members:
            key = min(min(stored.values()) for stored in members.values())
            raise PayloadError(f"{path}: member {key!r} belongs to no block row")
    return blocks, ebs, int(bpa.reshape(()))


def load_field(path: str, out: np.ndarray | None = None) -> np.ndarray:
    """The field a container holds, decoded into one float64 array.

    Each block decodes straight into its partition of the field (the
    partition views go to :func:`repro.compression.api.decompress_many`
    as ``out=``): bit for bit what ``decompress_any`` of each block
    assembled gives.  The grid is ``out``'s shape when ``out`` is given
    (it is filled and returned), else the blocks' shape times
    ``__blocks_per_axis`` along each axis.  Blocks that do not tile the
    grid as ``__blocks_per_axis`` cubed partitions in rank order are a
    :class:`~repro.util.errors.PayloadError` naming the file, raised
    before any block decodes; so is anything :func:`load_blocks` refuses.
    """
    blocks, _, bpa = load_blocks(path)
    if out is not None:
        shape = out.shape
    else:
        shape = tuple(bpa * s for s in blocks[0].shape) if blocks else ()
    try:
        dec = BlockDecomposition(shape, blocks=bpa)
    except ValueError as exc:
        raise PayloadError(f"{path}: member '__blocks_per_axis' ({bpa}) does not cut the grid: {exc}") from None
    if [b.shape for b in blocks] != [p.shape for p in dec]:
        raise PayloadError(
            f"{path}: the {len(blocks)} blocks are not the {dec.n_partitions} partitions of "
            f"{dec.partition_shape} cells that '__blocks_per_axis' ({bpa}) cuts {shape} into"
        )
    if out is None:
        out = np.empty(shape)
    decompress_many(blocks, out=dec.partition_views(out))
    return out
