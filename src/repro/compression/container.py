"""The block container: compressed partitions in one ``.npz`` file.

A plain ``np.load``-able zip of ``.npy`` members: ``p<i>_<channel>``
holds block ``i``'s payload bytes (empty channels get no member),
``__ebs`` one bound per block, ``__blocks_per_axis`` the decomposition's
blocks per axis, and ``__meta`` one canonical-JSON document (a uint8
member) with a row per block: the :data:`_ROW_FIELDS` plus
``payloads``, the block's channel names in order.  Nothing in it needs
``pickle``; a container written before the JSON ``__meta`` (an
object-dtype array) is refused.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from repro.compression.sz import CompressedBlock
from repro.util.errors import PayloadError
from repro.util.npz import member_header, open_npz, read_member

__all__ = ["save_blocks", "load_blocks"]

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


def save_blocks(path: str, blocks: list[CompressedBlock], ebs: np.ndarray, blocks_per_axis: int) -> None:
    """Persist compressed partitions to an ``.npz`` container.

    Payloads of entropy-coded blocks are already DEFLATE/Huffman output,
    so they go in ``ZIP_STORED`` (re-deflating them bought ~2 % for most
    of the save time); raw-codec payloads and the metadata members are
    deflated.  Timestamps are fixed: the same blocks give the same bytes.
    """
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    rows = [
        {key: getattr(b, attr) for key, attr, _ in _ROW_FIELDS} | {"payloads": list(b.payloads)}
        for b in blocks
    ]
    meta_json = json.dumps({"blocks": rows}, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with zipfile.ZipFile(path, "w", allowZip64=True) as zf:

        def write(name: str, arr: np.ndarray, method: int) -> None:
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy")  # fixed timestamp: same blocks, same file
            info.compress_type = method
            zf.writestr(info, buf.getvalue())

        write("__ebs", np.asarray(ebs, dtype=np.float64), zipfile.ZIP_DEFLATED)
        write("__blocks_per_axis", np.array(blocks_per_axis), zipfile.ZIP_DEFLATED)
        write("__meta", np.frombuffer(meta_json.encode(), dtype=np.uint8), zipfile.ZIP_DEFLATED)
        for i, b in enumerate(blocks):
            method = zipfile.ZIP_DEFLATED if b.codec_name == "raw" else zipfile.ZIP_STORED
            for name, blob in b.payloads.items():
                if blob:
                    write(f"p{i}_{name}", np.frombuffer(blob, dtype=np.uint8), method)


def _meta_rows(data, path: str) -> list[dict]:
    """The block rows of the JSON ``__meta`` member."""
    if member_header(data, path, "__meta")[1].hasobject:
        raise PayloadError(
            f"{path}: member '__meta' is an object array, the block table of "
            "containers written before the JSON form, which only pickle reads"
        )
    meta = read_member(data, path, "__meta")
    try:
        rows = json.loads(meta.tobytes())["blocks"]
    except (ValueError, TypeError, KeyError) as exc:
        raise PayloadError(f"{path}: member '__meta' is not a block table: {exc!r}") from None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise PayloadError(f"{path}: member '__meta' is not a list of block rows")
    return rows


def _block(data, path: str, i: int, row: dict, stored: dict[str, str]) -> CompressedBlock:
    """Block ``i`` from its row and its payload members (``stored``:
    channel name -> member name)."""
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
        name: read_member(data, path, stored[name]).tobytes() if name in stored else b""
        for name in names
    }
    return CompressedBlock(**fields, payloads=payloads)


def load_blocks(path: str) -> tuple[list[CompressedBlock], np.ndarray, int]:
    """Inverse of :func:`save_blocks`: ``(blocks, ebs, blocks_per_axis)``.

    A damaged file (empty, truncated, not a zip) or a container that
    does not agree with itself — a missing or unreadable member, an
    ``__ebs`` without one bound per row, a ``__blocks_per_axis`` that is
    not one integer, a ``p*`` member no row lists, a ``__meta`` that is
    not a JSON table of well-formed block rows — raises
    :class:`~repro.util.errors.PayloadError` naming the file and the
    member.  A payload a row lists with no member is an empty channel.
    """
    with open_npz(path) as data:
        ebs = read_member(data, path, "__ebs")
        bpa = read_member(data, path, "__blocks_per_axis")
        if bpa.size != 1 or bpa.dtype.kind not in "iu":
            raise PayloadError(
                f"{path}: member '__blocks_per_axis' is not one integer "
                f"(dtype {bpa.dtype}, shape {bpa.shape})"
            )
        # One pass over the member list: block index -> payload members.
        members: dict[int, dict[str, str]] = {}
        for key in data.files:
            if key.startswith("p"):
                index, _, name = key[1:].partition("_")
                try:
                    members.setdefault(int(index), {})[name] = key
                except ValueError:
                    raise PayloadError(
                        f"{path}: member {key!r} is not named p<index>_<payload>"
                    ) from None
        rows = _meta_rows(data, path)
        if ebs.shape != (len(rows),):
            raise PayloadError(
                f"{path}: member '__ebs' has shape {ebs.shape}, not one bound per block row"
            )
        blocks = [_block(data, path, i, row, members.pop(i, {})) for i, row in enumerate(rows)]
        if members:
            key = min(min(stored.values()) for stored in members.values())
            raise PayloadError(f"{path}: member {key!r} belongs to no block row")
    return blocks, ebs, int(bpa.reshape(()))
