"""Shared helpers for tests that reach into the packfile store layout."""

import json
import pathlib

from repro.core.store import PACKS_DIR, SweepResultStore


def store_snapshot(root):
    """Canonical payloads keyed by entry key (layout-independent)."""
    return SweepResultStore(root).snapshot()


def index_lines(root):
    """All add-lines of every pack index under ``root``, with segment names."""
    lines = []
    for path in sorted(pathlib.Path(root, PACKS_DIR).glob("*.idx")):
        for raw in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(raw)
            if "k" in record:
                record["segment"] = path.name[: -len(".idx")]
                lines.append(record)
    return lines


def corrupt_one_entry(root, key=None):
    """Flip a byte inside one stored record; returns the damaged key.

    With ``key=None`` the lexicographically first key is damaged, which
    keeps the choice deterministic across runs.
    """
    lines = index_lines(root)
    if key is not None:
        lines = [line for line in lines if line["k"] == key]
    if not lines:
        raise AssertionError("no pack records to corrupt")
    line = min(lines, key=lambda item: item["k"])
    pack = pathlib.Path(root, PACKS_DIR, line["segment"] + ".pack")
    data = bytearray(pack.read_bytes())
    data[line["o"] + 20] ^= 0xFF
    pack.write_bytes(bytes(data))
    return line["k"]


def make_segment_unreadable(root):
    """Replace one pack segment with a directory (I/O error on read)."""
    pack = sorted(pathlib.Path(root, PACKS_DIR).glob("*.pack"))[0]
    pack.unlink()
    pack.mkdir()
    return pack


def v1_snapshot(root):
    """Expected ``snapshot()`` of a v1 root, built from its files alone.

    Each entry file's JSON document without its ``"key"`` field, in
    canonical JSON -- no store code involved, so it can check a migration.
    """
    result = {}
    for path in sorted(pathlib.Path(root).glob("??/*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["key"]
        result[path.stem] = json.dumps(
            document, sort_keys=True, separators=(",", ":")
        )
    return result


def tree(root):
    """Relative path -> file bytes (``None`` for directories) under ``root``."""
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }
