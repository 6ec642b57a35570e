"""The tuning cache serves reads from memory.

A ``TuningCache`` keeps the parsed entries and re-reads the file only
when its identity (inode, size, mtime) changed since the instance's last
read or write; a store writes the same ``{"version": 1, "entries": ...}``
document that ``json.dumps(..., sort_keys=True)`` of the whole mapping
gives.
"""

import json

import pytest

from repro.tuner import TuningCache


@pytest.fixture
def json_parses(monkeypatch):
    """Count every ``json.load``/``json.loads`` call."""
    calls = []
    load, loads = json.load, json.loads

    def counted_load(*args, **kwargs):
        calls.append("load")
        return load(*args, **kwargs)

    def counted_loads(*args, **kwargs):
        calls.append("loads")
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "load", counted_load)
    monkeypatch.setattr(json, "loads", counted_loads)
    return calls


def _filled(path, n=5):
    cache = TuningCache(path)
    for i in range(n):
        cache.put(f"k{i}", {"reorder": "jaccard", "block_shape": (16, 8), "i": i})
    return cache


def test_get_on_an_unchanged_file_parses_no_json(tmp_path, json_parses):
    cache = _filled(tmp_path / "t.json")
    reader = TuningCache(tmp_path / "t.json")
    assert reader.get("k0") == {"reorder": "jaccard", "block_shape": [16, 8], "i": 0}
    parses = len(json_parses)
    for key in ("k1", "k4", "missing"):
        reader.get(key)
        cache.get(key)
    assert "k2" in reader and len(reader) == 5 and reader.stats.size == 5
    assert len(json_parses) == parses


def test_a_store_is_not_reread_by_its_writer(tmp_path, json_parses):
    cache = _filled(tmp_path / "t.json")
    del json_parses[:]
    cache.put("k9", {"x": 1})
    assert cache.get("k9") == {"x": 1}
    assert json_parses.count("load") == 0  # the file is not read back


def test_another_instances_put_and_clear_are_seen(tmp_path):
    path = tmp_path / "t.json"
    reader = _filled(path, n=2)
    writer = TuningCache(path)
    assert reader.get("new") is None
    writer.put("new", {"x": 2})
    assert reader.get("new") == {"x": 2}
    assert len(reader) == 3
    writer.put("k0", {"x": 3})  # same key, changed entry
    assert reader.get("k0") == {"x": 3}
    writer.clear()
    assert reader.get("new") is None and len(reader) == 0
    reader.put("after", {"x": 4})
    assert json.loads(path.read_text()) == {"version": 1, "entries": {"after": {"x": 4}}}


def test_file_is_the_sorted_json_document(tmp_path):
    path = tmp_path / "t.json"
    entries = {
        "b": {"z": 1, "a": [16, 8], "p": {"y": None, "x": 1.5}},
        "a": {"reorder": "rcm", "quote": 'a "b" é'},
        "c": {},
    }
    other = TuningCache(path)
    other.put("b", entries["b"])  # read back by the writer below
    cache = TuningCache(path)
    cache.put("a", entries["a"])
    cache.put("c", entries["c"])
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps({"version": 1, "entries": entries}, sort_keys=True)


def test_returned_entries_are_copies(tmp_path):
    cache = _filled(tmp_path / "t.json", n=1)
    entry = cache.get("k0")
    entry["block_shape"].append(99)
    entry["reorder"] = "rcm"
    assert cache.get("k0") == {"reorder": "jaccard", "block_shape": [16, 8], "i": 0}
    stored = {"reorder_params": {"threshold": 0.5}}
    cache.put("k1", stored)
    stored["reorder_params"]["threshold"] = 0.9
    assert cache.get("k1") == {"reorder_params": {"threshold": 0.5}}
