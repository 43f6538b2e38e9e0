"""Tests for the row store and its JSONL files (repro.runtime.checkpoint).

The corruption matrix runs once per store owner: the sweep checkpoint
(keyed by ``index``) and the service's result store (keyed by
``fingerprint``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.runtime.checkpoint import (
    RowStore,
    fingerprint,
    jsonable,
    sweep_checkpoint,
)
from repro.service.persistence import RESULTS_NAME, ServicePersistence


class TestJsonable:
    def test_plain_values_pass_through(self):
        assert jsonable({"a": 1, "b": [1.5, None, True, "x"]}) == {
            "a": 1,
            "b": [1.5, None, True, "x"],
        }

    def test_numpy_scalars_unwrapped(self):
        out = jsonable({"f": np.float64(0.5), "i": np.int64(3)})
        assert out == {"f": 0.5, "i": 3}
        assert type(out["f"]) is float and type(out["i"]) is int

    def test_arrays_become_lists(self):
        assert jsonable(np.arange(3)) == [0, 1, 2]

    def test_tuples_become_lists(self):
        assert jsonable((1, 2)) == [1, 2]

    def test_unserializable_rejected(self):
        with pytest.raises(CheckpointError):
            jsonable(object())

    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            np.float64("nan"),
            {"nested": [1.0, float("nan")]},
            np.array([0.5, np.inf]),
        ],
        ids=["nan", "inf", "-inf", "np-nan", "nested-nan", "array-inf"],
    )
    def test_nonfinite_floats_rejected(self, bad):
        # json.dumps would emit the non-RFC NaN/Infinity literals, which
        # strict readers refuse — the resume round-trip must fail loudly
        # at record time, not at the next resume
        with pytest.raises(CheckpointError, match="finite"):
            jsonable(bad)

    def test_finite_floats_still_pass(self):
        assert jsonable({"x": 1e308, "y": -0.0}) == {"x": 1e308, "y": -0.0}


def _rows(store: RowStore, keys) -> dict:
    return {k: store.get(k) for k in keys if k in store}


class TestOpenAndRecord:
    def test_fresh_file_has_header(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        fp = fingerprint([1, 2], "int:5")
        with sweep_checkpoint(path, n_points=2, fp=fp) as ckpt:
            assert len(ckpt) == 0
            ckpt.put(0, {"param": 1, "y": np.float64(0.25)})
        lines = [json.loads(l) for l in open(path)]
        assert lines[0]["kind"] == "sweep-checkpoint"
        assert lines[0]["fingerprint"] == fp
        assert lines[1] == {"index": 0, "row": {"param": 1, "y": 0.25}}

    def test_resume_loads_completed_rows(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        fp = fingerprint([1, 2, 3], "none")
        with sweep_checkpoint(path, n_points=3, fp=fp) as ckpt:
            ckpt.put(0, {"param": 1})
            ckpt.put(2, {"param": 3})
        with sweep_checkpoint(path, n_points=3, fp=fp) as resumed:
            assert _rows(resumed, range(3)) == {
                0: {"param": 1},
                2: {"param": 3},
            }

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with sweep_checkpoint(
            path, n_points=2, fp=fingerprint([1, 2], "int:5")
        ):
            pass
        with pytest.raises(CheckpointError, match="different sweep"):
            sweep_checkpoint(
                path, n_points=2, fp=fingerprint([1, 99], "int:5")
            )

    def test_point_count_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        fp = fingerprint([1], "none")
        with sweep_checkpoint(path, n_points=1, fp=fp):
            pass
        with pytest.raises(CheckpointError):
            sweep_checkpoint(path, n_points=2, fp=fp)


class TestCorruptionMatrix:
    """Sweep-specific header and key checks (the shared cells are in
    :class:`TestRowStoreMatrix`)."""

    def _fresh(self, tmp_path, n_points=3):
        path = str(tmp_path / "ckpt.jsonl")
        fp = fingerprint(list(range(n_points)), "none")
        with sweep_checkpoint(path, n_points=n_points, fp=fp) as ckpt:
            for i in range(n_points):
                ckpt.put(i, {"param": i})
        return path, fp

    def test_truncated_header_raises(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        lines = open(path).read().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # torn header
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="header"):
            sweep_checkpoint(path, n_points=3, fp=fp)

    def test_fingerprint_mismatch_still_raises(self, tmp_path):
        path, _ = self._fresh(tmp_path)
        with pytest.raises(CheckpointError, match="different sweep"):
            sweep_checkpoint(
                path, n_points=3, fp=fingerprint([9, 9, 9], "none")
            )

    def test_out_of_range_index_quarantined(self, tmp_path):
        path, fp = self._fresh(tmp_path)
        lines = open(path).read().splitlines()
        lines[2] = '{"index": 99, "row": {"param": 0}}'
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with sweep_checkpoint(path, n_points=3, fp=fp) as ckpt:
                assert set(_rows(ckpt, range(3))) == {0, 2}
                assert ckpt.warnings == [
                    {"line": 3, "reason": "malformed record quarantined"}
                ]


# -- one corruption matrix, both store owners --------------------------------

_FP3 = fingerprint([0, 1, 2], "none")


@contextmanager
def _sweep_store(directory):
    path = os.path.join(directory, "ckpt.jsonl")
    with sweep_checkpoint(path, n_points=3, fp=_FP3) as store:
        yield store


@contextmanager
def _service_store(directory):
    with ServicePersistence(directory) as persistence:
        yield persistence.results


@dataclass(frozen=True)
class _Owner:
    open: Callable
    file: str
    key: str
    keys: tuple
    bad_key: object  # parses, but is not a valid key for this owner
    label: str
    header: str  # the owner's header line, as the parent release wrote it


OWNERS = {
    "sweep": _Owner(
        _sweep_store,
        "ckpt.jsonl",
        "index",
        (0, 1, 2),
        99,
        "sweep checkpoint",
        json.dumps(
            {
                "kind": "sweep-checkpoint",
                "version": 1,
                "n_points": 3,
                "fingerprint": _FP3,
            }
        ),
    ),
    "service": _Owner(
        _service_store,
        RESULTS_NAME,
        "fingerprint",
        ("fp-0", "fp-1", "fp-2"),
        3,
        "service result store",
        '{"kind": "service-results", "version": 1}',
    ),
}


@pytest.fixture(params=sorted(OWNERS))
def owner(request):
    return OWNERS[request.param]


def _lines(path) -> list:
    with open(path) as fh:
        return fh.read().splitlines()


def _write(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TestRowStoreMatrix:
    """Every damage shape degrades the same way for both owners."""

    def _seeded(self, tmp_path, owner, n=3) -> str:
        with owner.open(str(tmp_path)) as store:
            for i, k in enumerate(owner.keys[:n]):
                store.put(k, {"v": i})
        return str(tmp_path / owner.file)

    def test_torn_tail_dropped(self, tmp_path, owner):
        path = self._seeded(tmp_path, owner, n=2)
        with open(path, "a") as fh:  # killed mid-append
            fh.write(json.dumps({owner.key: owner.keys[2]})[:-1] + ', "ro')
        with owner.open(str(tmp_path)) as store:
            assert _rows(store, owner.keys) == {
                owner.keys[0]: {"v": 0},
                owner.keys[1]: {"v": 1},
            }
            assert store.warnings == [
                {"line": 4, "reason": "torn tail line dropped"}
            ]
            assert store.quarantined == 0

    def test_garbled_interior_quarantined_and_healed(self, tmp_path, owner):
        path = self._seeded(tmp_path, owner)
        lines = _lines(path)
        lines[1] = "not json at all {"
        _write(path, lines)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with owner.open(str(tmp_path)) as store:
                # the damaged point is forgotten (it will re-run); the
                # other rows survive
                assert set(_rows(store, owner.keys)) == set(owner.keys[1:])
                assert store.quarantined == 1
                assert store.warnings == [
                    {"line": 2, "reason": "corrupt line quarantined"}
                ]
                # the raw line moved to the sidecar ...
                sidecar = open(store.path + ".corrupt").read()
                assert "not json at all {" in sidecar
        # ... and the healed main file is clean: re-opening is warning-free
        with owner.open(str(tmp_path)) as healed:
            assert healed.warnings == []
            assert set(_rows(healed, owner.keys)) == set(owner.keys[1:])

    def test_duplicate_key_newest_wins(self, tmp_path, owner):
        self._seeded(tmp_path, owner)
        with owner.open(str(tmp_path)) as store:
            store.put(owner.keys[1], {"v": 10})
        with owner.open(str(tmp_path)) as store:
            assert store.get(owner.keys[1]) == {"v": 10}
            assert len(store) == 3
            assert store.quarantined == 0  # superseded, not corrupt
            assert store.warnings == [
                {
                    "line": 5,
                    "reason": f"duplicate {owner.key} {owner.keys[1]}; "
                    "keeping the newer row",
                }
            ]

    def test_malformed_record_quarantined(self, tmp_path, owner):
        path = self._seeded(tmp_path, owner)
        lines = _lines(path)
        # valid JSON, wrong shape: a bad key, and a row that is no mapping
        lines[2:2] = [
            json.dumps({owner.key: owner.bad_key, "row": {"v": 9}}),
            json.dumps({owner.key: owner.keys[0], "row": [9]}),
        ]
        _write(path, lines)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with owner.open(str(tmp_path)) as store:
                assert store.quarantined == 2
                assert _rows(store, owner.keys) == {
                    k: {"v": i} for i, k in enumerate(owner.keys)
                }

    @pytest.mark.parametrize(
        "field, value",
        [("kind", "other-kind"), ("version", 99)],
        ids=["kind", "version"],
    )
    def test_wrong_kind_or_version_refused(
        self, tmp_path, owner, field, value
    ):
        path = self._seeded(tmp_path, owner)
        lines = _lines(path)
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
        _write(path, lines)
        with pytest.raises(CheckpointError, match=f"not a v1 {owner.label}"):
            with owner.open(str(tmp_path)):
                pass

    def test_zero_byte_file_reheaded(self, tmp_path, owner):
        # a crash before the header fsync leaves an empty file
        open(tmp_path / owner.file, "w").close()
        with owner.open(str(tmp_path)) as store:
            assert len(store) == 0
            assert store.warnings == []
        assert _lines(tmp_path / owner.file) == [owner.header]


class TestParentFormat:
    """Files written by the parent release load and extend unchanged."""

    def test_literal_lines_load_and_append_unchanged(self, tmp_path, owner):
        k0, k1 = (json.dumps(k) for k in owner.keys[:2])
        lines = [
            owner.header,
            f'{{"{owner.key}": {k0}, "row": {{"param": 0, "v": 0.5}}}}',
        ]
        path = tmp_path / owner.file
        _write(path, lines)
        with owner.open(str(tmp_path)) as store:
            assert store.warnings == []
            assert store.get(owner.keys[0]) == {"param": 0, "v": 0.5}
            store.put(owner.keys[1], {"param": 1, "v": np.float64(0.25)})
        assert _lines(path) == lines + [
            f'{{"{owner.key}": {k1}, "row": {{"param": 1, "v": 0.25}}}}'
        ]
