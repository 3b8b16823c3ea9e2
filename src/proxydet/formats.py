"""File formats: JSONL datasets and predictions, mapping files, checkpoints, reports.

Every writer is byte-deterministic: JSON keys are emitted in sorted
order, floats are printed as Python's ``repr`` (the shortest text that
reads back as the same double), and no timestamps or environment details
leak into outputs.
Dataset and prediction files are self-describing — the first JSONL line
is a header record declaring the class vocabulary.

Readers reject malformed input with errors naming the file, line, and
field. The dataset reader turns each record's regions into arrays in one
pass, with no object per region; only input that fails an array check is
gone over again, one value at a time, to name its first fault.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Container
from dataclasses import InitVar, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .evaluation import EvalReport, GroundTruth
from .geometry import Box, corner_to_center_batch
from .head import PARAM_FIELDS, HeadParams, LossBreakdown, TrainSample, _param_layout
from .inference import ClassMapping, MappingEntry, PathologyBox, RegionDetections

FORMAT_VERSION = 1
_CHECKPOINT_MAGIC = b"proxydet-checkpoint-v1\n"


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Serialize with sorted keys, no spaces and each float as its ``repr``.

    ``repr`` is the shortest text that reads back as the same double, so
    every value round-trips exactly. NaN and infinities raise ``ValueError``.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


# ---------------------------------------------------------------------------
# dataset records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetHeader:
    classes: tuple[str, ...]
    n_regions: int
    feature_dim: int | None = None

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise DataError("duplicate class names in header")
        if not self.classes:
            raise DataError("header declares no classes")


@dataclass(eq=False)
class RegionRecord:
    """One region as code builds it; :class:`ImageRecord` stacks a list of them.

    The dataset reader builds the arrays directly and makes none of these.
    """

    region_id: int
    box: Box
    presence: float
    features: np.ndarray | None = None
    pathology_probs: np.ndarray | None = None  # aligned with the header classes


@dataclass(eq=False)
class GtRecord:
    boxes: list[tuple[str, Box]]
    image_labels: list[str]


@dataclass(eq=False)
class ImageRecord:
    """One image: its regions as arrays in region-id order, plus optional labels.

    :meth:`from_arrays` is the core: it takes the region rows in any order,
    puts them in id order and rejects a repeated id, and the dataset reader
    and :func:`scene_to_record` call it. The constructor is an adapter that
    stacks ``regions``, a list of :class:`RegionRecord` in any order, and
    hands the arrays to the same core. Row ``i`` of every array is region
    ``region_ids[i]``, ids increasing, so score ties fuse in id order.
    ``features`` and ``pathology_probs`` are None unless every region (at
    least one) has them. ``anatomy_labels`` is the exception: one row per id
    ``0..n_regions-1``.
    """

    image_id: str
    regions: InitVar[list[RegionRecord]]
    gt: GtRecord | None = None
    anatomy_labels: np.ndarray | None = None  # (n_regions, C) 0/1: row r is region id r
    region_ids: np.ndarray = field(init=False)  # (R,) int64
    boxes: np.ndarray = field(init=False)  # (R, 4) corners
    presence: np.ndarray = field(init=False)  # (R,)
    features: np.ndarray | None = field(init=False)  # (R, D)
    pathology_probs: np.ndarray | None = field(init=False)  # (R, C), header class order

    def __post_init__(self, regions: list[RegionRecord]):
        def stacked(rows):
            return np.array(rows, dtype=np.float64) if rows and all(row is not None for row in rows) else None

        self._set_rows(
            np.array([reg.region_id for reg in regions], dtype=np.int64),
            np.array([reg.box.as_tuple() for reg in regions], dtype=np.float64).reshape(-1, 4),
            np.array([reg.presence for reg in regions], dtype=np.float64),
            stacked([reg.features for reg in regions]),
            stacked([reg.pathology_probs for reg in regions]),
        )

    @classmethod
    def from_arrays(
        cls, image_id: str, region_ids: np.ndarray, boxes: np.ndarray, presence: np.ndarray,
        features: np.ndarray | None = None, pathology_probs: np.ndarray | None = None,
        gt: GtRecord | None = None, anatomy_labels: np.ndarray | None = None,
    ) -> ImageRecord:
        """A record from region rows in any order: ``(R,)`` ids, ``(R, 4)`` boxes, ``(R,)`` presence."""
        rec = cls.__new__(cls)
        rec.image_id, rec.gt, rec.anatomy_labels = image_id, gt, anatomy_labels
        rec._set_rows(region_ids, boxes, presence, features, pathology_probs)
        return rec

    def _set_rows(self, region_ids, boxes, presence, features, pathology_probs) -> None:
        if not len(region_ids):
            features = pathology_probs = None
        elif not (region_ids[1:] > region_ids[:-1]).all():
            order = np.argsort(region_ids, kind="stable")
            region_ids = region_ids[order]
            repeated = region_ids[1:][region_ids[1:] == region_ids[:-1]]
            if repeated.size:
                raise DataError(f"image {self.image_id!r}: region id {repeated[0]} appears more than once")
            boxes, presence = boxes[order], presence[order]
            features = None if features is None else features[order]
            pathology_probs = None if pathology_probs is None else pathology_probs[order]
        self.region_ids, self.boxes, self.presence = region_ids, boxes, presence
        self.features, self.pathology_probs = features, pathology_probs

    def head_features(self, n_regions: int, purpose: str) -> np.ndarray:
        """The ``(n_regions, D)`` head input; heads number rows by region id, so every id must be here."""
        if not np.array_equal(self.region_ids, np.arange(n_regions)):
            raise DataError(f"image {self.image_id!r}: region ids must be exactly 0..{n_regions - 1}")
        if self.features is None:
            raise ConfigError(f"image {self.image_id!r}: {purpose} requires region features")
        return self.features


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise DataError(f"{where}: {message}")


def _parse_box(value, where: str) -> Box:
    _require(isinstance(value, list) and len(value) == 4, where, "box must be a 4-element array")
    try:
        return Box(*(float(v) for v in value))
    except (TypeError, ValueError, OverflowError) as exc:  # json ints may exceed the float range
        raise DataError(f"{where}: {exc}") from exc


def _parse_number(value, where: str, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: {field} must be a number, got {value!r}") from exc


def _parse_count(value, where: str, field: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise DataError(f"{where}: {field} must be an integer >= {low}, got {value!r}")
    return value


def _parse_classes(value, where: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(name, str) for name in value)):
        raise DataError(f"{where}: classes must be a list of strings, got {value!r}")
    _require(len(set(value)) == len(value), where, "duplicate class names in header")
    return tuple(value)


def _loads(raw: bytes, where: str):
    """Parse UTF-8 JSON text; invalid bytes, bad syntax or an over-long integer is a DataError."""
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: malformed JSON: {exc.msg}") from exc
    except ValueError as exc:  # UnicodeDecodeError, or an integer past Python's digit limit
        raise DataError(f"{where}: malformed JSON: {exc}") from exc


def _iter_jsonl(path: str | Path):
    path = Path(path)
    # binary lines, decoded one at a time, so a bad byte is reported at its own line
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = _loads(line, f"{path}:{line_no}")
            _require(isinstance(obj, dict), f"{path}:{line_no}", "record must be a JSON object")
            yield line_no, obj


def read_dataset(path: str | Path) -> tuple[DatasetHeader, list[ImageRecord]]:
    """Read a dataset JSONL file (header line plus one record per image).

    Every region's features have one length: the header's ``feature_dim``
    or, when the header leaves it out, the first length in the file. The
    returned header carries that length (None when no region has features).

    Each record's regions go straight into arrays (:func:`_region_columns`).
    When those arrays fail a check, :func:`_raise_region_fault` goes through
    the rows one at a time, in file order, and names the first fault.
    """
    path = Path(path)
    header: DatasetHeader | None = None
    records: list[ImageRecord] = []
    feature_dim, dim_source = None, ""
    first_line: dict[str, int] = {}
    for line_no, obj in _iter_jsonl(path):
        where = f"{path}:{line_no}"
        if header is None:
            _require(obj.get("kind") == "dataset", where, "first record must be a dataset header")
            _require(obj.get("version") == FORMAT_VERSION, where, "unsupported format version")
            try:
                dim = obj.get("feature_dim")
                header = DatasetHeader(
                    classes=_parse_classes(obj["classes"], where),
                    n_regions=_parse_count(obj["n_regions"], where, "n_regions", 0),
                    feature_dim=None if dim is None else _parse_count(dim, where, "feature_dim", 1),
                )
            except KeyError as exc:
                raise DataError(f"{where}: header missing field {exc}") from exc
            feature_dim, dim_source = header.feature_dim, "header feature_dim"
            class_index = {name: i for i, name in enumerate(header.classes)}
            prob_columns: dict[tuple, np.ndarray | None] = {}  # per tuple of pathology_probs names
            continue
        _require("image_id" in obj, where, "missing image_id")
        _require("regions" in obj and isinstance(obj["regions"], list), where, "missing regions array")
        rows = obj["regions"]
        if feature_dim is None:  # this record's lengths, if any, set it
            dim_source = f"first length in the file, line {line_no}"
        regions = _region_columns(rows, header.n_regions, class_index, prob_columns) if rows else _no_regions()
        if regions is None or feature_dim is not None and regions.feature_dim not in (None, feature_dim):
            _raise_region_fault(rows, header.n_regions, class_index, feature_dim, dim_source, where)
        if feature_dim is None:
            feature_dim = regions.feature_dim
        gt, anatomy = _parse_gt(obj, header, where), _parse_anatomy(obj, header, where)
        image_id = str(obj["image_id"])
        try:
            record = ImageRecord.from_arrays(image_id, *regions[:5], gt=gt, anatomy_labels=anatomy)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        first = first_line.setdefault(image_id, line_no)
        _require(first == line_no, where, f"duplicate image id {image_id!r} (first at line {first})")
        records.append(record)
    _require(header is not None, str(path), "empty file (missing header)")
    return replace(header, feature_dim=feature_dim), records


class _Regions(NamedTuple):
    """One record's regions as arrays, rows in file order."""

    region_ids: np.ndarray  # (R,) int64
    boxes: np.ndarray  # (R, 4)
    presence: np.ndarray  # (R,)
    features: np.ndarray | None  # (R, D) when every row has features
    pathology_probs: np.ndarray | None  # (R, C) when every row has probabilities
    feature_dim: int | None  # the rows' feature length; None when no row has features


def _no_regions() -> _Regions:
    return _Regions(np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0), None, None, None)


def _probability_block(objs: list[dict], class_index: dict[str, int], columns: dict) -> np.ndarray | None:
    """``pathology_probs`` objects as one ``(R, C)`` block in header class order, missing classes 0.

    None when a name is not a header class or a value is outside [0, 1]; a
    value float() refuses raises TypeError, ValueError or OverflowError.
    ``columns`` caches the header columns of each tuple of names for the
    whole file; a record's rows usually share one tuple.
    """
    names = [tuple(obj) for obj in objs]
    if names.count(names[0]) == len(names):  # the usual case: every row names the same classes
        groups = [(names[0], objs, slice(None))]
    else:
        rows_of: dict[tuple, list[int]] = {}
        for i, key in enumerate(names):
            rows_of.setdefault(key, []).append(i)
        groups = [(key, [objs[i] for i in rows], np.array(rows)[:, None]) for key, rows in rows_of.items()]
    block = np.zeros((len(objs), len(class_index)))
    for key, group, rows in groups:
        if key not in columns:
            index = [class_index.get(name) for name in key]
            columns[key] = None if None in index else np.array(index, dtype=np.intp)
        values = np.array([list(obj.values()) for obj in group], dtype=np.float64)
        # the shape check also stops a one-element array value broadcasting into a (1, 1) block
        if columns[key] is None or values.shape != (len(group), len(key)):
            return None
        block[rows, columns[key]] = values
    return block if block.min() >= 0.0 and block.max() <= 1.0 else None  # NaN fails too


def _region_columns(rows: list, n_regions: int, class_index: dict[str, int], columns: dict) -> _Regions | None:
    """A non-empty list of region objects as arrays, or None when anything in it is wrong.

    One pass over the rows checks that each is an object with an integer
    ``region_id`` in range and gathers each field into a list. Each list then
    becomes one array, checked as a whole: boxes, presence, features and
    probabilities each take one ``np.array`` call, and a NaN fails every range
    check. What the arrays accept is what the row-by-row checks of
    :func:`_raise_region_fault` accept, value for value.
    """
    ids, boxes, presence, features, probs = [], [], [], [], []
    for reg in rows:
        if type(reg) is not dict:
            return None
        region_id = reg.get("region_id")
        if type(region_id) is not int or not 0 <= region_id < n_regions:  # a bool is not an int here
            return None
        ids.append(region_id)
        boxes.append(reg.get("box"))
        presence.append(reg.get("presence", 1.0))
        if (value := reg.get("features")) is not None:
            features.append(value)
        if (value := reg.get("pathology_probs")) is not None:
            if type(value) is not dict:
                return None
            probs.append(value)
    n = len(rows)
    try:  # a value float() refuses, or rows of unequal length
        box_array = np.array(boxes, dtype=np.float64)
        presence_array = np.array(presence, dtype=np.float64)
        feature_array = np.array(features, dtype=np.float64) if features else None
        prob_array = _probability_block(probs, class_index, columns) if probs else None
    except (TypeError, ValueError, OverflowError):
        return None
    # a box is a 4-element array: a string, an object or a nested array changes the shape
    if box_array.shape != (n, 4) or not (
        box_array.min() >= 0.0 and box_array.max() <= 1.0 and (box_array[:, 2:] >= box_array[:, :2]).all()
    ):
        return None
    if presence_array.shape != (n,) or not (presence_array.min() >= 0.0 and presence_array.max() <= 1.0):
        return None
    if feature_array is not None and not (feature_array.ndim == 2 and np.isfinite(feature_array).all()):
        return None
    if probs and prob_array is None:
        return None
    return _Regions(
        np.array(ids, dtype=np.int64),
        box_array,
        presence_array,
        feature_array if len(features) == n else None,
        prob_array if len(probs) == n else None,
        None if feature_array is None else feature_array.shape[1],
    )


def _parse_features(value, where: str) -> np.ndarray:
    _require(isinstance(value, list), where, "features must be an array of numbers")
    try:
        features = np.asarray([float(v) for v in value], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: features must be an array of numbers") from exc
    # json reads NaN and Infinity tokens; no head output is defined for them
    _require(
        bool(np.isfinite(features).all()), where, "features must be finite (NaN or Infinity found)"
    )
    return features


def _check_probs(value, class_index: dict[str, int], where: str) -> None:
    _require(isinstance(value, dict), where, "pathology_probs must be an object")
    for name, p in value.items():
        if name not in class_index:
            raise DataError(f"{where}: unknown class name {name!r}")
        p = _parse_number(p, where, f"probability for {name!r}")
        _require(0.0 <= p <= 1.0, where, f"probability for {name!r} outside [0, 1]")


def _raise_region_fault(
    rows: list, n_regions: int, class_index: dict[str, int], feature_dim: int | None, dim_source: str, where: str
) -> None:
    """Raise the error for the first fault in ``rows``, checking one row and one value at a time.

    Only rows that :func:`_region_columns` rejected come here. Rows are
    checked in file order; within a row, ``region_id``, presence, features,
    probabilities and the box, in that order; feature lengths after every
    row. ``feature_dim`` None takes the first length found.
    """
    lengths = []
    for i, reg in enumerate(rows):
        rwhere = f"{where}: regions[{i}]"
        _require(isinstance(reg, dict), rwhere, "must be an object")
        _require("region_id" in reg, rwhere, "missing region_id")
        region_id = reg["region_id"]
        _require(
            isinstance(region_id, int) and not isinstance(region_id, bool),
            rwhere,
            f"region_id must be an integer, got {region_id!r}",
        )
        _require(0 <= region_id < n_regions, rwhere, f"region_id {region_id} outside 0..{n_regions - 1}")
        presence = _parse_number(reg.get("presence", 1.0), rwhere, "presence")
        _require(0.0 <= presence <= 1.0, rwhere, "presence outside [0, 1]")
        if (features := reg.get("features")) is not None:
            lengths.append((i, len(_parse_features(features, rwhere))))
        if (probs := reg.get("pathology_probs")) is not None:
            _check_probs(probs, class_index, rwhere)
        _parse_box(reg.get("box"), rwhere)
    for i, length in lengths:
        feature_dim = length if feature_dim is None else feature_dim
        _require(
            length == feature_dim,
            f"{where}: regions[{i}]",
            f"features length {length} != {feature_dim} ({dim_source})",
        )
    raise DataError(f"{where}: regions could not be read")  # not reached: the checks above mirror the arrays'


def _parse_entries(
    entries: list, classes: Container[str], where: str, label: str, seen: set[str] | None, scored: bool
) -> list[tuple[str, Box, float]]:
    """``(class name, box, score)`` of each entry of a ``boxes`` array, in order.

    An entry is an object with a ``class`` in ``classes`` and a ``box``; a
    ``scored`` one may add a ``score`` in [0, 1], 0 when left out, and
    unscored entries get 1. Given ``seen``, a class may not repeat and each
    entry's is added to it. A DataError names ``where: label[i]``; location
    and message are formatted only for an entry that fails a check.
    """

    def fault(i: int, message: str) -> DataError:
        return DataError(f"{where}: {label}[{i}]: {message}")

    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise fault(i, "must be an object")
        name = entry.get("class")
        # a list or object would not even hash for the lookup
        if not (isinstance(name, str) and name in classes):
            raise fault(i, f"unknown class name {name!r}")
        if seen is not None:
            if name in seen:
                raise fault(i, f"duplicate box for class {name!r}")
            seen.add(name)
        score = entry.get("score", 0.0) if scored else 1.0
        try:
            score = float(score)
        except (TypeError, ValueError, OverflowError) as exc:
            raise fault(i, f"score must be a number, got {score!r}") from exc
        if not 0.0 <= score <= 1.0:
            raise fault(i, "score outside [0, 1]")
        box = entry.get("box")
        if not (isinstance(box, list) and len(box) == 4):
            raise fault(i, "box must be a 4-element array")
        try:
            box = Box(*box)  # Box makes each corner a float
        except (TypeError, ValueError, OverflowError) as exc:  # json ints may exceed the float range
            raise fault(i, str(exc)) from exc
        out.append((name, box, score))
    return out


def _parse_gt(obj, header: DatasetHeader, where: str) -> GtRecord | None:
    if obj.get("gt") is None:
        return None
    gwhere = f"{where}: gt"
    gobj = obj["gt"]
    _require(isinstance(gobj, dict), gwhere, "must be an object")
    _require(isinstance(gobj.get("boxes", []), list), gwhere, "boxes must be an array")
    seen: set[str] = set()
    entries = _parse_entries(gobj.get("boxes", []), header.classes, where, "gt.boxes", seen, scored=False)
    labels = gobj.get("image_labels", [])
    _require(isinstance(labels, list), gwhere, "image_labels must be an array")
    for name in labels:
        if name not in header.classes:
            raise DataError(f"{gwhere}: unknown class name {name!r} in image_labels")
    _require(
        seen.issubset(labels),
        gwhere,
        "image_labels must include every class with a ground-truth box",
    )
    return GtRecord(boxes=[(name, box) for name, box, _ in entries], image_labels=labels)


def _parse_anatomy(obj, header: DatasetHeader, where: str) -> np.ndarray | None:
    """The ``(n_regions, C)`` 0/1 matrix; each key is a region id in ASCII decimal digits."""
    if obj.get("anatomy_labels") is None:
        return None
    awhere = f"{where}: anatomy_labels"
    _require(isinstance(obj["anatomy_labels"], dict), awhere, "must be an object")
    anatomy = np.zeros((header.n_regions, len(header.classes)))
    listed = set()
    for key, names in obj["anatomy_labels"].items():
        # int() alone would also read "1_1" as 11 and " 1", "+1" or non-ASCII digits as 1
        _require(key.isascii() and key.isdigit(), awhere, f"region key {key!r} is not an integer")
        rid = int(key)
        _require(0 <= rid < header.n_regions, awhere, f"region key {key!r} outside 0..{header.n_regions - 1}")
        _require(rid not in listed, awhere, f"region key {key!r} repeats region {rid}")
        listed.add(rid)
        _require(isinstance(names, list), awhere, f"classes of region {key!r} must be an array")
        for name in names:
            _require(name in header.classes, awhere, f"unknown class name {name!r}")
            anatomy[rid, header.classes.index(name)] = 1.0
    return anatomy


def _check_record(rec: ImageRecord, header: DatasetHeader, feature_dim: int | None) -> int | None:
    """Raise a DataError if :func:`read_dataset` would reject ``rec`` written under ``header``.

    Region ids, boxes, presence, features and probabilities are checked as
    arrays. Features must be finite and ``feature_dim`` long, the length
    of the records before; the new length is returned, and None stands for
    no record with features yet. Ground-truth classes and labels must be
    header classes, and ``anatomy_labels`` must be a ``(n_regions, C)``
    matrix of 0 and 1.
    """
    n_classes, where, n = len(header.classes), f"image {rec.image_id!r}", len(rec.region_ids)
    outside = rec.region_ids[(rec.region_ids < 0) | (rec.region_ids >= header.n_regions)]
    if outside.size:
        raise DataError(f"{where}: region id {outside[0]} outside 0..{header.n_regions - 1}")
    boxes, presence = rec.boxes, rec.presence
    if boxes.shape != (n, 4) or n and not (
        boxes.min() >= 0.0 and boxes.max() <= 1.0 and (boxes[:, 2:] >= boxes[:, :2]).all()
    ):
        raise DataError(f"{where}: boxes must be ({n}, 4) corners, 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1")
    if presence.shape != (n,) or n and not (presence.min() >= 0.0 and presence.max() <= 1.0):
        raise DataError(f"{where}: presence must be {n} values in [0, 1]")
    if rec.features is not None:
        if rec.features.ndim != 2 or len(rec.features) != n:
            raise DataError(f"{where}: features have shape {rec.features.shape}, expected ({n}, D)")
        feature_dim = rec.features.shape[1] if feature_dim is None else feature_dim
        if rec.features.shape[1] != feature_dim:
            raise DataError(f"{where}: features length {rec.features.shape[1]} != {feature_dim}")
        if not np.isfinite(rec.features).all():
            raise DataError(f"{where}: features must be finite (NaN or Infinity found)")
    probs = rec.pathology_probs
    if probs is not None and (
        probs.shape != (n, n_classes) or n and not (probs.min() >= 0.0 and probs.max() <= 1.0)
    ):
        raise DataError(f"{where}: pathology_probs must be ({n}, {n_classes}) values in [0, 1], got {probs.shape}")
    if rec.gt is not None:
        names = [name for name, _ in rec.gt.boxes]
        for name in [*names, *rec.gt.image_labels]:
            if name not in header.classes:
                raise DataError(f"{where}: ground-truth class {name!r} is not a header class")
        if len(set(names)) != len(names):
            raise DataError(f"{where}: more than one ground-truth box for a class")
        if not set(names).issubset(rec.gt.image_labels):
            raise DataError(f"{where}: image_labels must include every class with a ground-truth box")
    if rec.anatomy_labels is not None and rec.anatomy_labels.shape != (header.n_regions, n_classes):
        raise DataError(
            f"{where}: anatomy_labels has shape {rec.anatomy_labels.shape}, "
            f"expected {(header.n_regions, n_classes)}"
        )
    # the file lists the classes of each region, so any other value would read back as 1 or 0
    if rec.anatomy_labels is not None and not np.isin(rec.anatomy_labels, (0.0, 1.0)).all():
        raise DataError(f"{where}: anatomy_labels must hold only 0 and 1")
    return feature_dim


def write_dataset(path: str | Path, header: DatasetHeader, records: list[ImageRecord]) -> None:
    """Write a dataset file; a record :func:`read_dataset` would reject is a DataError, and nothing is written."""
    feature_dim, seen = header.feature_dim, set()
    for rec in records:  # every record is checked before the file is opened
        if rec.image_id in seen:
            raise DataError(f"image {rec.image_id!r} appears more than once")
        seen.add(rec.image_id)
        feature_dim = _check_record(rec, header, feature_dim)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            canonical_json(
                {
                    "kind": "dataset",
                    "version": FORMAT_VERSION,
                    "classes": list(header.classes),
                    "n_regions": header.n_regions,
                    "feature_dim": header.feature_dim,
                }
            )
            + "\n"
        )
        for rec in records:
            fh.write(canonical_json(_image_record_to_obj(rec, header)) + "\n")


def _image_record_to_obj(rec: ImageRecord, header: DatasetHeader) -> dict:
    rows = zip(rec.region_ids.tolist(), rec.boxes.tolist(), rec.presence.tolist())
    regions = [{"region_id": rid, "box": box, "presence": p} for rid, box, p in rows]
    if rec.features is not None:
        for obj, row in zip(regions, rec.features.tolist()):
            obj["features"] = row
    if rec.pathology_probs is not None:
        for obj, row in zip(regions, rec.pathology_probs.tolist()):
            obj["pathology_probs"] = dict(zip(header.classes, row))
    out: dict = {"image_id": rec.image_id, "regions": regions}
    if rec.gt is not None:
        out["gt"] = {
            "boxes": [
                {"class": name, "box": list(box.as_tuple())} for name, box in rec.gt.boxes
            ],
            "image_labels": list(rec.gt.image_labels),
        }
    if rec.anatomy_labels is not None:
        out["anatomy_labels"] = {
            str(rid): [name for name, v in zip(header.classes, row) if v > 0]
            for rid, row in enumerate(rec.anatomy_labels.tolist())
        }
    return out


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def write_predictions(
    path: str | Path, classes: list[str], predictions: dict[str, list[PathologyBox]]
) -> None:
    """Write per-image pathology boxes; image order follows the input dict.

    A class id outside ``0..len(classes)-1`` is a DataError raised before
    the file is opened.
    """
    for image_id, boxes in predictions.items():
        for b in boxes:
            if b.class_id not in range(len(classes)):  # a negative id would name a class from the end
                raise DataError(
                    f"image {image_id!r}: prediction class id {b.class_id!r} is not in 0..{len(classes) - 1}"
                )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            canonical_json(
                {"kind": "predictions", "version": FORMAT_VERSION, "classes": list(classes)}
            )
            + "\n"
        )
        for image_id, boxes in predictions.items():
            fh.write(
                canonical_json(
                    {
                        "image_id": image_id,
                        "boxes": [
                            {
                                "class": classes[b.class_id],
                                "box": list(b.box.as_tuple()),
                                "score": b.score,
                            }
                            for b in boxes
                        ],
                    }
                )
                + "\n"
            )


def read_predictions(path: str | Path) -> tuple[list[str], dict[str, list[PathologyBox]]]:
    path = Path(path)
    classes: list[str] | None = None
    index: dict[str, int] = {}
    out: dict[str, list[PathologyBox]] = {}
    for line_no, obj in _iter_jsonl(path):
        where = f"{path}:{line_no}"
        if classes is None:
            _require(obj.get("kind") == "predictions", where, "first record must be a predictions header")
            _require(obj.get("version") == FORMAT_VERSION, where, "unsupported format version")
            classes = list(_parse_classes(obj.get("classes"), where))
            index = {name: i for i, name in enumerate(classes)}
            continue
        _require("image_id" in obj, where, "missing image_id")
        image_id = str(obj["image_id"])
        _require(image_id not in out, where, f"duplicate image id {image_id!r}")
        _require(isinstance(obj.get("boxes", []), list), where, "boxes must be an array")
        # a class may repeat: `infer --no-top1` writes every fused box of a class
        entries = _parse_entries(obj.get("boxes", []), index, where, "boxes", None, scored=True)
        out[image_id] = [PathologyBox(index[name], box, score) for name, box, score in entries]
    _require(classes is not None, str(path), "empty file (missing header)")
    return classes, out


# ---------------------------------------------------------------------------
# mapping files
# ---------------------------------------------------------------------------


def read_mapping(path: str | Path) -> ClassMapping:
    """Read a JSON mapping file: eval class -> {sources: [...], combiner: mean|max}."""
    path = Path(path)
    obj = _loads(path.read_bytes(), str(path))
    if not isinstance(obj, dict) or not obj:
        raise DataError(f"{path}: mapping must be a non-empty object")
    entries = []
    for eval_class, spec in obj.items():
        if not isinstance(spec, dict) or "sources" not in spec:
            raise DataError(f"{path}: entry {eval_class!r} must be an object with 'sources'")
        sources = spec["sources"]
        if not (isinstance(sources, list) and sources and all(isinstance(s, str) for s in sources)):
            raise DataError(
                f"{path}: entry {eval_class!r}: sources must be a non-empty list of class names, "
                f"got {sources!r}"
            )
        entries.append(
            MappingEntry(
                eval_class=eval_class,
                sources=tuple(sources),
                combiner=spec.get("combiner", "mean"),
            )
        )
    return ClassMapping(tuple(entries))


# ---------------------------------------------------------------------------
# converters
# ---------------------------------------------------------------------------


def records_to_train_samples(
    header: DatasetHeader, records: list[ImageRecord]
) -> list[TrainSample]:
    """Build training samples; requires features and every region id 0..n_regions-1.

    Rows are in region-id order, as the record stores them. Anatomy labels
    pass through as the record's matrix; image labels become a vector over
    the header vocabulary where available. Each record must also pass the
    checks :func:`write_dataset` makes.
    """
    samples = []
    index = {name: i for i, name in enumerate(header.classes)}
    n_classes = len(header.classes)
    feature_dim = header.feature_dim
    for rec in records:
        features = rec.head_features(header.n_regions, "training")
        feature_dim = _check_record(rec, header, feature_dim)
        image_labels = None
        if rec.gt is not None:
            image_labels = np.zeros(n_classes)
            for name in rec.gt.image_labels:
                image_labels[index[name]] = 1.0
        samples.append(
            TrainSample(
                features=features,
                target_boxes=corner_to_center_batch(rec.boxes),
                present=rec.presence >= 0.5,
                anatomy_labels=rec.anatomy_labels,
                image_labels=image_labels,
            )
        )
    return samples


def record_to_detections(rec: ImageRecord, header: DatasetHeader) -> RegionDetections:
    """A record's stored boxes, presence and probabilities in region-id order (no model)."""
    if rec.pathology_probs is None and len(rec.region_ids):
        raise ConfigError(
            f"image {rec.image_id!r}: not every region has pathology_probs; "
            "provide a checkpoint or store probabilities in the dataset"
        )
    probs = np.zeros((0, len(header.classes))) if rec.pathology_probs is None else rec.pathology_probs
    return RegionDetections(rec.boxes, rec.presence, probs)


def ground_truth_from_records(
    records: list[ImageRecord], classes: list[str]
) -> GroundTruth:
    """Collect ground truth over the given evaluation vocabulary.

    Every ground-truth class name must be in ``classes``; offending image
    ids are named otherwise.
    """
    index = {name: i for i, name in enumerate(classes)}
    images: dict[str, dict[int, Box]] = {}
    for rec in records:
        boxes: dict[int, Box] = {}
        if rec.gt is not None:
            for name, box in rec.gt.boxes:
                if name not in index:
                    raise DataError(
                        f"image {rec.image_id!r}: ground-truth class {name!r} is not in the "
                        "evaluation vocabulary"
                    )
                boxes[index[name]] = box
            for name in rec.gt.image_labels:
                if name not in index:
                    raise DataError(
                        f"image {rec.image_id!r}: image label {name!r} is not in the "
                        "evaluation vocabulary"
                    )
        images[rec.image_id] = boxes
    return GroundTruth(images=images, n_classes=len(classes))


def scene_to_record(scene, classes: tuple[str, ...]) -> ImageRecord:
    """Convert a synthetic scene into the dataset record schema."""
    gt = GtRecord(
        boxes=[(classes[b.class_id], b.box) for b in scene.gt_boxes],
        image_labels=[
            classes[c] for c in range(len(classes)) if scene.image_labels[c] > 0
        ],
    )
    n = len(scene.region_boxes)
    return ImageRecord.from_arrays(
        scene.image_id,
        np.arange(n, dtype=np.int64),
        np.array([box.as_tuple() for box in scene.region_boxes], dtype=np.float64).reshape(n, 4),
        scene.present.astype(np.float64),
        features=scene.features,
        gt=gt,
        anatomy_labels=scene.anatomy_labels,
    )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointMeta:
    mode: str
    classes: tuple[str, ...]
    seed: int


def save_checkpoint(path: str | Path, params: HeadParams, meta: CheckpointMeta) -> None:
    """Versioned binary checkpoint: magic line, JSON manifest, little-endian float64 blobs."""
    layout = _param_layout(params.feature_dim, params.n_classes)
    manifest = {
        "arrays": [{"name": name, "shape": list(shape)} for name, shape, _, _ in layout],
        "classes": list(meta.classes),
        "feature_dim": params.feature_dim,
        "mode": meta.mode,
        "n_classes": params.n_classes,
        "seed": meta.seed,
    }
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(canonical_json(manifest).encode("utf-8") + b"\n")
        # the flat vector is the arrays in manifest order
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[HeadParams, CheckpointMeta]:
    """Read a checkpoint; its manifest must list exactly the arrays of ``_param_layout``."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file (bad magic)")
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
            # operator.index rejects a fractional or non-numeric dimension
            specs = [(str(spec["name"]), tuple(map(operator.index, spec["shape"]))) for spec in manifest["arrays"]]
            meta = CheckpointMeta(
                mode=str(manifest["mode"]),
                classes=_parse_classes(manifest["classes"], str(path)),
                seed=int(manifest["seed"]),
            )
            n_classes = _parse_count(manifest["n_classes"], str(path), "n_classes", 1)
            feature_dim = _parse_count(manifest["feature_dim"], str(path), "feature_dim", 1)
        except KeyError as exc:
            raise DataError(f"{path}: checkpoint manifest missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:  # also JSON, UTF-8 and int(inf) errors
            raise DataError(f"{path}: malformed checkpoint manifest") from exc
        names = [name for name, _ in specs]
        if names != list(PARAM_FIELDS):
            raise DataError(f"{path}: manifest lists arrays {names}, expected {list(PARAM_FIELDS)}")
        weight_shape = specs[0][1]
        if len(meta.classes) != n_classes or weight_shape != (n_classes, feature_dim):
            raise DataError(
                f"{path}: manifest declares {len(meta.classes)} classes, n_classes {n_classes} and feature_dim "
                f"{feature_dim}, but array 'pathology_weight' has shape {list(weight_shape)}"
            )
        layout = _param_layout(feature_dim, n_classes)
        for (name, shape), (_, expected, _, _) in zip(specs, layout):
            if min(shape, default=0) < 0:
                raise DataError(f"{path}: array {name!r} has a negative dimension {list(shape)}")
            if shape != expected:
                raise DataError(f"{path}: array {name!r} has shape {list(shape)}, expected {list(expected)}")
        # the payload is the flat vector; its size is checked before anything is allocated
        size, left = 8 * layout[-1][3], path.stat().st_size - fh.tell()
        if left != size:
            problem = "truncated checkpoint" if left < size else "trailing bytes after checkpoint payload"
            raise DataError(f"{path}: {problem} ({left} payload bytes, expected {size})")
        flat = np.empty(layout[-1][3], dtype="<f8")
        if fh.readinto(flat) != size:
            raise DataError(f"{path}: truncated checkpoint (payload shorter than {size} bytes)")
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        name = next(name for name, _, start, stop in layout if start <= bad[0] < stop)
        raise DataError(f"{path}: array {name!r} holds a non-finite value")
    return HeadParams(flat.astype(np.float64, copy=False), feature_dim, n_classes), meta


# ---------------------------------------------------------------------------
# history and reports
# ---------------------------------------------------------------------------

def write_history_csv(path: str | Path, history: list[tuple[int, LossBreakdown]]) -> None:
    """One row per training step: ``step`` then every :class:`LossBreakdown` field in order."""
    columns = [f.name for f in fields(LossBreakdown)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["step", *columns]) + "\n")
        for step, row in history:
            values = [repr(float(getattr(row, name))) for name in columns]
            fh.write(",".join([str(step), *values]) + "\n")


def _thr_key(t: float) -> str:
    return format(t, ".2f")


def report_to_json_obj(report: EvalReport) -> dict:
    classes = {}
    for cls, name in enumerate(report.class_names):
        classes[name] = {
            "ap": {_thr_key(t): v for t, v in report.ap[cls].items()},
            "map": report.class_map[cls],
            "loc_acc": {_thr_key(t): v for t, v in report.loc_acc[cls].items()},
        }
    return {
        "counts": {
            "images": report.counts.images,
            "gt_boxes": report.counts.gt_boxes,
            "predictions": report.counts.predictions,
        },
        "classes": classes,
        "overall": {
            "map": report.overall_map,
            "loc_acc": {_thr_key(t): v for t, v in report.loc_acc_macro.items()},
        },
    }


def write_report_json(path: str | Path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(report_to_json_obj(report)) + "\n")


def write_report_csv(path: str | Path, report: EvalReport) -> None:
    """Flat class-by-metric table; empty cells mark undefined values."""
    ap_thresholds = sorted(next(iter(report.ap.values())).keys()) if report.ap else []
    la_thresholds = sorted(report.loc_acc_macro.keys())
    columns = (
        ["class"]
        + [f"ap@{_thr_key(t)}" for t in ap_thresholds]
        + ["map"]
        + [f"locacc@{_thr_key(t)}" for t in la_thresholds]
    )

    def fmt(v: float | None) -> str:
        return "" if v is None else repr(float(v))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cls, name in enumerate(report.class_names):
            row = [name]
            row += [fmt(report.ap[cls][t]) for t in ap_thresholds]
            row.append(fmt(report.class_map[cls]))
            row += [fmt(report.loc_acc[cls].get(t)) for t in la_thresholds]
            fh.write(",".join(row) + "\n")
        row = ["overall"] + [""] * len(ap_thresholds) + [fmt(report.overall_map)]
        row += [fmt(report.loc_acc_macro.get(t)) for t in la_thresholds]
        fh.write(",".join(row) + "\n")
