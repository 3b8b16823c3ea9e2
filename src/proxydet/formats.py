"""File formats: JSONL datasets and predictions, mapping files, checkpoints, reports.

Every writer is byte-deterministic: JSON keys are emitted in sorted
order, floats are printed with 17 significant digits (lossless for
doubles), and no timestamps or environment details leak into outputs.
Dataset and prediction files are self-describing — the first JSONL line
is a header record declaring the class vocabulary.

Readers reject malformed input with errors naming the file, line, and
field.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .evaluation import EvalReport, GroundTruth, GtImage
from .geometry import Box, corner_to_center_batch
from .head import PARAM_FIELDS, HeadParams, LossBreakdown, TrainSample, _param_layout
from .inference import ClassMapping, MappingEntry, PathologyBox, RegionDetections

FORMAT_VERSION = 1
_CHECKPOINT_MAGIC = b"proxydet-checkpoint-v1\n"


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    parts: list[str] = []
    _canon(obj, parts)
    return "".join(parts)


def _canon(obj, parts: list[str]) -> None:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        obj = int(obj)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize non-finite float")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _canon(v, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, k in enumerate(sorted(obj)):
            if not isinstance(k, str):
                raise ValueError(f"JSON object keys must be strings, got {type(k)}")
            if i:
                parts.append(",")
            parts.append(json.dumps(k, ensure_ascii=False))
            parts.append(":")
            _canon(obj[k], parts)
        parts.append("}")
    else:
        raise ValueError(f"cannot serialize type {type(obj)}")


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
    """One image: its regions stacked once, in region-id order, plus optional labels.

    ``regions`` is read only by the constructor and may come in any order.
    Row ``i`` of every array is region ``region_ids[i]``, ids increasing, so
    score ties fuse in id order. ``features`` and ``pathology_probs`` are None
    unless every region (at least one) has them; a repeated id is a DataError.
    """

    image_id: str
    regions: InitVar[list[RegionRecord]]
    gt: GtRecord | None = None
    anatomy_labels: dict[int, list[str]] | None = None
    region_ids: np.ndarray = field(init=False)  # (R,) int64
    boxes: np.ndarray = field(init=False)  # (R, 4) corners
    presence: np.ndarray = field(init=False)  # (R,)
    features: np.ndarray | None = field(init=False)  # (R, D)
    pathology_probs: np.ndarray | None = field(init=False)  # (R, C), header class order

    def __post_init__(self, regions: list[RegionRecord]):
        regions = sorted(regions, key=lambda reg: reg.region_id)
        ids = [reg.region_id for reg in regions]
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise DataError(f"image {self.image_id!r}: region id {a} appears more than once")
        self.region_ids = np.array(ids, dtype=np.int64)
        self.boxes = np.array([reg.box.as_tuple() for reg in regions], dtype=np.float64).reshape(-1, 4)
        self.presence = np.array([reg.presence for reg in regions], dtype=np.float64)
        for name in ("features", "pathology_probs"):
            rows = [getattr(reg, name) for reg in regions]
            complete = rows and all(row is not None for row in rows)
            setattr(self, name, np.array(rows, dtype=np.float64) if complete else None)

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
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: {exc}") from exc


def _parse_number(value, where: str, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
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


def _parse_features(value, where: str) -> np.ndarray:
    try:
        features = np.asarray([float(v) for v in value], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: features must be an array of numbers") from exc
    # json reads NaN and Infinity tokens; no head output is defined for them
    _require(
        bool(np.isfinite(features).all()), where, "features must be finite (NaN or Infinity found)"
    )
    return features


def _parse_probs(value, index: dict[str, int], where: str) -> np.ndarray:
    """Probabilities by class; ``index`` maps each header class name to its column."""
    _require(isinstance(value, dict), where, "pathology_probs must be an object")
    out = np.zeros(len(index))
    for name, p in value.items():
        if name not in index:
            raise DataError(f"{where}: unknown class name {name!r}")
        p = _parse_number(p, where, f"probability for {name!r}")
        _require(0.0 <= p <= 1.0, where, f"probability for {name!r} outside [0, 1]")
        out[index[name]] = p
    return out


def _iter_jsonl(path: str | Path):
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: malformed JSON: {exc.msg}") from exc
            _require(isinstance(obj, dict), f"{path}:{line_no}", "record must be a JSON object")
            yield line_no, obj


def read_dataset(path: str | Path) -> tuple[DatasetHeader, list[ImageRecord]]:
    """Read a dataset JSONL file (header line plus one record per image).

    Every region's features have one length: the header's ``feature_dim``
    or, when the header leaves it out, the first length in the file. The
    returned header carries that length (None when no region has features).
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
            continue
        _require("image_id" in obj, where, "missing image_id")
        _require("regions" in obj and isinstance(obj["regions"], list), where, "missing regions array")
        regions = list(_parse_regions(obj["regions"], header, class_index, where))
        for i, reg in enumerate(regions):
            if reg.features is None:
                continue
            if feature_dim is None:
                feature_dim, dim_source = len(reg.features), f"first length in the file, line {line_no}"
            _require(
                len(reg.features) == feature_dim,
                f"{where}: regions[{i}]",
                f"features length {len(reg.features)} != {feature_dim} ({dim_source})",
            )
        record = _parse_image_record(obj, header, regions, where)
        first = first_line.setdefault(record.image_id, line_no)
        _require(
            first == line_no, where, f"duplicate image id {record.image_id!r} (first at line {first})"
        )
        records.append(record)
    _require(header is not None, str(path), "empty file (missing header)")
    return replace(header, feature_dim=feature_dim), records


def _parse_regions(rows: list, header: DatasetHeader, class_index: dict[str, int], where: str):
    """Yield one :class:`RegionRecord` per row, in file order."""
    n_regions = header.n_regions
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
        features, probs = reg.get("features"), reg.get("pathology_probs")
        # keyword order is parse order: a region's first fault is the one reported
        yield RegionRecord(
            region_id=region_id,
            presence=presence,
            features=None if features is None else _parse_features(features, rwhere),
            pathology_probs=None if probs is None else _parse_probs(probs, class_index, rwhere),
            box=_parse_box(reg.get("box"), rwhere),
        )


def _parse_image_record(obj, header: DatasetHeader, regions: list[RegionRecord], where: str) -> ImageRecord:
    gt = None
    if obj.get("gt") is not None:
        gwhere = f"{where}: gt"
        gobj = obj["gt"]
        _require(isinstance(gobj, dict), gwhere, "must be an object")
        _require(isinstance(gobj.get("boxes", []), list), gwhere, "boxes must be an array")
        boxes = []
        seen = set()
        for i, entry in enumerate(gobj.get("boxes", [])):
            _require(isinstance(entry, dict), f"{gwhere}.boxes[{i}]", "must be an object")
            name = entry.get("class")
            _require(name in header.classes, f"{gwhere}.boxes[{i}]", f"unknown class name {name!r}")
            _require(name not in seen, f"{gwhere}.boxes[{i}]", f"duplicate box for class {name!r}")
            seen.add(name)
            boxes.append((name, _parse_box(entry.get("box"), f"{gwhere}.boxes[{i}]")))
        labels = gobj.get("image_labels", [])
        _require(isinstance(labels, list), gwhere, "image_labels must be an array")
        for name in labels:
            _require(name in header.classes, gwhere, f"unknown class name {name!r} in image_labels")
        _require(
            seen.issubset(labels),
            gwhere,
            "image_labels must include every class with a ground-truth box",
        )
        gt = GtRecord(boxes=boxes, image_labels=labels)
    anatomy = None
    if obj.get("anatomy_labels") is not None:
        awhere = f"{where}: anatomy_labels"
        _require(isinstance(obj["anatomy_labels"], dict), awhere, "must be an object")
        anatomy = {}
        for key, names in obj["anatomy_labels"].items():
            try:
                rid = int(key)
            except ValueError as exc:
                raise DataError(f"{awhere}: region key {key!r} is not an integer") from exc
            _require(0 <= rid < header.n_regions, awhere, f"region key {key!r} outside 0..{header.n_regions - 1}")
            _require(rid not in anatomy, awhere, f"region key {key!r} repeats region {rid}")
            _require(isinstance(names, list), awhere, f"classes of region {key!r} must be an array")
            for name in names:
                _require(name in header.classes, awhere, f"unknown class name {name!r}")
            anatomy[rid] = list(names)
    try:
        return ImageRecord(str(obj["image_id"]), regions, gt=gt, anatomy_labels=anatomy)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def write_dataset(path: str | Path, header: DatasetHeader, records: list[ImageRecord]) -> None:
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
            str(rid): list(names) for rid, names in rec.anatomy_labels.items()
        }
    return out


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def write_predictions(
    path: str | Path, classes: list[str], predictions: dict[str, list[PathologyBox]]
) -> None:
    """Write per-image pathology boxes; image order follows the input dict."""
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
        boxes = []
        for i, entry in enumerate(obj.get("boxes", [])):
            bwhere = f"{where}: boxes[{i}]"
            _require(isinstance(entry, dict), bwhere, "must be an object")
            name = entry.get("class")
            if name not in index:
                raise DataError(f"{bwhere}: unknown class name {name!r}")
            score = _parse_number(entry.get("score", 0.0), bwhere, "score")
            _require(0.0 <= score <= 1.0, bwhere, "score outside [0, 1]")
            boxes.append(
                PathologyBox(
                    class_id=index[name], box=_parse_box(entry.get("box"), bwhere), score=score
                )
            )
        out[image_id] = boxes
    _require(classes is not None, str(path), "empty file (missing header)")
    return classes, out


# ---------------------------------------------------------------------------
# mapping files
# ---------------------------------------------------------------------------


def read_mapping(path: str | Path) -> ClassMapping:
    """Read a JSON mapping file: eval class -> {sources: [...], combiner: mean|max}."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc.msg}") from exc
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

    Rows are in region-id order, as the record stores them. Anatomy and
    image labels are converted to matrices over the header vocabulary
    where available.
    """
    samples = []
    index = {name: i for i, name in enumerate(header.classes)}
    n_classes = len(header.classes)
    for rec in records:
        features = rec.head_features(header.n_regions, "training")
        anatomy = None
        if rec.anatomy_labels is not None:
            anatomy = np.zeros((header.n_regions, n_classes))
            for rid, names in rec.anatomy_labels.items():
                for name in names:
                    anatomy[rid, index[name]] = 1.0
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
                anatomy_labels=anatomy,
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
    images: dict[str, GtImage] = {}
    for rec in records:
        boxes: dict[int, Box] = {}
        labels: set[int] = set()
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
                labels.add(index[name])
        images[rec.image_id] = GtImage(boxes=boxes, labels=frozenset(labels))
    return GroundTruth(images=images, n_classes=len(classes))


def scene_to_record(scene, classes: tuple[str, ...]) -> ImageRecord:
    """Convert a synthetic scene into the dataset record schema."""
    regions = [
        RegionRecord(
            region_id=i,
            box=scene.region_boxes[i],
            presence=1.0 if scene.present[i] else 0.0,
            features=scene.features[i],
        )
        for i in range(len(scene.region_boxes))
    ]
    gt = GtRecord(
        boxes=[(classes[b.class_id], b.box) for b in scene.gt_boxes],
        image_labels=[
            classes[c] for c in range(len(classes)) if scene.image_labels[c] > 0
        ],
    )
    anatomy = {
        rid: [classes[c] for c in range(len(classes)) if scene.anatomy_labels[rid, c] > 0]
        for rid in range(scene.anatomy_labels.shape[0])
    }
    return ImageRecord(
        image_id=scene.image_id, regions=regions, gt=gt, anatomy_labels=anatomy
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
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file (bad magic)")
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
            specs = [(str(spec["name"]), tuple(int(v) for v in spec["shape"])) for spec in manifest["arrays"]]
            meta = CheckpointMeta(
                mode=str(manifest["mode"]),
                classes=_parse_classes(manifest["classes"], str(path)),
                seed=int(manifest["seed"]),
            )
            n_classes = _parse_count(manifest["n_classes"], str(path), "n_classes", 1)
            feature_dim = _parse_count(manifest["feature_dim"], str(path), "feature_dim", 1)
        except KeyError as exc:
            raise DataError(f"{path}: checkpoint manifest missing field {exc}") from exc
        except (TypeError, ValueError) as exc:  # includes JSON and UTF-8 decoding errors
            raise DataError(f"{path}: malformed checkpoint manifest") from exc
        arrays: dict[str, np.ndarray] = {}
        for name, shape in specs:
            if any(d < 0 for d in shape):
                raise DataError(f"{path}: array {name!r} has a negative dimension {list(shape)}")
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise DataError(f"{path}: truncated checkpoint (array {name!r})")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise DataError(f"{path}: array {name!r} holds a non-finite value")
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after checkpoint payload")
    missing = [n for n in PARAM_FIELDS if n not in arrays]
    if missing:
        raise DataError(f"{path}: checkpoint missing arrays {missing}")
    # every shape follows from pathology_weight's (n_classes, feature_dim)
    weight_shape = arrays["pathology_weight"].shape
    if len(weight_shape) != 2:
        raise DataError(f"{path}: array 'pathology_weight' has shape {list(weight_shape)}, expected 2-D")
    for name, shape, _, _ in _param_layout(weight_shape[1], weight_shape[0]):
        if arrays[name].shape != shape:
            raise DataError(
                f"{path}: array {name!r} has shape {list(arrays[name].shape)}, expected {list(shape)}"
            )
    if len(meta.classes) != weight_shape[0] or (n_classes, feature_dim) != weight_shape:
        raise DataError(
            f"{path}: manifest declares {len(meta.classes)} classes, n_classes {n_classes} and feature_dim "
            f"{feature_dim}, but array 'pathology_weight' has shape {list(weight_shape)}"
        )
    return HeadParams.from_dict(arrays), meta


# ---------------------------------------------------------------------------
# history and reports
# ---------------------------------------------------------------------------

def write_history_csv(path: str | Path, history: list[tuple[int, LossBreakdown]]) -> None:
    """One row per training step: ``step`` then every :class:`LossBreakdown` field in order."""
    columns = [f.name for f in fields(LossBreakdown)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["step", *columns]) + "\n")
        for step, row in history:
            values = [format(getattr(row, name), ".17g") for name in columns]
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
        return "" if v is None else format(v, ".17g")

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
