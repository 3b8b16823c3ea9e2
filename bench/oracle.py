"""Output checks written apart from the program under test.

Nothing here imports proxydet. Files are parsed with the standard
``json`` module, the checkpoint with its documented byte layout, and the
reference values come from this module's own numpy forward pass, class
mapping, candidate emission, IoU and all-point AP. Each check returns a
list of problems; an empty list means the output passed.

Boxes are corner tuples ``(x1, y1, x2, y2)``. A prediction set maps an
image id to ``{class index: (box, score)}``.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9  # absolute tolerance on coordinates, scores and mAP
PRESENCE_THRESHOLD = 0.5  # the program's default presence cut-off


# ---------------------------------------------------------------------------
# file readers


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_predictions(path) -> tuple[list[str], dict[str, dict[int, tuple]], list[str]]:
    """Predictions file -> (classes, predictions, problems)."""
    header, *rows = read_jsonl(path)
    classes = list(header["classes"])
    index = {name: i for i, name in enumerate(classes)}
    preds: dict[str, dict[int, tuple]] = {}
    problems = []
    for row in rows:
        image = preds.setdefault(row["image_id"], {})
        for entry in row["boxes"]:
            cls = index[entry["class"]]
            if cls in image:
                problems.append(f"{row['image_id']}: more than one box for class {entry['class']}")
            image[cls] = (tuple(entry["box"]), float(entry["score"]))
    return classes, preds, problems


def read_ground_truth(path, classes: list[str]) -> dict[str, dict[int, tuple]]:
    """Dataset file -> {image id: {class index: gt box}} over ``classes``."""
    index = {name: i for i, name in enumerate(classes)}
    _, *rows = read_jsonl(path)
    return {
        row["image_id"]: {
            index[b["class"]]: tuple(b["box"]) for b in (row.get("gt") or {}).get("boxes", [])
        }
        for row in rows
    }


def read_features(path) -> dict[str, np.ndarray]:
    """Dataset file -> {image id: (R, D) features ordered by region id}."""
    _, *rows = read_jsonl(path)
    out = {}
    for row in rows:
        regions = sorted(row["regions"], key=lambda r: r["region_id"])
        out[row["image_id"]] = np.array([r["features"] for r in regions], dtype=np.float64)
    return out


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Magic line, JSON manifest line, then little-endian float64 arrays in manifest order."""
    with open(path, "rb") as fh:
        if fh.readline() != b"proxydet-checkpoint-v1\n":
            raise ValueError(f"{path}: bad checkpoint magic")
        manifest = json.loads(fh.readline())
        arrays = {}
        for spec in manifest["arrays"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape))
            arrays[spec["name"]] = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    return arrays


def read_history(path) -> dict[str, list[float]]:
    with open(path, encoding="utf-8") as fh:
        columns = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(columns)}


def report_map(path) -> float | None:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["overall"]["map"]


# ---------------------------------------------------------------------------
# region predictions and candidates


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def forward(features: np.ndarray, w: dict[str, np.ndarray]):
    """Heads on (R, D) features -> presence (R,), corner boxes (R, 4), probs (R, C)."""
    presence = _sigmoid(features @ w["presence_weight"] + w["presence_bias"][0])
    probs = _sigmoid(features @ w["pathology_weight"].T + w["pathology_bias"])
    hidden = np.maximum(features @ w["box_w1"].T + w["box_b1"], 0.0)
    hidden = np.maximum(hidden @ w["box_w2"].T + w["box_b2"], 0.0)
    cx, cy, bw, bh = _sigmoid(hidden @ w["box_w3"].T + w["box_b3"]).T
    corners = np.clip(np.stack([cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2], axis=1), 0.0, 1.0)
    return presence, corners, probs


def map_classes(probs: np.ndarray, rows: list[tuple[list[int], str]]) -> np.ndarray:
    """(R, C_train) -> (R, C_eval): mean or max over each evaluation class's sources."""
    out = np.empty((probs.shape[0], len(rows)))
    for j, (sources, combiner) in enumerate(rows):
        src = probs[:, sources]
        out[:, j] = src.sum(axis=1) / len(sources) if combiner == "mean" else src.max(axis=1)
    return out


def candidates(presence, corners, probs, tau: float = 0.0) -> dict[int, list[tuple]]:
    """Per class, (region index, box, score) for every region that emits a candidate.

    A present region (presence at or above the cut-off) with a box of
    positive area emits its box for every class whose probability
    exceeds ``tau``.
    """
    out: dict[int, list[tuple]] = {c: [] for c in range(probs.shape[1])}
    for r in range(len(presence)):
        x1, y1, x2, y2 = (float(v) for v in corners[r])
        if presence[r] < PRESENCE_THRESHOLD or (x2 - x1) * (y2 - y1) == 0.0:
            continue
        for c in range(probs.shape[1]):
            if probs[r, c] > tau:
                out[c].append((r, (x1, y1, x2, y2), float(probs[r, c])))
    return out


# ---------------------------------------------------------------------------
# fusion checks


def _per_class(image: str, pred: dict[int, tuple], cands: dict[int, list], check_box) -> list[str]:
    """A class has exactly one box when it has candidates, else none; ``check_box`` judges the box."""
    unknown = sorted(set(pred) - set(cands))
    problems = [f"{image}: boxes for unknown classes {unknown}"] if unknown else []
    for cls, cand in cands.items():
        if not cand:
            if cls in pred:
                problems.append(f"{image} class {cls}: box without any candidate")
        elif cls not in pred:
            problems.append(f"{image} class {cls}: no box for {len(cand)} candidates")
        else:
            problems += check_box(f"{image} class {cls}", *pred[cls], cand)
    return problems


def _top_candidate(where: str, box, score, cand) -> list[str]:
    best = max(s for _, _, s in cand)
    region, top_box, top_score = next(c for c in cand if c[2] >= best - TOL)
    if abs(score - top_score) > TOL or any(abs(x - y) > TOL for x, y in zip(box, top_box)):
        return [f"{where}: got {box} @ {score}, top candidate is region {region} {top_box} @ {top_score}"]
    return []


def _within_candidates(where: str, box, score, cand) -> list[str]:
    boxes = np.array([b for _, b, _ in cand])
    scores = [s for _, _, s in cand]
    lo, hi = boxes.min(axis=0) - TOL, boxes.max(axis=0) + TOL
    problems = []
    if not all(lo[k] <= box[k] <= hi[k] for k in range(4)):
        problems.append(f"{where}: fused box {box} outside its candidates' range")
    if not min(scores) - TOL <= score <= max(scores) + TOL:
        problems.append(f"{where}: fused score {score} outside its candidates' range")
    return problems


def check_unfused(image: str, pred: dict[int, tuple], cands: dict[int, list]) -> list[str]:
    """Fusion off: each class's box and score are its top candidate's.

    The top candidate has the highest score; ties go to the lower region index.
    """
    return _per_class(image, pred, cands, _top_candidate)


def check_fused(image: str, pred: dict[int, tuple], cands: dict[int, list]) -> list[str]:
    """Fusion on: each class's box and score lie within the range of its candidates."""
    return _per_class(image, pred, cands, _within_candidates)


# ---------------------------------------------------------------------------
# average precision


def iou(a, b) -> float:
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0.0 else 0.0


def average_precision(ranked: list[tuple], gt: dict[str, tuple], threshold: float) -> float:
    """All-point AP: area under the precision envelope, sampled at every recall change.

    ``ranked`` holds (image, box, score), sorted by score descending and
    then image id; ``gt`` maps image id to this class's box.
    """
    hits = np.array([img in gt and iou(box, gt[img]) >= threshold for img, box, _ in ranked], dtype=float)
    tp = np.cumsum(hits)
    recall = np.concatenate([[0.0], tp / len(gt), [1.0]])
    precision = np.concatenate([[0.0], tp / np.arange(1, len(ranked) + 1), [0.0]])
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    step = np.flatnonzero(recall[1:] != recall[:-1])
    return float(np.sum((recall[step + 1] - recall[step]) * precision[step + 1]))


def mean_ap(preds: dict[str, dict[int, tuple]], gt: dict[str, dict[int, tuple]], n_classes: int, thresholds) -> float | None:
    """Macro mean over classes with ground truth of the mean AP over thresholds."""
    class_maps = []
    for cls in range(n_classes):
        class_gt = {img: boxes[cls] for img, boxes in gt.items() if cls in boxes}
        if not class_gt:
            continue
        ranked = sorted(
            ((img, p[cls][0], p[cls][1]) for img, p in preds.items() if cls in p),
            key=lambda t: (-t[2], t[0]),
        )
        aps = [average_precision(ranked, class_gt, t) for t in thresholds]
        class_maps.append(sum(aps) / len(aps))
    return sum(class_maps) / len(class_maps) if class_maps else None


def check_map(reported: float | None, expected: float | None) -> list[str]:
    if reported is None or expected is None:
        return [] if reported is expected else [f"mAP {reported}, expected {expected}"]
    if not abs(reported - expected) <= TOL:
        return [f"mAP {reported!r} differs from the reference {expected!r}"]
    return []


def check_history(totals: list[float]) -> list[str]:
    """Every loss is finite and the last is below the first."""
    if not totals:
        return ["empty training history"]
    if not all(math.isfinite(v) for v in totals):
        return ["non-finite loss in training history"]
    if not totals[-1] < totals[0]:
        return [f"last loss {totals[-1]} is not below the first {totals[0]}"]
    return []
