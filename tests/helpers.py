"""Independent oracles and small utilities shared by the test modules.

Everything here is deliberately written from first principles (pixel
counting, exhaustive enumeration, rank statistics) so it stays
independent of the library code it checks. The fusion, class-mapping and
candidate references are the sequential definitions the array code in
``proxydet`` must reproduce bit for bit, as are the per-pair GIoU and
center/size conversion, the per-column GIoU gradient, the
array-by-array training loop and the per-class, per-threshold evaluator.
The region-by-region dataset reader is the one the columnar reader in
``proxydet.formats`` must match array for array and error for error.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from proxydet import formats
from proxydet.errors import DataError
from proxydet.evaluation import EvalConfig, EvalReport, ReportCounts
from proxydet.fusion import FusionConfig, ScoredBox
from proxydet.geometry import Box
from proxydet.head import Batch, HeadParams, TrainConfig, TrainSample, batch_loss_and_grads, init_head_params
from proxydet.inference import (
    ClassMapping,
    InferenceConfig,
    InferenceDiagnostics,
    PathologyBox,
    RegionDetections,
)


def raster_masks(a: Box, b: Box, res: int) -> tuple[np.ndarray, np.ndarray]:
    def mask(box: Box) -> np.ndarray:
        g = np.zeros((res, res), dtype=bool)
        x1 = int(round(box.x1 * res))
        y1 = int(round(box.y1 * res))
        x2 = int(round(box.x2 * res))
        y2 = int(round(box.y2 * res))
        g[y1:y2, x1:x2] = True
        return g

    return mask(a), mask(b)


def raster_iou(a: Box, b: Box, res: int = 500) -> float:
    """Pixel-counting IoU; exact when corners are multiples of 1/res."""
    ma, mb = raster_masks(a, b, res)
    union = int(np.count_nonzero(ma | mb))
    if union == 0:
        return 0.0
    return int(np.count_nonzero(ma & mb)) / union


def raster_giou(a: Box, b: Box, res: int = 500) -> float:
    """Pixel-counting GIoU; exact when corners are multiples of 1/res."""
    ma, mb = raster_masks(a, b, res)
    inter = int(np.count_nonzero(ma & mb))
    union = int(np.count_nonzero(ma | mb))
    enclosing_box = Box(
        min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2)
    )
    enc_mask, _ = raster_masks(enclosing_box, enclosing_box, res)
    enc = int(np.count_nonzero(enc_mask))
    return inter / union - (enc - union) / enc


def grid_box(rng: np.random.Generator, res: int = 500, min_cells: int = 1) -> Box:
    """Random box whose corners are multiples of 1/res."""
    x1 = int(rng.integers(0, res - min_cells))
    x2 = int(rng.integers(x1 + min_cells, res + 1))
    y1 = int(rng.integers(0, res - min_cells))
    y2 = int(rng.integers(y1 + min_cells, res + 1))
    return Box(x1 / res, y1 / res, x2 / res, y2 / res)


def random_box(rng: np.random.Generator, min_size: float = 0.0) -> Box:
    while True:
        x = np.sort(rng.uniform(0.0, 1.0, size=2))
        y = np.sort(rng.uniform(0.0, 1.0, size=2))
        if x[1] - x[0] >= min_size and y[1] - y[0] >= min_size:
            return Box(x[0], y[0], x[1], y[1])


def iou_ref(a: Box, b: Box) -> float:
    """Straight-line IoU used to sanity-check fusion/inference compositions."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def giou_ref(a: Box, b: Box) -> float:
    """Straight-line GIoU of one pair: IoU minus the enclosing box's empty share."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    enclosing = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    return inter / union - (enclosing - union) / enclosing


def center_to_corner_ref(cx: float, cy: float, w: float, h: float) -> Box:
    """One center/size box as corners, each clamped to [0, 1]."""
    clamp = lambda v: min(max(v, 0.0), 1.0)
    return Box(clamp(cx - w / 2.0), clamp(cy - h / 2.0), clamp(cx + w / 2.0), clamp(cy + h / 2.0))


def ap_oracle(
    predictions: list[tuple[str, Box, float]],
    gt_boxes: dict[str, Box],
    iou_threshold: float,
) -> float | None:
    """Brute-force all-point-interpolated AP, straight from the definition.

    For every true-positive rank, scans *all* prefixes to find the maximum
    precision at recall >= that rank's recall (O(n^2) on purpose).
    """
    n_gt = len(gt_boxes)
    if n_gt == 0:
        return None
    if not predictions:
        return 0.0
    ranked = sorted(predictions, key=lambda t: (-t[2], t[0]))
    hits = [
        image_id in gt_boxes and iou_ref(box, gt_boxes[image_id]) >= iou_threshold
        for image_id, box, _ in ranked
    ]
    n = len(ranked)
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        if not hits[k]:
            continue
        recall_k = sum(hits[: k + 1]) / n_gt
        best = 0.0
        for j in range(n):
            recall_j = sum(hits[: j + 1]) / n_gt
            if recall_j >= recall_k:
                best = max(best, sum(hits[: j + 1]) / (j + 1))
        ap += (recall_k - prev_recall) * best
        prev_recall = recall_k
    return ap


def auroc(scores, labels) -> float:
    """Rank-statistic AUROC (Mann-Whitney)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = int((~labels).sum())
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def left_sum(values) -> float:
    """Left-to-right float sum from 0, as ``sum()`` adds floats before Python 3.12.

    Python 3.12 made ``sum()`` of floats compensated; the references below
    spell the sequential order out so they mean the same on every version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


class _ClusterRef:
    """One fusion cluster that re-sums all its members on every join."""

    def __init__(self, first: ScoredBox):
        self.members = [first]
        self.fused_box = first.box

    def add(self, member: ScoredBox) -> None:
        self.members.append(member)
        total = left_sum(m.score for m in self.members)
        coords = []
        for i in range(4):
            vals = [m.box.as_tuple()[i] for m in self.members]
            if total > 0.0:
                v = left_sum(m.score * x for m, x in zip(self.members, vals)) / total
            else:
                v = left_sum(vals) / len(vals)
            coords.append(min(max(v, min(vals)), max(vals)))
        self.fused_box = Box(*coords)

    def fused_score(self, n_input: int, rescale: bool) -> float:
        scores = [m.score for m in self.members]
        s = left_sum(scores) / len(scores)
        s = min(max(s, min(scores)), max(scores))
        if rescale:
            s *= min(len(scores), n_input) / n_input
        return s


def wbf_ref(boxes: list[ScoredBox], cfg: FusionConfig) -> list[ScoredBox]:
    """Sequential weighted box fusion: scalar IoU against every cluster per box."""
    ordered = sorted(boxes, key=lambda sb: (-sb.score, sb.source_index))
    clusters: list[_ClusterRef] = []
    for sb in ordered:
        best_iou = cfg.iou_threshold
        best = None
        for cluster in clusters:
            overlap = iou_ref(sb.box, cluster.fused_box)
            if overlap > best_iou:
                best_iou = overlap
                best = cluster
        if best is None:
            clusters.append(_ClusterRef(sb))
        else:
            best.add(sb)
    fused = [
        ScoredBox(
            box=c.fused_box,
            score=c.fused_score(len(boxes), cfg.score_rescale),
            source_index=c.members[0].source_index,
        )
        for c in clusters
    ]
    fused.sort(key=lambda sb: (-sb.score, sb.source_index))
    return fused


def average_precision_ref(
    predictions: list[tuple[str, Box, float]],
    gt_boxes: dict[str, Box],
    iou_threshold: float,
) -> float | None:
    """All-point interpolated AP for one class at one threshold, one rank at a time.

    Ranks by (-score, image id); precision and recall per rank, the
    running-max envelope from the right, then the recall steps of the true
    positives added left to right.
    """
    n_gt = len(gt_boxes)
    if n_gt == 0:
        return None
    if not predictions:
        return 0.0
    ranked = sorted(predictions, key=lambda t: (-t[2], t[0]))
    tp = [
        image_id in gt_boxes and iou_ref(box, gt_boxes[image_id]) >= iou_threshold
        for image_id, box, _ in ranked
    ]
    n = len(ranked)
    cum = 0
    precision = []
    recall = []
    for k, hit in enumerate(tp, start=1):
        cum += int(hit)
        precision.append(cum / k)
        recall.append(cum / n_gt)
    envelope = [0.0] * n
    running = 0.0
    for k in range(n - 1, -1, -1):
        running = max(running, precision[k])
        envelope[k] = running
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        if tp[k]:
            ap += (recall[k] - prev_recall) * envelope[k]
            prev_recall = recall[k]
    return ap


def _locacc_ref(predictions, images: dict[str, dict[int, Box]], cls, iou_threshold, score_threshold, positives_only):
    """Fraction of images judged correct for one class, or None with no image to judge."""
    by_image: dict[str, PathologyBox] = {}
    for image_id in predictions:
        for p in predictions[image_id]:
            if p.class_id == cls:
                by_image[image_id] = p
    correct = 0
    considered = 0
    for image_id, boxes in images.items():
        pred = by_image.get(image_id)
        fired = pred is not None and pred.score >= score_threshold
        gt_box = boxes.get(cls)
        if gt_box is not None:
            considered += 1
            if fired and iou_ref(pred.box, gt_box) >= iou_threshold:
                correct += 1
        elif not positives_only:
            considered += 1
            if not fired:
                correct += 1
    return None if considered == 0 else correct / considered


def evaluate_ref(
    predictions: dict[str, list[PathologyBox]],
    images: dict[str, dict[int, Box]],
    n_classes: int,
    cfg: EvalConfig = EvalConfig(),
) -> EvalReport:
    """The evaluator one class, threshold and image at a time, from the ground truth's images.

    Collects each class's predictions and boxes, calls
    :func:`average_precision_ref` per threshold and scans every image per
    localization threshold; means are :func:`left_sum` over the count.
    Inputs are assumed valid.
    """
    mean = lambda values: left_sum(values) / len(values) if values else None
    ap, class_map = {}, {}
    for cls in range(n_classes):
        preds = [(i, p.box, p.score) for i in predictions for p in predictions[i] if p.class_id == cls]
        boxes = {i: img[cls] for i, img in images.items() if cls in img}
        ap[cls] = {t: average_precision_ref(preds, boxes, t) for t in cfg.iou_thresholds}
        class_map[cls] = mean([v for v in ap[cls].values() if v is not None])
    loc_acc = {}
    for cls in range(n_classes):
        loc_acc[cls] = {}
        for t in cfg.locacc_iou_thresholds:
            args = (cls, t, cfg.locacc_score_threshold, cfg.locacc_positives_only)
            acc = _locacc_ref(predictions, images, *args)
            if acc is not None:
                loc_acc[cls][t] = acc
    loc_acc_macro = {}
    for t in cfg.locacc_iou_thresholds:
        vals = [loc_acc[cls][t] for cls in loc_acc if t in loc_acc[cls]]
        if vals:
            loc_acc_macro[t] = mean(vals)
    counts = ReportCounts(
        images=len(images),
        gt_boxes=sum(len(img) for img in images.values()),
        predictions=sum(len(v) for v in predictions.values()),
    )
    return EvalReport(
        class_names=tuple(f"class_{i}" for i in range(n_classes)),
        ap=ap,
        class_map=class_map,
        overall_map=mean([v for v in class_map.values() if v is not None]),
        loc_acc=loc_acc,
        loc_acc_macro=loc_acc_macro,
        counts=counts,
    )


def map_probs_ref(mapping: ClassMapping, train_classes: list[str], probs) -> np.ndarray:
    """Per-entry class mapping: mean or max of each entry's source probabilities."""
    index = {name: i for i, name in enumerate(train_classes)}
    probs = np.asarray(probs, dtype=np.float64)
    out = np.empty(len(mapping.entries))
    for i, entry in enumerate(mapping.entries):
        src = probs[[index[s] for s in entry.sources]]
        out[i] = float(np.mean(src)) if entry.combiner == "mean" else float(np.max(src))
    return out


def detect_pathologies_ref(
    regions: RegionDetections,
    cfg: InferenceConfig,
    diagnostics: InferenceDiagnostics | None = None,
) -> list[PathologyBox]:
    """Region-by-region candidate emission followed by :func:`wbf_ref` per class."""
    n_classes = regions.pathology_probs.shape[1]
    candidates: list[list[ScoredBox]] = [[] for _ in range(n_classes)]
    for row, presence, probs in zip(
        regions.boxes.tolist(), regions.presence.tolist(), regions.pathology_probs.tolist()
    ):
        if presence < cfg.presence_threshold:
            if diagnostics is not None:
                diagnostics.absent_regions += 1
            continue
        box = Box(*row)
        if box.area == 0.0:
            if diagnostics is not None:
                diagnostics.degenerate_boxes += 1
            continue
        for cls in range(n_classes):
            p = probs[cls]
            if p > cfg.probability_threshold:
                candidates[cls].append(
                    ScoredBox(box=box, score=p, source_index=len(candidates[cls]))
                )
    out: list[PathologyBox] = []
    for cls in range(n_classes):
        fused = wbf_ref(candidates[cls], cfg.fusion)
        if cfg.top1_per_class:
            fused = fused[:1]
        out.extend(PathologyBox(class_id=cls, box=sb.box, score=sb.score) for sb in fused)
    return out


def giou_gradient_ref(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``d giou / d a`` on the columns of ``(N, 4)`` corner arrays.

    The column-by-column form that ``geometry.giou_gradient_batch``
    replaced: the same float operations on the same values, so the two
    must agree bit for bit, signed zeros and the non-smooth mask included.
    """
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    ix1 = np.maximum(a[:, 0], b[:, 0])
    iy1 = np.maximum(a[:, 1], b[:, 1])
    ix2 = np.minimum(a[:, 2], b[:, 2])
    iy2 = np.minimum(a[:, 3], b[:, 3])
    iw = np.maximum(0.0, ix2 - ix1)
    ih = np.maximum(0.0, iy2 - iy1)
    inter = iw * ih
    union = area_a + area_b - inter
    cw = np.maximum(a[:, 2], b[:, 2]) - np.minimum(a[:, 0], b[:, 0])
    ch = np.maximum(a[:, 3], b[:, 3]) - np.minimum(a[:, 1], b[:, 1])
    enclosing = cw * ch
    w_a = a[:, 2] - a[:, 0]
    h_a = a[:, 3] - a[:, 1]

    open_w = (iw > 0.0) & (ih > 0.0)
    d_inter = np.stack(
        [
            np.where(open_w & (a[:, 0] >= b[:, 0]), -ih, 0.0),
            np.where(open_w & (a[:, 1] >= b[:, 1]), -iw, 0.0),
            np.where(open_w & (a[:, 2] <= b[:, 2]), ih, 0.0),
            np.where(open_w & (a[:, 3] <= b[:, 3]), iw, 0.0),
        ],
        axis=1,
    )
    d_union = np.stack([-h_a, -w_a, h_a, w_a], axis=1) - d_inter
    d_enc = np.stack(
        [
            np.where(a[:, 0] <= b[:, 0], -ch, 0.0),
            np.where(a[:, 1] <= b[:, 1], -cw, 0.0),
            np.where(a[:, 2] >= b[:, 2], ch, 0.0),
            np.where(a[:, 3] >= b[:, 3], cw, 0.0),
        ],
        axis=1,
    )
    u = union[:, None]
    c = enclosing[:, None]
    grads = (d_inter * u - inter[:, None] * d_union) / u**2 + (d_union * c - u * d_enc) / c**2
    tied = (a[:, 0] == b[:, 0]) | (a[:, 1] == b[:, 1]) | (a[:, 2] == b[:, 2]) | (a[:, 3] == b[:, 3])
    touching = ((ix2 - ix1) == 0.0) | ((iy2 - iy1) == 0.0)
    return grads, tied | touching


class AdamWRef:
    """AdamW array by array over dicts, as the update equations are written."""

    def __init__(self, learning_rate, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.wd, self.beta1, self.beta2, self.eps = learning_rate, weight_decay, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.wd * p)


def train_ref(samples: list[TrainSample], cfg: TrainConfig, n_classes: int):
    """The training loop without early stopping, from public pieces.

    Each step stacks its samples into a :class:`Batch` of their own (so its
    targets are derived from the step's samples alone), calls
    ``batch_loss_and_grads`` and updates separately allocated arrays with
    :class:`AdamWRef`. Returns ``(params, history)``.
    """
    n = len(samples)
    size = min(cfg.batch_size, n)
    init = init_head_params(samples[0].features.shape[1], n_classes, np.random.default_rng([cfg.seed, 0]))
    params = HeadParams(init.flat.copy(), init.feature_dim, n_classes)
    arrays = params.to_dict()
    opt = AdamWRef(cfg.lr, cfg.wd)
    rng = np.random.default_rng([cfg.seed, 1])
    buffer = np.empty(0, dtype=np.int64)
    history = []
    for step in range(cfg.max_steps):
        while buffer.size < size:
            buffer = np.concatenate([buffer, rng.permutation(n)])
        chosen = [samples[i] for i in np.sort(buffer[:size])]
        buffer = buffer[size:]

        def stack(field):
            values = [getattr(s, field) for s in chosen]
            return None if values[0] is None else np.stack(values)

        fields = ("features", "target_boxes", "present", "anatomy_labels", "image_labels")
        batch = Batch.of(*(stack(f) for f in fields))
        breakdown, grads = batch_loss_and_grads(batch, params, cfg)
        opt.step(arrays, {k: np.array(v) for k, v in grads.to_dict().items()})
        history.append((step, breakdown))
    return params, history


def _ref_number(value, where: str, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: {field} must be a number, got {value!r}") from exc


def _ref_region(reg, n_regions: int, class_index: dict[str, int], where: str) -> formats.RegionRecord:
    """One region row, checked field by field and value by value."""
    if not isinstance(reg, dict):
        raise DataError(f"{where}: must be an object")
    if "region_id" not in reg:
        raise DataError(f"{where}: missing region_id")
    region_id = reg["region_id"]
    if not isinstance(region_id, int) or isinstance(region_id, bool):
        raise DataError(f"{where}: region_id must be an integer, got {region_id!r}")
    if not 0 <= region_id < n_regions:
        raise DataError(f"{where}: region_id {region_id} outside 0..{n_regions - 1}")
    presence = _ref_number(reg.get("presence", 1.0), where, "presence")
    if not 0.0 <= presence <= 1.0:
        raise DataError(f"{where}: presence outside [0, 1]")
    features = reg.get("features")
    if features is not None:
        if not isinstance(features, list):
            raise DataError(f"{where}: features must be an array of numbers")
        try:
            features = np.array([float(v) for v in features], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{where}: features must be an array of numbers") from exc
        if not np.isfinite(features).all():
            raise DataError(f"{where}: features must be finite (NaN or Infinity found)")
    probs = reg.get("pathology_probs")
    if probs is not None:
        if not isinstance(probs, dict):
            raise DataError(f"{where}: pathology_probs must be an object")
        row = np.zeros(len(class_index))
        for name, p in probs.items():
            if name not in class_index:
                raise DataError(f"{where}: unknown class name {name!r}")
            p = _ref_number(p, where, f"probability for {name!r}")
            if not 0.0 <= p <= 1.0:
                raise DataError(f"{where}: probability for {name!r} outside [0, 1]")
            row[class_index[name]] = p
        probs = row
    box = reg.get("box")
    if not (isinstance(box, list) and len(box) == 4):
        raise DataError(f"{where}: box must be a 4-element array")
    try:
        box = Box(*(float(v) for v in box))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: {exc}") from exc
    return formats.RegionRecord(region_id, box, presence, features, probs)


def read_dataset_ref(path) -> tuple[formats.DatasetHeader, list[formats.ImageRecord]]:
    """The dataset reader one region and one value at a time, each region a RegionRecord.

    Regions are checked in file order; within a region, region_id,
    presence, features, probabilities and box; feature lengths after the
    record's last region, then labels, then repeated region ids. Header
    and label parsing are the library's own.
    """
    path = Path(path)
    header, records, seen = None, [], {}
    feature_dim, dim_source = None, ""
    for line_no, obj in formats._iter_jsonl(path):
        where = f"{path}:{line_no}"
        if header is None:
            if obj.get("kind") != "dataset":
                raise DataError(f"{where}: first record must be a dataset header")
            if obj.get("version") != formats.FORMAT_VERSION:
                raise DataError(f"{where}: unsupported format version")
            try:
                dim = obj.get("feature_dim")
                header = formats.DatasetHeader(
                    formats._parse_classes(obj["classes"], where),
                    formats._parse_count(obj["n_regions"], where, "n_regions", 0),
                    None if dim is None else formats._parse_count(dim, where, "feature_dim", 1),
                )
            except KeyError as exc:
                raise DataError(f"{where}: header missing field {exc}") from exc
            feature_dim, dim_source = header.feature_dim, "header feature_dim"
            class_index = {name: i for i, name in enumerate(header.classes)}
            continue
        if "image_id" not in obj:
            raise DataError(f"{where}: missing image_id")
        if not isinstance(obj.get("regions"), list):
            raise DataError(f"{where}: missing regions array")
        regions = [
            _ref_region(reg, header.n_regions, class_index, f"{where}: regions[{i}]")
            for i, reg in enumerate(obj["regions"])
        ]
        for i, reg in enumerate(regions):
            if reg.features is None:
                continue
            if feature_dim is None:
                feature_dim, dim_source = len(reg.features), f"first length in the file, line {line_no}"
            if len(reg.features) != feature_dim:
                raise DataError(
                    f"{where}: regions[{i}]: features length {len(reg.features)} != {feature_dim} ({dim_source})"
                )
        gt, anatomy = formats._parse_gt(obj, header, where), formats._parse_anatomy(obj, header, where)
        try:
            record = formats.ImageRecord(str(obj["image_id"]), regions, gt=gt, anatomy_labels=anatomy)
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        first = seen.setdefault(record.image_id, line_no)
        if first != line_no:
            raise DataError(f"{where}: duplicate image id {record.image_id!r} (first at line {first})")
        records.append(record)
    if header is None:
        raise DataError(f"{path}: empty file (missing header)")
    return replace(header, feature_dim=feature_dim), records
