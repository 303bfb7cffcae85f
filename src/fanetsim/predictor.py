"""Gradient-boosted regression trees for short-horizon position prediction.

Self-contained implementation: squared-error loss, histogram split finding
(each feature quantile-binned once into at most MAX_BINS bins, per-node
residual histograms with sibling subtraction, as in XGBoost's `hist` method
and LightGBM), midpoint thresholds between neighbouring training values,
mean-residual leaves, shrinkage, and early stopping on a held-back
chronological validation slice; every tree fits all rows and all of its
model's columns. A dataset row holds one window layout: the last h positions
plus the finite-difference velocity at the newest lag. Each of the two
independent models (one per coordinate) fits only its own coordinate's h + 1
columns and names them in its `feature_schema`; prediction picks them out of
window rows by name.

`train` fits each model to the displacement from the newest lagged position
(persistence) rather than to the position itself, so boosting starts from a
per-row prior, as XGBoost's `base_margin` does; the model names that column
as its `offset_feature` and adds it back after the trees.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DatasetError, PredictionError, TrainingError
from .ioutil import (atomic_write_json, atomic_write_text, json_float, json_int, json_ints,
                     json_numbers, json_str, load_json)
from .mobility import Trace

MIN_SPLIT_GAIN = 1e-12
# On stock seeds 1-3, 256 bins gave ~6% higher held-out RMSE than 1024, and
# 4096 bins no lower RMSE at over twice the training time.
MAX_BINS = 1024
VALIDATION_FRACTION = 0.1
TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class BoostParams:
    max_depth: int = 6
    learning_rate: float = 0.1
    num_rounds: int = 100
    early_stop_patience: int = 10
    min_samples_leaf: int = 2

    def __post_init__(self):
        if self.max_depth < 1:
            raise TrainingError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0 < self.learning_rate <= 1:
            raise TrainingError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.num_rounds < 1:
            raise TrainingError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.early_stop_patience < 0:
            raise TrainingError(
                f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if self.min_samples_leaf < 1:
            raise TrainingError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")


@dataclass(frozen=True)
class FeatureWindow:
    history_length: int = 5
    horizon: int = 1

    def __post_init__(self):
        if self.history_length < 1:
            raise DatasetError(f"history_length must be >= 1, got {self.history_length}")
        if self.horizon < 1:
            raise DatasetError(f"horizon must be >= 1, got {self.horizon}")

    def feature_names(self) -> list[str]:
        names = []
        for lag in range(1, self.history_length + 1):
            names.append(f"x_lag{lag}")
            names.append(f"y_lag{lag}")
        names.append("vx_lag1")
        names.append("vy_lag1")
        return names

    def coordinate_names(self, target: str) -> list[str]:
        """The columns a model of `target` fits on: its own lags, newest
        first, and its velocity."""
        return [f"{target}_lag{lag}" for lag in range(1, self.history_length + 1)] + [
            f"v{target}_lag1"]


def _window_columns(width: int, names: list[str]) -> list[int]:
    """Where `names` sit in window rows `width` wide, found by name in the
    layout of the window that width implies."""
    h = width // 2 - 1
    layout = FeatureWindow(history_length=h).feature_names() if h >= 1 else []
    missing = [name for name in names if name not in layout]
    if len(layout) != width or missing:
        raise PredictionError(
            f"feature rows {width} wide are not a window layout holding {missing or names}")
    return [layout.index(name) for name in names]


@dataclass
class RegressionTree:
    """Flat node arrays; feature == -1 marks a leaf."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        for name, dtype in (("feature", np.int32), ("threshold", float),
                            ("left", np.int32), ("right", np.int32), ("value", float)):
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        # One step per level; a leaf loops to itself, so its feature -1 decides nothing.
        leaf, stay = self.feature < 0, np.arange(self.feature.size)
        left, right = np.where(leaf, stay, self.left), np.where(leaf, stay, self.right)
        node = np.zeros(X.shape[0], dtype=np.intp)
        base = np.arange(X.shape[0]) * X.shape[1]
        level = stay[:1]
        while (level := level[~leaf[level]]).size:
            level = np.r_[self.left[level], self.right[level]]
            node = np.where(X.ravel()[base + self.feature[node]] <= self.threshold[node],
                            left[node], right[node])
        return self.value[node]

    def check(self, n_features: int, name: str) -> None:
        """Raise ValueError unless the arrays form a tree predict_matrix reads."""
        n = self.feature.size
        if n == 0 or any(getattr(self, f.name).shape != (n,) for f in fields(self)):
            raise ValueError(f"{name}: node arrays differ in length or are empty")
        inner = np.flatnonzero(self.feature >= 0)
        kids = np.r_[self.left[inner], self.right[inner]]
        if not (self.feature.min() >= -1 and self.feature.max() < n_features):
            raise ValueError(f"{name}: feature index outside [0, {n_features})")
        if not np.all((kids > np.r_[inner, inner]) & (kids < n)):
            raise ValueError(f"{name}: a child does not come after its parent")
        if not (np.isfinite(self.threshold).all() and np.isfinite(self.value).all()):
            raise ValueError(f"{name}: non-finite threshold or value")


@dataclass
class BoostedModel:
    target: str
    params: BoostParams
    base_prediction: float
    feature_schema: list[str]
    trees: list[RegressionTree] = field(default_factory=list)
    window: FeatureWindow | None = None
    train_rmse: list[float] = field(default_factory=list)
    val_rmse: list[float] = field(default_factory=list)
    offset_feature: str | None = None

    def predict(self, X) -> np.ndarray:
        """Ensemble evaluation of an (n, features) matrix of finite values."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_schema):
            raise PredictionError(
                f"feature shape {X.shape} does not match schema "
                f"of {len(self.feature_schema)} features")
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise PredictionError(f"feature row {int(bad.argmax())} is not finite")
        out = np.full(X.shape[0], self.base_prediction)
        for tree in self.trees:
            out += self.params.learning_rate * tree.predict_matrix(X)
        if self.offset_feature is not None:
            out += X[:, self.feature_schema.index(self.offset_feature)]
        return out


@dataclass
class Dataset:
    """Supervised rows over a trace; `times` is each row's anchor timestamp.

    Features look backward from the anchor; the target sits `horizon` steps
    after it. Row order is (station_id, time) ascending, and the train/test
    masks cut each station's rows chronologically 80/20. `fit_idx`/`val_idx`
    cut its training rows again, holding back the last VALIDATION_FRACTION.
    """
    X: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray
    station_ids: np.ndarray
    times: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    fit_idx: np.ndarray
    val_idx: np.ndarray
    window: FeatureWindow
    feature_names: list[str]


def _feature_rows(positions: np.ndarray, anchors: np.ndarray,
                  h: int, dt: float) -> np.ndarray:
    """Feature rows at each anchor for a (T, 2) track or an (S, T, 2) trace
    array; rows come in (station, anchor) order."""
    cols = [positions[..., anchors - lag, :] for lag in range(1, h + 1)]
    cols.append((positions[..., anchors - 1, :] - positions[..., anchors - 2, :]) / dt)
    return np.concatenate(cols, axis=-1).reshape(-1, 2 * h + 2)


def build_dataset(trace: Trace, h: int = FeatureWindow.history_length,
                  horizon: int = FeatureWindow.horizon,
                  train_fraction: float = TRAIN_FRACTION) -> Dataset:
    window = FeatureWindow(history_length=h, horizon=horizon)
    if not 0 < train_fraction < 1:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = trace.num_samples
    # Velocity needs two history samples, so the anchor floor is max(h, 2).
    t_first = max(h, 2)
    t_last = n - 1 - horizon
    if t_last < t_first:
        raise DatasetError(
            f"trace too short: {n} samples cannot support h={h}, horizon={horizon}")
    dt = trace.times[1] - trace.times[0]

    anchors = np.arange(t_first, t_last + 1)
    per_station = anchors.size
    num_stations = len(trace.station_ids)
    n_train = int(math.floor(train_fraction * per_station))
    n_fit = n_train - int(math.floor(VALIDATION_FRACTION * n_train))
    offsets = np.arange(num_stations)[:, None] * per_station
    targets = trace.positions[:, anchors + horizon]
    return Dataset(
        X=_feature_rows(trace.positions, anchors, h, dt),
        target_x=targets[..., 0].ravel(), target_y=targets[..., 1].ravel(),
        station_ids=np.repeat(np.array(trace.station_ids, dtype=np.intp), per_station),
        times=np.tile(trace.times[anchors], num_stations),
        train_idx=(offsets + np.arange(n_train)).ravel(),
        test_idx=(offsets + np.arange(n_train, per_station)).ravel(),
        fit_idx=(offsets + np.arange(n_fit)).ravel(),
        val_idx=(offsets + np.arange(n_fit, n_train)).ravel(),
        window=window, feature_names=window.feature_names())


def _midpoint(lo: float, hi: float) -> float:
    """Split threshold between two adjacent training values lo < hi.

    The midpoint of two neighbouring floats can round up onto hi; lo is then
    the threshold, so `x <= threshold` always separates the two values.
    """
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


@dataclass(frozen=True)
class _Bins:
    """Each feature column quantile-binned once per training run.

    `codes[f, i]` is row i's bin for feature f (a contiguous row per
    feature, so per-node gathers stay local). Bin edges follow the sorted
    distinct values: a column with at most MAX_BINS distinct values gets one
    bin per value, otherwise each bin starts where a new 1/MAX_BINS quantile
    of the rows begins. `low`/`high` hold each bin's smallest and largest
    training value (NaN past a feature's last bin), `population` its row count.
    """
    codes: np.ndarray
    low: np.ndarray
    high: np.ndarray
    population: np.ndarray

    @classmethod
    def from_matrix(cls, X: np.ndarray) -> "_Bins":
        n, n_features = X.shape
        codes = np.empty((n_features, n), dtype=np.uint16)
        low, high = np.full((2, n_features, MAX_BINS), np.nan)
        population = np.zeros((n_features, MAX_BINS), dtype=np.int64)
        for f in range(n_features):
            values, inverse, counts = np.unique(
                X[:, f], return_inverse=True, return_counts=True)
            if values.size <= MAX_BINS:
                value_bin = np.arange(values.size)
            else:
                rank = np.cumsum(counts) - counts
                quantile = rank * MAX_BINS // n
                value_bin = np.cumsum(np.r_[False, quantile[1:] != quantile[:-1]])
            codes[f] = value_bin[inverse]
            first = np.flatnonzero(np.r_[True, value_bin[1:] != value_bin[:-1]])
            last = np.r_[first[1:] - 1, values.size - 1]
            low[f, :first.size] = values[first]
            high[f, :first.size] = values[last]
            population[f, :first.size] = np.add.reduceat(counts, first)
        return cls(codes, low, high, population)


class _TreeBuilder:
    """Level-wise histogram splitter.

    A node's histograms hold, per feature and bin, the residual sum and the
    row count. Only the smaller child of a split is histogrammed from its
    rows; the larger one is the parent minus the smaller (sibling
    subtraction). Splits fall between the node's non-empty bins, with the
    threshold midway between the neighbouring training values, so rows split
    on `code <= bin` exactly as the `x <= threshold` test prediction uses.
    """

    def __init__(self, bins: _Bins, residual: np.ndarray, params: BoostParams):
        self.bins = bins
        self.residual = residual
        self.params = params
        self.nodes_feature: list[int] = []
        self.nodes_threshold: list[float] = []
        self.nodes_left: list[int] = []
        self.nodes_right: list[int] = []
        self.nodes_value: list[float] = []
        self.leaf_rows: list[tuple[int, np.ndarray]] = []

    def _new_node(self) -> int:
        self.nodes_feature.append(-1)
        self.nodes_threshold.append(0.0)
        self.nodes_left.append(-1)
        self.nodes_right.append(-1)
        self.nodes_value.append(0.0)
        return len(self.nodes_feature) - 1

    def _splittable(self, rows: np.ndarray, depth: int) -> bool:
        return (depth < self.params.max_depth
                and rows.size >= 2 * self.params.min_samples_leaf)

    def _histograms(self, rows: np.ndarray):
        # Only the root holds every row: no gather, and its counts are the bin
        # populations, copied as sibling subtraction decrements counts in place.
        root = rows.size == self.residual.size
        block = self.bins.codes if root else self.bins.codes.take(rows, axis=1)
        g = self.residual if root else self.residual[rows]
        sums = np.empty((block.shape[0], MAX_BINS))
        counts = (self.bins.population.copy() if root
                  else np.empty((block.shape[0], MAX_BINS), dtype=np.int64))
        for f, codes in enumerate(block):
            sums[f] = np.bincount(codes, weights=g, minlength=MAX_BINS)
            if not root:
                counts[f] = np.bincount(codes, minlength=MAX_BINS)
        return sums, counts

    def _best_split(self, sums: np.ndarray, counts: np.ndarray, n: int):
        # Gains only after bins with rows (a split after an empty bin repeats
        # the last); partial sums keep the subtraction noise of empty bins.
        msl = self.params.min_samples_leaf
        occupied = np.flatnonzero(counts > 0)
        feature = occupied // MAX_BINS
        cum = np.cumsum(sums, axis=1)
        total = cum[:, -1]
        cum = cum.ravel()[occupied]
        n_left = np.cumsum(counts, axis=1, dtype=float).ravel()[occupied]
        n_right = n - n_left
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = (cum * cum / n_left + (total[feature] - cum) ** 2 / n_right
                     - (total * total / n)[feature])
        gains[(n_left < msl) | (n_right < msl)] = -np.inf
        pos = int(np.argmax(gains))
        if not gains[pos] > MIN_SPLIT_GAIN:
            return None
        f, b = divmod(int(occupied[pos]), MAX_BINS)
        nxt = int(occupied[pos + 1]) % MAX_BINS
        return f, b, _midpoint(self.bins.high[f, b], self.bins.low[f, nxt])

    def build(self) -> int:
        root = self._new_node()
        rows = np.arange(self.residual.size)
        hist = self._histograms(rows) if self._splittable(rows, 0) else None
        frontier = [(root, 0, rows, hist)]
        while frontier:
            next_frontier = []
            for node, depth, rows, hist in frontier:
                choice = None if hist is None else self._best_split(*hist, rows.size)
                if choice is None:
                    self.nodes_value[node] = float(self.residual[rows].mean())
                    self.leaf_rows.append((node, rows))
                    continue
                f, b, thr = choice
                self.nodes_feature[node] = f
                self.nodes_threshold[node] = thr
                go_left = self.bins.codes[f, rows] <= b
                children = [rows[go_left], rows[~go_left]]
                split = [self._splittable(c, depth + 1) for c in children]
                hists = [None, None]
                if any(split):
                    small = int(children[1].size < children[0].size)
                    small_hist = self._histograms(children[small])
                    if split[small]:
                        hists[small] = small_hist
                    if split[1 - small]:
                        sums, counts = hist
                        sums -= small_hist[0]
                        counts -= small_hist[1]
                        hists[1 - small] = hist
                left, right = self._new_node(), self._new_node()
                self.nodes_left[node], self.nodes_right[node] = left, right
                next_frontier.append((left, depth + 1, children[0], hists[0]))
                next_frontier.append((right, depth + 1, children[1], hists[1]))
            frontier = next_frontier
        return root

    def to_tree(self) -> RegressionTree:
        return RegressionTree(self.nodes_feature, self.nodes_threshold,
                              self.nodes_left, self.nodes_right, self.nodes_value)


def train_matrix(X: np.ndarray, y: np.ndarray, params: BoostParams,
                 feature_schema: list[str] | None = None,
                 eval_set: tuple[np.ndarray, np.ndarray] | None = None,
                 target: str = "x",
                 window: FeatureWindow | None = None) -> BoostedModel:
    """Boosting loop over a plain matrix; the eval set drives early stopping."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise TrainingError(f"bad training shapes {X.shape} / {y.shape}")
    n, n_features = X.shape
    if n < 2:
        raise TrainingError(f"need >= 2 training rows, got {n}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise TrainingError("training features and targets must be finite")
    if feature_schema is None:
        feature_schema = [f"f{j}" for j in range(n_features)]
    if len(feature_schema) != n_features:
        raise TrainingError("feature_schema length does not match matrix width")

    base = float(y.mean())
    pred = np.full(n, base)
    model = BoostedModel(target=target, params=params, base_prediction=base,
                         feature_schema=list(feature_schema), window=window)

    has_eval = eval_set is not None and eval_set[0].shape[0] > 0
    if has_eval:
        Xv = np.ascontiguousarray(eval_set[0], dtype=float)
        yv = np.asarray(eval_set[1], dtype=float)
        if (Xv.ndim != 2 or Xv.shape[1] != n_features or yv.shape != Xv.shape[:1]
                or not (np.isfinite(Xv).all() and np.isfinite(yv).all())):
            raise TrainingError(f"eval_set must be finite, {n_features} wide with one "
                                f"target per row; got {Xv.shape} / {yv.shape}")
        val_pred = np.full(Xv.shape[0], base)
    patience = params.early_stop_patience

    bins = _Bins.from_matrix(X)
    lr = params.learning_rate
    for _ in range(params.num_rounds):
        builder = _TreeBuilder(bins, y - pred, params)
        builder.build()
        tree = builder.to_tree()
        # The builder knows every training row's leaf, so no tree walk.
        for node, rows in builder.leaf_rows:
            pred[rows] += lr * tree.value[node]
        model.trees.append(tree)
        model.train_rmse.append(float(np.sqrt(np.mean((y - pred) ** 2))))

        if has_eval:
            val_pred += lr * tree.predict_matrix(Xv)
            model.val_rmse.append(float(np.sqrt(np.mean((yv - val_pred) ** 2))))
            # rounds since the best one; argmin takes the first of equal RMSEs
            if patience and len(model.val_rmse) - 1 - np.argmin(model.val_rmse) >= patience:
                break

    if has_eval and patience:
        keep = int(np.argmin(model.val_rmse)) + 1
        del model.trees[keep:], model.train_rmse[keep:], model.val_rmse[keep:]
    return model


def train(dataset: Dataset, params: BoostParams, target: str = "x") -> BoostedModel:
    """Fit the displacement `target - <target>_lag1` on the target's own
    columns; the model adds the newest lag back."""
    if target not in ("x", "y"):
        raise TrainingError(f"target must be 'x' or 'y', got {target!r}")
    y_all = dataset.target_x if target == "x" else dataset.target_y
    names = dataset.window.coordinate_names(target)
    cols = _window_columns(dataset.X.shape[1], names)
    offset = names.index(f"{target}_lag1")
    eval_set = None
    if dataset.val_idx.size:
        X_val = dataset.X[np.ix_(dataset.val_idx, cols)]
        eval_set = (X_val, y_all[dataset.val_idx] - X_val[:, offset])
    X_fit = dataset.X[np.ix_(dataset.fit_idx, cols)]
    model = train_matrix(
        X_fit, y_all[dataset.fit_idx] - X_fit[:, offset], params,
        feature_schema=names, eval_set=eval_set, target=target, window=dataset.window)
    model.offset_feature = names[offset]
    return model


def _predict_rows(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """The model on window rows X: a model with a window reads its schema's
    columns by name, one without reads X as it is."""
    if model.window is not None:
        X = X[:, _window_columns(X.shape[1], model.feature_schema)]
    return model.predict(X)


def evaluate_rmse(model: BoostedModel, X: np.ndarray, y: np.ndarray):
    """RMSE of the model and of the persistence baseline on the same
    window rows.

    Persistence predicts the newest lagged position of the model's target.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise PredictionError("empty evaluation split")
    pred = _predict_rows(model, X)
    rmse = float(np.sqrt(np.mean((y - pred) ** 2)))
    persist = X[:, _window_columns(X.shape[1], [f"{model.target}_lag1"])[0]]
    persist_rmse = float(np.sqrt(np.mean((y - persist) ** 2)))
    return rmse, persist_rmse


def predict_positions(model_x: BoostedModel, model_y: BoostedModel, trace: Trace,
                      bounds: tuple[float, float]) -> dict[int, tuple[float, float]]:
    """One (x, y) per station for the trace's last sample, clamped to the
    arena [0, width] x [0, height] given as `bounds`.

    Features are taken `horizon` steps before that sample, so the prediction
    uses only history strictly older than the sample being predicted.
    """
    for coordinate, model in (("x", model_x), ("y", model_y)):
        if model.target != coordinate:
            raise PredictionError(
                f"the {coordinate} model is a model of {model.target!r}")
    if model_x.window is None or model_y.window is None:
        raise PredictionError("models carry no feature window description")
    if model_x.window != model_y.window:
        raise PredictionError("coordinate models disagree on the feature window")
    window = model_x.window
    h, horizon = window.history_length, window.horizon

    t = trace.num_samples - 1 - horizon
    if t < max(h, 2):
        raise PredictionError(f"insufficient history before t={trace.times[-1]} "
                              f"for h={h}, horizon={horizon}")
    dt = trace.times[1] - trace.times[0]

    features = _feature_rows(trace.positions, np.array([t]), h, dt)
    px = _predict_rows(model_x, features).tolist()
    py = _predict_rows(model_y, features).tolist()
    return {sid: (min(max(x, 0.0), bounds[0]), min(max(y, 0.0), bounds[1]))
            for sid, x, y in zip(trace.station_ids, px, py)}


# --- persistence ----------------------------------------------------------

def save_model(model: BoostedModel, path: str) -> None:
    payload = {
        "target": model.target,
        "base_prediction": model.base_prediction,
        "feature_schema": model.feature_schema,
        "params": asdict(model.params),
        "window": None if model.window is None else asdict(model.window),
        "train_rmse": model.train_rmse,
        "val_rmse": model.val_rmse,
        "offset_feature": model.offset_feature,
        "trees": [{f.name: getattr(t, f.name).tolist() for f in fields(t)}
                  for t in model.trees],
    }
    atomic_write_json(path, payload)


def _typed(cls, raw: dict, what: str) -> object:
    """cls(**raw) once raw holds every int or float field of cls with that
    JSON type; a missing field would otherwise take its default."""
    check = {"int": json_int, "float": json_float}
    for f in fields(cls):
        check[f.type](raw[f.name], f"{what} {f.name}")
    return cls(**raw)


def _typed_tree(raw: dict, what: str) -> dict:
    """raw, once its node links are JSON integers and its thresholds and
    values JSON numbers."""
    for name in ("feature", "left", "right"):
        json_ints(raw[name], f"{what} {name}")
    for name in ("threshold", "value"):
        json_numbers(raw[name], f"{what} {name}")
    return raw


def load_model(path: str) -> BoostedModel:
    try:
        raw = load_json(path)
        params = _typed(BoostParams, raw["params"], "params")
        window = None
        if raw["window"] is not None:
            window = _typed(FeatureWindow, raw["window"], "window")
        trees = [RegressionTree(**_typed_tree(t, f"tree {k}"))
                 for k, t in enumerate(raw["trees"])]
        schema = [json_str(s, "feature_schema entry") for s in raw["feature_schema"]]
        twice = [s for k, s in enumerate(schema) if s in schema[:k]]
        if twice:
            raise ValueError(f"feature_schema names {twice[0]!r} twice")
        if window is not None:
            layout = window.feature_names()
            outside = [s for s in schema if s not in layout]
            if outside:
                raise ValueError(f"feature_schema entry {outside[0]!r} is not a "
                                 f"column of the model's window")
        for k, tree in enumerate(trees):
            tree.check(len(schema), f"tree {k}")
        offset = raw["offset_feature"]
        if offset is not None and offset not in schema:
            raise ValueError(f"offset_feature {offset!r} is not in feature_schema")
        return BoostedModel(
            target=json_str(raw["target"], "target"), params=params,
            base_prediction=json_float(raw["base_prediction"], "base_prediction"),
            feature_schema=schema, trees=trees, window=window,
            train_rmse=[float(v) for v in json_numbers(raw["train_rmse"], "train_rmse")],
            val_rmse=[float(v) for v in json_numbers(raw["val_rmse"], "val_rmse")],
            offset_feature=offset)
    except (KeyError, TypeError, ValueError, OverflowError, DatasetError,
            TrainingError) as exc:
        raise PredictionError(f"malformed model file {path}: {exc}") from exc


def write_predictions(positions: dict[int, tuple[float, float]], path: str) -> None:
    lines = ["station_id,pred_x,pred_y"]
    for sid in sorted(positions):
        x, y = positions[sid]
        lines.append(f"{sid},{x!r},{y!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_predictions(path: str) -> dict[int, tuple[float, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise PredictionError(f"{path}: not UTF-8 text: {exc}") from None
    header = lines[0].strip() if lines else ""
    if header != "station_id,pred_x,pred_y":
        raise PredictionError(f"{path}: unexpected predictions header: {header!r}")
    out: dict[int, tuple[float, float]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            if not raw.isascii() or "_" in raw:
                raise ValueError("cells must be ASCII without '_'")
            sid, x, y = raw.split(",")
            sid, x, y = int(sid), float(x), float(y)
        except ValueError as exc:
            raise PredictionError(
                f"{path}:{lineno}: malformed predictions row {raw!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PredictionError(
                f"{path}:{lineno}: non-finite prediction in row {raw!r}")
        if sid < 0:
            raise PredictionError(f"{path}:{lineno}: negative station id {sid}")
        if sid in out:
            raise PredictionError(f"{path}:{lineno}: duplicate station id {sid}")
        out[sid] = (x, y)
    if not out:
        raise PredictionError(f"{path}: no predictions")
    return out
