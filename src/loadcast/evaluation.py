"""Forecast quality metrics, interval diagnostics, model comparison, and
the evaluation reports that :func:`build_report` and :func:`write_report`
make of several models' forecasts.

Percentage errors use PE = 100 (z - zhat) / z, so systematic over-prediction
shows up as negative MPE.  Interval quality combines empirical coverage with
the Winkler score, normalized by the mean test load.  Pairwise model
comparison uses a conditional predictive-ability test on daily loss
differentials with instruments [1, lagged differential]; rankings aggregate
per-series metric order."""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, fields
from itertools import compress, groupby

import numpy as np

from .errors import IncompleteHistoryError, LoadcastError
from .files import replacing
from .network import HORIZON
from .preprocess import HOURS_PER_DAY, HourlySeries

#: minimum paired days for the predictive-ability test
GW_MIN_DAYS = 30


@dataclass(frozen=True)
class ForecastRecord:
    """One day-ahead forecast for one series, in MW."""

    series_id: str
    target_date: dt.date
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    model: str = ""

    def __post_init__(self):
        for name in ("point", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (HORIZON,):
                raise ValueError(f"{name} must hold {HORIZON} hourly values")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PointMetrics:
    mape: float = field(metadata={"column": "MAPE"})
    mdape: float = field(metadata={"column": "MdAPE"})
    iqr_ape: float = field(metadata={"column": "IqrAPE"})
    rmse: float = field(metadata={"column": "RMSE"})
    mpe: float = field(metadata={"column": "MPE"})
    std_pe: float = field(metadata={"column": "StdPE"})


@dataclass(frozen=True)
class PiMetrics:
    pi_in: float = field(metadata={"column": "% in PI"})
    pi_below: float = field(metadata={"column": "% below PI"})
    pi_above: float = field(metadata={"column": "% above PI"})
    winkler_normalized: float = field(metadata={"column": "Winkler score"})
    pi_crossings: int


# dataclass fields follow the reversed MRO: point metrics first
@dataclass(frozen=True)
class MetricsReport(PiMetrics, PointMetrics):
    """Every metric of one scored set of forecasts: the one list of metric
    names, which drives every report table and the summary over series.
    A field with a "column" entry is a ``per_series.csv`` column; an entry
    that is not None also heads its column in the summary table filled by
    the class that declares the field."""

    n_hours: int
    n_days: int = field(metadata={"column": None})


def _table_fields(cls) -> list:
    """The fields of ``cls`` shown in its summary table."""
    return [f for f in fields(cls) if f.metadata.get("column")]


#: CSV column sets for the two summary tables
TABLE1_COLUMNS, TABLE2_COLUMNS = (
    ("Cell type",) + tuple(f.metadata["column"] for f in _table_fields(cls))
    for cls in (PointMetrics, PiMetrics))
#: the resolved type of each field, which sets how :func:`summarize` merges it
_METRIC_TYPES = typing.get_type_hints(MetricsReport)


def _paired(actual, forecast):
    actual = np.asarray(actual, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    if actual.shape != forecast.shape or actual.ndim != 1 or actual.size == 0:
        raise ValueError("need equal-length non-empty 1-d arrays")
    return actual, forecast


def percentage_errors(actual, forecast) -> np.ndarray:
    actual, forecast = _paired(actual, forecast)
    if np.any(actual <= 0.0):
        raise ValueError("percentage errors need strictly positive actuals")
    return 100.0 * (actual - forecast) / actual


def point_metrics(actual, forecast) -> PointMetrics:
    pe = percentage_errors(actual, forecast)
    ape = np.abs(pe)
    actual, forecast = _paired(actual, forecast)
    return PointMetrics(
        mape=float(np.mean(ape)),
        mdape=float(np.median(ape)),
        iqr_ape=float(np.percentile(ape, 75) - np.percentile(ape, 25)),
        rmse=float(np.sqrt(np.mean((actual - forecast) ** 2))),
        mpe=float(np.mean(pe)),
        std_pe=float(np.std(pe)),
    )


def winkler_scores(actual, lower, upper, alpha: float) -> np.ndarray:
    """Per-hour interval scores on raw bounds, crossings included as-is."""
    actual = np.asarray(actual, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    width = upper - lower
    below = np.where(actual < lower, (2.0 / alpha) * (lower - actual), 0.0)
    above = np.where(actual > upper, (2.0 / alpha) * (actual - upper), 0.0)
    return width + below + above


def pi_metrics(actual, lower, upper, alpha: float,
               mean_test_load: float) -> PiMetrics:
    actual, lower = _paired(actual, lower)
    _, upper = _paired(actual, upper)
    if mean_test_load <= 0.0:
        raise ValueError("mean test load must be positive")
    scores = winkler_scores(actual, lower, upper, alpha)
    n = actual.size
    # each hour lands in exactly one bucket even when bounds cross
    below_mask = actual < lower
    above_mask = (actual > upper) & ~below_mask
    below = int(np.sum(below_mask))
    above = int(np.sum(above_mask))
    inside = n - below - above
    return PiMetrics(
        pi_in=100.0 * inside / n,
        pi_below=100.0 * below / n,
        pi_above=100.0 * above / n,
        winkler_normalized=float(np.mean(scores)) / mean_test_load,
        pi_crossings=int(np.sum(lower > upper)),
    )


@dataclass(frozen=True)
class GWResult:
    statistic: float
    p_value: float
    degenerate: bool
    n: int


def gw_test(losses_a, losses_b) -> GWResult:
    """One-sided conditional predictive-ability test on daily losses: is the
    first loss series the more accurate one (negative mean differential)?
    Swap the arguments for the other question.  A zero-variance
    differential cannot discriminate: p = 1 with the degenerate flag set.
    """
    a, b = _paired(losses_a, losses_b)
    n = a.size
    if n < GW_MIN_DAYS:
        raise ValueError(f"need at least {GW_MIN_DAYS} paired days, got {n}")
    d = a - b
    # relative floor: a constant offset between float arrays leaves ulp-level
    # noise in d, which must still count as zero variance
    scale = float(np.max(np.abs(d)))
    if scale == 0.0 or float(np.std(d)) <= 1e-12 * scale:
        return GWResult(statistic=float("nan"), p_value=1.0, degenerate=True, n=n)
    # instruments [1, d_{t-1}] applied to d_t
    z = np.column_stack([d[1:], d[:-1] * d[1:]])
    zbar = z.mean(axis=0)
    cov = np.cov(z, rowvar=False, ddof=1)
    try:
        solved = np.linalg.solve(cov, zbar)
    except np.linalg.LinAlgError:
        return GWResult(statistic=float("nan"), p_value=1.0, degenerate=True, n=n)
    statistic = float(z.shape[0] * (zbar @ solved))
    two_sided = math.exp(-statistic / 2.0)  # chi-squared(2) survival
    if float(np.mean(d)) < 0.0:
        p = two_sided / 2.0
    else:
        p = 1.0 - two_sided / 2.0
    return GWResult(statistic=statistic, p_value=p, degenerate=False, n=n)


@dataclass(frozen=True)
class GWMatrix:
    """Pairwise predictive-ability tests over ``days`` common days, with
    what the entries mean."""

    days: int
    matrix: dict[str, dict[str, float]]
    comparison: str = ("p[row][col] = one-sided p that the column model is "
                       "the more accurate of the pair")
    loss: str = "per-day MAE averaged across series"
    instruments: str = "constant and lagged loss differential"


def gw_matrix(losses: dict[str, dict[dt.date, float]]) -> GWMatrix:
    """:func:`gw_test` of every ordered pair of models over the days on
    which each has a daily loss; ``losses`` maps a model label to its
    date -> loss map.  The diagonal is 1, and with fewer than GW_MIN_DAYS
    common days every other entry is NaN."""
    common = sorted(set.intersection(*map(set, losses.values())))

    def p_value(row, col):
        if row == col:
            return 1.0
        if len(common) < GW_MIN_DAYS:
            return float("nan")
        return gw_test([losses[col][d] for d in common],
                       [losses[row][d] for d in common]).p_value

    return GWMatrix(len(common), {row: {col: p_value(row, col)
                                        for col in losses} for row in losses})


@dataclass(frozen=True)
class RankingReport:
    mean_ranks: dict[str, float]
    first_places: dict[str, int]
    tied_series: int


def rank_models(table: dict[str, dict[str, float]]) -> RankingReport:
    """Per-series ascending metric ranks; ties broken by model label."""
    models = sorted(table)
    if not models:
        raise ValueError("empty table")
    series_keys = [frozenset(table[m]) for m in models]
    if any(k != series_keys[0] for k in series_keys) or not series_keys[0]:
        raise ValueError("table must cover every model x series pair")
    series = sorted(series_keys[0])
    ranks = {m: [] for m in models}
    first_places = {m: 0 for m in models}
    tied = 0
    for s in series:
        values = [table[m][s] for m in models]
        if len(set(values)) < len(values):
            tied += 1
        ordered = sorted(models, key=lambda m: (table[m][s], m))
        for position, m in enumerate(ordered, start=1):
            ranks[m].append(position)
        first_places[ordered[0]] += 1
    mean_ranks = {m: float(np.mean(ranks[m])) for m in models}
    return RankingReport(mean_ranks=mean_ranks, first_places=first_places,
                         tied_series=tied)


# -- pairing forecasts with stored actuals ---------------------------------


def day_actual(series: HourlySeries, day: dt.date) -> np.ndarray | None:
    """The day's 24 stored values, or None if absent or incomplete."""
    try:
        return series.window(series.day_start_index(day), HOURS_PER_DAY)
    except IncompleteHistoryError:
        return None


def sort_records(records) -> list[ForecastRecord]:
    return sorted(records, key=lambda r: (r.series_id, r.target_date))


def _scored(records, series_by_id: dict[str, HourlySeries]):
    """(record, stored actual) in series and date order, for the records
    whose day has a complete stored actual: :func:`day_actual` of every
    record, with one :meth:`HourlySeries.windows` call per series."""
    for sid, group in groupby(sort_records(records), lambda r: r.series_id):
        group, series = list(group), series_by_id[sid]
        days = np.array([r.target_date.toordinal() for r in group])
        stored, actuals = series.windows(series.day_start_index(days),
                                         HOURS_PER_DAY)
        yield from zip(compress(group, stored), actuals)


class NoActualsError(ValueError):
    """None of the records to score has a complete stored actual."""


def collect_pairs(records, series_by_id: dict[str, HourlySeries]):
    """Flatten records into aligned hourly arrays, skipping days without a
    complete stored actual.  Returns (actual, point, lower, upper)."""
    days = [(actual, rec.point, rec.lower, rec.upper)
            for rec, actual in _scored(records, series_by_id)]
    if not days:
        raise NoActualsError("no records with complete actuals to evaluate")
    return tuple(np.concatenate(column) for column in zip(*days))


def daily_loss_series(records, series_by_id: dict[str, HourlySeries]):
    """Mean absolute error per calendar day, averaged across series.

    Returns (sorted dates, losses) for the predictive-ability test; days
    without any complete actual are dropped.
    """
    pairs = list(_scored(records, series_by_id))
    errors = np.reshape([a - r.point for r, a in pairs], (-1, HOURS_PER_DAY))
    by_date: dict[dt.date, list] = {}
    for (rec, _), loss in zip(pairs, np.abs(errors).mean(axis=1)):
        by_date.setdefault(rec.target_date, []).append(loss)
    dates = sorted(by_date)
    return dates, np.array([np.mean(by_date[d]) for d in dates])


def evaluate_forecasts(records, series_by_id: dict[str, HourlySeries],
                       alpha: float = 0.1) -> MetricsReport:
    """Full metric report over all records with complete actuals."""
    actual, point, lower, upper = collect_pairs(records, series_by_id)
    pim = pi_metrics(actual, lower, upper, alpha,
                     mean_test_load=float(np.mean(actual)))
    return MetricsReport(**asdict(point_metrics(actual, point)), **asdict(pim),
                         n_hours=actual.size,
                         n_days=actual.size // HOURS_PER_DAY)


def summarize(reports) -> MetricsReport:
    """Float metrics averaged over ``reports``, integer counts summed."""
    merged = {}
    for name, tp in _METRIC_TYPES.items():
        values = [getattr(r, name) for r in reports]
        merged[name] = (int(sum(values)) if tp is int
                        else float(np.mean(values)))
    return MetricsReport(**merged)


# -- the evaluation report -------------------------------------------------


@dataclass(frozen=True)
class ModelScores:
    summary: MetricsReport  # floats averaged over series, counts summed
    per_series: dict[str, MetricsReport]


@dataclass(frozen=True)
class EvaluationReport:
    """Scores of several models over one test range, laid out as
    ``report.json``; models keep the order given to :func:`build_report`."""

    alpha: float
    test_range: tuple[dt.date, dt.date]
    models: dict[str, ModelScores]
    gw: GWMatrix
    ranking_by_mape: RankingReport | None  # given two or more models

    def summary_lines(self) -> list[str]:
        return [f"{label}: MAPE {m.summary.mape:.3f}  "
                f"RMSE {m.summary.rmse:.1f}  in-PI {m.summary.pi_in:.1f}%  "
                f"Winkler {m.summary.winkler_normalized:.4f}"
                for label, m in self.models.items()]


def build_report(records: dict, series_by_id: dict[str, HourlySeries],
                 alpha: float, test_range) -> EvaluationReport:
    """Score each model's forecasts (``records`` maps a label to them) per
    series, average over series, and compare the models pairwise.  Series
    without a complete stored actual in the range are left out; a model
    with none left is a LoadcastError."""
    models, losses = {}, {}
    for label, recs in records.items():
        scores = {}
        for sid, group in groupby(sort_records(recs), lambda r: r.series_id):
            try:
                scores[sid] = evaluate_forecasts(list(group), series_by_id,
                                                 alpha)
            except NoActualsError:
                continue
        if not scores:
            raise LoadcastError(f"model {label!r}: no forecastable days with "
                                "stored actuals in the test range")
        models[label] = ModelScores(summarize(scores.values()), scores)
        losses[label] = dict(zip(*daily_loss_series(recs, series_by_id)))
    mapes = {label: {sid: r.mape for sid, r in m.per_series.items()}
             for label, m in models.items()}
    ranking = rank_models(mapes) if len(models) > 1 else None
    return EvaluationReport(alpha, tuple(test_range), models,
                            gw_matrix(losses), ranking)


def write_csv(path, header, rows):
    """Write ``header`` and then ``rows`` to the CSV file ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: EvaluationReport, out_dir):
    """Write ``table1.csv`` (point metrics per model), ``table2.csv``
    (interval metrics), ``per_series.csv``, ``gw_matrix.csv`` and the full
    ``report.json`` into ``out_dir``; CSV floats are written by ``repr``
    (``nan``, ``inf``), and ``report.json`` is strict JSON, a non-finite
    float in it ``null``.

    The five files replace any previous report together, once all of them
    are written (:func:`~loadcast.files.replacing`)."""
    os.makedirs(out_dir, exist_ok=True)
    names = ("table1.csv", "table2.csv", "per_series.csv", "gw_matrix.csv",
             "report.json")
    with replacing(*(os.path.join(out_dir, n) for n in names)) as tmps:
        table1, table2, per_series, gw, report_json = tmps
        for path, cls, header in ((table1, PointMetrics, TABLE1_COLUMNS),
                                  (table2, PiMetrics, TABLE2_COLUMNS)):
            write_csv(path, header,
                      [[label] + [repr(getattr(m.summary, f.name))
                                  for f in _table_fields(cls)]
                       for label, m in report.models.items()])
        columns = [f.name for f in fields(MetricsReport)
                   if "column" in f.metadata]
        write_csv(per_series, ["model", "series", *columns],
                  [[label, sid] + [repr(getattr(r, name)) for name in columns]
                   for label, m in report.models.items()
                   for sid, r in m.per_series.items()])
        write_csv(gw, ["model", *report.gw.matrix],
                  [[row] + [repr(p) for p in ps.values()]
                   for row, ps in report.gw.matrix.items()])
        payload = {key: value for key, value in asdict(report).items()
                   if value is not None}
        # the tokens json writes for non-finite floats become null
        payload = json.loads(json.dumps(payload, default=dt.date.isoformat),
                             parse_constant=lambda _: None)
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
