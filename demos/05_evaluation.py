"""
Comparing forecasters: metrics, intervals, and a significance test
==================================================================

The evaluation suite judges point accuracy (MAPE, MdAPE, IqrAPE, RMSE, MPE,
StdPE), interval quality (coverage triple and the normalized Winkler
score), and whether one model's daily losses are significantly smaller
than another's.  Here two cheap forecasters play the models: the
seasonal-naive rule (same hour last week) and a smoothed version that
averages each lagged hour with its neighbours, which keeps the smooth
seasonal shape but removes a third of the noise variance.
"""

import datetime as dt

import numpy as np

from loadcast import (
    ForecastRecord,
    evaluate_forecasts,
    gw_test,
    rank_models,
    synthetic_store,
)
from loadcast.evaluation import daily_loss_series

store = synthetic_store(n_series=3, days=150, start=dt.date(2024, 1, 1),
                        seed=5)
series = [store.get(sid) for sid in store.series_ids]
series_by_id = {s.series_id: s for s in series}

first, last = dt.date(2024, 2, 1), dt.date(2024, 5, 20)


def weekly_lag_records(s, smooth, label):
    records = []
    day = first
    while day <= last:
        start = s.day_start_index(day)
        if smooth:
            padded = s.window(start - 169, 26)  # one spare hour on each side
            point = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
        else:
            point = s.window(start - 168, 24)
        # spread the band by the error the rule itself made one week earlier
        residual = s.window(start - 168, 168) - s.window(start - 336, 168)
        spread = 1.645 * float(np.std(residual))
        records.append(ForecastRecord(
            series_id=s.series_id, target_date=day, point=point,
            lower=point - spread, upper=point + spread, model=label))
        day += dt.timedelta(days=1)
    return records


models = {"naive": False, "smoothed": True}
records = {label: [r for s in series
                   for r in weekly_lag_records(s, smooth, label)]
           for label, smooth in models.items()}

print(f"{'model':9s} {'MAPE':>7s} {'RMSE':>8s} {'in-PI':>7s} {'Winkler':>9s}")
mapes = {}
for label in models:
    per_series = {}
    for s in series:
        recs = [r for r in records[label] if r.series_id == s.series_id]
        per_series[s.series_id] = evaluate_forecasts(recs, series_by_id)
    mapes[label] = {sid: rep.mape for sid, rep in per_series.items()}
    mean = lambda attr: np.mean([getattr(r, attr) for r in per_series.values()])
    print(f"{label:9s} {mean('mape'):7.3f} {mean('rmse'):8.1f} "
          f"{mean('pi_in'):6.1f}% {mean('winkler_normalized'):9.4f}")

# rank by MAPE per series: smoothing should win on every series
ranking = rank_models(mapes)
print(f"\nmean ranks: { {m: round(r, 2) for m, r in ranking.mean_ranks.items()} }")
print(f"first places: {ranking.first_places}")

# is the improvement statistically significant?  Compare daily losses.
days_a, loss_a = daily_loss_series(records["smoothed"], series_by_id)
days_b, loss_b = daily_loss_series(records["naive"], series_by_id)
assert days_a == days_b
result = gw_test(np.array(loss_a), np.array(loss_b))
print(f"\npredictive-ability test over {result.n} days: "
      f"p = {result.p_value:.2e} that the smoothed rule is more accurate")
print("(small p: the improvement is systematic, not day-to-day luck)")
