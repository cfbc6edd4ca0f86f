"""Per-layer tracing from outside the program.

The traced run rebinds the public functions of each package module, in this
process, to wrappers that record a span per call: the hook's name, the
outermost enclosing hook of the same layer, and the call's self time (its
duration minus the time covered by hooked callees).  Self times partition
the timed region, so per-layer sums never count a second twice.  A hooked
call nested inside another hook of the same layer gives its self time to
that outer hook: the week standardizations inside ``build_training_set``
count as sample building, and the ``model_step`` calls inside
``model_unroll`` count as the training forward.

Layer-to-metric map.  Each per-layer metric, and the end-to-end metric it
should move on the named workloads (``days_per_s`` is the end-to-end
throughput; ``setup_s`` the set-up time):

====================================  ===========================  ==========
metric                                moves                        workloads
====================================  ===========================  ==========
preprocess.build_training_set_s       days_per_s (small share)     train-*
preprocess.input_builds_per_day       days_per_s                   evaluate
preprocess.week_standardizations_     days_per_s (exposes the      evaluate
per_day                               double standardization)
preprocess.input_s                    days_per_s                   evaluate
network.forward_s (model_unroll)      days_per_s                   train-*
network.step_s (model_step)           days_per_s                   evaluate
network.steps_per_forecast_day        days_per_s (warm-up waste)   evaluate
network.embed_head_self_s             days_per_s                   all
cells.layer1_s/layer2_s/layer3_s      days_per_s                   all
cells.<variant>.ms_per_sample         days_per_s                   train-*
tape.backward_s, tape.nodes_per_      days_per_s, mostly on        train-*
sample                                train-desk
tape.leaf_registrations_per_step      days_per_s (fingerprinting)  all
loss.s                                days_per_s                   train-*
training.clip_adam_s, .updates        days_per_s (larger share     train-*
                                      on train-full)
training.forecast_days_per_s,         days_per_s                   evaluate
.forecast_yield
serialize.load_ensemble_s             days_per_s                   evaluate
dataset.load_store_s                  days_per_s                   evaluate
serialize.save_ensemble_s             setup_s                      evaluate
evaluation.metrics_s                  days_per_s (small share)     evaluate
cli.report_self_s                     days_per_s (small share)     evaluate
process.cpu_s / process.wall_s        wall well above cpu marks a  all
                                      run disturbed by the host
trace.overhead_s                      none: traced minus untraced  all
                                      wall seconds of a pass
host.reference_s                      none: the host's speed, as   all
                                      the reference loop's seconds
====================================  ===========================  ==========

A metric whose layer does not run on a workload reads 0 there, and only
there: every hook names the workloads on which it must fire, and a hook
whose target no longer exists, or that did not fire where it must, is
reported by name as a failed check rather than read as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

TRAIN = frozenset({"train-desk", "train-full"})
EVAL = frozenset({"evaluate"})
ALL = TRAIN | EVAL


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str  # "function" or "Class.method"
    fires_on: frozenset

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("preprocess", "loadcast.preprocess", "build_training_set", TRAIN),
    Hook("preprocess", "loadcast.preprocess", "build_extended_input", EVAL),
    Hook("preprocess", "loadcast.preprocess", "standardize_week", ALL),
    Hook("network", "loadcast.network", "model_unroll", TRAIN),
    Hook("network", "loadcast.network", "model_step", ALL),
    Hook("cells", "loadcast.cells", "cell_step", ALL),
    Hook("tape", "loadcast.tape", "Tape.backward", TRAIN),
    Hook("tape", "loadcast.tape", "Tape.leaf", ALL),
    Hook("loss", "loadcast.loss", "composite_loss", TRAIN),
    Hook("loss", "loadcast.loss", "composite_loss_grad", TRAIN),
    Hook("training", "loadcast.training", "clip_global_norm", TRAIN),
    Hook("training", "loadcast.training", "Adam.step", TRAIN),
    Hook("training", "loadcast.training", "forecast_range", EVAL),
    Hook("serialize", "loadcast.serialize", "load_ensemble", EVAL),
    Hook("dataset", "loadcast.dataset", "load_store", EVAL),
    Hook("evaluation", "loadcast.evaluation", "evaluate_forecasts", EVAL),
    Hook("evaluation", "loadcast.evaluation", "daily_loss_series", EVAL),
    Hook("evaluation", "loadcast.evaluation", "gw_test", EVAL),
    Hook("cli", "loadcast.cli", "cmd_evaluate", EVAL),
)

VARIANTS = ("adrnn", "dlstm", "drnn", "gru1", "gru2", "lstm1", "lstm2")

#: every per-layer metric with its unit, in output order
PER_LAYER_UNITS = {
    "preprocess.build_training_set_s": "s",
    "preprocess.input_builds_per_day": "count/day",
    "preprocess.week_standardizations_per_day": "count/day",
    "preprocess.input_s": "s",
    "network.forward_s": "s",
    "network.step_s": "s",
    "network.steps_per_forecast_day": "count/day",
    "network.embed_head_self_s": "s",
    "cells.layer1_s": "s",
    "cells.layer2_s": "s",
    "cells.layer3_s": "s",
    **{f"cells.{v}.ms_per_sample": "ms" for v in VARIANTS},
    "tape.backward_s": "s",
    "tape.nodes_per_sample": "count/sample",
    "tape.leaf_registrations_per_step": "count/step",
    "loss.s": "s",
    "training.clip_adam_s": "s",
    "training.updates": "count",
    "training.forecast_days_per_s": "1/s",
    "training.forecast_yield": "ratio",
    "serialize.load_ensemble_s": "s",
    "serialize.save_ensemble_s": "s",
    "dataset.load_store_s": "s",
    "evaluation.metrics_s": "s",
    "cli.report_self_s": "s",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}


class Recorder:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.stack = []  # open frames: [key, layer, child seconds]
        self.calls = Counter()  # (hook key, owner) -> calls
        self.self_s = defaultdict(float)  # (hook key, owner) -> self seconds
        self.incl_s = defaultdict(float)  # hook key -> inclusive seconds
        self.counts = Counter()  # named event counts
        self.fired = Counter()  # hook attr -> calls, however keyed

    def owner(self, layer: str):
        """Outermost open hook of ``layer``, or None."""
        for key, frame_layer, _ in self.stack:
            if frame_layer == layer:
                return key
        return None

    def busy(self, key: str) -> float:
        """Self seconds owned by ``key``: its own calls outside any other
        hook of its layer, plus same-layer hooks nested in it."""
        return sum(s for (k, owner), s in self.self_s.items()
                   if (owner or k) == key)

    def self_time(self, key: str) -> float:
        return sum(s for (k, _), s in self.self_s.items() if k == key)

    def ncalls(self, key: str) -> int:
        return sum(n for (k, _), n in self.calls.items() if k == key)


def _span(rec: Recorder, hook: Hook, fn, key_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.fired[hook.attr] += 1
        key = key_of(args, kwargs) if key_of else hook.attr
        owner = rec.owner(hook.layer)
        frame = [key, hook.layer, 0.0]
        rec.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            rec.stack.pop()
            rec.calls[key, owner] += 1
            rec.self_s[key, owner] += dur - frame[2]
            rec.incl_s[key] += dur
            if rec.stack:
                rec.stack[-1][2] += dur
    return wrapper


def _wrap(rec: Recorder, hook: Hook, fn):
    """The wrapper for one hook, with the counts that hook carries."""
    if hook.attr == "cell_step":
        # key each call by its dilation, which names the layer of the stack
        return _span(rec, hook, fn, lambda a, k: "cell_step@d%d"
                     % (a[3] if len(a) > 3 else k["dilation"]))
    if hook.attr == "Tape.leaf":
        # counted, not timed: a span per leaf would cost more than the call
        @functools.wraps(fn)
        def leaf(tape, *args, **kwargs):
            rec.fired[hook.attr] += 1
            before = len(tape)
            try:
                return fn(tape, *args, **kwargs)
            finally:
                rec.counts["leaf_registrations"] += len(tape) - before
        return leaf
    if hook.attr == "Tape.backward":
        inner = _span(rec, hook, fn)

        @functools.wraps(fn)
        def backward(tape, *args, **kwargs):
            rec.counts["tape_nodes"] += len(tape)
            return inner(tape, *args, **kwargs)
        return backward
    if hook.attr == "forecast_range":
        inner = _span(rec, hook, fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def forecast_range(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            records = inner(*args, **kwargs)
            rec.counts["forecast_days"] += len(records)
            rec.counts["range_days"] += (
                bound["last_date"] - bound["first_date"]).days + 1
            return records
        return forecast_range
    return _span(rec, hook, fn)


class Tracer:
    """Installs every hook while active; restores the program on exit."""

    def __init__(self):
        self.rec = Recorder()
        self.missing = []
        self._undo = []

    def __enter__(self):
        for hook in HOOKS:
            try:
                self._install(hook)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(hook.name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, hook: Hook):
        module = importlib.import_module(hook.module)
        if "." in hook.attr:
            cls_name, meth = hook.attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[meth]
            self._rebind(cls, meth, _wrap(self.rec, hook, original))
            return
        original = getattr(module, hook.attr)
        wrapper = _wrap(self.rec, hook, original)
        # the package imports names across modules; rebind every binding
        for name, mod in list(sys.modules.items()):
            if name == "loadcast" or name.startswith("loadcast."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def problems(self, workload: str, days: int) -> list:
        """Missing hooks, hooks that did not fire on ``workload``, and on
        evaluate a forecast count other than the ``days`` the data implies."""
        out = [f"hook {h} is missing" for h in self.missing]
        out += [f"hook {h} did not fire" for h in self.unfired(workload)]
        made = self.rec.counts["forecast_days"]
        if workload in EVAL and made != days:
            out.append(f"forecast_range made {made} forecasts, the data "
                       f"implies {days}")
        return out

    def unfired(self, workload: str) -> list:
        """Hooks that must fire on ``workload`` but recorded no call."""
        return [h.name for h in HOOKS
                if workload in h.fires_on and h.name not in self.missing
                and not self.rec.fired[h.attr]]


def layer_metrics(rec: Recorder, samples: int) -> dict:
    """Per-layer values of one traced pass (times in seconds per pass)."""
    from loadcast.network import DILATIONS
    days = rec.counts["forecast_days"]
    steps = rec.ncalls("model_step")

    def per(n, base):
        return n / base if base else 0.0

    m = {
        "preprocess.build_training_set_s": rec.busy("build_training_set"),
        "preprocess.input_builds_per_day":
            per(rec.ncalls("build_extended_input"), days),
        "preprocess.week_standardizations_per_day":
            per(rec.ncalls("standardize_week"), days),
        "preprocess.input_s": (rec.busy("build_extended_input")
                               + rec.busy("standardize_week")),
        "network.forward_s": rec.busy("model_unroll"),
        "network.step_s": rec.busy("model_step"),
        "network.steps_per_forecast_day": per(steps, days),
        "network.embed_head_self_s": rec.self_time("model_step"),
        "tape.backward_s": rec.busy("Tape.backward"),
        "tape.nodes_per_sample": per(rec.counts["tape_nodes"], samples),
        "tape.leaf_registrations_per_step":
            per(rec.counts["leaf_registrations"], steps),
        "loss.s": rec.busy("composite_loss") + rec.busy("composite_loss_grad"),
        "training.clip_adam_s": (rec.busy("clip_global_norm")
                                 + rec.busy("Adam.step")),
        "training.updates": rec.ncalls("Adam.step"),
        "training.forecast_days_per_s":
            per(days, rec.incl_s["forecast_range"]),
        "training.forecast_yield": per(days, rec.counts["range_days"]),
        "serialize.load_ensemble_s": rec.busy("load_ensemble"),
        "dataset.load_store_s": rec.busy("load_store"),
        "evaluation.metrics_s": sum(rec.busy(k) for k in (
            "evaluate_forecasts", "daily_loss_series", "gw_test")),
        "cli.report_self_s": rec.busy("cmd_evaluate"),
    }
    for i, d in enumerate(DILATIONS, start=1):
        m[f"cells.layer{i}_s"] = rec.busy(f"cell_step@d{d}")
    return m


#: per-layer metrics that are counts: they must repeat exactly across passes
COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items()
                      if u.startswith("count") or u == "ratio")
