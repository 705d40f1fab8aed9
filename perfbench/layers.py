"""Per-layer trace: wrappers around the public functions of each module.

``Tracer.install`` swaps every traced function for a timing wrapper in
every loaded ``larvaecast`` module namespace (so names bound with
``from .x import y`` are covered too), and ``uninstall`` puts the
originals back. Times and call counts accumulate in the tracer;
``layer_metrics`` turns them into the per-layer figures, per round.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

from larvaecast import cli, ingest, lstm, nn, optim, pipeline, serialize

# The package re-exports the function forecast(), which hides the module.
forecast = importlib.import_module("larvaecast.forecast")

STAGES = {
    "cmd_prepare": "prepare",
    "cmd_train_abundance": "train_abundance",
    "cmd_train_climate": "train_climate",
    "cmd_forecast": "forecast",
    "cmd_project": "project",
    "cmd_report": "report",
}
SERIALIZE_LOADS = (
    "load_document", "loads", "deserialize_network", "deserialize_lstm",
    "scalers_from_document", "offsets_from_document", "linear_from_document",
)
# cmd_train_climate trains one LSTM per variable, in this order.
LSTM_VARIABLES = pipeline.FORECAST_VARIABLES


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.epochs: dict[str, list[int]] = defaultdict(list)
        self._context: list[str] = []
        self._serialize_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _timed(self, fn, key, context=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key(args, kwargs) if callable(key) else key
            if context:
                self._context.append(context)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1
                if context:
                    self._context.pop()
        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _serialize_load(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._serialize_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._serialize_depth -= 1
                if self._serialize_depth == 0:
                    self.seconds["serialize.load"] += time.perf_counter() - start
        return wrapper

    def _trainer(self, fn, family, backward_key, rows):
        timed = self._timed(fn, f"{family}.train", context=family)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls[backward_key]
            try:
                return timed(*args, **kwargs)
            finally:
                cfg = args[1] if family == "lstm" else args[2]
                per_epoch = math.ceil(rows(args) / cfg.batch_size)
                self.epochs[family].append((self.calls[backward_key] - before) // per_epoch)
        return wrapper

    # -- installation ------------------------------------------------------

    def _wrappers(self) -> dict:
        def by_mode(prefix):  # mode is the third parameter of both forward passes
            return lambda a, k: f"{prefix}.{k.get('mode', a[2] if len(a) > 2 else 'eval')}"

        out = {
            cli.main: self._timed(cli.main, "cli.main"),
            ingest.parse_observations: self._timed(ingest.parse_observations, "ingest.parse_observations"),
            ingest.parse_stations: self._timed(ingest.parse_stations, "ingest.parse_stations"),
            ingest.parse_series: self._timed(ingest.parse_series, "ingest.parse_series"),
            ingest.merge_duplicates: self._timed(ingest.merge_duplicates, "ingest.merge"),
            ingest.join_nearest_station: self._timed(ingest.join_nearest_station, "ingest.join"),
            ingest.haversine_km: self._counted(ingest.haversine_km, "ingest.haversine"),
            lstm.lstm_forward: self._timed(lstm.lstm_forward, by_mode("lstm.forward")),
            lstm.lstm_backward: self._timed(lstm.lstm_backward, "lstm.backward"),
            lstm.train_lstm: self._trainer(lstm.train_lstm, "lstm", "lstm.backward",
                                           lambda a: len(a[0])),
            nn.forward: self._timed(nn.forward, by_mode("nn.forward")),
            nn.backward: self._timed(nn.backward, "nn.backward"),
            nn.train_abundance: self._trainer(nn.train_abundance, "dense", "nn.backward",
                                              lambda a: len(a[0])),
            optim.adam_step: self._timed(
                optim.adam_step,
                lambda a, k: "optim.adam." + ("lstm" if "lstm" in self._context else "dense")),
            forecast.forecast_series: self._timed(forecast.forecast_series, "forecast.series",
                                                  context="forecast"),
            pipeline.predict_log_abundance: self._timed(pipeline.predict_log_abundance,
                                                        "nn.eval"),
        }
        for name, stage in STAGES.items():
            fn = getattr(pipeline, name)
            out[fn] = self._timed(fn, f"stage.{stage}", context=stage)
        for name in SERIALIZE_LOADS:
            fn = getattr(serialize, name)
            out[fn] = self._serialize_load(fn)
        return out

    def install(self) -> "Tracer":
        wrappers = self._wrappers()
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("larvaecast") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- raw state, mergeable across processes ------------------------------

    def state(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "epochs": dict(self.epochs)}

    def merge(self, state: dict) -> None:
        for k, v in state["seconds"].items():
            self.seconds[k] += v
        for k, v in state["calls"].items():
            self.calls[k] += v
        for k, v in state["epochs"].items():
            self.epochs[k].extend(v)


def _per_call(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, rounds: int, import_s: float, overhead_s: float,
                  artifact_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for ``rounds`` traced rounds; stage times, call
    counts and load times are per round, per-call costs are means."""
    s, n = tracer.seconds, tracer.calls
    out: dict[str, tuple[float, str]] = {"cli.import_s": (import_s, "s")}
    for stage in STAGES.values():
        out[f"stage.{stage}_s"] = (s[f"stage.{stage}"] / rounds, "s")

    lstm_fb = s["lstm.forward.train"] + s["lstm.backward"]
    lstm_epochs = tracer.epochs.get("lstm", [])
    out["lstm.train_fwd_bwd_ms"] = (_per_call(lstm_fb, n["lstm.backward"], 1e3), "ms")
    out["lstm.s_per_epoch"] = (_per_call(s["lstm.train"], sum(lstm_epochs), 1.0), "s")
    for i, variable in enumerate(LSTM_VARIABLES):
        out[f"lstm.epochs.{variable}"] = (lstm_epochs[i] if i < len(lstm_epochs) else 0, "count")
    out["lstm.eval_fwd_us"] = (_per_call(s["lstm.forward.eval"], n["lstm.forward.eval"], 1e6), "us")
    out["forecast.series_ms"] = (_per_call(s["forecast.series"], n["forecast.series"], 1e3), "ms")
    out["forecast.predict_calls"] = (n["lstm.forward.eval"] // rounds, "count")

    dense_epochs = tracer.epochs.get("dense", [])
    out["nn.train_fwd_bwd_us"] = (
        _per_call(s["nn.forward.train"] + s["nn.backward"], n["nn.backward"], 1e6), "us")
    out["nn.s_per_epoch"] = (_per_call(s["dense.train"], sum(dense_epochs), 1.0), "s")
    out["nn.epochs"] = (dense_epochs[0] if dense_epochs else 0, "count")
    out["nn.eval_calls"] = (n["nn.eval"] // rounds, "count")
    out["nn.eval_us"] = (_per_call(s["nn.eval"], n["nn.eval"], 1e6), "us")

    out["optim.adam_step_us.lstm"] = (_per_call(s["optim.adam.lstm"], n["optim.adam.lstm"], 1e6), "us")
    out["optim.adam_step_us.dense"] = (_per_call(s["optim.adam.dense"], n["optim.adam.dense"], 1e6), "us")
    out["optim.adam_calls"] = ((n["optim.adam.lstm"] + n["optim.adam.dense"]) // rounds, "count")
    climate = s["stage.train_climate"]
    share = lambda part: 100.0 * part / climate if climate else 0.0
    out["stage.train_climate.fwd_bwd_pct"] = (share(lstm_fb), "%")
    out["stage.train_climate.adam_pct"] = (share(s["optim.adam.lstm"]), "%")
    out["stage.train_climate.other_pct"] = (
        share(climate - lstm_fb - s["optim.adam.lstm"]) if climate else 0.0, "%")

    for key, name in (("parse_observations", "parse_observations_s"),
                      ("parse_stations", "parse_stations_s"), ("merge", "merge_s"),
                      ("join", "join_s"), ("parse_series", "parse_series_s")):
        out[f"ingest.{name}"] = (s[f"ingest.{key}"] / rounds, "s")
    out["ingest.haversine_calls"] = (n["ingest.haversine"] // rounds, "count")
    out["serialize.load_ms"] = (s["serialize.load"] / rounds * 1e3, "ms")
    out["serialize.artifact_bytes"] = (artifact_bytes, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
