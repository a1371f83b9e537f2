"""Reduces the raw samples and spans of one benchmark process to metrics.

Pure functions over plain data, so they can be tested without a build:
percentiles with the ten-samples-beyond rule, span self times, per-layer
tables, and the end-to-end and per-layer metric sets named in
BENCHMARK.json.
"""

import json
import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise it is withheld (None).
MIN_BEYOND = 10


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`, or None when
    fewer than `min_beyond` samples rank above it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))  # 1-based rank of the quantile
    if n - rank < min_beyond:
        return None
    return xs[rank - 1]


def sliced_percentile(samples, q, slices=8, min_beyond=MIN_BEYOND):
    """Median, over consecutive equal slices of `samples` (kept in the
    order they were recorded), of each slice's q-quantile. The run is cut
    into as many slices as `slices` allows while every slice's quantile
    stays reportable, so a slow spell of the host that covers less than
    half the run does not move the figure; with one slice this is
    percentile(). None when even the whole series is too short."""
    n = len(samples)
    for k in range(max(1, min(slices, n)), 0, -1):
        parts = [samples[i * n // k:(i + 1) * n // k] for i in range(k)]
        values = [percentile(p, q, min_beyond) for p in parts]
        if all(v is not None for v in values):
            return statistics.median(values)
    return None


def self_times(spans):
    """Self time of every span: its duration minus its children's
    durations. `spans` is a list of dicts with `start_ns`, `end_ns` and
    `parent` (an index into the list, -1 for a root). The benchmark's
    single-threaded tracer nests children strictly inside their parent,
    one after another. Returns a list parallel to `spans`."""
    out = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


def load_chrome_trace(path):
    """Spans from a trace written by the benchmark (Chrome trace-event
    JSON whose args carry exact nanosecond stamps and parent links)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [None] * len(events)
    for e in events:
        a = e["args"]
        spans[a["span"]] = {"name": e["name"], "start_ns": a["start_ns"],
                            "end_ns": a["end_ns"], "parent": a["parent"],
                            "id": a["id"]}
    return spans


def span_table(spans):
    """Per span name: call count, total self ms, mean/P50/P99 self ms
    (percentiles withheld under the ten-beyond rule), total wall ms."""
    selfs = self_times(spans)
    by_name = {}
    for s, self_ns in zip(spans, selfs):
        row = by_name.setdefault(s["name"], {"self": [], "wall_ns": 0})
        row["self"].append(self_ns / 1e6)
        row["wall_ns"] += s["end_ns"] - s["start_ns"]
    table = {}
    for name, row in by_name.items():
        xs = row["self"]
        table[name] = {
            "layer": name.split(".")[0],
            "calls": len(xs),
            "self_ms": sum(xs),
            "mean_ms": sum(xs) / len(xs),
            "p50_ms": percentile(xs, 0.50),
            "p99_ms": percentile(xs, 0.99),
            "wall_ms": row["wall_ns"] / 1e6,
        }
    return table


def layer_totals(table):
    """Total self ms per layer (the part of the span name before '.')."""
    totals = {}
    for row in table.values():
        totals[row["layer"]] = totals.get(row["layer"], 0.0) + row["self_ms"]
    return totals


# --- metric sets ------------------------------------------------------------

# (name, unit, how): how is ("median", series), ("value", key),
# ("percentile", series, q) (sliced_percentile over the run) or
# ("setup",).
END_TO_END = [
    ("frames_per_s", "frames/s", ("median", "frames_per_s")),
    ("lookat_cell_accuracy", "fraction", ("value", "lookat_cell_accuracy")),
    ("commit_gap_p50_ms", "ms", ("percentile", "commit_gap_ms", 0.50)),
    ("commit_gap_p99_ms", "ms", ("percentile", "commit_gap_ms", 0.99)),
    ("queries_per_s", "1/s", ("median", "queries_per_s")),
    ("query_p50_ms", "ms", ("percentile", "query_ms", 0.50)),
    ("query_p99_ms", "ms", ("percentile", "query_ms", 0.99)),
    ("setup_s", "s", ("setup",)),
]

# (name, unit, how): ("span", span name, scale from ms) is the mean self
# time per call; ("per", span name, value key, scale from ms) is total
# self time divided by a counted value; ("median", series);
# ("mean", series); ("value", key); ("coverage",); ("replay_vs_run",).
PER_LAYER = [
    ("render.view_ms", "ms", ("span", "render.view", 1.0)),
    ("video.signature_ms", "ms", ("span", "video.signature", 1.0)),
    ("video.parse_ms", "ms", ("span", "video.parse", 1.0)),
    ("vision.camera_ms", "ms", ("span", "vision.camera", 1.0)),
    ("ml.emotion_us", "us", ("span", "ml.emotion", 1e3)),
    ("core.commit_us", "us", ("span", "core.commit", 1e3)),
    ("metadata.repo_write_us", "us", ("span", "metadata.repo_write", 1e3)),
    ("vision.faces_per_view", "count", ("value", "vision.faces_per_view")),
    ("trace.coverage", "fraction", ("coverage",)),
    ("trace.replay_vs_run", "ratio", ("replay_vs_run",)),
    ("fleet.queue_wait_ms", "ms", ("median", "fleet.queue_wait_ms")),
    ("fleet.attempt_ms", "ms", ("median", "fleet.attempt_ms")),
    ("fleet.runner_busy_ratio", "fraction",
     ("value", "fleet.runner_busy_ratio")),
    ("fleet.attempts_per_job", "count", ("value", "fleet.attempts_per_job")),
    ("core.gt_frame_us", "us",
     ("per", "core.gt_run", "fleet.replay_frames", 1e3)),
    ("metadata.append_us", "us", ("span", "metadata.append", 1e3)),
    ("metadata.checkpoint_ms", "ms", ("span", "metadata.checkpoint", 1.0)),
    ("metadata.register_ms", "ms", ("span", "metadata.register", 1.0)),
    ("io.journal_bytes_per_frame", "bytes",
     ("value", "io.journal_bytes_per_frame")),
    ("io.journal_records_per_frame", "count",
     ("value", "io.journal_records_per_frame")),
    ("metadata.corpus_open_ms", "ms", ("span", "metadata.corpus_open", 1.0)),
    ("metadata.query_parse_us", "us",
     ("span", "metadata.query_parse", 1e3)),
    ("metadata.shard_load_ms", "ms", ("span", "metadata.shard_load", 1.0)),
    ("metadata.query_eval_ms", "ms", ("span", "metadata.query_eval", 1.0)),
    ("metadata.shards_opened", "count", ("mean", "metadata.shards_opened")),
    ("metadata.matched_frames", "count",
     ("mean", "metadata.matched_frames")),
    ("metadata.prune_ratio", "fraction", ("value", "metadata.prune_ratio")),
]


def end_to_end(raw):
    """{name: (value or None, unit, sample count)} for every end-to-end
    metric, from the raw JSON of an untraced run."""
    out = {}
    for name, unit, how in END_TO_END:
        if how[0] == "setup":
            xs = raw["setup_s"]
            out[name] = (statistics.median(xs) if xs else None, unit, len(xs))
        elif how[0] == "value":
            v = raw["values"].get(how[1])
            out[name] = (v, unit, 1 if v is not None else 0)
        else:
            xs = raw["series"].get(how[1], [])
            if how[0] == "median":
                v = statistics.median(xs) if xs else None
            else:
                v = sliced_percentile(xs, how[2])
            out[name] = (v, unit, len(xs))
    return out


def per_layer(raw, table):
    """{name: (value or None, unit, sample count)} for every per-layer
    metric, from a traced run's raw JSON and its span table."""
    values, series = raw["values"], raw["series"]
    out = {}
    for name, unit, how in PER_LAYER:
        kind = how[0]
        v, n = None, 0
        if kind == "span" and how[1] in table:
            row = table[how[1]]
            v, n = row["mean_ms"] * how[2], row["calls"]
        elif kind == "per" and how[1] in table and values.get(how[2]):
            v = table[how[1]]["self_ms"] * how[3] / values[how[2]]
            n = int(values[how[2]])
        elif kind in ("median", "mean") and series.get(how[1]):
            xs = series[how[1]]
            v = (statistics.median(xs) if kind == "median"
                 else sum(xs) / len(xs))
            n = len(xs)
        elif kind == "value" and how[1] in values:
            v, n = values[how[1]], 1
        elif kind == "coverage" and "replay.meeting" in table:
            root = table["replay.meeting"]
            v, n = 1.0 - root["self_ms"] / root["wall_ms"], 1
        elif (kind == "replay_vs_run" and "replay.meeting" in table and
              values.get("trace.sequential_run_s")):
            v = (table["replay.meeting"]["wall_ms"] / 1e3 /
                 values["trace.sequential_run_s"])
            n = 1
        out[name] = (v, unit, n)
    return out
