"""Thread-safe metrics: counters, gauges, and latency histograms.

A tiny dependency-free metrics layer in the spirit of the Prometheus
client: the service records per-stage translation latency (building on
:data:`repro.pipeline.STAGES` / :class:`~repro.pipeline.StageTimings`),
cache traffic, queue depth, and batch sizes, and the HTTP layer exposes
the registry both as a Prometheus text exposition and as JSON.

This module is a *foundation* layer: besides serving, the policy
engine, tenancy controller, KB refresher, and cluster supervisor all
record into the same registry, so it must sit below every one of them
in the import layering (see ``analysis-layers.toml``).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.concurrency import make_lock

# Upper bucket bounds in seconds, tuned for interactive NL-to-SQL latency
# (paper Table II reports per-stage times between ~1 ms and ~2 s).
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing value."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0  # guarded by: _lock
        self._lock = make_lock(f"Counter[{name}]")

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (e.g. current queue depth)."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0  # guarded by: _lock
        self._lock = make_lock(f"Gauge[{name}]")

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Buckets are cumulative-style upper bounds (Prometheus ``le``
    semantics); observations above the last bound land in the +Inf
    bucket.  :meth:`quantile` linearly interpolates inside the bucket
    containing the target rank, which is exact enough for p50/p95/p99
    reporting at the bucket resolution used here.
    """

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help_text = help_text
        self.bounds = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.bounds) + 1)  # +Inf last; guarded by: _lock
        self._sum = 0.0  # guarded by: _lock
        self._count = 0  # guarded by: _lock
        self._max = 0.0  # guarded by: _lock
        self._lock = make_lock(f"Histogram[{name}]")

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0 < q <= 1); 0.0 when empty."""
        return quantile_from_snapshot(self.snapshot(), q)

    def snapshot(self) -> dict:
        with self._lock:
            cumulative, buckets = 0, []
            for bound, bucket_count in zip(self.bounds, self._counts):
                cumulative += bucket_count
                buckets.append({"le": bound, "count": cumulative})
            return {
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
                "buckets": buckets,
            }


# --------------------------------------------------------- labeled metrics
#
# Tenancy needs per-tenant series (`tenant_admitted_total{tenant="acme"}`)
# without pulling in a full label system: a *labeled family* is a named
# group of children keyed by one label value.  Snapshots flatten each
# child to a `name{label="value"}` key, which keeps the cluster-side
# machinery working unchanged — `merge_snapshots` sums/merges the flat
# keys across workers exactly like unlabeled metrics.


def series_key(name: str, label: str, value: str) -> str:
    """The flat snapshot key for one child of a labeled family."""
    return f'{name}{{{label}="{value}"}}'


def split_series_key(key: str) -> tuple[str, str]:
    """``(base_name, label_part)``; label part is "" for plain metrics."""
    if "{" not in key:
        return key, ""
    base, rest = key.split("{", 1)
    return base, rest[:-1] if rest.endswith("}") else rest


class _LabeledFamily:
    """Shared plumbing for labeled counters/histograms."""

    def __init__(self, name: str, help_text: str, label: str, factory):
        self.name = name
        self.help_text = help_text
        self.label = label
        self._factory = factory
        self._children: dict[str, object] = {}  # guarded by: _lock
        self._lock = make_lock(f"LabeledFamily[{name}]")

    def labels(self, value: str):
        """Get-or-create the child metric for one label value."""
        value = str(value)
        with self._lock:
            child = self._children.get(value)
            if child is None:
                child = self._factory(series_key(self.name, self.label, value))
                self._children[value] = child
            return child

    def series(self) -> dict[str, object]:
        """Stable copy of ``{label_value: child}``."""
        with self._lock:
            return dict(self._children)


class LabeledCounter(_LabeledFamily):
    """A family of counters keyed by one label (e.g. ``tenant``)."""

    def __init__(self, name: str, help_text: str = "", label: str = "tenant"):
        super().__init__(
            name, help_text, label, lambda series: Counter(series, help_text)
        )


class LabeledHistogram(_LabeledFamily):
    """A family of histograms keyed by one label (e.g. ``tenant``)."""

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label: str = "tenant",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(
            name, help_text, label,
            lambda series: Histogram(series, help_text, buckets),
        )


# ------------------------------------------------- snapshot-level helpers
#
# The cluster supervisor aggregates metrics across worker *processes*, so
# it works on JSON snapshots (what crosses the IPC boundary), not on live
# metric objects.  Snapshots use the shapes produced by
# :meth:`MetricsRegistry.snapshot`: plain numbers for counters/gauges and
# ``{"count", "sum", "max", "buckets": [{"le", "count"}, ...]}`` dicts for
# histograms (bucket counts are cumulative, Prometheus ``le`` semantics).


def quantile_from_snapshot(data: dict, q: float) -> float:
    """Quantile estimate from a histogram *snapshot*: linear interpolation
    within the bucket that holds the target rank, capped at ``max``."""
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    count = data.get("count", 0)
    if not count:
        return 0.0
    target = q * count
    previous = 0
    for index, bucket in enumerate(data.get("buckets", ())):
        cumulative = bucket["count"]
        if cumulative >= target:
            in_bucket = cumulative - previous
            lower = data["buckets"][index - 1]["le"] if index > 0 else 0.0
            upper = bucket["le"]
            if in_bucket == 0:  # pragma: no cover - defensive
                return upper
            fraction = (target - previous) / in_bucket
            return min(lower + fraction * (upper - lower), data.get("max", upper))
        previous = cumulative
    return data.get("max", 0.0)  # target rank lives in the +Inf bucket


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge several registry snapshots into one fleet-wide snapshot.

    Counters and gauges sum (queue depths and in-flight gauges add up
    across workers; that is the fleet-wide reading).  Histograms merge
    exactly: cumulative bucket counts, total count, and sum all add,
    ``max`` takes the max, and p50/p95/p99 are re-estimated from the
    merged buckets.  Metrics occurring with mismatched shapes (number in
    one worker, histogram in another) raise — that is a bug, not noise.
    """
    merged: dict[str, object] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name not in merged:
                if isinstance(value, dict):
                    merged[name] = {
                        "count": value.get("count", 0),
                        "sum": value.get("sum", 0.0),
                        "max": value.get("max", 0.0),
                        "buckets": [dict(b) for b in value.get("buckets", ())],
                    }
                else:
                    merged[name] = float(value)
                continue
            existing = merged[name]
            if isinstance(existing, dict) != isinstance(value, dict):
                raise TypeError(f"metric {name!r} has mismatched kinds across workers")
            if isinstance(existing, dict):
                existing["count"] += value.get("count", 0)
                existing["sum"] += value.get("sum", 0.0)
                existing["max"] = max(existing["max"], value.get("max", 0.0))
                theirs = {b["le"]: b["count"] for b in value.get("buckets", ())}
                for bucket in existing["buckets"]:
                    bucket["count"] += theirs.pop(bucket["le"], 0)
                for le in sorted(theirs):  # bounds only one side knows about
                    existing["buckets"].append({"le": le, "count": theirs[le]})
                    existing["buckets"].sort(key=lambda b: b["le"])
            else:
                merged[name] = existing + float(value)
    for value in merged.values():
        if isinstance(value, dict):
            value["p50"] = quantile_from_snapshot(value, 0.50)
            value["p95"] = quantile_from_snapshot(value, 0.95)
            value["p99"] = quantile_from_snapshot(value, 0.99)
    return merged


def render_snapshot_text(
    snapshot: dict,
    *,
    help_texts: dict[str, str] | None = None,
    kinds: dict[str, str] | None = None,
) -> str:
    """Prometheus text exposition of a (possibly merged) snapshot.

    Metric kind comes from ``kinds`` (base name -> "counter"/"gauge",
    supplied when rendering a live registry); without an entry it is
    recovered from shape and naming: dict values are histograms, scalar
    names ending in ``_total`` are counters (the convention every counter
    in this codebase follows), anything else is a gauge.  Labeled series
    (``name{tenant="x"}`` keys) detect kind from the *base* name and
    render ``# TYPE`` once per family.
    """
    help_texts = help_texts or {}
    kinds = kinds or {}
    lines: list[str] = []
    typed: set[str] = set()
    for name, value in sorted(snapshot.items()):
        base, label_part = split_series_key(name)
        if base in help_texts and base not in typed:
            lines.append(f"# HELP {base} {help_texts[base]}")
        if isinstance(value, dict):
            if base not in typed:
                lines.append(f"# TYPE {base} histogram")
                typed.add(base)
            prefix = f"{label_part}," if label_part else ""
            for bucket in value.get("buckets", ()):
                lines.append(
                    f'{base}_bucket{{{prefix}le="{bucket["le"]:g}"}} '
                    f'{bucket["count"]}'
                )
            lines.append(
                f'{base}_bucket{{{prefix}le="+Inf"}} {value.get("count", 0)}'
            )
            suffix = f"{{{label_part}}}" if label_part else ""
            lines.append(f"{base}_sum{suffix} {value.get('sum', 0.0):g}")
            lines.append(f"{base}_count{suffix} {value.get('count', 0)}")
        else:
            if base not in typed:
                kind = kinds.get(
                    base, "counter" if base.endswith("_total") else "gauge"
                )
                lines.append(f"# TYPE {base} {kind}")
                typed.add(base)
            lines.append(f"{name} {float(value):g}")
    return "\n".join(lines) + "\n"


class MetricsRegistry:
    """Named metric store with get-or-create semantics and exporters."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}  # guarded by: _lock
        self._lock = make_lock("MetricsRegistry._lock")

    def _get_or_create(self, name: str, factory, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is {type(metric).__name__}, "
                    f"not {kind.__name__}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help_text), Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help_text), Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets), Histogram
        )

    def labeled_counter(
        self, name: str, help_text: str = "", label: str = "tenant"
    ) -> LabeledCounter:
        return self._get_or_create(
            name, lambda: LabeledCounter(name, help_text, label), LabeledCounter
        )

    def labeled_histogram(
        self,
        name: str,
        help_text: str = "",
        label: str = "tenant",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> LabeledHistogram:
        return self._get_or_create(
            name,
            lambda: LabeledHistogram(name, help_text, label, buckets),
            LabeledHistogram,
        )

    # ----------------------------------------------------------- exporters

    @staticmethod
    def _snapshot_one(metric) -> object:
        if isinstance(metric, Histogram):
            data = metric.snapshot()
            data["p50"] = quantile_from_snapshot(data, 0.50)
            data["p95"] = quantile_from_snapshot(data, 0.95)
            data["p99"] = quantile_from_snapshot(data, 0.99)
            return data
        return metric.value

    def snapshot(self) -> dict:
        """JSON-friendly dump of every metric.

        Labeled families flatten to one ``name{label="value"}`` key per
        child, so merged cluster snapshots aggregate them per series.
        """
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, object] = {}
        for name, metric in sorted(metrics.items()):
            if isinstance(metric, _LabeledFamily):
                for value, child in sorted(metric.series().items()):
                    out[series_key(name, metric.label, value)] = (
                        self._snapshot_one(child)
                    )
            else:
                out[name] = self._snapshot_one(metric)
        return out

    def render_text(self) -> str:
        """Prometheus text exposition (version 0.0.4).

        Delegates to :func:`render_snapshot_text`, so live registries and
        merged cluster snapshots render identically (kind recovery relies
        on the ``_total`` counter convention the lint rule enforces).
        """
        with self._lock:
            metrics = dict(self._metrics)
        help_texts = {
            name: metric.help_text
            for name, metric in metrics.items()
            if metric.help_text
        }
        kinds = {
            name: "counter"
            for name, metric in metrics.items()
            if isinstance(metric, (Counter, LabeledCounter))
        }
        kinds.update(
            (name, "gauge")
            for name, metric in metrics.items()
            if isinstance(metric, Gauge)
        )
        return render_snapshot_text(
            self.snapshot(), help_texts=help_texts, kinds=kinds
        )
