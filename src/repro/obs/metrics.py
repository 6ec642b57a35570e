"""Unified metrics: labelled counters/gauges + exponential-bucket histograms.

One :class:`MetricsRegistry` replaces the repo's previously-duplicated
latency math (the serving latency window, the engine's percentile deque, and
per-executor counters).  Histograms keep *both* fixed exponential bucket
counts (cheap, mergeable, Prometheus-native) and a bounded window of raw
samples so ``p50``/``p99`` stay numerically identical to the historical
``np.percentile``-over-deque behaviour.

The registry renders the Prometheus text exposition format (version 0.0.4);
:func:`parse_prometheus` is the matching line-format checker used by tests
and by ``/metrics?format=prometheus`` consumers.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "parse_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """Return ``count`` bucket upper bounds growing geometrically from ``start``.

    ``exponential_buckets(0.05, 2.0, 4)`` → ``(0.05, 0.1, 0.2, 0.4)``.
    """
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start!r}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return tuple(start * factor**i for i in range(count))


#: Default latency buckets: 0.05 ms .. ~6.6 s in ×2 steps.
DEFAULT_LATENCY_BUCKETS_MS = exponential_buckets(0.05, 2.0, 18)


def _check_name(name: str) -> str:
    """Validate a Prometheus-compatible metric name."""
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    """Validate Prometheus-compatible label names."""
    out = tuple(labels)
    for label in out:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name: {label!r}")
    return out


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared bookkeeping for all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        """Record identity; concrete classes add their own state."""
        self.name = _check_name(name)
        self.help = str(help)
        self.label_names = _check_labels(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        """Map a ``**labels`` call to the canonical label-value tuple."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _render_labels(self, values: Tuple[str, ...]) -> str:
        """Render ``{a="x",b="y"}`` (or empty string without labels)."""
        if not self.label_names:
            return ""
        pairs = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, values)
        )
        return "{" + pairs + "}"


class Counter(_Metric):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        """Create the counter with all series at zero."""
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount!r}")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every labelled series."""
        with self._lock:
            return sum(self._values.values())

    def sum_by(self, label: str) -> Dict[str, float]:
        """Aggregate series totals by one label's value."""
        index = self.label_names.index(label)
        out: Dict[str, float] = {}
        with self._lock:
            for key, value in self._values.items():
                out[key[index]] = out.get(key[index], 0.0) + value
        return out

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        """All ``(label_values, value)`` pairs, sorted for stable output."""
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Metric):
    """Point-in-time value that can go up or down, optionally labelled."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        """Create the gauge with no series set."""
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0 if never set)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        """All ``(label_values, value)`` pairs, sorted for stable output."""
        with self._lock:
            return sorted(self._values.items())


class _HistogramSeries:
    """Bucket counts + raw-sample window of one labelled histogram series."""

    __slots__ = ("counts", "sum", "count", "window")

    def __init__(self, n_bounds: int, window: int) -> None:
        self.counts = [0] * (n_bounds + 1)  # final slot is +Inf
        self.sum = 0.0
        self.count = 0
        self.window: "deque[float]" = deque(maxlen=window)


class Histogram(_Metric):
    """Fixed exponential-bucket histogram with an exact-percentile window.

    Bucket counts, lifetime sum and lifetime count feed the Prometheus
    exposition; a bounded deque of raw samples backs :meth:`percentile` and
    :meth:`mean` with the exact semantics of the old per-site deques.

    Histograms may be labelled (each distinct label-value combination gets
    its own buckets and window); the unlabelled form keeps its historical
    behaviour and rendering exactly, including the all-zero exposition of a
    histogram that never observed anything.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        window: int = 1024,
        labels: Sequence[str] = (),
    ) -> None:
        """Create an empty histogram (one eager series when unlabelled)."""
        super().__init__(name, help, labels=labels)
        bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_LATENCY_BUCKETS_MS)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if int(window) < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self.bounds = bounds
        self._window_len = int(window)
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}
        if not self.label_names:
            # unlabelled histograms render all-zero buckets before the
            # first observation, so the single series exists up front
            self._series[()] = _HistogramSeries(len(bounds), self._window_len)

    def _series_for(self, labels: Dict[str, Any]) -> _HistogramSeries:
        """Get or create the series of one label-value combination
        (callers hold ``self._lock``)."""
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.bounds), self._window_len)
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: Any) -> None:
        """Record one sample (into the labelled series, when labelled)."""
        value = float(value)
        with self._lock:
            series = self._series_for(labels)
            idx = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    idx = i
                    break
            series.counts[idx] += 1
            series.sum += value
            series.count += 1
            series.window.append(value)

    @property
    def count(self) -> int:
        """Lifetime number of observations (summed over all series)."""
        with self._lock:
            return sum(s.count for s in self._series.values())

    @property
    def sum(self) -> float:
        """Lifetime sum of observations (summed over all series)."""
        with self._lock:
            return sum(s.sum for s in self._series.values())

    def series_keys(self) -> List[Tuple[str, ...]]:
        """Label-value tuples with at least one series, sorted."""
        with self._lock:
            return sorted(self._series)

    def window_values(self, **labels: Any) -> List[float]:
        """The retained raw samples of one series, oldest first."""
        with self._lock:
            series = self._series.get(self._key(labels))
            return list(series.window) if series is not None else []

    def mean(self, **labels: Any) -> float:
        """Mean over one series' retained window (0.0 when empty)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            if series is None or not series.window:
                return 0.0
            return sum(series.window) / len(series.window)

    def percentile(self, q: float, **labels: Any) -> float:
        """Exact ``q``-th percentile over one series' retained window.

        Uses linear interpolation between closest ranks — the same method
        as ``numpy.percentile`` — so existing p50/p99 outputs are preserved
        bit-for-bit.  Returns 0.0 when no samples were recorded.
        """
        with self._lock:
            series = self._series.get(self._key(labels))
            data = sorted(series.window) if series is not None else []
        if not data:
            return 0.0
        if len(data) == 1:
            return data[0]
        rank = (len(data) - 1) * (float(q) / 100.0)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def bucket_counts(self, **labels: Any) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs ending at ``+Inf``."""
        with self._lock:
            series = self._series.get(self._key(labels))
            counts = series.counts if series is not None else [0] * (len(self.bounds) + 1)
            out: List[Tuple[float, int]] = []
            running = 0
            for bound, n in zip(self.bounds, counts):
                running += n
                out.append((bound, running))
            out.append((math.inf, running + counts[-1]))
            return out

    def _snapshot(self) -> List[Tuple[Tuple[str, ...], List[Tuple[float, int]], float, int]]:
        """Per-series ``(label_values, cumulative_buckets, sum, count)``
        rows for the Prometheus renderer, in one consistent pass."""
        with self._lock:
            rows = []
            for key in sorted(self._series):
                series = self._series[key]
                buckets: List[Tuple[float, int]] = []
                running = 0
                for bound, n in zip(self.bounds, series.counts):
                    running += n
                    buckets.append((bound, running))
                buckets.append((math.inf, running + series.counts[-1]))
                rows.append((key, buckets, series.sum, series.count))
            return rows


class MetricsRegistry:
    """Get-or-create home for named metrics + Prometheus text rendering."""

    def __init__(self) -> None:
        """Create an empty registry."""
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        """Return the existing metric or create it; kind mismatches raise."""
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help=help, labels=labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help=help, labels=labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        window: int = 1024,
        labels: Sequence[str] = (),
    ) -> Histogram:
        """Get or create a :class:`Histogram` (optionally labelled)."""
        return self._get_or_create(
            Histogram, name, help=help, buckets=buckets, window=window, labels=labels
        )

    def get(self, name: str) -> Optional[_Metric]:
        """Look up a metric by name (``None`` if absent)."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def render_prometheus(self) -> str:
        """Render every metric in the text exposition format (0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help or metric.name}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for values, buckets, total, count in metric._snapshot():
                    pairs = [
                        f'{label}="{_escape_label_value(value)}"'
                        for label, value in zip(metric.label_names, values)
                    ]
                    for bound, cumulative in buckets:
                        le = _format_value(bound)
                        bucket_pairs = ",".join(pairs + [f'le="{le}"'])
                        lines.append(
                            f"{metric.name}_bucket{{{bucket_pairs}}} {cumulative}"
                        )
                    suffix = "{" + ",".join(pairs) + "}" if pairs else ""
                    lines.append(f"{metric.name}_sum{suffix} {_format_value(total)}")
                    lines.append(f"{metric.name}_count{suffix} {count}")
            else:
                samples = metric.samples()  # type: ignore[attr-defined]
                if not samples and not metric.label_names:
                    samples = [((), 0.0)]
                for values, value in samples:
                    labels = metric._render_labels(values)
                    lines.append(f"{metric.name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def parse_prometheus(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Strict line-format checker for the text exposition format.

    Returns ``(name, labels, value)`` for every sample line and raises
    :class:`ValueError` on the first malformed line — used by the test
    suite as the acceptance gate for ``/metrics?format=prometheus``.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment: {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in _split_label_pairs(raw_labels, lineno):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if not pair_match:
                    raise ValueError(f"line {lineno}: malformed label: {pair!r}")
                labels[pair_match.group("name")] = (
                    pair_match.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        elif raw_value == "NaN":
            value = math.nan
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric value: {raw_value!r}"
                ) from None
        samples.append((match.group("name"), labels, value))
    return samples


def _split_label_pairs(raw: str, lineno: int) -> Iterable[str]:
    """Split ``a="x",b="y"`` into pairs, honouring escaped quotes."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in raw:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value in {raw!r}")
    if current:
        pairs.append("".join(current))
    return pairs
