"""Minimal Prometheus metrics: stdlib-only registry + text exposition.

The daemon publishes counters and gauges in the Prometheus text
exposition format (version 0.0.4) without depending on the official
client library — the format is line-oriented and small enough that the
~150 lines here buy zero dependencies.  :func:`parse_exposition` is the
inverse, used by the tests and the CI smoke job to assert that what the
daemon serves actually parses as valid exposition text rather than
merely "looks right".
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "parse_exposition",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """One metric family: a name, help text, and labeled samples."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Iterable[str] = (),
        lock: Optional[threading.Lock] = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.samples: dict[tuple[str, ...], float] = {}
        self._lock = lock or threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self.samples.get(self._key(labels), 0.0)

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            items = sorted(self.samples.items())
        for key, value in items:
            if key:
                labels = ",".join(
                    f'{name}="{_escape_label_value(val)}"'
                    for name, val in zip(self.labelnames, key)
                )
                lines.append(f"{self.name}{{{labels}}} {_format_value(value)}")
            else:
                lines.append(f"{self.name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


class Counter(_Metric):
    """Monotonically non-decreasing samples."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        key = self._key(labels)
        with self._lock:
            self.samples[key] = self.samples.get(key, 0.0) + float(amount)


class Gauge(_Metric):
    """Samples that may move in either direction."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self.samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self.samples[key] = self.samples.get(key, 0.0) + float(amount)


class MetricsRegistry:
    """Thread-safe family registry with deterministic rendering."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name: str, help: str, labelnames) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        "different kind or label set"
                    )
                return existing
            metric = cls(name, help, labelnames)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str, labelnames=()) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str, labelnames=()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def get(self, name: str, **labels: str) -> float:
        """Current sample value (0.0 when never touched) — test hook."""
        with self._lock:
            metric = self._metrics[name]
        return metric.value(**labels)

    def render(self) -> str:
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return "".join(metric.render() for metric in metrics)


# -- parsing (validation for tests and the CI smoke job) ---------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"[ \t]+(?P<value>\S+)"
    r"(?:[ \t]+(?P<timestamp>-?\d+))?[ \t]*$"
)

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_labels(text: str) -> tuple[tuple[str, str], ...]:
    """Parse ``name="value",...`` handling escaped quotes in values."""
    labels: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        match = re.match(r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"', text[i:])
        if not match:
            raise ValueError(f"malformed label pair at {text[i:]!r}")
        name = match.group(1)
        i += match.end()
        value_chars: list[str] = []
        while i < n:
            ch = text[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ValueError("dangling escape in label value")
                nxt = text[i + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
                )
                i += 2
            elif ch == '"':
                i += 1
                break
            else:
                value_chars.append(ch)
                i += 1
        else:
            raise ValueError("unterminated label value")
        labels.append((name, "".join(value_chars)))
        rest = text[i:]
        stripped = rest.lstrip()
        if not stripped:
            break
        if not stripped.startswith(","):
            raise ValueError(f"junk after label value: {rest!r}")
        i = len(text) - len(stripped) + 1  # consume up to and incl. the comma
    return tuple(labels)


def _parse_value(text: str) -> float:
    special = {"+Inf": math.inf, "-Inf": -math.inf, "Inf": math.inf, "NaN": math.nan}
    if text in special:
        return special[text]
    return float(text)  # raises ValueError on malformed numbers


def parse_exposition(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text exposition; raise ``ValueError`` when invalid.

    Returns ``{(metric_name, ((label, value), ...)): sample_value}``.
    Validates ``# TYPE`` lines, metric/label name charsets, label-value
    escaping, sample values, and that every typed family's samples use
    its declared name.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: invalid metric name {name!r}")
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in _VALID_TYPES:
                    raise ValueError(f"line {lineno}: invalid TYPE line {line!r}")
                if name in types:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
                types[name] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        key = (match.group("name"), labels)
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = _parse_value(match.group("value"))
    return samples
