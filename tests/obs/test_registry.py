"""The metrics registry: instruments, bucket edges, the exporter."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c", "")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c", "").inc(-1)


class TestGauge:
    def test_set(self):
        gauge = Gauge("g", "")
        gauge.set(10)
        gauge.set(15)
        assert gauge.value == 15.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram("h", "")
        # Prometheus semantics: a sample equal to a bound belongs to
        # that bound's bucket (le = "less than or equal").
        for value in (0.1, 0.2, 0.25, 30.0, 30.0001):  # the last lands in +Inf
            hist.observe(value)
        assert hist.cumulative_counts() == [0, 0, 0, 0, 1, 3, 3, 3, 3, 3, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(60.5501)

    def test_below_first_bucket(self):
        hist = Histogram("h", "")
        hist.observe(0.0)
        hist.observe(-5.0)
        assert hist.cumulative_counts() == [2] * (len(DEFAULT_LATENCY_BUCKETS) + 1)

    def test_default_buckets_strictly_increase(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "help text")
        second = registry.counter("repro_x_total", "help text")
        assert first is second
        first.inc(2)
        assert registry.render_prometheus() == (
            "# HELP repro_x_total help text\n# TYPE repro_x_total counter\n"
            "repro_x_total 2\n"
        )

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x", "")
        with pytest.raises(ValueError):
            registry.gauge("repro_x", "")
        with pytest.raises(ValueError):
            registry.histogram("repro_x", "")

    def test_invalid_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit", "")
        with pytest.raises(ValueError):
            registry.counter("has space", "")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "requests seen").inc(7)
        registry.gauge("repro_depth", "").set(2.5)
        hist = registry.histogram("repro_latency_seconds", "")
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(31.0)
        text = registry.render_prometheus()
        assert "# HELP repro_requests_total requests seen" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 7" in text  # integral: no ".0"
        assert "# HELP repro_depth" not in text  # no help, no HELP line
        assert "repro_depth 2.5" in text
        assert 'repro_latency_seconds_bucket{le="0.005"} 0' in text
        assert 'repro_latency_seconds_bucket{le="0.05"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="30"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_sum 31.55" in text
        assert "repro_latency_seconds_count 3" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestExpositionEscaping:
    def test_escape_help_rules(self):
        assert escape_help("plain help") == "plain help"
        assert escape_help("multi\nline") == "multi\\nline"
        assert escape_help("c:\\path") == "c:\\\\path"
        # Double quotes are legal in HELP text, unescaped.
        assert escape_help('say "hi"') == 'say "hi"'

    def test_newline_value_cannot_inject_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", 'x"} 9\nfake_total 1').inc(1)
        text = registry.render_prometheus()
        # The escaped HELP stays on one physical line; no forged sample.
        samples = [line for line in text.splitlines() if not line.startswith("#")]
        assert samples == ["repro_c_total 1"]

    def test_unlabeled_rendering_unchanged_by_escaping_layer(self):
        registry = MetricsRegistry()
        registry.counter("repro_plain_total", "plain").inc(2)
        assert "repro_plain_total 2" in registry.render_prometheus()

    def test_help_with_newline_stays_one_line(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "first\nsecond").inc(1)
        text = registry.render_prometheus()
        assert "# HELP repro_c_total first\\nsecond" in text
        assert "\nsecond" not in text.replace("\\nsecond", "")


class TestOverloadCounters:
    """The overload layer's counters reach the Prometheus exposition."""

    def _observer(self):
        from repro.obs.recorder import Observer

        registry = MetricsRegistry()
        return Observer(registry=registry), registry

    def test_overload_hooks_increment_counters(self):
        observer, registry = self._observer()
        observer.overload_shed(1.0, page=3, proxy=0, kind="push")
        observer.overload_shed(2.0, page=4, proxy=1, kind="push")
        observer.overload_reject(3.0, page=5, proxy=0)
        observer.overload_stale(4.0, page=5, proxy=0)
        observer.retry_denied(5.0, page=5, proxy=0, attempt=2)
        text = registry.render_prometheus()
        assert "repro_overload_sheds_total 2" in text
        assert "repro_overload_rejections_total 1" in text
        assert "repro_overload_stale_served_total 1" in text
        assert "repro_retries_denied_total 1" in text

    def test_overload_help_lines_are_escaped_one_liners(self):
        observer, registry = self._observer()
        observer.overload_reject(1.0, page=1, proxy=0)
        text = registry.render_prometheus()
        help_lines = [
            line
            for line in text.splitlines()
            if line.startswith("# HELP repro_overload")
            or line.startswith("# HELP repro_retries_denied")
        ]
        assert len(help_lines) == 4
        for line in help_lines:
            # Exposition help must stay one escaped line.
            assert "\n" not in line
            assert line == escape_help(line)
