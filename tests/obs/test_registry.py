"""The metrics registry: instruments, bucket edges, exporters."""

import re

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help,
    escape_label_value,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_inc(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        assert gauge.value == 15.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        # Prometheus semantics: a sample equal to a bound belongs to
        # that bound's bucket (le = "less than or equal").
        hist.observe(1.0)
        hist.observe(1.5)
        hist.observe(2.0)
        hist.observe(4.0)
        hist.observe(4.0001)  # lands in +Inf
        assert hist.cumulative_counts() == [1, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(12.5001)

    def test_below_first_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.0)
        hist.observe(-5.0)
        assert hist.cumulative_counts() == [2, 2, 2]

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_default_buckets_strictly_increase(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "help text")
        second = registry.counter("repro_x_total")
        assert first is second
        assert len(registry) == 1
        assert "repro_x_total" in registry
        assert registry.get("repro_x_total") is first

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x")
        with pytest.raises(ValueError):
            registry.histogram("repro_x")

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("repro_h", buckets=(1.0, 3.0))
        # Same buckets: get-or-create succeeds.
        registry.histogram("repro_h", buckets=(1.0, 2.0))

    def test_invalid_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("has space")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "requests seen").inc(7)
        registry.gauge("repro_depth").set(2.5)
        hist = registry.histogram("repro_latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(30.0)
        text = registry.render_prometheus()
        assert "# HELP repro_requests_total requests seen" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 7" in text  # integral: no ".0"
        assert "repro_depth 2.5" in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_latency_seconds_sum 30.55" in text
        assert "repro_latency_seconds_count 3" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestLabels:
    def test_labelsets_are_distinct_instruments(self):
        registry = MetricsRegistry()
        news = registry.counter("repro_req_total", labels={"trace": "news"})
        sport = registry.counter("repro_req_total", labels={"trace": "sport"})
        assert news is not sport
        news.inc(3)
        sport.inc(5)
        assert news.value == 3.0
        assert sport.value == 5.0
        # Get-or-create keys on the canonical (sorted) labelset.
        assert registry.counter("repro_req_total", labels={"trace": "news"}) is news

    def test_label_order_is_canonicalised(self):
        registry = MetricsRegistry()
        first = registry.gauge("repro_g", labels={"a": "1", "b": "2"})
        second = registry.gauge("repro_g", labels={"b": "2", "a": "1"})
        assert first is second

    def test_invalid_label_name_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro_c", labels={"9bad": "x"})
        with pytest.raises(ValueError):
            registry.counter("repro_c", labels={"has space": "x"})

    def test_labeled_rendering_emits_header_once(self):
        registry = MetricsRegistry()
        registry.counter("repro_req_total", "requests", labels={"trace": "news"}).inc(1)
        registry.counter("repro_req_total", "requests", labels={"trace": "sport"}).inc(2)
        text = registry.render_prometheus()
        assert text.count("# HELP repro_req_total requests") == 1
        assert text.count("# TYPE repro_req_total counter") == 1
        assert 'repro_req_total{trace="news"} 1' in text
        assert 'repro_req_total{trace="sport"} 2' in text

    def test_labeled_histogram_merges_le_into_labelset(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_lat", labels={"proxy": "3"}, buckets=(1.0,)
        )
        hist.observe(0.5)
        text = registry.render_prometheus()
        assert 'repro_lat_bucket{proxy="3",le="1"} 1' in text
        assert 'repro_lat_bucket{proxy="3",le="+Inf"} 1' in text
        assert 'repro_lat_sum{proxy="3"} 0.5' in text
        assert 'repro_lat_count{proxy="3"} 1' in text


class TestExpositionEscaping:
    """Satellite (a): Prometheus text-format escaping round-trips."""

    def test_escape_label_value_rules(self):
        assert escape_label_value("plain") == "plain"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("back\\slash") == "back\\\\slash"
        assert escape_label_value("two\nlines") == "two\\nlines"
        # Backslash first: an embedded literal \n must not double-escape.
        assert escape_label_value("\\n") == "\\\\n"

    def test_escape_help_rules(self):
        assert escape_help("plain help") == "plain help"
        assert escape_help("multi\nline") == "multi\\nline"
        assert escape_help("c:\\path") == "c:\\\\path"
        # Double quotes are legal in HELP text, unescaped.
        assert escape_help('say "hi"') == 'say "hi"'

    NASTY_VALUES = [
        'quote"inside',
        "back\\slash",
        "new\nline",
        '\\"both\\"\n',
        'tracker="news"\nfake_metric 1',  # exposition-injection attempt
    ]

    @staticmethod
    def _parse_exposition(text):
        """A minimal parser for the subset we emit: name{labels} value."""
        samples = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            body, value = line.rsplit(" ", 1)
            if "{" in body:
                name, _, labelpart = body.partition("{")
                labels = {}
                for match in re.finditer(r'(\w+)="((?:[^"\\]|\\.)*)"', labelpart):
                    raw = match.group(2)
                    labels[match.group(1)] = (
                        raw.replace("\\n", "\n")
                        .replace('\\"', '"')
                        .replace("\\\\", "\\")
                    )
                key = (name, tuple(sorted(labels.items())))
            else:
                key = (body, ())
            samples[key] = float(value)
        return samples

    @pytest.mark.parametrize("nasty", NASTY_VALUES)
    def test_label_values_round_trip_through_exposition(self, nasty):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", labels={"trace": nasty}).inc(4)
        samples = self._parse_exposition(registry.render_prometheus())
        assert samples == {("repro_c_total", (("trace", nasty),)): 4.0}

    def test_newline_value_cannot_inject_samples(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_c_total", labels={"trace": 'x"} 9\nfake_total 1'}
        ).inc(1)
        text = registry.render_prometheus()
        # Escaped payload stays on one physical line; no forged sample.
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1
        assert "fake_total 1" not in lines
        samples = self._parse_exposition(text)
        assert list(samples.values()) == [1.0]

    def test_help_with_newline_stays_one_line(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "first\nsecond").inc(1)
        text = registry.render_prometheus()
        assert "# HELP repro_c_total first\\nsecond" in text
        assert "\nsecond" not in text.replace("\\nsecond", "")

    def test_unlabeled_rendering_unchanged_by_escaping_layer(self):
        registry = MetricsRegistry()
        registry.counter("repro_plain_total", "plain").inc(2)
        assert "repro_plain_total 2" in registry.render_prometheus()


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

    def test_overload_counter_with_labels_escapes_values(self):
        registry = MetricsRegistry()
        nasty = 'queue "hot"\nproxy\\0'
        counter = registry.counter(
            "repro_overload_sheds_total",
            "pushes shed",
            labels={"queue": nasty},
        )
        counter.inc()
        text = registry.render_prometheus()
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_overload_sheds_total{")
        )
        assert escape_label_value(nasty) in line
        assert "\n" not in line
