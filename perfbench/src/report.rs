//! Turning rounds into metrics: the end-to-end set, the per-layer set,
//! the layer-separation table, the prediction table, and the JSON line.

use std::fmt::Write as _;

use crate::layers::Micro;
use crate::round::{Failures, RoundResult};
use crate::stats::{self, mean, median, ratio};
use crate::workload::Workload;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A metric; a value that is not finite (a ratio over nothing) reads 0.
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Sums over a set of rounds.
pub struct Totals<'a> {
    rounds: &'a [RoundResult],
}

impl<'a> Totals<'a> {
    /// Totals over `rounds`.
    pub fn new(rounds: &'a [RoundResult]) -> Totals<'a> {
        Totals { rounds }
    }

    fn sum(&self, f: impl Fn(&RoundResult) -> f64) -> f64 {
        self.rounds.iter().map(f).sum()
    }

    /// Mean over rounds of a per-round count divided by that round's
    /// completions. Each round weighs the same, so the value repeats
    /// exactly when every round's per-query counts do.
    pub fn per_query(&self, f: impl Fn(&RoundResult) -> u64) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| ratio(f(r) as f64, r.completed as f64))
            .collect();
        mean(&per_round)
    }

    fn pooled(&self, f: impl Fn(&RoundResult) -> &Vec<f64>) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect()
    }

    /// Submissions.
    pub fn attempted(&self) -> usize {
        self.rounds.iter().map(|r| r.attempted).sum()
    }

    /// Failures by cause.
    pub fn failures(&self) -> Failures {
        let mut f = Failures::default();
        for r in self.rounds {
            f.add(&r.failures);
        }
        f
    }

    /// Median over rounds of a per-round figure; a round disturbed by
    /// something outside the benchmark moves it less than a pooled one.
    fn round_median(&self, f: impl Fn(&RoundResult) -> f64) -> f64 {
        median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// Clean completions per second of timed window, median over rounds.
    pub fn goodput_qps(&self) -> f64 {
        self.round_median(|r| ratio(r.completed_in_window as f64, r.window.as_secs_f64()))
    }

    /// Every latency sample, ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.pooled(|r| &r.latencies_ms)
    }

    /// The nearest-rank p99 latency over every sample, or the highest
    /// percentile the sample supports (see [`stats::tail`]).
    pub fn tail_latency(&self) -> Option<stats::Tail> {
        stats::tail(&self.latencies(), 99.0)
    }

    /// The end-to-end metrics. `setup_s` comes from the caller, which
    /// also times the set-up-only passes.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        vec![
            metric("goodput_qps", "1/s", self.goodput_qps()),
            metric(
                "latency_p50_ms",
                "ms",
                self.round_median(|r| median(&r.latencies_ms)),
            ),
            metric(
                "cpu_ms_per_query",
                "ms",
                self.round_median(|r| {
                    ratio(r.cpu.as_secs_f64() * 1e3, r.completed_in_window as f64)
                }),
            ),
            metric(
                "wire_bytes_per_query",
                "bytes",
                self.per_query(|r| r.wire.total_bytes),
            ),
            metric(
                "msgs_per_query",
                "messages",
                self.per_query(|r| r.wire.total_msgs()),
            ),
            metric("setup_s", "s", setup_s),
        ]
    }

    /// Memory: the peak resident set of the process (`VmHWM`, read by the
    /// caller at the end of the run) and the median resident set sampled
    /// in the timed windows.
    pub fn memory(&self, peak_rss_mib: f64) -> Vec<Metric> {
        vec![
            metric("proc.peak_rss_mib", "MiB", peak_rss_mib),
            metric("proc.rss_mib", "MiB", median(&self.pooled(|r| &r.rss_mib))),
        ]
    }

    /// The per-layer metrics the untraced rounds give: counts from the
    /// wire meter and `ServerStats`, the generator's own timings, and
    /// process readings.
    pub fn layer_counts(&self) -> Vec<Metric> {
        let s = |f: fn(&RoundResult) -> u64| self.sum(|r| f(r) as f64);
        let arrivals = s(|r| r.server.arrivals);
        let dups = s(|r| r.server.duplicates_dropped);
        let max = |f: fn(&RoundResult) -> u64| self.rounds.iter().map(f).max().unwrap_or(0) as f64;
        vec![
            metric(
                "net.msgs_per_query.query",
                "count",
                self.per_query(|r| r.wire.query_msgs),
            ),
            metric(
                "net.msgs_per_query.report",
                "count",
                self.per_query(|r| r.wire.report_msgs),
            ),
            metric(
                "net.msgs_per_query.ack",
                "count",
                self.per_query(|r| r.wire.ack_msgs),
            ),
            metric(
                "net.bytes_per_query.query",
                "bytes",
                self.per_query(|r| r.wire.query_bytes),
            ),
            metric(
                "net.bytes_per_query.report",
                "bytes",
                self.per_query(|r| r.wire.report_bytes),
            ),
            metric("proc.threads_peak", "count", max(|r| r.threads_peak)),
            metric("proc.fds_peak", "count", max(|r| r.fds_peak)),
            metric(
                "client.submit_us",
                "us",
                median(&self.pooled(|r| &r.submit_us)),
            ),
            metric(
                "client.on_message_us",
                "us",
                median(&self.pooled(|r| &r.on_message_us)),
            ),
            metric(
                "core.clones_received_per_query",
                "count",
                self.per_query(|r| r.server.clones_received),
            ),
            metric(
                "core.arrivals_per_query",
                "count",
                self.per_query(|r| r.server.arrivals),
            ),
            metric(
                "core.duplicates_per_query",
                "count",
                self.per_query(|r| r.server.duplicates_dropped),
            ),
            metric(
                "core.docs_parsed_per_query",
                "count",
                self.per_query(|r| r.server.docs_parsed),
            ),
            metric(
                "core.evaluations_per_query",
                "count",
                self.per_query(|r| r.server.evaluations),
            ),
            metric(
                "core.useful_arrival_ratio",
                "ratio",
                ratio(arrivals, arrivals + dups),
            ),
            metric(
                "cache.answer_hit_ratio",
                "ratio",
                ratio(
                    s(|r| r.server.cache_hits),
                    s(|r| r.server.cache_hits + r.server.cache_misses),
                ),
            ),
            metric(
                "cache.doc_hit_ratio",
                "ratio",
                ratio(
                    s(|r| r.server.doc_cache_hits),
                    s(|r| r.server.doc_cache_hits + r.server.docs_parsed),
                ),
            ),
            metric(
                "cache.evictions_per_query",
                "count",
                ratio(s(|r| r.server.cache_evictions), s(|r| r.completed as u64)),
            ),
            metric(
                "cache.invalidations_per_mutation",
                "count",
                ratio(
                    s(|r| r.server.cache_invalidations),
                    s(|r| r.mutations as u64),
                ),
            ),
        ]
    }

    /// Self time per completed query of each engine stage, from the
    /// traced rounds' `stage_us.*` histograms, µs.
    pub fn stages(&self) -> Vec<Metric> {
        STAGES
            .iter()
            .map(|stage| {
                let total = self.sum(|r| {
                    r.registry
                        .as_ref()
                        .and_then(|reg| reg.histogram(&format!("stage_us.{stage}")))
                        .map_or(0.0, |h| h.sum as f64)
                });
                metric(
                    &format!("stage.{stage}_us"),
                    "us",
                    ratio(total, self.sum(|r| r.completed as f64)),
                )
            })
            .collect()
    }
}

/// The engine stages the trace records, in pipeline order.
const STAGES: [&str; 7] = [
    "queue_wait",
    "parse",
    "log",
    "cache_lookup",
    "eval",
    "build",
    "forward",
];

/// The microbenchmark metrics.
pub fn micro_metrics(m: &Micro, apply_us: f64) -> Vec<Metric> {
    vec![
        metric("net.send_us", "us", m.send_us),
        metric("net.encode_ns.query", "ns", m.encode_query_ns),
        metric("net.encode_ns.report", "ns", m.encode_report_ns),
        metric("net.decode_ns.query", "ns", m.decode_query_ns),
        metric("net.decode_ns.report", "ns", m.decode_report_ns),
        metric("core.log_check_ns", "ns", m.log_check_ns),
        metric("pre.deriv_ns", "ns", m.deriv_ns),
        metric("pre.contains_ns", "ns", m.contains_ns),
        metric("html.parse_us_per_kib", "us/KiB", m.parse_us_per_kib),
        metric("rel.nodedb_build_us_per_kib", "us/KiB", m.build_us_per_kib),
        metric("rel.eval_us", "us", m.eval_us),
        metric("rel.eval_tuples_visited", "count", m.eval_tuples_visited),
        metric("disql.parse_us", "us", m.disql_parse_us),
        metric("cache.lookup_ns", "ns", m.cache_lookup_ns),
        metric("web.mutation_apply_us", "us", apply_us),
    ]
}

/// Looks a metric up by name; 0 when absent.
pub fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Per-query time of each layer: its microbenchmark cost times how often
/// a query uses it, in ms. `layers` holds the per-layer metrics of the
/// rounds in `t`.
pub fn layer_split(
    t: &Totals,
    layers: &[Metric],
    m: &Micro,
) -> Vec<(&'static str, &'static str, f64)> {
    let v = |n: &str| value(layers, n);
    let consults = t.per_query(|r| r.server.cache_hits + r.server.cache_misses);
    let kib_parsed = v("core.docs_parsed_per_query") * m.page_kib;
    let msgs = v("net.msgs_per_query.query")
        + v("net.msgs_per_query.report")
        + v("net.msgs_per_query.ack");
    vec![
        (
            "webdis-html",
            "parse_html",
            m.parse_us_per_kib * kib_parsed / 1e3,
        ),
        (
            "webdis-rel",
            "NodeDb::build",
            m.build_us_per_kib * kib_parsed / 1e3,
        ),
        (
            "webdis-rel",
            "eval",
            m.eval_us * v("core.evaluations_per_query") / 1e3,
        ),
        (
            "webdis-core",
            "LogTable::check",
            m.log_check_ns * (v("core.arrivals_per_query") + v("core.duplicates_per_query")) / 1e6,
        ),
        (
            "webdis-pre",
            "first+deriv",
            m.deriv_ns * v("core.arrivals_per_query") / 1e6,
        ),
        ("webdis-net", "tcp send", m.send_us * msgs / 1e3),
        (
            "webdis-net",
            "encode+decode",
            ((m.encode_query_ns + m.decode_query_ns) * v("net.msgs_per_query.query")
                + (m.encode_report_ns + m.decode_report_ns) * v("net.msgs_per_query.report"))
                / 1e6,
        ),
        (
            "webdis-cache",
            "AnswerCache::lookup",
            m.cache_lookup_ns * consults / 1e6,
        ),
        (
            "webdis-core",
            "client submit+on_message",
            (v("client.submit_us")
                + v("client.on_message_us")
                    * (v("net.msgs_per_query.report") + v("net.msgs_per_query.ack")))
                / 1e3,
        ),
        ("webdis-disql", "parse_disql (set-up only)", 0.0),
    ]
}

/// Which end-to-end metric each layer should move, and on which
/// workload; "-" marks a predicted non-move.
const PREDICTIONS: [(&str, &str, &str, &str); 16] = [
    (
        "webdis-net",
        "net.send_us",
        "goodput_qps, latency_p50_ms, cpu_ms_per_query",
        "flood (not bigdoc)",
    ),
    (
        "webdis-net",
        "net.encode_ns.* / net.decode_ns.*",
        "cpu_ms_per_query",
        "flood, living",
    ),
    (
        "webdis-net",
        "net.msgs_per_query.* / net.bytes_per_query.*",
        "msgs_per_query, wire_bytes_per_query",
        "flood",
    ),
    (
        "process",
        "proc.threads_peak / proc.fds_peak",
        "cpu_ms_per_query (and proc.*rss_mib)",
        "flood",
    ),
    ("webdis-core", "client.submit_us", "latency_p50_ms", "all"),
    (
        "webdis-core",
        "client.on_message_us",
        "latency_p50_ms",
        "flood",
    ),
    (
        "webdis-core",
        "core.*_per_query, core.useful_arrival_ratio",
        "msgs_per_query, cpu_ms_per_query",
        "flood",
    ),
    (
        "webdis-core",
        "core.log_check_ns",
        "cpu_ms_per_query",
        "flood",
    ),
    (
        "webdis-pre",
        "pre.deriv_ns / pre.contains_ns",
        "cpu_ms_per_query",
        "flood",
    ),
    (
        "webdis-html",
        "html.parse_us_per_kib",
        "goodput_qps, cpu_ms_per_query",
        "bigdoc (not living)",
    ),
    (
        "webdis-rel",
        "rel.nodedb_build_us_per_kib",
        "goodput_qps, latency_p50_ms, cpu_ms_per_query",
        "bigdoc",
    ),
    (
        "webdis-rel",
        "rel.eval_us / rel.eval_tuples_visited",
        "goodput_qps, cpu_ms_per_query",
        "bigdoc; living misses",
    ),
    (
        "webdis-disql",
        "disql.parse_us",
        "- (parsed once at set-up)",
        "-",
    ),
    (
        "webdis-cache",
        "cache.*",
        "goodput_qps, cpu_ms_per_query",
        "living only (not flood, bigdoc)",
    ),
    (
        "webdis-web",
        "web.mutation_apply_us",
        "latency_p99_ms (ungated)",
        "living",
    ),
    (
        "trace",
        "stage.*_us, stage.send_share",
        "(attribution only)",
        "all",
    ),
];

/// Renders the prediction table.
pub fn prediction_table() -> String {
    let mut out = String::from(
        "prediction: layer | per-layer metric | end-to-end metric it should move | workload\n",
    );
    for (layer, m, e2e, w) in PREDICTIONS {
        let _ = writeln!(out, "  {layer:<12} | {m:<46} | {e2e:<46} | {w}");
    }
    out
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The workload's rationale, for the report header.
pub fn rationale(w: Workload) -> &'static str {
    match w {
        Workload::Flood => "message-bound: global (L|G)* over 8 sites x 4 small pages, caches off",
        Workload::Bigdoc => {
            "compute-bound on one daemon: local L* over 16 pages of ~9 KiB, caches off"
        }
        Workload::Living => {
            "cache hits and invalidations: Zipf mix on a living web, both caches on"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{RoundResult, Wire};
    use std::time::Duration;

    #[test]
    fn per_query_counts_weigh_rounds_equally() {
        let round = |completed: usize, query_msgs: u64| RoundResult {
            completed,
            wire: Wire {
                query_msgs,
                ..Wire::default()
            },
            ..RoundResult::default()
        };
        let rounds = [round(10, 40), round(30, 120)];
        assert_eq!(Totals::new(&rounds).per_query(|r| r.wire.query_msgs), 4.0);
    }

    #[test]
    fn goodput_counts_only_the_timed_window_and_takes_the_round_median() {
        let round = |completed: usize, completed_in_window: usize| RoundResult {
            completed,
            completed_in_window,
            window: Duration::from_secs(2),
            ..RoundResult::default()
        };
        let rounds = [round(120, 100), round(50, 40), round(400, 300)];
        assert_eq!(Totals::new(&rounds).goodput_qps(), 50.0);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let line = json_line(true, 3, 0, &[metric("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        assert_eq!(metric("x", "s", f64::NAN).value, 0.0);
    }
}
