//! JSON rendering for the monitor's read-side views.
//!
//! Everything is emitted through the shared `webdis_trace::json`
//! writer over `BTreeMap`-ordered state, so the same monitor state
//! always renders to the same bytes — the property the determinism
//! scenarios pin. Numbers are unsigned integers only; fractional
//! signals travel as fixed-point milli-units.

use webdis_trace::json::{array, ObjectWriter};

use crate::{Monitor, WindowRow};

fn write_row(out: &mut String, row: &WindowRow) {
    let mut obj = ObjectWriter::new(out);
    obj.num("index", row.index).num("end_us", row.end_us);
    for (name, values) in [("counters", &row.counters), ("gauges", &row.gauges)] {
        let mut map = ObjectWriter::new(obj.key(name));
        for (key, value) in values {
            map.num(key, *value);
        }
        map.end();
    }
    let mut quantiles = ObjectWriter::new(obj.key("quantiles"));
    for (key, q) in &row.quantiles {
        let mut entry = ObjectWriter::new(quantiles.key(key));
        entry
            .num("count", q.count)
            .num("sum", q.sum)
            .num("p50", q.p50)
            .num("p95", q.p95);
        entry.end();
    }
    quantiles.end();
    obj.end();
}

impl Monitor {
    /// The windowed series as one JSON document: window geometry, the
    /// total closed count, and the rows still in the ring (oldest
    /// first). Zero-delta entries are omitted from each row, which
    /// keeps quiet windows to a few bytes.
    pub fn series_json(&self) -> String {
        let mut out = String::new();
        let mut obj = ObjectWriter::new(&mut out);
        obj.num("window_us", self.window_us())
            .num("closed", self.windows_closed());
        array(obj.key("windows"), &self.windows(), write_row);
        obj.end();
        out
    }

    /// The full alert log as a JSON array, oldest first.
    pub fn alert_log_json(&self) -> String {
        let mut out = String::new();
        array(&mut out, self.alert_log().iter(), |out, e| {
            let mut obj = ObjectWriter::new(out);
            obj.num("seq", e.seq)
                .num("time_us", e.time_us)
                .num("window", e.window)
                .str("rule", &e.rule)
                .str("kind", if e.fired { "fired" } else { "resolved" })
                .num("value_milli", e.value_milli)
                .num("threshold_milli", e.threshold_milli);
            obj.end();
        });
        out
    }

    /// [`Monitor::status`] rendered as JSON — this is what the TCP
    /// daemons serve on `/status`.
    pub fn status_json(&self, now_us: u64) -> String {
        self.status(now_us).to_json()
    }
}
