//! The `/status` snapshot: in-flight queries and active alerts at one
//! instant, with a JSON round-trip so `webdis-doctor --live` can poll
//! a daemon's admin socket and render the decoded structure.

use webdis_trace::json::{self, array, ObjectWriter, Value};

/// One in-flight (admitted, not yet terminated) query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InflightStatus {
    /// Login name at the user-site.
    pub user: String,
    /// User-site host.
    pub host: String,
    /// User-site result port.
    pub port: u16,
    /// Locally unique query number.
    pub query_num: u64,
    /// Admission timestamp, µs.
    pub submitted_us: u64,
    /// `now - submitted`, µs.
    pub age_us: u64,
    /// The site a clone was most recently seen at.
    pub site: String,
    /// The deepest pipeline stage any clone has reached.
    pub stage: u32,
    /// The deepest hop count any clone has reached.
    pub hops: u32,
    /// Clone arrivals recorded for this query.
    pub clones_recv: u64,
    /// Total clone fan-out (successor forwards) so far.
    pub fanout: u64,
}

/// A point-in-time view of the monitor, served as JSON on `/status`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusSnapshot {
    /// The timestamp the snapshot was taken at, µs.
    pub now_us: u64,
    /// Windows closed so far.
    pub windows_closed: u64,
    /// Queries admitted so far.
    pub admitted: u64,
    /// Queries retired (terminated for any reason) so far.
    pub retired: u64,
    /// Names of rules currently firing, in rule order.
    pub active_alerts: Vec<String>,
    /// In-flight queries, ordered by (user, host, port, query_num).
    pub inflight: Vec<InflightStatus>,
}

impl StatusSnapshot {
    /// Renders the snapshot as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = ObjectWriter::new(&mut out);
        obj.num("now_us", self.now_us)
            .num("windows_closed", self.windows_closed)
            .num("admitted", self.admitted)
            .num("retired", self.retired);
        array(
            obj.key("active_alerts"),
            &self.active_alerts,
            |out, rule| json::string(out, rule),
        );
        array(obj.key("inflight"), &self.inflight, |out, q| {
            let mut obj = ObjectWriter::new(out);
            obj.str("user", &q.user)
                .str("host", &q.host)
                .num("port", q.port)
                .num("query_num", q.query_num)
                .num("submitted_us", q.submitted_us)
                .num("age_us", q.age_us)
                .str("site", &q.site)
                .num("stage", q.stage)
                .num("hops", q.hops)
                .num("clones_recv", q.clones_recv)
                .num("fanout", q.fanout);
            obj.end();
        });
        obj.end();
        out
    }

    /// Parses a snapshot back from its JSON form. Tolerates unknown
    /// keys (ignored), so older doctors keep working against newer
    /// daemons; missing keys default to zero/empty.
    pub fn from_json(text: &str) -> Result<StatusSnapshot, String> {
        let v = json::parse(text)?;
        let inflight = v.opt::<&[Value]>("inflight")?.unwrap_or_default();
        Ok(StatusSnapshot {
            now_us: v.opt("now_us")?.unwrap_or_default(),
            windows_closed: v.opt("windows_closed")?.unwrap_or_default(),
            admitted: v.opt("admitted")?.unwrap_or_default(),
            retired: v.opt("retired")?.unwrap_or_default(),
            active_alerts: v
                .opt::<&[Value]>("active_alerts")?
                .unwrap_or_default()
                .iter()
                .map(Value::to)
                .collect::<Result<_, _>>()?,
            inflight: inflight
                .iter()
                .map(|q| {
                    Ok(InflightStatus {
                        user: q.opt("user")?.unwrap_or_default(),
                        host: q.opt("host")?.unwrap_or_default(),
                        port: q.opt("port")?.unwrap_or_default(),
                        query_num: q.opt("query_num")?.unwrap_or_default(),
                        submitted_us: q.opt("submitted_us")?.unwrap_or_default(),
                        age_us: q.opt("age_us")?.unwrap_or_default(),
                        site: q.opt("site")?.unwrap_or_default(),
                        stage: q.opt("stage")?.unwrap_or_default(),
                        hops: q.opt("hops")?.unwrap_or_default(),
                        clones_recv: q.opt("clones_recv")?.unwrap_or_default(),
                        fanout: q.opt("fanout")?.unwrap_or_default(),
                    })
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusSnapshot {
        StatusSnapshot {
            now_us: 1_234_567,
            windows_closed: 12,
            admitted: 9,
            retired: 7,
            active_alerts: vec!["shed_rate_burn".into()],
            inflight: vec![
                InflightStatus {
                    user: "alice".into(),
                    host: "user.test".into(),
                    port: 9900,
                    query_num: 3,
                    submitted_us: 1_000_000,
                    age_us: 234_567,
                    site: "site2.test".into(),
                    stage: 4,
                    hops: 2,
                    clones_recv: 5,
                    fanout: 3,
                },
                InflightStatus {
                    user: "bob \"q\"".into(),
                    host: "user.test".into(),
                    port: 9901,
                    query_num: 1,
                    submitted_us: 1_100_000,
                    age_us: 134_567,
                    site: "site1.test".into(),
                    stage: 1,
                    hops: 1,
                    clones_recv: 1,
                    fanout: 0,
                },
            ],
        }
    }

    #[test]
    fn status_json_round_trips() {
        let snap = sample();
        let json = snap.to_json();
        let back = StatusSnapshot::from_json(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn parser_tolerates_unknown_keys_and_whitespace() {
        let json = r#" { "now_us" : 5 , "future_field" : { "a" : [ 1 , "x" ] } ,
                        "admitted" : 2 , "inflight" : [ ] } "#;
        let snap = StatusSnapshot::from_json(json).expect("parse");
        assert_eq!(snap.now_us, 5);
        assert_eq!(snap.admitted, 2);
        assert!(snap.inflight.is_empty());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(StatusSnapshot::from_json("not json").is_err());
        assert!(StatusSnapshot::from_json("{\"now_us\":}").is_err());
        // A hostile body is refused, not a stack overflow.
        assert!(StatusSnapshot::from_json(&"[".repeat(200_000)).is_err());
        assert!(StatusSnapshot::from_json("{\"inflight\":[7]}").is_err());
    }

    #[test]
    fn parser_rejects_out_of_range_fields() {
        let json = sample().to_json();
        for (from, to) in [
            ("\"port\":9900", "\"port\":70000"),
            ("\"stage\":4", "\"stage\":4294967301"),
            ("\"hops\":2", "\"hops\":4294967296"),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json);
            assert!(StatusSnapshot::from_json(&bad).is_err(), "{to}");
        }
    }
}
