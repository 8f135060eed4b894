//! `chaos-repro.json`: the replayable encoding of a failing plan.
//!
//! One JSON object holding the plan's seeds and knobs plus a `faults`
//! array of flat objects — everything integers and strings, so the
//! file is diff-friendly and replays bit-identically. Written and read
//! with the shared `webdis_trace::json` codec.

use webdis_trace::json::{self, array, ObjectWriter, Value};

use crate::plan::{ChaosPlan, FaultSpec};

/// Format version stamped into every file.
pub const REPRO_VERSION: u64 = 1;

/// Encodes a failing plan (and the violation kind it reproduces, when
/// known) as a `chaos-repro.json` document.
pub fn encode(plan: &ChaosPlan, violation: Option<&str>) -> String {
    let mut out = String::with_capacity(512);
    let mut w = ObjectWriter::new(&mut out);
    w.num("version", REPRO_VERSION);
    if let Some(kind) = violation {
        w.str("violation", kind);
    }
    w.num("sites", plan.sites as u64);
    w.num("docs_per_site", plan.docs_per_site as u64);
    w.num("web_seed", plan.web_seed);
    w.num("users", plan.users as u64);
    w.num("queries_per_user", plan.queries_per_user as u64);
    w.num("interarrival_us", plan.interarrival_us);
    w.num("workload_seed", plan.workload_seed);
    w.num("sim_seed", plan.sim_seed);
    w.num("jitter_us", plan.jitter_us);
    w.num("horizon_us", plan.horizon_us);
    if let Some(expiry) = plan.expiry_us {
        w.num("expiry_us", expiry);
    }
    if let Some(budget) = plan.cache_budget_bytes {
        w.num("cache_budget_bytes", budget);
    }
    // Living-web knobs, written only off their defaults so pre-living
    // repro files stay byte-identical under re-encode.
    if plan.doc_cache_size != 0 {
        w.num("doc_cache_size", plan.doc_cache_size as u64);
    }
    if !plan.validate_doc_cache {
        w.num("validate_doc_cache", 0u64);
    }
    array(w.key("faults"), &plan.faults, |out, fault| {
        let mut w = ObjectWriter::new(out);
        w.str("kind", fault.kind());
        match fault {
            FaultSpec::Drop { from, to, rate_ppm }
            | FaultSpec::Dup { from, to, rate_ppm }
            | FaultSpec::Corrupt { from, to, rate_ppm } => {
                w.str("from", from).str("to", to).num("rate_ppm", *rate_ppm);
            }
            FaultSpec::Partition {
                start_us,
                end_us,
                side_a,
                side_b,
            } => {
                w.num("start_us", *start_us)
                    .num("end_us", *end_us)
                    .str("side_a", &side_a.join(";"))
                    .str("side_b", &side_b.join(";"));
            }
            FaultSpec::CrashRestart {
                host,
                port,
                at_us,
                down_us,
            } => {
                w.str("host", host)
                    .num("port", *port)
                    .num("at_us", *at_us)
                    .num("down_us", *down_us);
            }
            FaultSpec::Mutation {
                at_us,
                op,
                url,
                arg,
            } => {
                w.num("at_us", *at_us)
                    .str("op", op)
                    .str("url", url)
                    .str("arg", arg);
            }
        }
        w.end();
    });
    w.end();
    out
}

fn sides(joined: &str) -> Vec<String> {
    joined
        .split(';')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Decodes a `chaos-repro.json` document back into the plan and the
/// recorded violation kind (if one was stamped).
pub fn decode(text: &str) -> Result<(ChaosPlan, Option<String>), String> {
    let v = json::parse(text)?;
    let version: u64 = v.req("version")?;
    if version != REPRO_VERSION {
        return Err(format!("unsupported repro version {version}"));
    }
    let mut faults = Vec::new();
    for f in v.req::<&[Value]>("faults")? {
        faults.push(match f.req::<&str>("kind")? {
            "drop" => FaultSpec::Drop {
                from: f.req("from")?,
                to: f.req("to")?,
                rate_ppm: f.req("rate_ppm")?,
            },
            "dup" => FaultSpec::Dup {
                from: f.req("from")?,
                to: f.req("to")?,
                rate_ppm: f.req("rate_ppm")?,
            },
            "corrupt" => FaultSpec::Corrupt {
                from: f.req("from")?,
                to: f.req("to")?,
                rate_ppm: f.req("rate_ppm")?,
            },
            "partition" => FaultSpec::Partition {
                start_us: f.req("start_us")?,
                end_us: f.req("end_us")?,
                side_a: sides(f.req("side_a")?),
                side_b: sides(f.req("side_b")?),
            },
            "crash_restart" => FaultSpec::CrashRestart {
                host: f.req("host")?,
                port: f.req("port")?,
                at_us: f.req("at_us")?,
                down_us: f.req("down_us")?,
            },
            "mutation" => FaultSpec::Mutation {
                at_us: f.req("at_us")?,
                op: f.req("op")?,
                url: f.req("url")?,
                arg: f.req("arg")?,
            },
            other => return Err(format!("unknown fault kind {other:?}")),
        });
    }
    let plan = ChaosPlan {
        sites: v.req("sites")?,
        docs_per_site: v.req("docs_per_site")?,
        web_seed: v.req("web_seed")?,
        users: v.req("users")?,
        queries_per_user: v.req("queries_per_user")?,
        interarrival_us: v.req("interarrival_us")?,
        workload_seed: v.req("workload_seed")?,
        sim_seed: v.req("sim_seed")?,
        jitter_us: v.req("jitter_us")?,
        horizon_us: v.req("horizon_us")?,
        expiry_us: v.opt("expiry_us")?,
        cache_budget_bytes: v.opt("cache_budget_bytes")?,
        doc_cache_size: v.opt("doc_cache_size")?.unwrap_or(0),
        validate_doc_cache: v.opt::<u64>("validate_doc_cache")? != Some(0),
        faults,
    };
    Ok((plan, v.opt("violation")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::FaultScheduleGen;
    use crate::plan::ANY_HOST;

    fn every_kind_plan() -> ChaosPlan {
        ChaosPlan {
            expiry_us: Some(123_456),
            faults: vec![
                FaultSpec::Drop {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 100_000,
                },
                FaultSpec::Dup {
                    from: "user0.load.test".into(),
                    to: "wdqs.site1.test".into(),
                    rate_ppm: 1_000_000,
                },
                FaultSpec::Corrupt {
                    from: ANY_HOST.into(),
                    to: ANY_HOST.into(),
                    rate_ppm: 5,
                },
                FaultSpec::Partition {
                    start_us: 10,
                    end_us: 20,
                    side_a: vec!["wdqs.site0.test".into()],
                    side_b: vec!["wdqs.site1.test".into(), "wdqs.site2.test".into()],
                },
                FaultSpec::CrashRestart {
                    host: "wdqs.site2.test".into(),
                    port: 80,
                    at_us: 1_000,
                    down_us: 2_000,
                },
            ],
            ..ChaosPlan::default()
        }
    }

    #[test]
    fn round_trips_every_fault_kind() {
        let plan = every_kind_plan();
        let text = encode(&plan, Some("hang"));
        let (back, violation) = decode(&text).expect("round trip");
        assert_eq!(back, plan);
        assert_eq!(violation.as_deref(), Some("hang"));
    }

    /// The exact bytes captured before the codec moved onto the shared
    /// writer: committed repro files must re-encode identically.
    #[test]
    fn every_fault_kind_encodes_to_pinned_bytes() {
        assert_eq!(
            encode(&every_kind_plan(), Some("hang")),
            r#"{"version":1,"violation":"hang","sites":4,"docs_per_site":2,"web_seed":1,"users":1,"queries_per_user":2,"interarrival_us":50000,"workload_seed":1,"sim_seed":1,"jitter_us":0,"horizon_us":60000000,"expiry_us":123456,"faults":[{"kind":"drop","from":"*","to":"*","rate_ppm":100000},{"kind":"dup","from":"user0.load.test","to":"wdqs.site1.test","rate_ppm":1000000},{"kind":"corrupt","from":"*","to":"*","rate_ppm":5},{"kind":"partition","start_us":10,"end_us":20,"side_a":"wdqs.site0.test","side_b":"wdqs.site1.test;wdqs.site2.test"},{"kind":"crash_restart","host":"wdqs.site2.test","port":80,"at_us":1000,"down_us":2000}]}"#
        );
    }

    #[test]
    fn expiry_none_round_trips_as_absent_field() {
        let plan = ChaosPlan {
            expiry_us: None,
            ..ChaosPlan::default()
        };
        let text = encode(&plan, None);
        assert!(!text.contains("expiry_us"));
        let (back, violation) = decode(&text).expect("round trip");
        assert_eq!(back.expiry_us, None);
        assert_eq!(violation, None);
    }

    #[test]
    fn generated_plans_round_trip() {
        let g = FaultScheduleGen::new(99);
        for i in 0..25 {
            let plan = g.plan(i);
            let (back, _) = decode(&encode(&plan, None)).expect("round trip");
            assert_eq!(back, plan, "plan {i}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(decode("").is_err());
        assert!(decode("{}").is_err());
        assert!(decode("{\"version\":99,\"faults\":[]}").is_err());
        assert!(decode("{\"version\":1,\"faults\":[{\"kind\":\"nope\"}]}").is_err());
        assert!(decode(&"[".repeat(200_000)).is_err());
        // Out-of-range integers are refused, never truncated.
        let text = encode(&every_kind_plan(), None);
        for (from, to) in [
            ("\"rate_ppm\":5", "\"rate_ppm\":4294967301"),
            ("\"port\":80", "\"port\":70000"),
            ("\"expiry_us\":123456", "\"expiry_us\":18446744073709551616"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text);
            assert!(decode(&bad).is_err(), "{to}");
        }
    }
}
