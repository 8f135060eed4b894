//! Microbenchmarks of each layer's public functions, fed with the
//! workload's own inputs: its pages, its templates, and the messages and
//! arrivals its queries produce.
//!
//! Those messages come from a capture run: each of the workload's
//! templates executed once in-process, every server engine and the user
//! site exchanging messages through a recording network in FIFO order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use webdis_cache::{AnswerCache, CachePolicy};
use webdis_core::network::RecordingNetwork;
use webdis_core::{query_server_addr, EngineConfig, LogMode, LogTable, ServerEngine, UserSite};
use webdis_disql::{parse_disql, WebQuery};
use webdis_model::{SiteAddr, Url};
use webdis_net::{decode_message, encode_message, CloneState, Message, QueryId, TcpEndpoint};
use webdis_pre::Pre;
use webdis_rel::{canonicalize, compile, eval_node_query_with_stats, NodeDb, NodeQuery};
use webdis_web::{HostedWeb, LiveWeb};

use crate::stats;
use crate::workload::{self, Workload};

/// Samples per microbenchmark; each reports the median sample.
const SAMPLES: usize = 31;

/// Clone sends timed for `net.send_us`.
const SENDS: usize = 60;

/// Mutations timed for `web.mutation_apply_us` outside `living`.
const APPLIES: usize = 64;

/// The messages and arrivals of one query, recorded in-process.
pub struct Capture {
    /// Clone messages, in send order.
    pub queries: Vec<Message>,
    /// Result reports, in send order.
    pub reports: Vec<Message>,
    /// Every arrival at a server — the start node plus each forward the
    /// reports announce, duplicates included — as the log table sees it.
    pub arrivals: Vec<(QueryId, Url, CloneState)>,
}

/// Runs each of `queries` once on `web` with every engine in this thread,
/// one after the other.
pub fn capture(web: &HostedWeb, queries: &[WebQuery]) -> Capture {
    let web = Arc::new(web.clone());
    let cfg = EngineConfig::default();
    let user_addr = SiteAddr {
        host: "user.test".into(),
        port: 9900,
    };
    let mut engines: BTreeMap<SiteAddr, ServerEngine> = web
        .sites()
        .into_iter()
        .map(|site| {
            let addr = query_server_addr(&site);
            (addr, ServerEngine::new(site, Arc::clone(&web), cfg.clone()))
        })
        .collect();
    let mut out = Capture {
        queries: Vec::new(),
        reports: Vec::new(),
        arrivals: Vec::new(),
    };
    for (num, query) in queries.iter().enumerate() {
        let id = QueryId {
            user: "bench".into(),
            host: user_addr.host.clone(),
            port: user_addr.port,
            query_num: num as u64 + 1,
        };
        for node in &query.start_nodes {
            let state = CloneState {
                num_q: query.stages.len() as u32,
                rem_pre: query.stages[0].pre.clone(),
            };
            out.arrivals.push((id.clone(), node.clone(), state));
        }
        let mut user = UserSite::new(id.clone(), query.clone(), cfg.clone());
        let mut net = RecordingNetwork::default();
        user.start(&mut net);
        let mut queue: VecDeque<(SiteAddr, Message)> = net.sent.drain(..).collect();
        while let Some((to, msg)) = queue.pop_front() {
            match &msg {
                Message::Query(_) => out.queries.push(msg.clone()),
                Message::Report(r) => {
                    for node in &r.reports {
                        for e in &node.new_entries {
                            out.arrivals
                                .push((id.clone(), e.node.clone(), e.state.clone()));
                        }
                    }
                    out.reports.push(msg.clone());
                }
                _ => {}
            }
            if to == user_addr {
                user.on_message(&mut net, msg);
            } else if let Some(engine) = engines.get_mut(&to) {
                engine.on_message(&mut net, msg);
            }
            queue.extend(net.sent.drain(..));
        }
        assert!(user.complete, "capture run must complete");
    }
    out
}

/// Median over [`SAMPLES`] of `f`'s time divided by `ops`, in ns.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

/// Per-layer microbenchmark results.
#[derive(Debug, Default)]
pub struct Micro {
    /// One `tcp::send_to` of a clone, µs.
    pub send_us: f64,
    /// `encode_message`/`decode_message` per query and report message, ns.
    pub encode_query_ns: f64,
    /// See `encode_query_ns`.
    pub encode_report_ns: f64,
    /// See `encode_query_ns`.
    pub decode_query_ns: f64,
    /// See `encode_query_ns`.
    pub decode_report_ns: f64,
    /// `LogTable::check` per arrival, ns.
    pub log_check_ns: f64,
    /// `Pre::first` plus one `Pre::deriv` per first link type, per PRE, ns.
    pub deriv_ns: f64,
    /// `nfa::contains` per PRE pair, ns.
    pub contains_ns: f64,
    /// `parse_html`, µs per KiB.
    pub parse_us_per_kib: f64,
    /// `NodeDb::build`, µs per KiB.
    pub build_us_per_kib: f64,
    /// Mean page size of the pages the workload visits, KiB.
    pub page_kib: f64,
    /// `eval_node_query_with_stats` per (page, node-query) pair, µs.
    pub eval_us: f64,
    /// Tuples visited per evaluation.
    pub eval_tuples_visited: f64,
    /// `parse_disql` per template, µs.
    pub disql_parse_us: f64,
    /// `AnswerCache::lookup`, hits and misses, ns.
    pub cache_lookup_ns: f64,
    /// `LiveWeb::apply` on a twin web, µs.
    pub apply_us: f64,
}

/// Runs every microbenchmark on `workload`'s inputs: `web` is a round's web.
pub fn measure(workload: Workload, web: &HostedWeb, schedule_seed: u64) -> Micro {
    let templates = workload::parse_templates(workload);
    let cap = capture(web, &templates);
    // webdis-net: the transport and the codec.
    let mut m = Micro {
        send_us: send_us(&cap.queries[0]),
        ..Micro::default()
    };
    let encoded = |msgs: &[Message]| -> Vec<Vec<u8>> { msgs.iter().map(encode_message).collect() };
    let (q_bytes, r_bytes) = (encoded(&cap.queries), encoded(&cap.reports));
    m.encode_query_ns = ns_per_op(cap.queries.len(), || {
        for msg in &cap.queries {
            black_box(encode_message(black_box(msg)));
        }
    });
    m.encode_report_ns = ns_per_op(cap.reports.len(), || {
        for msg in &cap.reports {
            black_box(encode_message(black_box(msg)));
        }
    });
    m.decode_query_ns = ns_per_op(q_bytes.len(), || {
        for b in &q_bytes {
            black_box(decode_message(black_box(b)).expect("own encoding decodes"));
        }
    });
    m.decode_report_ns = ns_per_op(r_bytes.len(), || {
        for b in &r_bytes {
            black_box(decode_message(black_box(b)).expect("own encoding decodes"));
        }
    });

    // webdis-core: the log table replaying the query's arrivals.
    m.log_check_ns = ns_per_op(cap.arrivals.len(), || {
        let mut log = LogTable::new();
        for (id, node, state) in &cap.arrivals {
            black_box(log.check(LogMode::Paper, id, node, state, true, 0));
        }
    });

    // webdis-pre: every PRE the workload's clones carry.
    let mut pres: Vec<Pre> = Vec::new();
    let all_pres = templates
        .iter()
        .flat_map(|q| q.stages.iter().map(|s| &s.pre))
        .chain(cap.arrivals.iter().map(|(_, _, s)| &s.rem_pre));
    for p in all_pres {
        if !pres.contains(p) {
            pres.push(p.clone());
        }
    }
    m.deriv_ns = ns_per_op(pres.len(), || {
        for p in &pres {
            for t in black_box(p).first().iter() {
                black_box(p.deriv(t));
            }
        }
    });
    m.contains_ns = ns_per_op(pres.len() * pres.len(), || {
        for a in &pres {
            for b in &pres {
                black_box(webdis_pre::nfa::contains(black_box(a), black_box(b)));
            }
        }
    });

    // webdis-html and webdis-rel: the pages the query visits.
    let visited: BTreeSet<&Url> = cap.arrivals.iter().map(|(_, n, _)| n).collect();
    let pages: Vec<(&Url, &str)> = visited
        .into_iter()
        .filter_map(|u| web.get(u).map(|h| (u, h)))
        .collect();
    let kib = pages.iter().map(|(_, h)| h.len()).sum::<usize>() as f64 / 1024.0;
    m.page_kib = kib / pages.len() as f64;
    let parse_ns = ns_per_op(1, || {
        for (_, html) in &pages {
            black_box(webdis_html::parse_html(black_box(html)));
        }
    });
    m.parse_us_per_kib = parse_ns / 1e3 / kib;
    let parsed: Vec<_> = pages
        .iter()
        .map(|(u, h)| (*u, webdis_html::parse_html(h)))
        .collect();
    let build_ns = ns_per_op(1, || {
        for (url, doc) in &parsed {
            black_box(NodeDb::build(url, black_box(doc)));
        }
    });
    m.build_us_per_kib = build_ns / 1e3 / kib;
    let dbs: Vec<(&Url, NodeDb)> = parsed
        .iter()
        .map(|(u, d)| (*u, NodeDb::build(u, d)))
        .collect();
    let queries: Vec<&NodeQuery> = templates
        .iter()
        .flat_map(|q| q.stages.iter().map(|s| &s.query))
        .collect();
    let pairs = dbs.len() * queries.len();
    m.eval_us = ns_per_op(pairs, || {
        for (_, db) in &dbs {
            for q in &queries {
                black_box(eval_node_query_with_stats(db, q).expect("templates evaluate"));
            }
        }
    }) / 1e3;
    let tuples: u64 = dbs
        .iter()
        .flat_map(|(_, db)| queries.iter().map(move |q| (db, q)))
        .map(|(db, q)| {
            eval_node_query_with_stats(db, q)
                .expect("templates evaluate")
                .1
                .tuples_visited
        })
        .sum();
    m.eval_tuples_visited = tuples as f64 / pairs as f64;

    // webdis-disql.
    m.disql_parse_us = ns_per_op(workload.templates().len(), || {
        for t in workload.templates() {
            black_box(parse_disql(black_box(t)).expect("templates parse"));
        }
    }) / 1e3;

    // webdis-cache: answers of every other page resident, so lookups
    // hit (exactly or by subsumption) and miss.
    let mut cache = AnswerCache::new(CachePolicy::default());
    let keyed: Vec<(&Url, &NodeDb, &NodeQuery, _)> = dbs
        .iter()
        .flat_map(|(u, db)| queries.iter().map(move |q| (*u, db, *q, canonicalize(q))))
        .collect();
    for (i, (url, db, q, cq)) in keyed.iter().enumerate() {
        if i % 2 == 0 {
            let (rows, bindings, st) = compile(q)
                .and_then(|p| p.execute_with_bindings(db))
                .expect("templates evaluate");
            cache.insert(&url.to_string(), cq, rows, bindings, st.tuples_visited);
        }
    }
    let node_names: Vec<String> = keyed.iter().map(|(u, ..)| u.to_string()).collect();
    m.cache_lookup_ns = ns_per_op(keyed.len(), || {
        for ((_, db, q, cq), node) in keyed.iter().zip(&node_names) {
            black_box(cache.lookup(db, node, q, cq));
        }
    });

    // webdis-web: applying mutations to a twin of the web.
    let twin = LiveWeb::from_hosted(web);
    let schedule = workload::mutation_schedule(web, schedule_seed);
    let applies: Vec<f64> = schedule.events[..APPLIES]
        .iter()
        .map(|e| {
            let t = Instant::now();
            twin.apply(e);
            stats::us(t.elapsed())
        })
        .collect();
    m.apply_us = stats::median(&applies);
    m
}

/// Median time of one `tcp::send_to` of `msg` to a loopback endpoint, µs.
fn send_us(msg: &Message) -> f64 {
    let endpoint = TcpEndpoint::bind("127.0.0.1:0").expect("bind loopback");
    let addr = endpoint.local_addr();
    let samples: Vec<f64> = (0..SENDS)
        .map(|_| {
            let t = Instant::now();
            webdis_net::tcp::send_to(addr, msg).expect("loopback send");
            let dt = stats::us(t.elapsed());
            endpoint
                .recv_timeout(Duration::from_secs(5))
                .expect("frame arrives");
            dt
        })
        .collect();
    stats::median(&samples)
}
