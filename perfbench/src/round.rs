//! One round of a workload on a loopback `TcpCluster`: set-up, the
//! closed-loop generator, the drain, and the correctness check.
//!
//! A single generator thread keeps exactly `outstanding` queries in
//! flight: it submits, receives reports and acks, and submits the next
//! query as soon as one completes. It uses only the public client and
//! cluster APIs, so what it measures is what a user site sees.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use webdis_core::{
    run_query_sim, ClientProcess, EngineConfig, ServerStats, TcpCluster, TcpFaultPlan,
};
use webdis_disql::WebQuery;
use webdis_load::QueryRecord;
use webdis_model::Url;
use webdis_net::Message;
use webdis_rel::ResultRow;
use webdis_trace::{RegistrySnapshot, TraceHandle};
use webdis_web::{HostedWeb, LiveWeb, MutationSchedule};

use crate::stats;
use crate::workload::{self, RoundInputs, Workload, COMPLETIONS_PER_MUTATION};

/// A query's canonical answer, as [`QueryRecord::result_set`] builds it.
pub type RowSet = BTreeSet<(u32, String, Vec<String>)>;

/// How long the generator waits for in-flight queries after the timed
/// window before it counts them as hung.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Pause between the last completion and shutdown.
const QUIESCE: Duration = Duration::from_millis(100);

/// How often the generator samples threads and descriptors.
const PROC_SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Why a query did not count as a clean, verified completion.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Never completed, even after the drain.
    pub hung: usize,
    /// Completed with nodes refused by admission control.
    pub shed: usize,
    /// Completed with nodes written off by stale-entry expiry.
    pub expired: usize,
    /// The first clone could not be dispatched.
    pub unsubmitted: usize,
    /// Completed, but its CHT did not converge or its rows differ from
    /// the reference.
    pub wrong: usize,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> usize {
        self.hung + self.shed + self.expired + self.unsubmitted + self.wrong
    }

    /// Folds another round's failures in.
    pub fn add(&mut self, o: &Failures) {
        self.hung += o.hung;
        self.shed += o.shed;
        self.expired += o.expired;
        self.unsubmitted += o.unsubmitted;
        self.wrong += o.wrong;
    }
}

/// Per-kind wire totals of one round.
#[derive(Debug, Default, Clone, Copy)]
pub struct Wire {
    /// Query (clone) messages.
    pub query_msgs: u64,
    /// Report messages.
    pub report_msgs: u64,
    /// Ack messages.
    pub ack_msgs: u64,
    /// Query bytes.
    pub query_bytes: u64,
    /// Report bytes.
    pub report_bytes: u64,
    /// Every metered byte.
    pub total_bytes: u64,
}

impl Wire {
    /// Every metered message.
    pub fn total_msgs(&self) -> u64 {
        self.query_msgs + self.report_msgs + self.ack_msgs
    }
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundResult {
    /// Web generation, the living-web wrap and cluster start.
    pub setup: Duration,
    /// Length of the timed window.
    pub window: Duration,
    /// Clean completions inside the timed window.
    pub completed_in_window: usize,
    /// Every completion, the drain included.
    pub completed: usize,
    /// Submissions.
    pub attempted: usize,
    /// Failed queries, by cause.
    pub failures: Failures,
    /// Submit-to-completion latency of every clean completion, ms.
    pub latencies_ms: Vec<f64>,
    /// Process CPU over the timed window.
    pub cpu: Duration,
    /// Wire totals at the end of the round.
    pub wire: Wire,
    /// Server counters summed over every site.
    pub server: ServerStats,
    /// Time of each `ClientProcess::submit`, µs.
    pub submit_us: Vec<f64>,
    /// Time of each `ClientProcess::on_message`, µs.
    pub on_message_us: Vec<f64>,
    /// Time of each `LiveWeb::apply`, µs (living only).
    pub apply_us: Vec<f64>,
    /// Mutations applied.
    pub mutations: usize,
    /// Completions whose rows were compared with a reference.
    pub rows_checked: usize,
    /// Highest thread count seen.
    pub threads_peak: u64,
    /// Highest open-descriptor count seen.
    pub fds_peak: u64,
    /// Resident set size samples taken in the timed window, MiB.
    pub rss_mib: Vec<f64>,
    /// Digest of the round's inputs.
    pub inputs_digest: u64,
    /// The tracer's registry, for traced rounds.
    pub registry: Option<RegistrySnapshot>,
}

/// How a round runs.
#[derive(Clone)]
pub struct RoundPlan {
    /// Queries kept in flight.
    pub outstanding: usize,
    /// Length of the timed window.
    pub window: Duration,
    /// Collect a trace registry (`EngineConfig::tracer`).
    pub traced: bool,
    /// Injected transport faults (tests only).
    pub faults: TcpFaultPlan,
    /// Engine configuration; `None` takes the workload's.
    pub engine: Option<EngineConfig>,
}

/// What a round's answers are checked against, prepared outside the
/// timed set-up.
struct Reference {
    /// One answer per template (frozen webs).
    frozen: Vec<RowSet>,
    /// The initial web and the mutation schedule (living webs): the
    /// answer of each mutation prefix is recomputed on a twin web after
    /// the round.
    living: Option<(HostedWeb, MutationSchedule)>,
    /// Digest of the round's inputs.
    digest: u64,
}

/// The canonical row set of one query's results.
pub fn row_set(results: &BTreeMap<u32, Vec<(Url, ResultRow)>>) -> RowSet {
    QueryRecord {
        user: 0,
        query_num: 0,
        submitted_us: 0,
        complete: true,
        completed_us: None,
        results: results.clone(),
        shed_nodes: 0,
        failed_nodes: 0,
        dead_link_nodes: 0,
        cht_converged: true,
        cht_live: 0,
        cht_stats: Default::default(),
        why_incomplete: None,
    }
    .result_set()
}

/// The answer of `template` on `web`, computed by the simulator under the
/// paper-default engine (no caches), independently of the cluster.
pub fn reference_rows(web: &HostedWeb, template: &str) -> RowSet {
    let out = run_query_sim(
        Arc::new(web.clone()),
        template,
        EngineConfig::default(),
        Default::default(),
    )
    .expect("benchmark templates are valid DISQL");
    assert!(out.complete, "reference run must complete");
    row_set(&out.results)
}

/// A completed query kept for the check after the round.
struct Done {
    template: usize,
    /// Mutations applied at submission and at completion.
    epochs: (usize, usize),
    rows: RowSet,
    converged: bool,
    in_window: bool,
}

/// The running cluster and the web it serves.
pub struct Deployment {
    /// The cluster.
    pub cluster: TcpCluster,
    /// The living web, when the workload has one.
    pub live: Option<Arc<LiveWeb>>,
}

/// Set-up as `setup_s` counts it: web generation, then — with whatever
/// `untimed` does in between left out — the living-web wrap and
/// `TcpCluster::start`. `untimed` computes what the check needs (the
/// reference answers) from the generated web.
pub fn set_up<R>(
    inputs: &RoundInputs,
    workload: Workload,
    engine: &EngineConfig,
    faults: TcpFaultPlan,
    untimed: impl FnOnce(&HostedWeb) -> R,
) -> (Duration, Deployment, R) {
    let t0 = Instant::now();
    let web = inputs.web();
    let generation = t0.elapsed();
    let extra = untimed(&web);
    let t1 = Instant::now();
    let deployment = if workload.is_living() {
        let live = Arc::new(LiveWeb::from_hosted(&web));
        Deployment {
            cluster: TcpCluster::start_live(Arc::clone(&live), engine, faults, None),
            live: Some(live),
        }
    } else {
        Deployment {
            cluster: TcpCluster::start(Arc::new(web), engine, faults),
            live: None,
        }
    };
    (generation + t1.elapsed(), deployment, extra)
}

/// Runs one round of `workload` under `plan`.
pub fn run_round(workload: Workload, inputs: &RoundInputs, plan: &RoundPlan) -> RoundResult {
    let templates = workload::parse_templates(workload);
    let mut engine = plan
        .engine
        .clone()
        .unwrap_or_else(|| workload.engine_config());
    let collector = plan.traced.then(|| {
        let (collector, tracer) = TraceHandle::collecting(1 << 12);
        engine.tracer = tracer;
        collector
    });
    let (setup, deployment, reference) =
        set_up(inputs, workload, &engine, plan.faults.clone(), |web| {
            let schedule = inputs
                .mutation_seed
                .map(|seed| workload::mutation_schedule(web, seed));
            Reference {
                digest: workload::inputs_digest(web, workload, &inputs.sequence, schedule.as_ref()),
                frozen: match schedule {
                    Some(_) => Vec::new(),
                    None => workload
                        .templates()
                        .iter()
                        .map(|t| reference_rows(web, t))
                        .collect(),
                },
                living: schedule.map(|s| (web.clone(), s)),
            }
        });
    let schedule = reference.living.as_ref().map(|(_, s)| s);
    let (mut result, done) = generate_load(
        &deployment,
        &templates,
        &inputs.sequence,
        schedule,
        &engine,
        plan,
    );
    result.setup = setup;
    result.inputs_digest = reference.digest;
    // Duplicate clones can still be in flight when the last query
    // completes; let the daemons receive and drop them so they count in
    // `ServerStats` instead of vanishing at shutdown. A daemon meters a
    // send after the peer has read it, so the wire counters are final only
    // once every daemon has stopped.
    std::thread::sleep(QUIESCE);
    let wire = Arc::clone(deployment.cluster.wire_counters());
    for e in &deployment.cluster.shutdown() {
        add_stats(&mut result.server, &e.stats);
    }
    result.wire = Wire {
        query_msgs: wire.msgs_of("query"),
        report_msgs: wire.msgs_of("report"),
        ack_msgs: wire.msgs_of("ack"),
        query_bytes: wire.bytes_of("query"),
        report_bytes: wire.bytes_of("report"),
        total_bytes: wire.total_bytes(),
    };
    result.registry = collector.map(|c| c.registry().snapshot());
    check(&mut result, done, workload, &reference);
    result
}

fn add_stats(sum: &mut ServerStats, s: &ServerStats) {
    sum.clones_received += s.clones_received;
    sum.arrivals += s.arrivals;
    sum.local_arrivals += s.local_arrivals;
    sum.evaluations += s.evaluations;
    sum.duplicates_dropped += s.duplicates_dropped;
    sum.docs_parsed += s.docs_parsed;
    sum.doc_cache_hits += s.doc_cache_hits;
    sum.cache_invalidations += s.cache_invalidations;
    sum.clones_forwarded += s.clones_forwarded;
    sum.queries_shed += s.queries_shed;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
    sum.cache_evictions += s.cache_evictions;
    sum.dead_links += s.dead_links;
}

/// The closed loop and the drain. Returns the measurements and the
/// completed queries, which are checked once the cluster is down.
fn generate_load(
    deployment: &Deployment,
    templates: &[WebQuery],
    sequence: &[usize],
    schedule: Option<&MutationSchedule>,
    engine: &EngineConfig,
    plan: &RoundPlan,
) -> (RoundResult, Vec<Done>) {
    let cluster = &deployment.cluster;
    let mut client = ClientProcess::new("bench", cluster.user_site().clone(), engine.clone());
    let mut net = cluster.user_net();
    let mut r = RoundResult::default();
    // query number -> (template, submit instant, mutations applied at submit)
    let mut inflight: BTreeMap<u64, (usize, Instant, usize)> = BTreeMap::new();
    let mut done: Vec<Done> = Vec::new();
    let mut next = 0usize;
    let mut epoch = 0usize;
    let mut last_sample = Instant::now() - PROC_SAMPLE_EVERY;
    let mut last_sweep = Instant::now();

    let cpu0 = stats::process_cpu();
    let start = Instant::now();
    let end = start + plan.window;
    let mut cpu_end = None;
    loop {
        let now = Instant::now();
        let in_window = now < end;
        if !in_window && cpu_end.is_none() {
            cpu_end = Some(stats::process_cpu());
            r.window = now - start;
        }
        while in_window && inflight.len() < plan.outstanding {
            let template = sequence[next % sequence.len()];
            next += 1;
            let t = Instant::now();
            let num = client.submit(&mut net, templates[template].clone());
            r.submit_us.push(stats::us(t.elapsed()));
            r.attempted += 1;
            inflight.insert(num, (template, t, epoch));
        }
        if inflight.is_empty() && !in_window {
            break;
        }
        if !in_window && now >= end + DRAIN_LIMIT {
            r.failures.hung += inflight.len();
            break;
        }
        if now - last_sample >= PROC_SAMPLE_EVERY {
            last_sample = now;
            r.threads_peak = r.threads_peak.max(stats::threads());
            r.fds_peak = r.fds_peak.max(stats::open_fds());
            if in_window {
                r.rss_mib.push(stats::rss_mib());
            }
        }
        if let Some(policy) = engine.expiry {
            if last_sweep.elapsed() >= Duration::from_micros(policy.period_us) {
                last_sweep = Instant::now();
                client.expire_stale_all(cluster.now_us(), policy.timeout_us);
                let finished: Vec<u64> = inflight
                    .keys()
                    .copied()
                    .filter(|n| client.query(*n).is_some_and(|q| q.complete))
                    .collect();
                for num in finished {
                    finish(
                        &mut client,
                        num,
                        &mut inflight,
                        &mut done,
                        &mut r,
                        epoch,
                        end,
                    );
                }
            }
        }
        let Some(msg) = cluster.recv_timeout(Duration::from_millis(2)) else {
            continue;
        };
        let num = match &msg {
            Message::Report(rep) => rep.id.query_num,
            Message::Ack(ack) => ack.id.query_num,
            _ => continue,
        };
        let t = Instant::now();
        client.on_message(&mut net, msg);
        r.on_message_us.push(stats::us(t.elapsed()));
        if !inflight.contains_key(&num) || !client.query(num).is_some_and(|q| q.complete) {
            continue;
        }
        finish(
            &mut client,
            num,
            &mut inflight,
            &mut done,
            &mut r,
            epoch,
            end,
        );
        if let (Some(live), Some(schedule)) = (&deployment.live, schedule) {
            if r.completed % COMPLETIONS_PER_MUTATION == 0 && r.mutations < schedule.events.len() {
                let t = Instant::now();
                live.apply(&schedule.events[r.mutations]);
                r.apply_us.push(stats::us(t.elapsed()));
                r.mutations += 1;
                epoch += 1;
            }
        }
    }
    if cpu_end.is_none() {
        r.window = start.elapsed();
    }
    r.cpu = cpu_end
        .unwrap_or_else(stats::process_cpu)
        .saturating_sub(cpu0);
    (r, done)
}

/// Books a completed query: classifies it, records its latency and
/// keeps its rows for the check.
fn finish(
    client: &mut ClientProcess,
    num: u64,
    inflight: &mut BTreeMap<u64, (usize, Instant, usize)>,
    done: &mut Vec<Done>,
    r: &mut RoundResult,
    epoch: usize,
    end: Instant,
) {
    let (template, submitted, epoch0) = inflight.remove(&num).expect("query is in flight");
    let now = Instant::now();
    let site = client.forget(num).expect("completed query exists");
    r.completed += 1;
    if !site.shed_entries.is_empty() {
        r.failures.shed += 1;
    } else if !site.failed_entries.is_empty() {
        r.failures.expired += 1;
    } else if !site.unreachable_start_sites.is_empty() {
        r.failures.unsubmitted += 1;
    } else {
        r.latencies_ms.push((now - submitted).as_secs_f64() * 1e3);
        if now < end {
            r.completed_in_window += 1;
        }
        done.push(Done {
            template,
            epochs: (epoch0, epoch),
            converged: site.cht.complete(),
            rows: row_set(&site.results),
            in_window: now < end,
        });
    }
}

/// Checks every clean completion: CHT convergence always; rows against
/// the reference on a frozen web, and on a living web for every query
/// that ran entirely between two mutations, against the answer of that
/// mutation prefix recomputed on a twin web. A wrong query stops
/// counting as a clean completion.
fn check(r: &mut RoundResult, done: Vec<Done>, workload: Workload, reference: &Reference) {
    let mut expected: BTreeMap<(usize, usize), RowSet> = BTreeMap::new();
    let living = reference.living.is_some();
    if let Some((web, schedule)) = &reference.living {
        let wanted: BTreeSet<(usize, usize)> = done
            .iter()
            .filter(|d| d.epochs.0 == d.epochs.1)
            .map(|d| (d.epochs.0, d.template))
            .collect();
        let twin = LiveWeb::from_hosted(web);
        let mut applied = 0;
        for &(prefix, template) in &wanted {
            while applied < prefix {
                twin.apply(&schedule.events[applied]);
                applied += 1;
            }
            expected.insert(
                (prefix, template),
                reference_rows(&twin.snapshot(), workload.templates()[template]),
            );
        }
    } else {
        for (template, rows) in reference.frozen.iter().enumerate() {
            expected.insert((0, template), rows.clone());
        }
    }
    for d in done {
        let key = if living {
            (d.epochs.0 == d.epochs.1).then_some((d.epochs.0, d.template))
        } else {
            Some((0, d.template))
        };
        let rows_ok = key.is_none_or(|k| expected.get(&k) == Some(&d.rows));
        if key.is_some() {
            r.rows_checked += 1;
        }
        if !d.converged || !rows_ok {
            r.failures.wrong += 1;
            if d.in_window {
                r.completed_in_window -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdis_core::{AdmissionPolicy, ExpiryPolicy};

    fn plan(window_ms: u64) -> RoundPlan {
        RoundPlan {
            outstanding: 2,
            window: Duration::from_millis(window_ms),
            traced: false,
            faults: TcpFaultPlan::default(),
            engine: None,
        }
    }

    fn digest(w: Workload, seed: u64) -> u64 {
        let inputs = RoundInputs::new(w, seed, 0);
        let web = inputs.web();
        let schedule = inputs
            .mutation_seed
            .map(|s| workload::mutation_schedule(&web, s));
        workload::inputs_digest(&web, w, &inputs.sequence, schedule.as_ref())
    }

    /// Every count per completed query, message traffic included.
    fn all_counts(r: &RoundResult) -> Vec<f64> {
        let n = r.completed as f64;
        [
            r.wire.total_msgs(),
            r.wire.total_bytes,
            r.wire.query_bytes,
            r.wire.report_bytes,
            r.server.clones_received,
            r.server.duplicates_dropped,
            r.server.arrivals,
            r.server.docs_parsed,
            r.server.evaluations,
        ]
        .iter()
        .map(|&c| c as f64 / n)
        .collect()
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(digest(w, 7), digest(w, 7), "{}", w.name());
            assert_ne!(digest(w, 7), digest(w, 8), "{}", w.name());
        }
        let a = RoundInputs::new(Workload::Living, 7, 1);
        let b = RoundInputs::new(Workload::Living, 7, 1);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.mutation_seed, b.mutation_seed);
        assert!(a.sequence.iter().collect::<BTreeSet<_>>().len() == 3);
    }

    #[test]
    fn counts_per_query_repeat_exactly_across_runs() {
        for w in [Workload::Flood, Workload::Bigdoc] {
            let inputs = RoundInputs::new(w, 3, 0);
            let a = run_round(w, &inputs, &plan(400));
            let b = run_round(w, &inputs, &plan(400));
            assert_eq!(a.failures.total() + b.failures.total(), 0);
            assert!(a.completed > 0 && b.completed > 0);
            assert_eq!(all_counts(&a), all_counts(&b), "{}", w.name());
        }
    }

    #[test]
    fn expired_queries_count_as_failed_and_the_round_ends() {
        let mut p = plan(600);
        // The first clone of the first query is lost in flight: its CHT entry
        // can only be written off by expiry.
        p.faults = TcpFaultPlan::drop_queries(0, 1);
        p.engine = Some(EngineConfig {
            expiry: Some(ExpiryPolicy::with_timeout(200_000)),
            ..EngineConfig::default()
        });
        let r = run_round(
            Workload::Flood,
            &RoundInputs::new(Workload::Flood, 5, 0),
            &p,
        );
        assert_eq!(r.failures.hung, 0);
        assert!(r.failures.expired >= 1, "{:?}", r.failures);
        assert!(r.failures.total() <= r.attempted);
        assert!(r.completed_in_window > 0);
        assert_eq!(r.completed, r.attempted);
    }

    #[test]
    fn refused_queries_count_as_failed_and_the_round_ends() {
        let mut p = plan(600);
        p.engine = Some(EngineConfig {
            admission: Some(AdmissionPolicy { max_queries: 1 }),
            ..EngineConfig::default()
        });
        let r = run_round(
            Workload::Flood,
            &RoundInputs::new(Workload::Flood, 5, 0),
            &p,
        );
        assert_eq!(r.failures.hung, 0);
        assert!(r.failures.shed >= 1, "{:?}", r.failures);
        assert_eq!(r.completed, r.attempted);
    }

    #[test]
    fn setup_excludes_the_reference_computation() {
        let inputs = RoundInputs::new(Workload::Bigdoc, 1, 0);
        let pause = Duration::from_millis(400);
        let (setup, deployment, pages) = set_up(
            &inputs,
            Workload::Bigdoc,
            &EngineConfig::default(),
            TcpFaultPlan::default(),
            |web| {
                let rows = reference_rows(web, workload::T13_LOCAL);
                assert!(!rows.is_empty());
                std::thread::sleep(pause);
                web.len()
            },
        );
        deployment.cluster.shutdown();
        assert_eq!(pages, 128);
        assert!(setup > Duration::ZERO && setup < pause, "{setup:?}");
    }
}
