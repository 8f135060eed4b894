//! Plan execution: the faulty run, its fault-free twin, and the
//! oracle verdict — plus the TCP smoke scenario that pushes the same
//! fault surface through real sockets.

use std::hash::Hasher;
use std::sync::Arc;
use std::time::Duration;

use webdis_bench::doctor;
use webdis_core::{run_query_tcp_faulty, EngineConfig, ExpiryPolicy, SimRunError, TcpFaultPlan};
use webdis_load::{run_workload_sim, run_workload_sim_live, WorkloadOutcome};
use webdis_model::Fnv1a;
use webdis_trace::{TraceHandle, TraceRecord};
use webdis_web::LiveWeb;

use crate::oracle::{self, Violation};
use crate::plan::ChaosPlan;

/// Everything one executed plan exposes.
#[derive(Debug)]
pub struct ChaosReport {
    /// Oracle verdict (empty = all invariants held).
    pub violations: Vec<Violation>,
    /// The faulty run.
    pub faulty: WorkloadOutcome,
    /// The fault-free twins: one for a frozen plan; for a living plan,
    /// one per web content version (pristine first), whose union is the
    /// benign row envelope.
    pub baselines: Vec<WorkloadOutcome>,
    /// The faulty run's trace (the doctor's and the repro's evidence).
    pub records: Vec<TraceRecord>,
}

impl ChaosReport {
    /// A one-line verdict, stable across runs of the same plan — the
    /// unit the determinism check hashes.
    pub fn verdict_line(&self) -> String {
        if self.violations.is_empty() {
            format!(
                "ok: {} quer(ies) complete, {} rows",
                self.faulty.records.len(),
                self.faulty
                    .records
                    .iter()
                    .map(|r| r.result_set().len())
                    .sum::<usize>()
            )
        } else {
            let mut kinds: Vec<&str> = self.violations.iter().map(|v| v.kind()).collect();
            kinds.dedup();
            format!("VIOLATION[{}]: {}", kinds.join(","), self.violations[0])
        }
    }

    /// True when some violation carries the given kind label.
    pub fn has_kind(&self, kind: &str) -> bool {
        self.violations.iter().any(|v| v.kind() == kind)
    }
}

/// Runs a plan end to end: fault-free twin(s) first, then the faulty
/// run under a collecting tracer, then the oracle.
///
/// A plan with [`FaultSpec::Mutation`](crate::plan::FaultSpec) entries
/// runs its faulty leg on a **living** web whose mutation schedule
/// lands at exact virtual times mid-workload. Its fault-free twins are
/// one frozen run per web content version — the pristine web, then the
/// web after each successive mutation — so the oracle can separate
/// "the web changed" (rows drawn from *some* version: benign) from
/// "the engine lost or invented rows" (violation).
pub fn run_plan(plan: &ChaosPlan) -> Result<ChaosReport, SimRunError> {
    let web = Arc::new(webdis_web::generate(&plan.web_config()));
    let spec = plan.workload_spec();
    let schedule = plan.mutation_schedule();

    let mut baselines = Vec::with_capacity(schedule.events.len() + 1);
    baselines.push(run_workload_sim(
        web.clone(),
        &spec,
        plan.engine_config(TraceHandle::noop()),
        plan.sim_config(false),
    )?);
    if !schedule.events.is_empty() {
        let twin = LiveWeb::from_hosted(&web);
        for m in &schedule.events {
            twin.apply(m);
            baselines.push(run_workload_sim(
                Arc::new(twin.snapshot()),
                &spec,
                plan.engine_config(TraceHandle::noop()),
                plan.sim_config(false),
            )?);
        }
    }

    let (collector, tracer) = TraceHandle::collecting(1 << 17);
    let faulty = if schedule.events.is_empty() {
        run_workload_sim(
            web,
            &spec,
            plan.engine_config(tracer),
            plan.sim_config(true),
        )?
    } else {
        run_workload_sim_live(
            Arc::new(LiveWeb::from_hosted(&web)),
            &schedule,
            &spec,
            plan.engine_config(tracer),
            plan.sim_config(true),
        )?
    };
    let records = collector.snapshot();

    let violations = oracle::check(plan, &baselines, &faulty, &records);
    Ok(ChaosReport {
        violations,
        faulty,
        baselines,
        records,
    })
}

/// FNV-1a over the verdict lines: the sweep digest two runs of the
/// same master seed must agree on, byte for byte.
pub fn verdict_digest(lines: &[String]) -> u64 {
    let mut hash = Fnv1a::default();
    for line in lines {
        hash.write(line.as_bytes());
        hash.write(b"\n");
    }
    hash.finish()
}

/// The query the TCP smoke runs (the paper's campus example).
const TCP_QUERY: &str = webdis_web::figures::CAMPUS_QUERY;

/// The campus site whose daemon the TCP smoke crashes.
const TCP_CRASH_HOST: &str = "dsl.serc.iisc.ernet.in";

/// Pushes the chaos fault surface through real sockets: one campus
/// query under frame corruption, report duplication, and a daemon
/// crash-restart window, oracle-checked against a fault-free TCP
/// baseline. Returns the violations (empty = invariants held).
pub fn run_tcp_smoke() -> Result<Vec<Violation>, SimRunError> {
    let web = Arc::new(webdis_web::figures::campus());
    let engine = |tracer: TraceHandle| EngineConfig {
        expiry: Some(ExpiryPolicy::with_timeout(500_000)),
        tracer,
        ..EngineConfig::default()
    };
    let deadline = Duration::from_secs(10);

    let baseline = run_query_tcp_faulty(
        web.clone(),
        TCP_QUERY,
        engine(TraceHandle::noop()),
        deadline,
        TcpFaultPlan::default(),
    )?;

    let faults = TcpFaultPlan::default()
        .with_query_corruption(1, 1)
        .with_report_dups(0, usize::MAX / 2)
        .with_crash_window(
            TCP_CRASH_HOST,
            Duration::from_millis(0),
            Duration::from_millis(250),
        );
    let (collector, tracer) = TraceHandle::collecting(1 << 15);
    let outcome = run_query_tcp_faulty(web, TCP_QUERY, engine(tracer), deadline, faults)?;
    let records = collector.snapshot();

    let mut violations = Vec::new();
    if !baseline.complete {
        violations.push(Violation::BaselineHang {
            user: 0,
            query_num: 1,
        });
    }
    if !outcome.complete {
        violations.push(Violation::Hang {
            user: 0,
            query_num: 1,
            why: outcome
                .why_incomplete
                .clone()
                .unwrap_or_else(|| "no diagnosis".to_string()),
        });
    }
    // Row safety: set inclusion (the crash window makes recomputation
    // legitimate, exactly as in the simulated oracle).
    let base_rows = tcp_row_set(&baseline);
    for key in tcp_row_set(&outcome) {
        if !base_rows.contains(&key) {
            violations.push(Violation::RowExcess {
                user: 0,
                query_num: 1,
                detail: format!("row {key:?} never produced by the fault-free run"),
            });
        }
    }
    for anomaly in doctor::diagnose(&records).anomalies {
        violations.push(Violation::TraceAnomaly { detail: anomaly });
    }
    Ok(violations)
}

fn tcp_row_set(
    outcome: &webdis_core::TcpOutcome,
) -> std::collections::BTreeSet<(u32, String, Vec<String>)> {
    let mut out = std::collections::BTreeSet::new();
    for (stage, rows) in &outcome.results {
        for (node, row) in rows {
            out.insert((
                *stage,
                node.to_string(),
                row.values.iter().map(|v| v.render()).collect(),
            ));
        }
    }
    out
}
