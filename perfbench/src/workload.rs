//! The three workloads: what web each one runs on, which templates it
//! submits in which order, which engine configuration serves it, and the
//! seeded inputs of one round.

use webdis_core::{CachePolicy, EngineConfig};
use webdis_disql::{parse_disql, WebQuery};
use webdis_load::{fork_seed, ArrivalProcess, QueryMix, WorkloadSpec};
use webdis_web::{
    generate, HostedWeb, MutationOp, MutationPlanConfig, MutationSchedule, WebGenConfig,
};

/// The t13 global template: every document reachable by any link path
/// from `site0/doc0`.
pub const T13_GLOBAL: &str = r#"select d.url from document d such that "http://site0.test/doc0.html" (L|G)* d where d.title contains "needle""#;

/// The t13 local template: the documents of `site0` only.
pub const T13_LOCAL: &str = r#"select d.url, d.title from document d such that "http://site0.test/doc0.html" L* d where d.title contains "needle""#;

/// The t17 refined template: the local template narrowed by one
/// conjunct, so the answer cache can serve it by subsumption replay.
pub const T17_REFINED: &str = r#"select d.url from document d such that "http://site0.test/doc0.html" L* d where d.title contains "needle" and d.url contains "doc""#;

/// The living workload applies one mutation after every this many
/// completions, so the write:read ratio does not depend on speed.
pub const COMPLETIONS_PER_MUTATION: usize = 50;

/// Template draws per living round; the generator cycles through them.
const SEQUENCE_LEN: usize = 4096;

/// Mutations drawn per living round; far more than a round applies.
const SCHEDULE_LEN: usize = 2048;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Message-bound: the global `(L|G)*` template on the default web.
    Flood,
    /// Compute-bound on one daemon: the local `L*` template over large pages.
    Bigdoc,
    /// Both cache layers, read and invalidated: a Zipf template mix on a
    /// living web.
    Living,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Flood, Workload::Bigdoc, Workload::Living];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::Bigdoc => "bigdoc",
            Workload::Living => "living",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator configuration of the web one round runs on.
    pub fn web_config(self, web_seed: u64) -> WebGenConfig {
        let base = WebGenConfig {
            title_needle_prob: 0.4,
            seed: web_seed,
            ..WebGenConfig::default()
        };
        match self {
            Workload::Flood => base,
            Workload::Bigdoc => WebGenConfig {
                docs_per_site: 16,
                filler_words: 1500,
                ..base
            },
            Workload::Living => WebGenConfig {
                docs_per_site: 16,
                filler_words: 600,
                ..base
            },
        }
    }

    /// The DISQL templates the workload draws from.
    pub fn templates(self) -> &'static [&'static str] {
        match self {
            Workload::Flood => &[T13_GLOBAL],
            Workload::Bigdoc => &[T13_LOCAL],
            Workload::Living => &[T13_LOCAL, T13_GLOBAL, T17_REFINED],
        }
    }

    /// The engine configuration: the paper default (both caches off),
    /// except on `living`, where the footnote-3 document cache and the
    /// answer cache are on.
    pub fn engine_config(self) -> EngineConfig {
        match self {
            Workload::Flood | Workload::Bigdoc => EngineConfig::default(),
            Workload::Living => EngineConfig {
                doc_cache_size: 256,
                cache: Some(CachePolicy::default()),
                ..EngineConfig::default()
            },
        }
    }

    /// True when the web changes while queries run.
    pub fn is_living(self) -> bool {
        self == Workload::Living
    }
}

/// The templates of a workload, parsed.
pub fn parse_templates(workload: Workload) -> Vec<WebQuery> {
    workload
        .templates()
        .iter()
        .map(|t| parse_disql(t).expect("benchmark templates are valid DISQL"))
        .collect()
}

/// Everything one round of a workload receives, drawn from the seed.
pub struct RoundInputs {
    /// The web generator configuration (its seed included).
    pub web_cfg: WebGenConfig,
    /// Template indices in submission order; the generator cycles.
    pub sequence: Vec<usize>,
    /// Seed of the mutation schedule (living only); the schedule is
    /// drawn over the generated web by [`mutation_schedule`].
    pub mutation_seed: Option<u64>,
}

impl RoundInputs {
    /// The inputs of round `round` of a run with seed `seed`.
    pub fn new(workload: Workload, seed: u64, round: u64) -> RoundInputs {
        let round_seed = fork_seed(seed, round);
        let web_cfg = workload.web_config(fork_seed(round_seed, 0));
        let sequence = if workload.is_living() {
            let spec = WorkloadSpec {
                users: 1,
                queries_per_user: SEQUENCE_LEN,
                arrival: ArrivalProcess::Uniform { interarrival_us: 1 },
                mix: QueryMix::zipf(1_000, workload.templates()),
                seed: fork_seed(round_seed, 1),
                ..WorkloadSpec::default()
            };
            let plans = spec.plan().expect("benchmark templates are valid DISQL");
            plans[0].submissions.iter().map(|s| s.template).collect()
        } else {
            vec![0]
        };
        RoundInputs {
            web_cfg,
            sequence,
            mutation_seed: workload.is_living().then(|| fork_seed(round_seed, 2)),
        }
    }

    /// Generates the round's web.
    pub fn web(&self) -> HostedWeb {
        generate(&self.web_cfg)
    }
}

/// The seeded mutation schedule of a living round, drawn over its web.
/// Only the order of the events matters: the generator applies the next
/// one after every [`COMPLETIONS_PER_MUTATION`] completions.
///
/// Only edits, new anchors and new pages are kept. Each bumps its site's
/// version and invalidates that site's cached answers, which is what the
/// workload exists to exercise. Deletions, removed anchors and sites
/// leaving change how much of the web a query reaches: one of them
/// landing on `site0` early in a round turns the rest of the round into
/// near-empty queries, so throughput would depend on where in the
/// schedule such an event happens to fall.
pub fn mutation_schedule(web: &HostedWeb, seed: u64) -> MutationSchedule {
    let mut schedule = MutationSchedule::generate(
        web,
        &MutationPlanConfig {
            seed,
            count: SCHEDULE_LEN,
            start_us: 0,
            end_us: 1_000_000,
            token: "needle".to_owned(),
        },
    );
    schedule.events.retain(|m| {
        matches!(
            m.op,
            MutationOp::EditPage { .. }
                | MutationOp::AddAnchor { .. }
                | MutationOp::CreatePage { .. }
        )
    });
    schedule
}

/// FNV-1a over everything a round receives: every page, the template
/// sequence and the mutation schedule. Equal seeds give equal digests.
pub fn inputs_digest(
    web: &HostedWeb,
    workload: Workload,
    sequence: &[usize],
    schedule: Option<&MutationSchedule>,
) -> u64 {
    let mut h = Fnv::default();
    for url in web.urls() {
        h.write(url.to_string().as_bytes());
        h.write(web.get(url).unwrap_or_default().as_bytes());
    }
    for template in workload.templates() {
        h.write(template.as_bytes());
    }
    for &i in sequence {
        h.write(&(i as u64).to_le_bytes());
    }
    if let Some(schedule) = schedule {
        for m in &schedule.events {
            h.write(format!("{:?}", m.op).as_bytes());
        }
    }
    h.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
