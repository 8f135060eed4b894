//! Loopback benchmark of the WEBDIS engine: closed-loop TCP workloads with
//! end-to-end metrics, and per-layer metrics from a traced run plus
//! microbenchmarks. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <flood|bigdoc|living|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit code
//! is 0 only when every query completed cleanly with the right rows.

mod layers;
mod report;
mod round;
mod stats;
mod workload;

use std::time::Duration;

use report::{Metric, Totals};
use round::{RoundPlan, RoundResult};
use workload::{Fnv, RoundInputs, Workload};

/// Rounds per run; each runs on its own web, drawn from the seed.
const ROUNDS: u64 = 8;

/// Set-ups per run beyond the rounds' own, so `setup_s` is a median of
/// enough samples.
const EXTRA_SETUPS: u64 = 4;

const USAGE: &str =
    "usage: perfbench --workload <flood|bigdoc|living|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outstanding = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics: Vec<Metric> = Vec::new();
    for &w in &args.workloads {
        let out = run_workload(w, &args, outstanding);
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        metrics.extend(out.metrics.into_iter().map(|m| Metric {
            name: format!("{prefix}{}", m.name),
            ..m
        }));
    }
    if args.trace {
        print!("{}", report::prediction_table());
    }
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn run_workload(w: Workload, args: &Args, outstanding: usize) -> Outcome {
    let inputs: Vec<RoundInputs> = (0..ROUNDS)
        .map(|r| RoundInputs::new(w, args.seed, r))
        .collect();
    let plan = RoundPlan {
        outstanding,
        window: Duration::from_secs_f64(args.seconds / ROUNDS as f64),
        traced: false,
        faults: Default::default(),
        engine: None,
    };
    // A traced run alternates untraced and traced rounds on the same
    // inputs: the untraced rounds are the baseline for the tracing
    // overhead, and alternating keeps slow drift in the machine's speed
    // out of that comparison.
    let schedule: Vec<(&RoundInputs, bool)> = if args.trace {
        inputs[..ROUNDS as usize / 2]
            .iter()
            .flat_map(|i| [(i, false), (i, true)])
            .collect()
    } else {
        inputs.iter().map(|i| (i, false)).collect()
    };
    let rounds: Vec<RoundResult> = schedule
        .into_iter()
        .map(|(input, traced)| {
            round::run_round(
                w,
                input,
                &RoundPlan {
                    traced,
                    ..plan.clone()
                },
            )
        })
        .collect();
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    for i in 0..EXTRA_SETUPS {
        let input = &inputs[(i % ROUNDS) as usize];
        let (setup, deployment, ()) =
            round::set_up(input, w, &w.engine_config(), Default::default(), |_| ());
        deployment.cluster.shutdown();
        setups.push(setup.as_secs_f64());
    }
    let peak_rss = stats::peak_rss_mib();
    let all = Totals::new(&rounds);
    let (failures, attempted) = (all.failures(), all.attempted());

    println!("== workload {}: {}", w.name(), report::rationale(w));
    println!(
        "seed {}  nproc {outstanding}  outstanding {outstanding}  rounds {} x {:.3} s  transport loopback TCP (127.0.0.1)",
        args.seed,
        rounds.len(),
        plan.window.as_secs_f64()
    );
    let mut digest = Fnv::default();
    for (i, r) in rounds.iter().enumerate() {
        digest.write(&r.inputs_digest.to_le_bytes());
        println!(
            "round {i}: inputs {:016x}  setup {:.4} s  completed {} ({} in window)  mutations {}  traced {}",
            r.inputs_digest,
            r.setup.as_secs_f64(),
            r.completed,
            r.completed_in_window,
            r.mutations,
            r.registry.is_some()
        );
    }
    println!("inputs digest {:016x}", digest.0);
    println!(
        "rows checked against the reference: {} of {} completions",
        rounds.iter().map(|r| r.rows_checked).sum::<usize>(),
        rounds.iter().map(|r| r.completed).sum::<usize>()
    );
    let (traced, untraced): (Vec<RoundResult>, Vec<RoundResult>) =
        rounds.into_iter().partition(|r| r.registry.is_some());
    let base = Totals::new(&untraced);

    let end_to_end = base.end_to_end(stats::median(&setups));
    let tail = base.tail_latency();
    let mut ungated = vec![report::metric(
        "latency_p99_ms",
        "ms",
        tail.map_or(0.0, |t| t.value),
    )];
    ungated.extend(base.memory(peak_rss));
    for m in end_to_end.iter().chain(&ungated) {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    match tail {
        Some(t) => println!(
            "  latency tail: p{:.2} over {} samples, {} beyond it",
            t.percentile, t.samples, t.beyond
        ),
        None => println!("  latency tail: too few samples"),
    }
    println!(
        "{:<24} {:>14.4} fraction  ({} of {} attempted: hung {} shed {} expired {} unsubmitted {} wrong rows {})",
        "failed_ratio",
        stats::ratio(failures.total() as f64, attempted as f64),
        failures.total(),
        attempted,
        failures.hung,
        failures.shed,
        failures.expired,
        failures.unsubmitted,
        failures.wrong
    );

    let metrics = if args.trace {
        let micro = layers::measure(w, &inputs[0].web(), args.seed);
        let mut layer = base.layer_counts();
        layer.extend(ungated);
        let apply_us = if w.is_living() {
            stats::median(
                &untraced
                    .iter()
                    .flat_map(|r| r.apply_us.iter().copied())
                    .collect::<Vec<_>>(),
            )
        } else {
            micro.apply_us
        };
        layer.extend(report::micro_metrics(&micro, apply_us));
        let stages = Totals::new(&traced).stages();
        let build_forward =
            report::value(&stages, "stage.build_us") + report::value(&stages, "stage.forward_us");
        let server_sent = report::value(&end_to_end, "msgs_per_query") - 1.0;
        layer.extend(stages);
        layer.push(report::metric(
            "trace.overhead_pct",
            "%",
            (1.0 - stats::ratio(Totals::new(&traced).goodput_qps(), base.goodput_qps())) * 100.0,
        ));
        layer.push(report::metric(
            "stage.send_share",
            "ratio",
            stats::ratio(micro.send_us * server_sent, build_forward),
        ));
        for m in &layer {
            println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let cpu = report::value(&end_to_end, "cpu_ms_per_query");
        println!("layer split, ms per query (micro cost x uses per query) beside cpu_ms_per_query {cpu:.4}:");
        let split = report::layer_split(&base, &layer, &micro);
        for (crate_name, what, ms) in &split {
            println!(
                "  {crate_name:<13} {what:<28} {ms:>10.4} ms  {:>6.1}%",
                100.0 * stats::ratio(*ms, cpu)
            );
        }
        let attributed: f64 = split.iter().map(|(_, _, ms)| ms).sum();
        println!(
            "  {:<42} {:>10.4} ms  {:>6.1}%",
            "unattributed (kernel TCP, thread spawns, scheduling)",
            cpu - attributed,
            100.0 * stats::ratio(cpu - attributed, cpu)
        );
        if let Some((c, what, _)) = split.iter().max_by(|a, b| a.2.total_cmp(&b.2)) {
            println!("  largest layer share: {c} {what}");
        }
        layer
    } else {
        end_to_end
    };
    Outcome {
        correct: failures.total() == 0 && attempted > 0,
        attempted,
        failed: failures.total(),
        metrics,
    }
}
