//! End-to-end and per-layer benchmark of the Krum workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload inproc_n40 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats closed-loop jobs of one workload for `--seconds`: each job
//! builds (or serves) the workload's scenario and runs a fixed number of
//! rounds, each round starting only once the previous one was applied.
//! Every job must reproduce, bit for bit, a reference trajectory computed
//! before timing starts; a job that diverges or errors counts its remaining
//! rounds as failed. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it spends half its time untraced and half with
//! allocation counting on, then times single calls into each layer and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod inproc;
mod probes;
mod served;
mod stats;
mod sys;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use krum_metrics::RoundRecord;
use krum_scenario::Scenario;

use stats::{mean, median, quantile, Metrics};
use workload::{Job, Trajectory, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

/// Jobs a timed phase runs at least, however long they take.
const MIN_JOBS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Checkpoints of the served workload go here, inside the checkout.
    let workroot = PathBuf::from(".perfbench_work");
    let workdir = workroot.join(std::process::id().to_string());
    let result = run(&args, &workdir);
    let _ = std::fs::remove_dir_all(&workdir);
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(&workroot);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs, checks and summarises the jobs of one timed phase.
struct Phase {
    jobs: Vec<Job>,
    attempted: usize,
    failed: usize,
}

impl Phase {
    /// Runs jobs for `seconds` (at least `MIN_JOBS`); `keep_records` keeps
    /// every job's round records for the per-layer summary.
    fn run(
        args: &Args,
        reference: &Trajectory,
        seconds: f64,
        keep_records: bool,
        workdir: &Path,
    ) -> Self {
        let rounds = args.workload.rounds();
        let start = Instant::now();
        let mut phase = Phase {
            jobs: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        while phase.jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
            let mut job = if args.workload.is_served() {
                served::run_job(args.workload, args.seed, workdir)
            } else {
                inproc::run_job(args.workload, args.seed)
            };
            let failed = reference.failed_rounds(&job);
            if let Some(e) = &job.error {
                eprintln!("perfbench: job {} failed: {e}", phase.jobs.len());
            } else if failed > 0 {
                eprintln!(
                    "perfbench: job {} left the reference trajectory ({failed} rounds failed)",
                    phase.jobs.len()
                );
            }
            // Keep only what the summaries read: memory that grew with the
            // number of jobs would make `peak_rss_mib` follow host speed.
            job.complete = job.error.is_none() && job.records.len() == rounds;
            job.final_loss = job.records.last().and_then(|r| r.loss);
            job.final_params = None;
            if !keep_records {
                job.records = Vec::new();
            }
            phase.attempted += rounds;
            phase.failed += failed;
            phase.jobs.push(job);
        }
        phase
    }

    /// Jobs that ran every round without error.
    fn complete(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.complete)
    }

    /// Rounds over the wall time spent running them, summed over jobs.
    fn rounds_per_s(&self, rounds: usize) -> f64 {
        let jobs: Vec<&Job> = self.complete().collect();
        (jobs.len() * rounds) as f64 / jobs.iter().map(|j| j.wall_s).sum::<f64>()
    }

    fn records(&self) -> Vec<&RoundRecord> {
        self.complete().flat_map(|j| &j.records).collect()
    }
}

fn run(args: &Args, workdir: &Path) -> Result<(), String> {
    let workload = args.workload;
    let rounds = workload.rounds();
    // Reference trajectory and a warm-up job, both outside the timed
    // phases: caches fill and lazy set-up finishes before timing.
    let reference = if workload.is_served() {
        served::reference(workload, args.seed)?
    } else {
        inproc::reference(workload, args.seed)?
    };
    let warmup = Phase::run(args, &reference, 0.0, false, workdir);
    let mut attempted = warmup.attempted;
    let mut failed = warmup.failed;

    let mut metrics = Metrics::default();
    if args.trace {
        let untraced = Phase::run(args, &reference, args.seconds / 2.0, false, workdir);
        sys::count_allocations(true);
        let traced = Phase::run(args, &reference, args.seconds / 2.0, true, workdir);
        sys::count_allocations(false);
        for phase in [&untraced, &traced] {
            attempted += phase.attempted;
            failed += phase.failed;
        }
        let spec = workload.spec(args.seed).map_err(|e| e.to_string())?;
        let primitives = probes::measure(workload, &spec)?;
        per_layer(args, &untraced, &traced, &primitives, &mut metrics)?;
    } else {
        let phase = Phase::run(args, &reference, args.seconds, false, workdir);
        attempted += phase.attempted;
        failed += phase.failed;
        end_to_end(rounds, &phase, &mut metrics)?;
    }
    print(args, &metrics, attempted, failed);
    Ok(())
}

/// Run-level figures are time-weighted over the run's jobs (sums, or
/// per-job statistics averaged over jobs) rather than medians of pooled
/// samples: a shared host can switch between a fast and a slow state for
/// seconds at a time, and a pooled median jumps between the two modes as
/// their shares cross one half, where a mean moves only with the shares.
fn end_to_end(rounds: usize, phase: &Phase, out: &mut Metrics) -> Result<(), String> {
    let jobs: Vec<&Job> = phase.complete().collect();
    let per_job = |f: &dyn Fn(&Job) -> f64| mean(&jobs.iter().map(|j| f(j)).collect::<Vec<_>>());
    let total_rounds = (jobs.len() * rounds) as f64;
    let cpu_s: f64 = jobs.iter().map(|j| j.cpu_s).sum();
    let setup = per_job(&|j| median(&j.setup_s));
    let setup_samples: usize = jobs.iter().map(|j| j.setup_s.len()).sum();
    let final_loss = jobs.first().and_then(|j| j.final_loss).unwrap_or(f64::NAN);
    out.push(
        "rounds_per_s",
        phase.rounds_per_s(rounds),
        "1/s",
        jobs.len(),
    );
    out.push(
        "round_p50_ms",
        per_job(&|j| quantile(&j.round_ms, 0.5)),
        "ms",
        jobs.len() * rounds,
    );
    out.push(
        "round_p90_ms",
        per_job(&|j| quantile(&j.round_ms, 0.9)),
        "ms",
        jobs.len() * rounds,
    );
    out.push(
        "cpu_ms_per_round",
        cpu_s * 1e3 / total_rounds,
        "ms",
        jobs.len(),
    );
    out.push("setup_s", setup, "s", setup_samples);
    out.push("peak_rss_mib", sys::peak_rss_mib()?, "MiB", 1);
    out.push("final_loss", final_loss, "loss", 1);
    Ok(())
}

fn column(records: &[&RoundRecord], f: impl Fn(&RoundRecord) -> f64) -> f64 {
    mean(&records.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn per_layer(
    args: &Args,
    untraced: &Phase,
    traced: &Phase,
    p: &probes::Primitives,
    out: &mut Metrics,
) -> Result<(), String> {
    let workload = args.workload;
    let rounds = workload.rounds();
    let (n, f, _) = workload.shape();
    let honest = (n - f) as f64;
    let jobs: Vec<&Job> = traced.complete().collect();
    let records = traced.records();
    let samples = records.len();
    let total_rounds = (jobs.len() * rounds) as f64;
    let wall_ms = jobs.iter().map(|j| j.wall_s).sum::<f64>() * 1e3 / total_rounds;
    let ms = |nanos: u128| nanos as f64 * 1e-6;
    let aggregate_ms = column(&records, |r| ms(r.aggregation_nanos));
    let served = workload.is_served();

    // Layer work per round. In process the engine's phase columns time the
    // layers directly; served, the estimate, forge, codec and frame work
    // happen on worker threads, so they are the primitive timings times
    // the per-round call counts.
    let (propose_ms, forge_ms, step_self_ms, remainder_base) = if served {
        (honest * p.estimate_us * 1e-3, p.forge_us * 1e-3, 0.0, 0.0)
    } else {
        let propose = column(&records, |r| ms(r.propose_nanos));
        let attack = column(&records, |r| ms(r.attack_nanos));
        let step = mean(
            &jobs
                .iter()
                .flat_map(|j| j.round_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        (
            propose,
            attack,
            step - propose - attack - aggregate_ms,
            step,
        )
    };
    // Served, those two are primitive timings, not per-round samples.
    let phase_samples = if served { 0 } else { samples };
    let round_recorded_ms = column(&records, |r| ms(r.round_nanos));
    let unrecorded_ms = if served {
        wall_ms - round_recorded_ms
    } else {
        0.0
    };
    let (codec_ms, wire_ms) = if served {
        (p.codec_ms_per_round, p.wire_ms_per_round)
    } else {
        (0.0, 0.0)
    };
    let remainder_ms = if served {
        wall_ms - propose_ms - forge_ms - aggregate_ms - codec_ms - wire_ms - unrecorded_ms
    } else {
        wall_ms - remainder_base
    };

    let wire_bytes = column(&records, |r| r.wire_bytes.unwrap_or(0) as f64);
    let raw_bytes: f64 = records
        .iter()
        .map(|r| r.raw_bytes.unwrap_or(0) as f64)
        .sum();
    let sent_bytes: f64 = records
        .iter()
        .map(|r| r.wire_bytes.unwrap_or(0) as f64)
        .sum();
    if served && (p.frame_bytes_per_round - wire_bytes).abs() > 0.5 {
        eprintln!(
            "perfbench: the frame model sums to {} bytes per round, the server counted {wire_bytes}",
            p.frame_bytes_per_round
        );
    }
    let landed = 1.0 - column(&records, |r| r.dropped_stale.unwrap_or(0) as f64) / n as f64;
    let faults: f64 = records
        .iter()
        .map(|r| (r.reconnects.unwrap_or(0) + r.degraded_rounds.unwrap_or(0)) as f64)
        .sum();
    let allocations: u64 = jobs.iter().map(|j| j.allocations).sum();
    let handshake: Vec<f64> = traced
        .jobs
        .iter()
        .chain(&untraced.jobs)
        .map(|j| j.handshake_s * 1e3)
        .collect();
    let build_ms = scenario_build_ms(workload, args.seed, untraced, traced)?;
    let rps_untraced = untraced.rounds_per_s(rounds);
    let rps_traced = traced.rounds_per_s(rounds);
    let zero_unless_served = |v: f64| if served { v } else { 0.0 };

    out.push("models.estimate_us", p.estimate_us, "us", 0);
    out.push(
        "models.propose_ms_per_round",
        propose_ms,
        "ms",
        phase_samples,
    );
    out.push("core.aggregate_us", p.aggregate_us, "us", 0);
    out.push("core.aggregate_ms_per_round", aggregate_ms, "ms", samples);
    out.push("attacks.forge_ms_per_round", forge_ms, "ms", phase_samples);
    out.push("dist.step_self_ms_per_round", step_self_ms, "ms", samples);
    out.push(
        "dist.allocs_per_round",
        allocations as f64 / total_rounds,
        "count",
        samples,
    );
    out.push("dist.landed_share", landed, "ratio", samples);
    out.push("scenario.build_ms", build_ms.0, "ms", build_ms.1);
    out.push("compress.encode_us", p.encode_us, "us", 0);
    out.push("compress.decode_us", p.decode_us, "us", 0);
    out.push(
        "compress.ratio",
        zero_unless_served(raw_bytes / sent_bytes),
        "ratio",
        samples,
    );
    out.push("compress.ms_per_round", codec_ms, "ms", 0);
    out.push("wire.checksum_mb_per_s", p.checksum_mb_per_s, "MB/s", 0);
    out.push("wire.frame_encode_us", p.frame_encode_us, "us", 0);
    out.push("wire.frame_decode_us", p.frame_decode_us, "us", 0);
    out.push("wire.frames_per_round", p.frames_per_round, "count", 1);
    out.push("wire.bytes_per_round", wire_bytes, "B", samples);
    out.push("wire.ms_per_round", wire_ms, "ms", 0);
    out.push(
        "server.arrival_ms_per_round",
        column(&records, |r| r.arrival_nanos.map_or(0.0, ms)),
        "ms",
        samples,
    );
    out.push(
        "server.unrecorded_ms_per_round",
        unrecorded_ms,
        "ms",
        samples,
    );
    out.push(
        "server.checkpoint_bytes_per_round",
        column(&records, |r| r.checkpoint_bytes.unwrap_or(0) as f64),
        "B",
        samples,
    );
    out.push(
        "server.handshake_ms",
        zero_unless_served(median(&handshake)),
        "ms",
        handshake.len(),
    );
    out.push("server.faults", faults, "count", samples);
    out.push("wall_ms_per_round", wall_ms, "ms", samples);
    out.push("remainder_ms_per_round", remainder_ms, "ms", samples);
    out.push(
        "trace.overhead_rounds_per_s",
        rps_traced - rps_untraced,
        "1/s",
        untraced.jobs.len() + traced.jobs.len(),
    );
    Ok(())
}

/// Median `Scenario::from_spec` time: from the jobs in process, from
/// separate builds of the in-process twin when served.
fn scenario_build_ms(
    workload: Workload,
    seed: u64,
    untraced: &Phase,
    traced: &Phase,
) -> Result<(f64, usize), String> {
    let mut builds: Vec<f64> = untraced
        .jobs
        .iter()
        .chain(&traced.jobs)
        .flat_map(|j| j.build_s.iter().map(|s| s * 1e3))
        .collect();
    if builds.is_empty() {
        let spec = workload.in_process_spec(seed).map_err(|e| e.to_string())?;
        for _ in 0..9 {
            let start = Instant::now();
            Scenario::from_spec(spec.clone()).map_err(|e| e.to_string())?;
            builds.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok((median(&builds), builds.len()))
}

/// The per-round layer breakdown a traced run prints as shares of wall
/// time. Served, the layers' work overlaps on the worker threads, so the
/// remainder can go negative.
const BREAKDOWN: [&str; 8] = [
    "models.propose_ms_per_round",
    "attacks.forge_ms_per_round",
    "core.aggregate_ms_per_round",
    "dist.step_self_ms_per_round",
    "compress.ms_per_round",
    "wire.ms_per_round",
    "server.unrecorded_ms_per_round",
    "remainder_ms_per_round",
];

fn print(args: &Args, metrics: &Metrics, attempted: usize, failed: usize) {
    println!(
        "{} seed {} ({}): {attempted} rounds attempted, {failed} failed",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    for m in &metrics.0 {
        let samples = match m.samples {
            0 => "median of timed calls".to_string(),
            k => format!("samples {k}"),
        };
        println!("  {:<36} {:>14.6} {:<6} {samples}", m.name, m.value, m.unit);
    }
    if args.trace {
        let get = |name: &str| {
            metrics
                .0
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let wall = get("wall_ms_per_round");
        println!("  layer work per round, against {wall:.3} ms of wall time per round:");
        for name in BREAKDOWN {
            let ms = get(name);
            println!("    {name:<36} {ms:>9.3} ms {:>6.1}%", 100.0 * ms / wall);
        }
    }
    let entries: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    let correct = failed == 0 && metrics.0.iter().all(|m| m.value.is_finite());
    println!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        entries.join(", ")
    );
}
