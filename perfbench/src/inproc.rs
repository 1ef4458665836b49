//! In-process jobs: `Scenario::from_spec`, then `RoundEngine::step` timed
//! from outside, round by round.

use std::time::Instant;

use krum_core::ExecutionPolicy;
use krum_scenario::Scenario;

use crate::sys;
use crate::workload::{Job, Trajectory, Workload};

/// Set-ups timed per job.
const SETUP_REPEATS: usize = 5;

/// Builds and runs one job of `workload`.
pub fn run_job(workload: Workload, seed: u64) -> Job {
    let rounds = workload.rounds();
    let mut job = Job {
        round_ms: Vec::with_capacity(rounds),
        records: Vec::with_capacity(rounds),
        ..Job::default()
    };
    // The set-up is repeated and each repeat timed: one sub-millisecond
    // sample is too noisy to compare runs by. The job runs the last build.
    let mut scenario = None;
    for _ in 0..SETUP_REPEATS {
        let setup_start = Instant::now();
        let built = workload.spec(seed).map(|spec| {
            let build_start = Instant::now();
            (Scenario::from_spec(spec), build_start.elapsed())
        });
        job.setup_s.push(setup_start.elapsed().as_secs_f64());
        match built {
            Ok((Ok(built), build)) => {
                job.build_s.push(build.as_secs_f64());
                scenario = Some(built);
            }
            Ok((Err(e), _)) | Err(e) => {
                job.error = Some(e.to_string());
                return job;
            }
        }
    }
    let Some(mut scenario) = scenario else {
        return job;
    };
    let mut params = scenario.start().clone();
    let engine = scenario.engine_mut();

    let allocations = sys::allocations();
    let cpu = sys::cpu_seconds();
    let start = Instant::now();
    for round in 0..rounds {
        let round_start = Instant::now();
        let step = engine.step(&mut params, round);
        job.round_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
        match step {
            Ok(record) => job.records.push(record),
            Err(e) => {
                job.error = Some(e.to_string());
                break;
            }
        }
    }
    job.wall_s = start.elapsed().as_secs_f64();
    job.cpu_s = sys::cpu_seconds() - cpu;
    job.allocations = sys::allocations() - allocations;
    job.final_params = Some(params);
    job
}

/// The trajectory every job must reproduce, computed by an independent
/// configuration of the same spec: aggregation forced sequential (the
/// engine's default policy fans out over the thread pool) and, for the
/// reuse table, the incremental Gram cache off (full recomputes).
pub fn reference(workload: Workload, seed: u64) -> Result<Trajectory, String> {
    let spec = workload.in_process_spec(seed).map_err(|e| e.to_string())?;
    let mut scenario = Scenario::from_spec(spec).map_err(|e| e.to_string())?;
    let mut params = scenario.start().clone();
    let engine = scenario.engine_mut();
    engine.set_aggregation_policy(ExecutionPolicy::Sequential);
    engine.set_gram_cache(false);
    let records = (0..workload.rounds())
        .map(|round| engine.step(&mut params, round))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Trajectory::new(&records, &params))
}
