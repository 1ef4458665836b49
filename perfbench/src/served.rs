//! Served jobs: `Server::bind(..).with_checkpoints(..)`, every connection
//! handshaked in turn through `WorkerClient`, then the sessions served on
//! their own threads while the server runs the job over loopback TCP.

use std::path::Path;
use std::thread;
use std::time::Instant;

use krum_scenario::Scenario;
use krum_server::{Server, ServerError, WorkerClient, WorkerSession};

use crate::sys;
use crate::workload::{Job, Trajectory, Workload};

/// Runs one served job, writing its checkpoints under `checkpoint_dir`.
pub fn run_job(workload: Workload, seed: u64, checkpoint_dir: &Path) -> Job {
    let mut job = Job::default();
    let setup_start = Instant::now();
    let server = match workload
        .spec(seed)
        .map_err(ServerError::from)
        .and_then(|spec| Server::bind("127.0.0.1:0", spec, 1))
    {
        Ok(server) => server.with_checkpoints(checkpoint_dir.to_path_buf(), 1),
        Err(e) => {
            job.error = Some(e.to_string());
            return job;
        }
    };
    let addr = server.local_addr();
    let connections = server.connections_per_job();
    let server_thread = thread::spawn(move || server.run());

    let handshake_start = Instant::now();
    let sessions: Result<Vec<WorkerSession>, ServerError> = addr.and_then(|addr| {
        (0..connections)
            .map(|_| WorkerClient::connect(addr)?.handshake())
            .collect()
    });
    job.handshake_s = handshake_start.elapsed().as_secs_f64();
    job.setup_s.push(setup_start.elapsed().as_secs_f64());

    let cpu = sys::cpu_seconds();
    let allocations = sys::allocations();
    let start = Instant::now();
    let (workers, staffing_error) = match sessions {
        Ok(sessions) => (
            sessions
                .into_iter()
                .map(|session| {
                    thread::spawn(move || {
                        let served = session.serve();
                        (served, Instant::now())
                    })
                })
                .collect(),
            None,
        ),
        // The unstaffed job times out inside the server and `run` returns.
        Err(e) => (Vec::new(), Some(e.to_string())),
    };
    let outcome = server_thread.join();
    let mut end = start;
    let mut worker_error = None;
    for worker in workers {
        match worker.join() {
            Ok((served, finished)) => {
                end = end.max(finished);
                if let Err(e) = served {
                    worker_error.get_or_insert(e.to_string());
                }
            }
            Err(_) => {
                worker_error.get_or_insert("worker thread panicked".into());
            }
        }
    }
    job.wall_s = end.duration_since(start).as_secs_f64();
    job.cpu_s = sys::cpu_seconds() - cpu;
    job.allocations = sys::allocations() - allocations;

    let report = match outcome {
        Ok(Ok(mut outcomes)) => match outcomes.pop().map(|o| o.result) {
            Some(Ok(report)) => Ok(report),
            Some(Err(e)) => Err(e.to_string()),
            None => Err("the server ran no job".into()),
        },
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("server thread panicked".into()),
    };
    match report {
        Ok(report) => {
            job.round_ms = report
                .history
                .rounds
                .iter()
                .map(|r| r.round_nanos as f64 * 1e-6)
                .collect();
            job.records = report.history.rounds;
            job.final_params = Some(report.final_params);
        }
        Err(e) => job.error = Some(e),
    }
    job.error = staffing_error.or(job.error.take()).or(worker_error);
    job
}

/// The in-process `Scenario::run` of the same spec with `Sequential`
/// execution and the same codec: a served job must reproduce it bit for bit.
pub fn reference(workload: Workload, seed: u64) -> Result<Trajectory, String> {
    let spec = workload.in_process_spec(seed).map_err(|e| e.to_string())?;
    let report = Scenario::from_spec(spec)
        .and_then(Scenario::run)
        .map_err(|e| e.to_string())?;
    Ok(Trajectory::new(
        &report.history.rounds,
        &report.final_params,
    ))
}
