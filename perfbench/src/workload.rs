//! The three workloads, the job record every timed job produces, and the
//! trajectory check each job must pass.

use krum_attacks::AttackSpec;
use krum_compress::CompressionSpec;
use krum_core::RuleSpec;
use krum_dist::{LatencyModel, LearningRateSchedule, NetworkModel};
use krum_metrics::RoundRecord;
use krum_models::EstimatorSpec;
use krum_scenario::{CrashPolicy, ExecutionSpec, ScenarioBuilder, ScenarioError, ScenarioSpec};
use krum_tensor::Vector;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential barrier, n = 40, f = 4, d = 1000: bound by estimation.
    InprocN40,
    /// Async reuse-stale table, n = 1024, f = 64, 128 refreshes per round,
    /// d = 32: bound by aggregation (incremental Gram cache).
    ReuseN1024,
    /// Remote barrier over loopback TCP, n = 5, f = 1, d = 16384, BFP
    /// codec, a checkpoint after every round: bound by per-byte layers.
    ServedBfpCkpt,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload::InprocN40,
    Workload::ReuseN1024,
    Workload::ServedBfpCkpt,
];

/// Table entries `reuse_n1024` refreshes per round: 12.5% of n.
const REUSE_REFRESHES: usize = 128;

/// The codec of the served workload.
pub const BFP: CompressionSpec = CompressionSpec::Bfp {
    block: 64,
    bits: 12,
};

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Self::InprocN40 => "inproc_n40",
            Self::ReuseN1024 => "reuse_n1024",
            Self::ServedBfpCkpt => "served_bfp_ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// `(n, f, d)`.
    pub fn shape(self) -> (usize, usize, usize) {
        match self {
            Self::InprocN40 => (40, 4, 1000),
            Self::ReuseN1024 => (1024, 64, 32),
            Self::ServedBfpCkpt => (5, 1, 16_384),
        }
    }

    /// Rounds of one job. Every job of a run repeats the same spec, so each
    /// must reproduce the same trajectory.
    pub fn rounds(self) -> usize {
        match self {
            Self::InprocN40 => 100,
            Self::ReuseN1024 => 40,
            Self::ServedBfpCkpt => 30,
        }
    }

    /// Constant learning rate, small enough that `final_loss` is still
    /// dominated by the decay from the start point when the job ends, not
    /// by the noise floor (which spreads widely from seed to seed).
    fn learning_rate(self) -> f64 {
        match self {
            Self::InprocN40 => 0.02,
            Self::ReuseN1024 => 0.01,
            Self::ServedBfpCkpt => 0.1,
        }
    }

    pub fn is_served(self) -> bool {
        self == Self::ServedBfpCkpt
    }

    /// Table refreshes per round in reuse mode.
    pub fn refreshes(self) -> Option<usize> {
        (self == Self::ReuseN1024).then_some(REUSE_REFRESHES)
    }

    fn builder(self, seed: u64) -> ScenarioBuilder {
        let (n, f, dim) = self.shape();
        let rounds = self.rounds();
        let builder = ScenarioBuilder::new(n, f)
            .name(self.name())
            .rule(RuleSpec::Krum)
            .attack(AttackSpec::SignFlip { scale: 3.0 })
            .estimator(EstimatorSpec::GaussianQuadratic { dim, sigma: 0.3 })
            .schedule(LearningRateSchedule::Constant {
                gamma: self.learning_rate(),
            })
            .rounds(rounds)
            .eval_every(rounds)
            .seed(seed)
            .init_fill(1.0);
        match self {
            Self::InprocN40 => builder.sequential(),
            Self::ReuseN1024 => builder.async_reuse(
                REUSE_REFRESHES,
                // Never force a refresh: the quorum alone paces the table.
                4 * rounds,
                NetworkModel {
                    latency: LatencyModel::Uniform {
                        min_nanos: 1_000,
                        max_nanos: 100_000,
                    },
                    nanos_per_byte: 0.0,
                },
            ),
            Self::ServedBfpCkpt => builder.sequential().compression(BFP),
        }
    }

    /// The spec a timed job runs (validated).
    pub fn spec(self, seed: u64) -> Result<ScenarioSpec, ScenarioError> {
        let mut spec = self.builder(seed).spec()?;
        if self.is_served() {
            // Full barrier, with timeouts short enough that a broken job
            // fails the run instead of hanging it.
            spec.execution = ExecutionSpec::Remote {
                quorum: None,
                max_staleness: 0,
                round_timeout_secs: 20,
                handshake_timeout_secs: 10,
                staffing_timeout_secs: 20,
                heartbeat_secs: 10,
                on_crash: CrashPolicy::WaitForRejoin,
            };
            spec.validate()?;
        }
        Ok(spec)
    }

    /// The in-process spec whose trajectory every job must reproduce: the
    /// job's own spec, or for the served workload its `Sequential` twin
    /// with the same codec.
    pub fn in_process_spec(self, seed: u64) -> Result<ScenarioSpec, ScenarioError> {
        self.builder(seed).spec()
    }
}

/// What one timed job measured.
#[derive(Default)]
pub struct Job {
    /// Time a user pays before round 0, once per set-up the job timed.
    pub setup_s: Vec<f64>,
    /// `Scenario::from_spec` alone, once per set-up (in process).
    pub build_s: Vec<f64>,
    /// Every connection's connect plus handshake (served).
    pub handshake_s: f64,
    /// First round's start to the last round's end, timed from outside.
    pub wall_s: f64,
    /// Process CPU time over the same span.
    pub cpu_s: f64,
    /// Per-round latency: `RoundEngine::step` timed from outside (in
    /// process) or the server's `round_nanos` (served).
    pub round_ms: Vec<f64>,
    pub records: Vec<RoundRecord>,
    pub final_params: Option<Vector>,
    /// Set once the job is checked: every round ran without error.
    pub complete: bool,
    /// Loss at the last round.
    pub final_loss: Option<f64>,
    /// Allocations over the rounds (counted in traced runs only).
    pub allocations: u64,
    pub error: Option<String>,
}

/// The bit patterns a trajectory is compared by.
pub struct Trajectory {
    rounds: Vec<(u64, Option<u64>, Option<usize>)>,
    final_params: Vec<u64>,
}

impl Trajectory {
    pub fn new(records: &[RoundRecord], final_params: &Vector) -> Self {
        Self {
            rounds: records.iter().map(fingerprint).collect(),
            final_params: final_params.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// Rounds of `job` that count as failed: every round from the first
    /// that left this trajectory (or never ran) to the end, plus the last
    /// one when the final parameters differ or are not finite.
    pub fn failed_rounds(&self, job: &Job) -> usize {
        let total = self.rounds.len();
        let diverged = job
            .records
            .iter()
            .zip(&self.rounds)
            .position(|(r, want)| fingerprint(r) != *want)
            .unwrap_or(job.records.len().min(total));
        if diverged < total || job.error.is_some() {
            return total - diverged.min(total);
        }
        let params_ok = job.final_params.as_ref().is_some_and(|p| {
            p.is_finite()
                && p.iter()
                    .map(|x| x.to_bits())
                    .eq(self.final_params.iter().copied())
        });
        usize::from(!params_ok)
    }
}

fn fingerprint(r: &RoundRecord) -> (u64, Option<u64>, Option<usize>) {
    (
        r.aggregate_norm.to_bits(),
        r.loss.map(f64::to_bits),
        r.selected_worker,
    )
}
