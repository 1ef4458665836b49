//! The round engine — the one in-process implementation of the paper's
//! protocol.
//!
//! Each round is one pass through the pipeline
//!
//! ```text
//! broadcast → propose → attack → aggregate → step → record
//! ```
//!
//! * **broadcast** — the server publishes `x_t` (in-process: the parameter
//!   borrow handed to the workers);
//! * **propose** — every honest worker estimates a gradient at `x_t`;
//! * **attack** — the omniscient adversary observes the round and forges the
//!   `f` Byzantine proposals, and a [`QuorumBook`] settles which proposals
//!   the round aggregates (at most one per worker);
//! * **aggregate** — the server applies the choice function `F` through a
//!   reused [`AggregationContext`](krum_core::AggregationContext) (zero
//!   steady-state heap allocations on the aggregation path);
//! * **step** — `x_{t+1} = x_t − γ_t · F(…)`;
//! * **record** — per-phase wall-clock timings and convergence metrics go
//!   into a [`RoundRecord`].
//!
//! The pipeline is parameterized by an [`ExecutionStrategy`]:
//!
//! * [`ExecutionStrategy::Sequential`] — the reference barrier engine: the
//!   book with `quorum = n`, every proposal admitted at arrival 0 in worker
//!   order;
//! * [`ExecutionStrategy::Threaded`] — the same barrier, with honest
//!   gradients fanned out over the `rayon` pool and a simulated
//!   [`NetworkModel`] charging the synchronous barrier (slowest worker) to
//!   the metrics;
//! * [`ExecutionStrategy::AsyncQuorum`] — the asynchronous-leaning server of
//!   the paper's Byzantine model: the book aggregates the fastest
//!   `quorum ≥ n − f` arrivals under the simulated network, carries the
//!   stragglers into later rounds up to a staleness bound, and the engine
//!   honours the adversary's [`AttackTiming`] (straggle, respond-last). The
//!   aggregation rule must be built for `quorum` proposals — Krum's
//!   `2f + 2 < n` precondition is re-validated against the quorum size, not
//!   `n`. Its reuse-stale mode aggregates a latest-proposal table instead.
//!
//! Because every random stream derives from the master seed, every strategy
//! is **bit-reproducible**, and the two barrier strategies follow identical
//! parameter trajectories. `AsyncQuorum` with `quorum = n` selects every
//! proposal every round, so it reproduces the Sequential trajectory exactly
//! (for any latency model — the network then only changes timing columns).

use std::sync::Arc;
use std::time::Instant;

use krum_attacks::{Attack, AttackContext, AttackTiming, RoundFeedback};
use krum_compress::GradientCodec;
use krum_core::{Aggregator, ExecutionPolicy};
use krum_metrics::{RoundRecord, TrainingHistory};
use krum_models::GradientEstimator;
use krum_tensor::Vector;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::config::{ClusterSpec, TrainingConfig};
use crate::drift::DriftTracker;
use crate::error::TrainError;
use crate::network::NetworkModel;
use crate::quorum::{check_refresh_pace, QuorumBook, QuorumStats};
use crate::round_core::{AccuracyProbe, RoundCore};

/// Derives an independent RNG stream from the master seed.
///
/// Every source of randomness in a run — each honest worker, the adversary,
/// the simulated network — is one stream of this family, so in-process and
/// networked executions of the same scenario can consume identical draws:
/// worker `w` uses `stream_rng(seed, w)`, the adversary uses
/// [`ATTACK_STREAM`]. Public so `krum-server`'s remote workers reproduce the
/// in-process trajectories exactly.
pub fn stream_rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// RNG stream index reserved for the adversary (see [`stream_rng`]).
pub const ATTACK_STREAM: u64 = u64::MAX - 1;
/// RNG stream index reserved for the simulated network.
pub(crate) const NETWORK_STREAM: u64 = u64::MAX - 2;

/// How the round pipeline executes one round.
///
/// The barrier strategies (`Sequential`, `Threaded`) affect wall-clock
/// behaviour only and share one parameter trajectory per seed.
/// `AsyncQuorum` changes *which proposals each round aggregates* — its
/// trajectory is still a deterministic function of
/// [`TrainingConfig::seed`], and coincides with the barrier trajectory when
/// `quorum = n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionStrategy {
    /// Honest workers run one after the other on the server thread — the
    /// reference engine.
    Sequential,
    /// Honest worker gradients are computed in parallel on the `rayon` pool
    /// and the simulated [`NetworkModel`] charges per-round communication
    /// time to the metrics.
    Threaded {
        /// The simulated network charged to each round's timings.
        network: NetworkModel,
    },
    /// Partial-quorum rounds: the server aggregates the fastest `quorum`
    /// proposals under the simulated network and carries the stragglers
    /// into later rounds with a staleness bound. Timing-aware adversaries
    /// ([`AttackTiming`]) straggle deliberately or wait to observe the
    /// closing quorum before responding.
    ///
    /// The [`QuorumBook`] consumes arrived-but-unaggregated proposals
    /// oldest-first, with at most **one proposal per worker per quorum**
    /// (the paper's model: each worker contributes one vector per
    /// aggregation — this is what caps the Byzantine share of a quorum at
    /// `f`). With every worker proposing
    /// each round and only `quorum < n` consumed, the surplus forms a stale
    /// backlog bounded by `max_staleness` — the steady-state cost of a
    /// partial quorum is *staleness*, and the
    /// `stale_in_quorum`/`dropped_stale` columns of
    /// [`RoundRecord`](krum_metrics::RoundRecord) make it visible.
    AsyncQuorum {
        /// How many proposals close a round (`n − f ≤ quorum ≤ n`). The
        /// aggregation rule must be configured for this many proposals.
        quorum: usize,
        /// Maximum age (in rounds) a straggler proposal may reach and still
        /// be aggregated; older in-flight proposals are dropped. `0` drops
        /// every straggler at the end of its round.
        max_staleness: usize,
        /// The simulated network deciding per-worker arrival order and the
        /// quorum's network charge.
        network: NetworkModel,
        /// Stale-gradient mode: the server keeps the **latest** proposal of
        /// every worker and aggregates all `n` of them each round; `quorum`
        /// becomes the number of *fresh refreshes* per round (`1 ≤ quorum ≤
        /// n`, no `n − f` floor) and `max_staleness` the forced-refresh
        /// bound (a table entry older than it must be refreshed before the
        /// round closes). The aggregation rule is built for `n`, and
        /// because only `quorum` of the `n` rows change per round, the
        /// incremental Gram cache recomputes only those rows — the
        /// steady-state cost drops from `n(n−1)/2` to `≈ q·n` dot products.
        reuse_stale: bool,
    },
}

impl ExecutionStrategy {
    /// The simulated network, when the strategy carries one.
    pub(crate) fn network(&self) -> Option<NetworkModel> {
        match *self {
            Self::Sequential => None,
            Self::Threaded { network } | Self::AsyncQuorum { network, .. } => Some(network),
        }
    }
}

impl std::fmt::Display for ExecutionStrategy {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sequential => out.write_str("sequential"),
            Self::Threaded { network } => write!(out, "threaded({network})"),
            Self::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale,
            } => {
                write!(
                    out,
                    "async-quorum(q={quorum}, staleness<={max_staleness}, {network}"
                )?;
                if *reuse_stale {
                    out.write_str(", reuse")?;
                }
                out.write_str(")")
            }
        }
    }
}

/// The omniscient adversary: the attack, its display name and its RNG
/// stream.
struct Adversary {
    attack: Box<dyn Attack>,
    name: String,
    rng: ChaCha8Rng,
}

impl Adversary {
    /// Forges the Byzantine proposals, enforces the attack contract (count
    /// and dimensions) and quantizes them like every other proposal (NaN/∞
    /// payloads survive — the codecs escape non-finite blocks — so
    /// poisoning attacks stay faithful). `observed` is what the adversary
    /// has seen this round: every fresh honest proposal, or the
    /// quorum-closing set for a last-to-respond adversary.
    fn forge(
        &mut self,
        core: &RoundCore,
        cluster: ClusterSpec,
        observed: &[Vector],
        params: &Vector,
        true_gradient: Option<&Vector>,
        round: usize,
    ) -> Result<Vec<Vector>, TrainError> {
        let byzantine = cluster.byzantine();
        let ctx = AttackContext {
            honest_proposals: observed,
            current_params: params,
            true_gradient,
            byzantine_count: byzantine,
            total_workers: cluster.workers(),
            round,
            aggregator_name: core.aggregator_name(),
        };
        let mut forged = self.attack.forge(&ctx, &mut self.rng)?;
        if forged.len() != byzantine {
            return Err(TrainError::AttackContract {
                attack: self.name.clone(),
                message: format!("returned {} proposals, expected {byzantine}", forged.len()),
            });
        }
        for proposal in &forged {
            if proposal.dim() != core.dim() {
                return Err(TrainError::AttackContract {
                    attack: self.name.clone(),
                    message: format!(
                        "returned a proposal of dimension {}, expected {}",
                        proposal.dim(),
                        core.dim()
                    ),
                });
            }
        }
        if let Some(codec) = core.compression() {
            transform_vectors(&**codec, &mut forged, params.as_slice());
        }
        Ok(forged)
    }
}

/// The reuse-stale latest-proposal table: one row per worker, refreshed in
/// place (`assign`) and aggregated at arity `n` every round.
struct LatestTable {
    rows: Vec<Vector>,
    /// Round each row was issued at.
    issued: Vec<usize>,
    /// Per-row refresh counters, handed to the aggregation workspace so
    /// the incremental Gram cache knows which rows changed.
    generations: Vec<u64>,
    /// The table's slot → worker map: row `i` *is* worker `i`.
    workers: Vec<usize>,
}

impl LatestTable {
    fn new(n: usize, dim: usize) -> Self {
        Self {
            rows: vec![Vector::zeros(dim); n],
            issued: vec![0; n],
            generations: vec![0; n],
            workers: (0..n).collect(),
        }
    }

    fn refresh(&mut self, worker: usize, row: &[f64], round: usize) {
        self.rows[worker].assign(row);
        self.issued[worker] = round;
        self.generations[worker] = self.generations[worker].wrapping_add(1);
    }
}

/// Applies the codec's canonical quantize → dequantize transform to each
/// vector in place (`reference` is the round's broadcast params, used by
/// delta codecs). This is the in-process twin of an encode on one socket
/// and a decode on the other: the engine aggregates exactly the vectors a
/// remote server would reconstruct off the wire.
fn transform_vectors(codec: &dyn GradientCodec, vectors: &mut [Vector], reference: &[f64]) {
    for vector in vectors {
        codec.transform(vector.as_mut_slice(), reference);
    }
}

/// The shared round engine: the in-process implementation of every
/// [`ExecutionStrategy`].
///
/// Holds the cluster state (aggregator, attack, worker estimators, RNG
/// streams) and executes one round at a time through the
/// broadcast → propose → attack → aggregate → step → record pipeline. The
/// proposals a round aggregates are decided by a [`QuorumBook`] — the same
/// book the TCP server drives with real arrivals — except under reuse-stale
/// execution, which refreshes its own latest-proposal table. Built
/// perf-first: the book, the proposal buffer and the
/// [`AggregationContext`](krum_core::AggregationContext) are allocated once
/// and reused across rounds, and worker RNGs are independent streams
/// derived from the master seed so every execution strategy follows a
/// reproducible trajectory.
pub struct RoundEngine {
    cluster: ClusterSpec,
    /// The server half of the pipeline (aggregate → step → record), shared
    /// with the networked execution world (`krum-server`).
    core: RoundCore,
    adversary: Adversary,
    /// One estimator per honest worker.
    estimators: Vec<Box<dyn GradientEstimator>>,
    /// Dedicated metrics/adversary probe; when absent, `estimators[0]`
    /// serves the probe queries.
    probe: Option<Box<dyn GradientEstimator>>,
    strategy: ExecutionStrategy,
    dim: usize,
    /// One independent RNG per honest worker.
    worker_rngs: Vec<ChaCha8Rng>,
    network_rng: ChaCha8Rng,
    /// This round's fresh proposals (`n` slots: estimates, then forgeries),
    /// moved into the book or copied into the reuse table.
    proposals: Vec<Vector>,
    /// Which proposals each round aggregates: `quorum = n` for the barrier
    /// strategies, the async quorum and staleness bound otherwise.
    book: QuorumBook,
    /// Arrival-race scratch, `(arrival nanos, worker)`, reused every round.
    race: Vec<(u128, usize)>,
    /// Reuse-stale state; sized on the first reuse round.
    table: Option<LatestTable>,
    /// Whether reuse-stale rounds arm the incremental Gram cache (on by
    /// default; benches disable it to measure the full-recompute baseline).
    gram_cache: bool,
    /// Drift-metrics accumulator, fed after every closed round.
    drift: DriftTracker,
}

impl RoundEngine {
    /// Builds an engine, validating the configuration.
    ///
    /// `estimators` supplies exactly one gradient estimator per honest
    /// worker; `probe`, when given, serves the metrics/adversary queries
    /// (loss, true gradient) so the worker estimators stay exclusive to the
    /// propose phase (otherwise `estimators[0]` is shared).
    ///
    /// Under [`ExecutionStrategy::AsyncQuorum`] the aggregator must be
    /// configured for `quorum` proposals (not `n`): the engine feeds it
    /// exactly `quorum` vectors per round, and rules with a worker-count
    /// precondition (Krum's `2f + 2 < n`) must hold it against the quorum
    /// size. The scenario layer does this automatically.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] when the configuration is
    /// invalid, the estimator count/dimensions are inconsistent, the quorum
    /// bounds are violated (see [`check_quorum`](crate::check_quorum) and
    /// [`check_refresh_pace`]), or the network model is invalid.
    pub fn new(
        cluster: ClusterSpec,
        aggregator: Box<dyn Aggregator>,
        attack: Box<dyn Attack>,
        estimators: Vec<Box<dyn GradientEstimator>>,
        probe: Option<Box<dyn GradientEstimator>>,
        config: TrainingConfig,
        strategy: ExecutionStrategy,
    ) -> Result<Self, TrainError> {
        config.validate()?;
        if let Some(network) = strategy.network() {
            network.validate()?;
        }
        let n = cluster.workers();
        let book = match strategy {
            ExecutionStrategy::AsyncQuorum {
                quorum,
                reuse_stale: true,
                ..
            } => {
                check_refresh_pace(n, quorum).map_err(TrainError::config)?;
                QuorumBook::new(cluster, n, 0)?
            }
            ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                ..
            } => QuorumBook::new(cluster, quorum, max_staleness)?,
            _ => QuorumBook::new(cluster, n, 0)?,
        };
        if estimators.len() != cluster.honest() {
            return Err(TrainError::config(format!(
                "expected one estimator per honest worker ({}), got {}",
                cluster.honest(),
                estimators.len()
            )));
        }
        let dim = estimators
            .first()
            .map(|e| e.dim())
            .ok_or_else(|| TrainError::config("at least one honest worker is required"))?;
        if let Some(worker) = estimators.iter().position(|e| e.dim() != dim) {
            return Err(TrainError::config(format!(
                "estimator {worker} has dimension {}, expected {dim}",
                estimators[worker].dim()
            )));
        }
        if let Some(p) = &probe {
            if p.dim() != dim {
                return Err(TrainError::config(format!(
                    "probe estimator has dimension {}, expected {dim}",
                    p.dim()
                )));
            }
        }
        if let Some(optimum) = &config.known_optimum {
            if optimum.dim() != dim {
                return Err(TrainError::config(format!(
                    "known optimum has dimension {}, expected {dim}",
                    optimum.dim()
                )));
            }
        }
        let seed = config.seed;
        let worker_rngs = (0..cluster.honest())
            .map(|w| stream_rng(seed, w as u64))
            .collect();
        Ok(Self {
            cluster,
            core: RoundCore::new(cluster, aggregator, config, dim)?,
            adversary: Adversary {
                name: attack.name(),
                attack,
                rng: stream_rng(seed, ATTACK_STREAM),
            },
            estimators,
            probe,
            network_rng: stream_rng(seed, NETWORK_STREAM),
            strategy,
            dim,
            worker_rngs,
            proposals: vec![Vector::zeros(dim); n],
            book,
            race: Vec::with_capacity(n),
            table: None,
            gram_cache: true,
            drift: DriftTracker::new(),
        })
    }

    /// Attaches a held-out accuracy probe, called on evaluation rounds with
    /// the current parameters.
    pub fn set_accuracy_probe(&mut self, probe: AccuracyProbe) {
        self.core.set_accuracy_probe(probe);
    }

    /// Attaches a gradient codec: every proposal is passed through the
    /// codec's canonical quantize → dequantize transform **before** the
    /// adversary observes it and before aggregation, and the parameter
    /// vector is re-projected after every step — the same pipeline a
    /// compressed wire imposes, so an in-process run of a compressed
    /// scenario is bit-identical to serving it over sockets.
    ///
    /// The caller owns transforming the *initial* parameters once (the
    /// scenario layer does this), mirroring the first broadcast's
    /// encode/decode.
    pub fn set_compression(&mut self, codec: Arc<dyn GradientCodec>) {
        self.core.set_compression(codec);
    }

    /// Overrides the aggregation workspace's execution policy (e.g. force
    /// [`ExecutionPolicy::Sequential`] for allocation-free profiling).
    pub fn set_aggregation_policy(&mut self, policy: ExecutionPolicy) {
        self.core.set_aggregation_policy(policy);
    }

    /// Enables or disables the incremental Gram cache for reuse-stale async
    /// rounds (on by default). Trajectories are bit-identical either way —
    /// the cache only changes how much of the pairwise-distance matrix is
    /// recomputed per round.
    pub fn set_gram_cache(&mut self, enabled: bool) {
        self.gram_cache = enabled;
        if !enabled {
            self.core.invalidate_gram_cache();
        }
    }

    /// The cluster this engine drives.
    pub fn cluster(&self) -> ClusterSpec {
        self.cluster
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The execution strategy of this engine.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        self.core.config()
    }

    fn probe_estimator(&self) -> &dyn GradientEstimator {
        self.probe
            .as_deref()
            .unwrap_or_else(|| &*self.estimators[0])
    }

    /// Runs the configured number of rounds from `start`, returning the
    /// final parameters and the per-round history. The last round is always
    /// an evaluation round (see [`TrainingConfig::eval_every`]), so the
    /// final recorded loss/accuracy always describes the returned model.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when a worker, the attack or the aggregator
    /// fails mid-run, or when a poisoned round produces a NaN update
    /// ([`TrainError::PoisonedRound`]).
    pub fn run(&mut self, start: Vector) -> Result<(Vector, TrainingHistory), TrainError> {
        let mut params = start;
        let mut history = self.new_history();
        let rounds = self.core.config().rounds;
        for round in 0..rounds {
            let record = self.step(&mut params, round)?;
            history.push(record);
        }
        Ok((params, history))
    }

    /// Runs a single round from the given parameters (without mutating
    /// them), returning the updated parameters and the round record.
    ///
    /// # Errors
    ///
    /// Same as [`RoundEngine::run`].
    pub fn run_round(
        &mut self,
        params: &Vector,
        round: usize,
    ) -> Result<(Vector, RoundRecord), TrainError> {
        let mut next = params.clone();
        let record = self.step(&mut next, round)?;
        Ok((next, record))
    }

    /// Executes one pass of the round pipeline, applying the update to
    /// `params` in place. Returns the round's metrics record with per-phase
    /// timings (and, under the async strategy, the quorum/staleness stats).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when a worker, the attack or the aggregator
    /// fails, or when the aggregate update is NaN (a poisoned round).
    pub fn step(&mut self, params: &mut Vector, round: usize) -> Result<RoundRecord, TrainError> {
        let round_start = Instant::now();
        let honest = self.cluster.honest();

        let propose_start = Instant::now();
        self.propose(params)?;
        let propose_nanos = propose_start.elapsed().as_nanos();

        // Phase 3: attack. The omniscient adversary observes the round,
        // including the true gradient when the workload exposes one, and
        // the round settles which proposals it aggregates.
        let attack_start = Instant::now();
        let true_gradient = self.probe_estimator().true_gradient(params);
        let (stats, cutoff) = match self.strategy {
            ExecutionStrategy::AsyncQuorum {
                quorum,
                max_staleness,
                network,
                reuse_stale: true,
            } => self.refresh_table(
                params,
                round,
                quorum,
                max_staleness,
                network,
                true_gradient.as_ref(),
            )?,
            _ => {
                self.fill_quorum(params, round, true_gradient.as_ref())?;
                (self.book.stats(), self.book.cutoff())
            }
        };
        let attack_nanos = attack_start.elapsed().as_nanos();

        // Phases 4–6: aggregate → step → record through the shared core —
        // the paper's O(n²·d) server-side hot path, through the reused
        // workspace. Stateful rules key their cross-round memory by the
        // worker behind each slot, not by the slot.
        let (proposals, workers) = match &self.table {
            Some(table) => {
                // Arming the per-worker generations lets the workspace
                // recompute only the refreshed Gram rows — bit-identical to
                // a full recompute.
                if self.gram_cache {
                    self.core.set_generations(&table.generations);
                }
                (&table.rows[..], &table.workers[..])
            }
            None => (self.book.vectors(), self.book.workers()),
        };
        self.core.set_slot_workers(workers);
        let probe = self.probe.as_deref().unwrap_or(&*self.estimators[0]);
        let mut record =
            self.core
                .close_round(params, round, proposals, true_gradient, Some(probe))?;
        record.propose_nanos = propose_nanos;
        record.attack_nanos = attack_nanos;
        record.round_nanos = round_start.elapsed().as_nanos();
        record.selected_worker = record.selected_worker.map(|slot| workers[slot]);
        record.selected_byzantine = record.selected_worker.map(|w| w >= honest);
        // The simulated network charges the quorum's closing arrival, or
        // (threaded) the synchronous barrier's slowest worker, on top of
        // the measured wall clock.
        record.network_nanos = match self.strategy {
            ExecutionStrategy::Threaded { network } => {
                network.round_nanos(self.cluster.workers(), self.dim, &mut self.network_rng)
            }
            ExecutionStrategy::AsyncQuorum { .. } => {
                stats.record(&mut record);
                cutoff
            }
            ExecutionStrategy::Sequential => 0,
        };
        record.round_nanos += record.network_nanos;

        // Observers of the accepted aggregate: the drift columns, and the
        // feedback a stateful adversary adapts on. Stateless attacks pay
        // no feedback cost (no clone, no observe call).
        let learning_rate = record.learning_rate;
        let aggregate = self.core.last_aggregate();
        self.drift.observe(
            &mut record,
            aggregate,
            proposals,
            workers,
            honest,
            learning_rate,
        );
        if self.adversary.attack.stateful() {
            self.adversary.attack.observe(&RoundFeedback {
                round,
                aggregate: aggregate.clone(),
                learning_rate,
                selected_worker: record.selected_worker,
                selected_byzantine: record.selected_byzantine,
                quorum_workers: workers.to_vec(),
            });
        }
        Ok(record)
    }

    /// Phases 1+2: broadcast + propose. The server publishes `x_t` (the
    /// shared borrow) and every honest worker estimates a gradient at it
    /// from its own RNG stream — the same draws in the same order under
    /// every strategy. Under a codec the proposals are quantized before the
    /// adversary observes them, exactly as a remote worker's encode →
    /// server decode would produce.
    fn propose(&mut self, params: &Vector) -> Result<(), TrainError> {
        let honest = self.cluster.honest();
        if matches!(self.strategy, ExecutionStrategy::Threaded { .. }) && honest > 1 {
            let outputs: Result<Vec<Vector>, _> = self
                .estimators
                .iter()
                .zip(self.worker_rngs.iter_mut())
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(estimator, rng)| estimator.estimate(params, rng))
                .collect();
            for (slot, proposal) in self.proposals.iter_mut().zip(outputs?) {
                *slot = proposal;
            }
        } else {
            for w in 0..honest {
                self.proposals[w] =
                    self.estimators[w].estimate(params, &mut self.worker_rngs[w])?;
            }
        }
        if let Some(codec) = self.core.compression() {
            transform_vectors(&**codec, &mut self.proposals[..honest], params.as_slice());
        }
        Ok(())
    }

    /// Phase 3 of a barrier or partial-quorum round: the fresh proposals
    /// race into the book behind the carried stragglers — under the
    /// simulated network for [`ExecutionStrategy::AsyncQuorum`], all at
    /// arrival 0 in worker order otherwise — and the adversary forges
    /// according to its [`AttackTiming`].
    fn fill_quorum(
        &mut self,
        params: &Vector,
        round: usize,
        true_gradient: Option<&Vector>,
    ) -> Result<(), TrainError> {
        let honest = self.cluster.honest();
        let network = match self.strategy {
            ExecutionStrategy::AsyncQuorum { network, .. } => Some(network),
            _ => None,
        };
        let timing = self.adversary.attack.timing();
        // Racing and straggling adversaries forge now, observing every
        // fresh honest proposal; a last-to-respond adversary forges once
        // the quorum-closing set is known.
        let late = timing == AttackTiming::LastToRespond;
        if !late {
            let forged = self.adversary.forge(
                &self.core,
                self.cluster,
                &self.proposals[..honest],
                params,
                true_gradient,
                round,
            )?;
            for (slot, vector) in self.proposals[honest..].iter_mut().zip(forged) {
                *slot = vector;
            }
        }

        // The arrival race. Honest workers draw first, keeping the network
        // stream aligned across timings.
        let dim = self.dim;
        let draw = |rng: &mut ChaCha8Rng| {
            network.map_or(0, |network| network.worker_round_trip_nanos(dim, rng))
        };
        self.race.clear();
        for w in 0..honest {
            self.race.push((draw(&mut self.network_rng), w));
        }
        let slowest_honest = self.race.iter().map(|&(at, _)| at).max().unwrap_or(0);
        for w in honest..self.cluster.workers() {
            match timing {
                AttackTiming::Honest => self.race.push((draw(&mut self.network_rng), w)),
                // Deliberately after every honest proposal: out of the
                // quorum unless it cannot close without Byzantine slots.
                AttackTiming::Straggle => self.race.push((u128::MAX, w)),
                AttackTiming::LastToRespond => {}
            }
        }
        self.race.sort_unstable();

        // A last-to-respond adversary watches the wire and slips its
        // proposals in just before the quorum would close: only `quorum − f`
        // legitimate arrivals are observed before it responds.
        let reserve = if late { self.cluster.byzantine() } else { 0 };
        self.book.open(round, reserve);
        for &(arrival, w) in &self.race {
            // A straggler pulled in to fill the quorum arrives right after
            // the slowest honest proposal.
            let arrival = if w >= honest && timing == AttackTiming::Straggle {
                slowest_honest
            } else {
                arrival
            };
            let vector = std::mem::take(&mut self.proposals[w]);
            self.book.admit(w, round, vector, arrival);
        }
        if late {
            // The Byzantine workers respond with full knowledge of exactly
            // the set about to be aggregated, timed at its closing arrival —
            // the server never waits for them, so the network charge stays
            // the observed cutoff. Slots they leave open close on the next
            // legitimate arrivals when the book closes.
            let forged = self.adversary.forge(
                &self.core,
                self.cluster,
                self.book.vectors(),
                params,
                true_gradient,
                round,
            )?;
            self.book.release();
            for (b, vector) in forged.into_iter().enumerate() {
                if self.book.is_full() {
                    break;
                }
                let cutoff = self.book.cutoff();
                self.book.admit(honest + b, round, vector, cutoff);
            }
        }
        self.book.close();
        Ok(())
    }

    /// Phase 3 of a reuse-stale round: refreshes rows of the
    /// latest-proposal table, which is then aggregated whole (arity `n`) —
    /// the stale-gradient parameter-server model, where workers overwrite
    /// their row whenever they finish and the server never waits for more
    /// than the refresh pace plus the staleness bound. Returns the round's
    /// stats and network charge.
    ///
    /// Refresh selection per round:
    ///
    /// 1. every row whose age reached `max_staleness` **must** refresh
    ///    (round 0 forces the whole table — there is nothing to reuse);
    /// 2. remaining capacity up to `quorum` goes to the earliest fresh
    ///    arrivals under the simulated network, honouring the adversary's
    ///    timing: straggling Byzantine workers only land when forced (at
    ///    the slowest honest arrival), last-to-respond ones always land,
    ///    forging after observing the honest refreshes.
    ///
    /// Fresh proposals that do not land are discarded (the worker will
    /// recompute at a newer `x_t` anyway) and show up in `dropped_stale`;
    /// `pending_carryover` is always 0 — staleness lives in the table
    /// itself, visible through `stale_in_quorum`.
    fn refresh_table(
        &mut self,
        params: &Vector,
        round: usize,
        quorum: usize,
        max_staleness: usize,
        network: NetworkModel,
        true_gradient: Option<&Vector>,
    ) -> Result<(QuorumStats, u128), TrainError> {
        let honest = self.cluster.honest();
        let n = self.cluster.workers();
        let timing = self.adversary.attack.timing();
        let late = timing == AttackTiming::LastToRespond;
        let early_forged = if late {
            None
        } else {
            Some(self.adversary.forge(
                &self.core,
                self.cluster,
                &self.proposals[..honest],
                params,
                true_gradient,
                round,
            )?)
        };
        // First reuse round: size the table (the only allocating round).
        let cold_start = self.table.is_none();
        let table = self
            .table
            .get_or_insert_with(|| LatestTable::new(n, self.dim));

        // Arrival race. Honest workers always draw (keeping the network
        // stream aligned across timings); `u128::MAX` keeps a straggling or
        // last-to-respond Byzantine worker out of it.
        let mut arrival = vec![u128::MAX; n];
        for slot in arrival.iter_mut().take(honest) {
            *slot = network.worker_round_trip_nanos(self.dim, &mut self.network_rng);
        }
        let slowest_honest = arrival[..honest].iter().copied().max().unwrap_or(0);
        if timing == AttackTiming::Honest {
            for slot in arrival.iter_mut().skip(honest) {
                *slot = network.worker_round_trip_nanos(self.dim, &mut self.network_rng);
            }
        }

        // Refresh selection: forced rows first, then the earliest arrivals
        // up to `quorum`. A last-to-respond adversary always refreshes (it
        // is never the bottleneck).
        let mut refresh = vec![false; n];
        let mut refreshed = 0usize;
        for (w, slot) in refresh.iter_mut().enumerate() {
            if cold_start || round - table.issued[w] >= max_staleness || (late && w >= honest) {
                *slot = true;
                refreshed += 1;
            }
        }
        if refreshed < quorum {
            self.race.clear();
            self.race
                .extend((0..n).filter(|&w| !refresh[w]).map(|w| (arrival[w], w)));
            self.race.sort_unstable();
            for &(_, w) in self.race.iter().take(quorum - refreshed) {
                refresh[w] = true;
                refreshed += 1;
            }
        }

        // Land the refreshes and charge the slowest landed arrival, with
        // straggling Byzantine workers pulled in at the honest cutoff. An
        // unused fresh gradient is dropped: by the next round its worker
        // re-estimates at the new parameters.
        let mut cutoff: u128 = 0;
        let mut dropped = 0usize;
        for w in 0..honest {
            if refresh[w] {
                table.refresh(w, self.proposals[w].as_slice(), round);
                cutoff = cutoff.max(arrival[w]);
            } else {
                dropped += 1;
            }
        }
        let forged = match early_forged {
            Some(forged) => forged,
            // Last-to-respond: forge now, observing exactly the honest rows
            // that landed this round, timed at the closing arrival.
            None => {
                let observed: Vec<Vector> = (0..honest)
                    .filter(|&w| refresh[w])
                    .map(|w| table.rows[w].clone())
                    .collect();
                self.adversary.forge(
                    &self.core,
                    self.cluster,
                    &observed,
                    params,
                    true_gradient,
                    round,
                )?
            }
        };
        for (b, vector) in forged.into_iter().enumerate() {
            let w = honest + b;
            if !refresh[w] {
                dropped += 1;
                continue;
            }
            table.refresh(w, vector.as_slice(), round);
            match timing {
                AttackTiming::Honest => cutoff = cutoff.max(arrival[w]),
                AttackTiming::Straggle => cutoff = cutoff.max(slowest_honest),
                AttackTiming::LastToRespond => {}
            }
        }
        let stats =
            QuorumStats::measure(round, table.issued.iter().copied(), refreshed, dropped, 0);
        Ok((stats, cutoff))
    }

    /// Metadata-filled empty history for a run of this engine.
    pub fn new_history(&self) -> TrainingHistory {
        TrainingHistory::new(
            format!(
                "{} vs {} (n={}, f={}, d={})",
                self.core.aggregator_name(),
                self.adversary.name,
                self.cluster.workers(),
                self.cluster.byzantine(),
                self.dim
            ),
            self.core.aggregator_name().to_string(),
            self.adversary.name.clone(),
            self.cluster.workers(),
            self.cluster.byzantine(),
        )
    }
}
