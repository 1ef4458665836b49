//! Integration pins for the async partial-quorum execution strategy
//! (acceptance criteria of the async-quorum PR):
//!
//! * `AsyncQuorum` with `quorum = n` and zero latency reproduces the
//!   Sequential trajectory exactly;
//! * async trajectories are bit-identical across repeated runs of the same
//!   seed, including under a heavy-tailed network with timing-aware
//!   adversaries;
//! * the exported CSV carries well-formed quorum/staleness columns;
//! * the quorum book keeps its invariants under generated admission
//!   sequences — checked here, in every build profile.

use std::collections::BTreeMap;

use krum::attacks::AttackSpec;
use krum::dist::{ClusterSpec, LatencyModel, NetworkModel, QuorumBook};
use krum::metrics::RoundRecord;
use krum::models::EstimatorSpec;
use krum::scenario::{ScenarioBuilder, ScenarioReport};
use krum::tensor::Vector;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn base(n: usize, f: usize) -> ScenarioBuilder {
    ScenarioBuilder::new(n, f)
        .attack(AttackSpec::SignFlip { scale: 3.0 })
        .estimator(EstimatorSpec::GaussianQuadratic { dim: 6, sigma: 0.3 })
        .rounds(30)
        .eval_every(5)
        .seed(42)
        .init_fill(1.5)
}

fn zero_latency() -> NetworkModel {
    NetworkModel {
        latency: LatencyModel::Constant { nanos: 0 },
        nanos_per_byte: 0.0,
    }
}

fn heavy_tail() -> NetworkModel {
    NetworkModel {
        latency: LatencyModel::Pareto {
            min_nanos: 50_000,
            alpha: 1.1,
        },
        nanos_per_byte: 0.05,
    }
}

#[test]
fn full_quorum_zero_latency_reproduces_the_sequential_trajectory() {
    let sequential = base(9, 2).run().unwrap();
    let quorum = base(9, 2).async_quorum(9, 2, zero_latency()).run().unwrap();
    assert_eq!(quorum.final_params, sequential.final_params);
    assert_eq!(quorum.history.len(), sequential.history.len());
    for (a, b) in quorum.history.rounds.iter().zip(&sequential.history.rounds) {
        assert_eq!(a.aggregate_norm, b.aggregate_norm);
        assert_eq!(a.selected_worker, b.selected_worker);
        assert_eq!(a.distance_to_optimum, b.distance_to_optimum);
        assert_eq!(a.loss, b.loss);
    }
}

#[test]
fn async_trajectories_are_bit_identical_across_repeated_runs() {
    let run = || -> ScenarioReport {
        base(11, 2)
            .attack(AttackSpec::Straggler { scale: 3.0 })
            .async_quorum(9, 2, heavy_tail())
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_params, b.final_params);
    for (x, y) in a.history.rounds.iter().zip(&b.history.rounds) {
        assert_eq!(x.aggregate_norm, y.aggregate_norm);
        assert_eq!(x.selected_worker, y.selected_worker);
        assert_eq!(x.network_nanos, y.network_nanos);
        assert_eq!(x.quorum_size, y.quorum_size);
        assert_eq!(x.stale_in_quorum, y.stale_in_quorum);
        assert_eq!(x.dropped_stale, y.dropped_stale);
        assert_eq!(x.pending_carryover, y.pending_carryover);
    }
}

#[test]
fn async_csv_export_has_well_formed_staleness_columns() {
    let report = base(9, 2)
        .attack(AttackSpec::LastToRespond { scale: 2.0 })
        .async_quorum(7, 2, heavy_tail())
        .run()
        .unwrap();
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().filter(|l| !l.starts_with('#')).collect();
    let header: Vec<&str> = lines[0].split(',').collect();
    let expected_cells = RoundRecord::csv_header().split(',').count();
    for column in [
        "quorum_size",
        "stale_in_quorum",
        "max_staleness_in_quorum",
        "dropped_stale",
        "pending_carryover",
    ] {
        assert!(header.contains(&column), "missing column {column}");
    }
    let quorum_at = header.iter().position(|&c| c == "quorum_size").unwrap();
    for row in &lines[1..] {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), expected_cells, "row: {row}");
        // Under async execution every row records its quorum size, and it
        // parses as the configured quorum.
        assert_eq!(cells[quorum_at].parse::<usize>().unwrap(), 7, "row: {row}");
    }
    // The last-to-respond adversary is in every quorum; Krum still holds.
    let stats = report.history.selection_stats();
    assert!(stats.total() > 0);
    assert!(report.final_params.is_finite());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random admission sequences — carried entries, several proposals of
    /// one worker in a round, Byzantine ids, stale issue rounds, reserved
    /// slots — never break the book's invariants: at most one entry per
    /// worker (so at most `f` Byzantine entries) and at most `quorum`
    /// entries per quorum, every admitted entry ends up exactly once in the
    /// quorum, the carry pool or the dropped count, an entry is dropped
    /// exactly when its age would exceed `max_staleness`, and the layout is
    /// sorted by `(issued_round, worker)`.
    #[test]
    fn quorum_book_keeps_its_invariants(
        (n, f_pick, q_pick, max_staleness, seed) in
            (2usize..12, 0usize..64, 0usize..64, 0usize..4, 0u64..u64::MAX),
    ) {
        let f = f_pick % n.div_ceil(2);
        let quorum = n - f + q_pick % (f + 1);
        let mut book = QuorumBook::new(ClusterSpec::new(n, f).unwrap(), quorum, max_staleness)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Every entry ever admitted, by tag: (worker, issued_round). The
        // tag rides in the vector, so the test can follow each entry.
        let mut issued: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        let mut carried: Vec<u64> = Vec::new();
        for round in 0..10 {
            let reserve = if rng.gen_bool(0.3) { rng.gen_range(0..=f) } else { 0 };
            book.open(round, reserve);
            let mut limit = quorum - reserve;
            let mut offered = carried.clone();
            for _ in 0..rng.gen_range(0..2 * n) {
                let worker = rng.gen_range(0..n);
                let issued_round = round.saturating_sub(rng.gen_range(0..4));
                // A worker proposes once per round: skip a repeated pair.
                if issued.values().any(|&key| key == (worker, issued_round)) {
                    continue;
                }
                let tag = issued.len() as u64;
                issued.insert(tag, (worker, issued_round));
                offered.push(tag);
                let took = book.admit(worker, issued_round, Vector::filled(1, tag as f64), 0);
                prop_assert!(!took || book.vectors().len() <= limit);
                if rng.gen_bool(0.1) {
                    book.release();
                    limit = quorum;
                }
            }
            book.close();
            let tag_of = |v: &Vector| v.as_slice()[0] as u64;

            let workers = book.workers();
            let in_quorum: Vec<u64> = book.vectors().iter().map(tag_of).collect();
            prop_assert!(in_quorum.len() <= quorum);
            prop_assert_eq!(workers.len(), in_quorum.len());
            let mut seen = vec![false; n];
            for &w in workers {
                prop_assert!(!seen[w], "worker {w} holds two slots");
                seen[w] = true;
            }
            prop_assert!(workers.iter().filter(|&&w| w >= n - f).count() <= f);
            let layout: Vec<(usize, usize)> = in_quorum
                .iter()
                .map(|tag| (issued[tag].1, issued[tag].0))
                .collect();
            prop_assert!(layout.windows(2).all(|p| p[0] < p[1]));
            prop_assert!(layout.iter().zip(workers).all(|(slot, &w)| slot.1 == w));

            carried = book.carried().map(|(_, _, v)| tag_of(v)).collect();
            let stats = book.stats();
            let mut expected_dropped = 0;
            for tag in &offered {
                let (_, issued_round) = issued[tag];
                let kept = in_quorum.iter().chain(&carried).filter(|&t| t == tag).count();
                if in_quorum.contains(tag) {
                    prop_assert_eq!(kept, 1, "entry {tag} both aggregated and carried");
                } else if round + 1 - issued_round > max_staleness {
                    prop_assert_eq!(kept, 0, "entry {tag} outlived the staleness bound");
                    expected_dropped += 1;
                } else {
                    prop_assert_eq!(kept, 1, "entry {tag} was lost");
                }
            }
            prop_assert_eq!(offered.len(), in_quorum.len() + carried.len() + expected_dropped);
            prop_assert_eq!(stats.dropped_stale, expected_dropped);
            prop_assert_eq!(stats.quorum_size, in_quorum.len());
            prop_assert_eq!(stats.pending_carryover, carried.len());
        }
    }
}
