//! Allocation regression test for the workspace-backed aggregation path.
//!
//! The `AggregationContext` contract: once the workspace has warmed up on a
//! proposal shape `(n, d)`, repeated `aggregate_in` calls under the
//! sequential execution policy perform **zero heap allocations**. This test
//! installs a counting global allocator and pins that contract for Krum,
//! Multi-Krum, the coordinate-wise median and the trimmed mean (the rules
//! named by the server hot paths), plus the allocation-free kernel shared
//! with `closest-to-barycenter`.
//!
//! The counter is thread-local so the test stays meaningful even if the
//! harness runs other tests concurrently in the same process; for the same
//! reason everything lives in a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use krum::aggregation::{
    AggregationContext, Aggregator, ClosestToBarycenter, CoordinateWiseMedian, ExecutionPolicy,
    Hierarchical, Krum, MultiKrum, StageRule, TrimmedMean,
};
use krum::dist::{ClusterSpec, QuorumBook};
use krum::tensor::Vector;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation made by the current thread; delegates the actual
/// memory management to the system allocator.
///
/// Deliberately duplicated in `crates/bench/src/bin/round_pipeline.rs`
/// (keep the two in sync): a shared home would have to live in a library
/// crate, and every crate in this workspace forbids `unsafe_code`, which a
/// `GlobalAlloc` impl requires.
struct CountingAllocator;

fn bump() {
    // `try_with` so allocations during thread teardown never panic.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; `bump` only touches an already-initialized thread-local `Cell`
// and never allocates or unwinds, so every method inherits `System`'s
// guarantees unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `alloc` obligations are forwarded to `System` as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: the caller's `alloc_zeroed` obligations are forwarded to `System` as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller's `realloc` obligations (live ptr, matching layout)
    // are forwarded to `System` as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller's `dealloc` obligations (live ptr, matching layout)
    // are forwarded to `System` as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// Deterministic pseudo-random proposals (no RNG crate involvement so the
/// measured region stays simple).
fn proposals(n: usize, dim: usize) -> Vec<Vector> {
    (0..n)
        .map(|w| {
            Vector::from(
                (0..dim)
                    .map(|c| {
                        let x = (w * 31 + c * 7 + 13) as f64;
                        (x * 0.618_033_988_749).fract() * 2.0 - 1.0
                    })
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

#[test]
fn aggregation_path_is_allocation_free_after_warmup() {
    // n = 24 exercises sorts well past any insertion-sort cutoff; d = 257
    // straddles the kernel's 32-lane chunks and the median block size.
    let n = 24;
    let f = 7; // 2f + 2 < n
    let dim = 257;
    let ps = proposals(n, dim);

    let rules: Vec<(&str, Box<dyn Aggregator>)> = vec![
        ("krum", Box::new(Krum::new(n, f).unwrap())),
        ("multi-krum", Box::new(MultiKrum::new(n, f, n - f).unwrap())),
        ("median", Box::new(CoordinateWiseMedian::new())),
        ("trimmed-mean", Box::new(TrimmedMean::new(f))),
        (
            "closest-to-barycenter",
            Box::new(ClosestToBarycenter::new()),
        ),
    ];

    for (name, rule) in &rules {
        // The zero-allocation guarantee is tied to the sequential policy:
        // the thread-pool fan-out necessarily allocates task bookkeeping.
        let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);

        // Warm-up: grows every buffer to the (n, d) high-water mark.
        for _ in 0..2 {
            rule.aggregate_in(&mut ctx, &ps).unwrap();
        }
        let expected = rule.aggregate_detailed(&ps).unwrap();

        let before = allocations();
        for _ in 0..10 {
            rule.aggregate_in(&mut ctx, &ps).unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "rule `{name}` allocated {} times in 10 warm aggregate_in calls",
            after - before
        );

        // The warm path still computes the right answer.
        assert_eq!(
            ctx.output(),
            &expected,
            "rule `{name}` warm output diverged from the allocating path"
        );
    }

    // Sanity check that the counter actually counts: an allocating call
    // must register.
    let krum = Krum::new(n, f).unwrap();
    let before = allocations();
    let _ = krum.aggregate_detailed(&ps).unwrap();
    assert!(
        allocations() > before,
        "counting allocator failed to observe the allocating path"
    );
}

/// Satellite: the warm-workspace contract must survive **arity churn** — a
/// server closing degraded rounds (or an async engine aggregating a
/// partial quorum) reuses one context across rules rebuilt at `q < n`,
/// then grows back to `n` when the stragglers return. Once every shape
/// has been seen, shrinking and growing between them must not reallocate.
#[test]
fn aggregation_path_survives_arity_churn_without_reallocating() {
    let n = 24;
    let f = 5;
    let dim = 257;
    let ps = proposals(n, dim);
    // Quorum sizes a degraded/async round would actually visit (all keep
    // Krum's 2f + 2 < q precondition at f = 5).
    let arities = [n, 17, 20, n, 13, n];

    let rules: Vec<Box<dyn Aggregator>> = arities
        .iter()
        .map(|&q| Box::new(Krum::new(q, f).unwrap()) as Box<dyn Aggregator>)
        .collect();

    let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);
    // Warm-up: visit every shape once (high-water mark is (n, dim)).
    for (rule, &q) in rules.iter().zip(&arities) {
        rule.aggregate_in(&mut ctx, &ps[..q]).unwrap();
    }

    let before = allocations();
    for _ in 0..5 {
        for (rule, &q) in rules.iter().zip(&arities) {
            rule.aggregate_in(&mut ctx, &ps[..q]).unwrap();
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "arity churn allocated {} times across warm shrink/grow cycles",
        after - before
    );

    // Churn keeps answers identical to the allocating path at each arity.
    for (rule, &q) in rules.iter().zip(&arities) {
        let expected = rule.aggregate_detailed(&ps[..q]).unwrap();
        rule.aggregate_in(&mut ctx, &ps[..q]).unwrap();
        assert_eq!(ctx.output(), &expected, "arity {q} diverged when warm");
    }
}

/// Satellite: the hierarchical rule's two-stage workspace obeys the same
/// contract — after one round warms the group slots, the winner table and
/// the outer context, steady-state rounds are allocation-free under the
/// sequential policy.
#[test]
fn hierarchical_aggregation_is_allocation_free_after_warmup() {
    let n = 24;
    let f = 3;
    let dim = 257;
    let ps = proposals(n, dim);
    let rule = Hierarchical::new(n, f, 4, StageRule::Krum, StageRule::Krum).unwrap();

    let mut ctx = AggregationContext::with_policy(ExecutionPolicy::Sequential);
    for _ in 0..2 {
        rule.aggregate_in(&mut ctx, &ps).unwrap();
    }
    let expected = rule.aggregate_detailed(&ps).unwrap();

    let before = allocations();
    for _ in 0..10 {
        rule.aggregate_in(&mut ctx, &ps).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "hierarchical allocated {} times in 10 warm aggregate_in calls",
        after - before
    );
    assert_eq!(ctx.output(), &expected);
}

/// Satellite: the quorum book's steady state. After warm-up, its
/// open → admit → close cycle over a fixed `n` and quorum performs zero
/// allocations: the slot flags, the deferred and carry pools and the
/// layout buffers are all reused. The proposals themselves are built
/// before the measured region — they are the workers' allocations, moved
/// through the book.
#[test]
fn quorum_book_cycle_is_allocation_free_after_warmup() {
    let (n, f, quorum, max_staleness, dim) = (24, 5, 20, 1, 16);
    let mut book = QuorumBook::new(ClusterSpec::new(n, f).unwrap(), quorum, max_staleness).unwrap();
    let (warmup, rounds) = (6, 26);
    let mut inbox: Vec<Vec<Vector>> = (0..rounds)
        .map(|r| {
            (0..n)
                .map(|w| Vector::filled(dim, (r * n + w) as f64))
                .collect()
        })
        .collect();
    let cycle = |book: &mut QuorumBook, round: usize, proposals: &mut [Vector]| {
        // Every other round holds `f` slots back for late arrivals.
        let reserve = if round.is_multiple_of(2) { f } else { 0 };
        book.open(round, reserve);
        for i in 0..n {
            let worker = (i * 7) % n;
            let vector = std::mem::take(&mut proposals[worker]);
            book.admit(worker, round, vector, i as u128);
            if i == n - reserve {
                book.release();
            }
        }
        book.close();
    };
    for (round, proposals) in inbox.iter_mut().enumerate().take(warmup) {
        cycle(&mut book, round, proposals);
    }

    let before = allocations();
    let mut carried = 0;
    for (round, proposals) in inbox.iter_mut().enumerate().skip(warmup) {
        cycle(&mut book, round, proposals);
        carried += book.stats().pending_carryover;
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the quorum book allocated {} times in {} warm rounds",
        after - before,
        rounds - warmup
    );
    // The measured rounds exercised the carry pool and closed full quorums.
    assert!(carried > 0);
    assert_eq!(book.stats().quorum_size, quorum);
}
