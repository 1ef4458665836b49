//! The quorum book: which proposals a round aggregates.
//!
//! Krum's guarantee (Blanchard et al., PODC'17) holds only while each of
//! the `n` workers contributes at most one vector per aggregation, so that
//! at most `f` of the aggregated vectors are Byzantine. [`QuorumBook`] is
//! the one place that rule lives, together with the bookkeeping around it:
//!
//! * the **carry-over pool** — arrivals that missed their round's quorum,
//!   offered first to the next round, oldest first in
//!   `(issued_round, worker)` order (they are already at the server);
//! * the **one-proposal-per-worker cap** — a worker that holds a slot
//!   cannot be admitted again in the same round, whatever the caller does;
//! * **closing** — leftovers carry forward unless their age would exceed
//!   `max_staleness`, in which case they are dropped and counted;
//! * the **aggregation layout** — the quorum sorted by
//!   `(issued_round, worker)` (plain worker order for an all-fresh quorum)
//!   plus the slot → worker ids stateful rules key their memory by;
//! * the five quorum/staleness columns of a [`RoundRecord`].
//!
//! The book is transport-free: it knows no clock, network or attack. The
//! in-process engine drives it with simulated arrivals and the TCP server
//! with real ones, through the same cycle per round:
//!
//! ```text
//! open(round, reserve) → admit(worker, issued_round, vector, arrival)* → close()
//! ```
//!
//! Arrivals must be admitted in arrival order. `reserve` holds slots back
//! for proposals known to come late: until [`QuorumBook::release`],
//! admission stops `reserve` slots short of the quorum, and arrivals
//! deferred meanwhile are re-offered, still in arrival order, when the
//! round closes. Every buffer is reused, so a steady-state cycle allocates
//! nothing.

use krum_metrics::RoundRecord;
use krum_tensor::Vector;

use crate::config::ClusterSpec;
use crate::error::TrainError;

/// Checks the partial-quorum bound `n − f ≤ quorum ≤ n`: a smaller quorum
/// could close on Byzantine proposals alone, a larger one never closes.
///
/// # Errors
///
/// Returns a message naming the violated bound.
pub fn check_quorum(cluster: ClusterSpec, quorum: usize) -> Result<(), String> {
    if quorum < cluster.honest() || quorum > cluster.workers() {
        return Err(format!(
            "quorum must satisfy n - f <= quorum <= n, got quorum = {quorum} with n = {}, f = {}",
            cluster.workers(),
            cluster.byzantine()
        ));
    }
    Ok(())
}

/// Checks the reuse-stale refresh pace `1 ≤ quorum ≤ n`: reuse mode
/// aggregates the whole latest-proposal table every round, so any positive
/// number of refreshes up to a full refresh is meaningful.
///
/// # Errors
///
/// Returns a message naming the violated bound.
pub fn check_refresh_pace(n: usize, quorum: usize) -> Result<(), String> {
    if quorum < 1 || quorum > n {
        return Err(format!(
            "reuse-stale quorum must satisfy 1 <= quorum <= n, got quorum = {quorum} with n = {n}"
        ));
    }
    Ok(())
}

/// The quorum/staleness columns of one closed round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuorumStats {
    /// Proposals aggregated (for reuse-stale rounds: rows refreshed).
    pub quorum_size: usize,
    /// Aggregated proposals issued before the closing round.
    pub stale_in_quorum: usize,
    /// Age in rounds of the oldest aggregated proposal.
    pub max_staleness_in_quorum: usize,
    /// Proposals discarded this round.
    pub dropped_stale: usize,
    /// Proposals carried into the next round.
    pub pending_carryover: usize,
}

impl QuorumStats {
    /// Measures a round closed at `round` over proposals issued at the
    /// rounds `issued`.
    pub fn measure(
        round: usize,
        issued: impl IntoIterator<Item = usize>,
        quorum_size: usize,
        dropped_stale: usize,
        pending_carryover: usize,
    ) -> Self {
        let mut stats = Self {
            quorum_size,
            dropped_stale,
            pending_carryover,
            ..Self::default()
        };
        for issued in issued {
            let age = round.saturating_sub(issued);
            stats.stale_in_quorum += usize::from(age > 0);
            stats.max_staleness_in_quorum = stats.max_staleness_in_quorum.max(age);
        }
        stats
    }

    /// Writes the five columns into `record`.
    pub fn record(&self, record: &mut RoundRecord) {
        record.quorum_size = Some(self.quorum_size);
        record.stale_in_quorum = Some(self.stale_in_quorum);
        record.max_staleness_in_quorum = Some(self.max_staleness_in_quorum);
        record.dropped_stale = Some(self.dropped_stale);
        record.pending_carryover = Some(self.pending_carryover);
    }
}

/// An arrival that holds no quorum slot (yet).
#[derive(Debug)]
struct Entry {
    worker: usize,
    issued_round: usize,
    arrival: u128,
    vector: Vector,
}

/// Which proposals a round aggregates; see the module docs.
///
/// `(worker, issued_round)` pairs are unique: a worker proposes once per
/// round. Workers are `0..n`, Byzantine ones `n − f..n`.
#[derive(Debug)]
pub struct QuorumBook {
    quorum: usize,
    max_staleness: usize,
    round: usize,
    /// Admission stops here: `quorum` minus the slots `open` held back.
    limit: usize,
    /// `taken[w]`: worker `w` holds a slot this round.
    taken: Vec<bool>,
    /// The quorum's vectors: admission order while the round is open,
    /// layout order once it is closed.
    vectors: Vec<Vector>,
    /// `(issued_round, worker)` per entry of `vectors`.
    slots: Vec<(usize, usize)>,
    /// Worker per entry of `vectors`, in layout order (filled by `close`).
    workers: Vec<usize>,
    /// Arrivals of the open round that found no slot.
    deferred: Vec<Entry>,
    /// Arrivals carried into the next round.
    carry: Vec<Entry>,
    /// Layout scratch: admission indices, and the vectors being reordered.
    order: Vec<usize>,
    reordered: Vec<Vector>,
    /// Latest arrival admitted this round.
    cutoff: u128,
    stats: QuorumStats,
}

impl QuorumBook {
    /// An empty book closing rounds at `quorum` proposals of `cluster`'s
    /// workers and carrying leftovers up to `max_staleness` rounds old.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] unless
    /// `n − f ≤ quorum ≤ n` (see [`check_quorum`]).
    pub fn new(
        cluster: ClusterSpec,
        quorum: usize,
        max_staleness: usize,
    ) -> Result<Self, TrainError> {
        check_quorum(cluster, quorum).map_err(TrainError::config)?;
        Ok(Self {
            quorum,
            max_staleness,
            round: 0,
            limit: quorum,
            taken: vec![false; cluster.workers()],
            vectors: Vec::with_capacity(quorum),
            slots: Vec::with_capacity(quorum),
            workers: Vec::with_capacity(quorum),
            deferred: Vec::new(),
            carry: Vec::new(),
            order: Vec::with_capacity(quorum),
            reordered: Vec::with_capacity(quorum),
            cutoff: 0,
            stats: QuorumStats::default(),
        })
    }

    /// Proposals that close a round.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Opens `round`, holding `reserve` slots back until
    /// [`release`](Self::release), and offers the carried arrivals first
    /// (they reached the server before the round opened, so they arrive
    /// at 0), oldest first.
    pub fn open(&mut self, round: usize, reserve: usize) {
        self.round = round;
        self.limit = self.quorum.saturating_sub(reserve);
        self.taken.fill(false);
        self.vectors.clear();
        self.slots.clear();
        self.workers.clear();
        self.cutoff = 0;
        let mut carried = std::mem::take(&mut self.carry);
        carried.sort_unstable_by_key(|e| (e.issued_round, e.worker));
        for entry in carried.drain(..) {
            self.offer(entry);
        }
        self.carry = carried;
    }

    /// Offers one arrival, `arrival` nanoseconds into the round. It takes
    /// a slot if one is free and its worker holds none; otherwise it waits
    /// for [`close`](Self::close). Returns whether it took a slot.
    pub fn admit(
        &mut self,
        worker: usize,
        issued_round: usize,
        vector: Vector,
        arrival: u128,
    ) -> bool {
        self.offer(Entry {
            worker,
            issued_round,
            arrival,
            vector,
        })
    }

    /// Frees the slots `open` held back.
    pub fn release(&mut self) {
        self.limit = self.quorum;
    }

    /// Closes the round: re-offers the waiting arrivals in arrival order,
    /// carries the rest forward or drops those whose age would exceed
    /// `max_staleness`, lays the quorum out in `(issued_round, worker)`
    /// order and measures it.
    pub fn close(&mut self) {
        self.release();
        let next = self.round + 1;
        let mut dropped = 0;
        let mut deferred = std::mem::take(&mut self.deferred);
        for entry in deferred.drain(..) {
            if let Err(mut entry) = self.seat(entry) {
                if next.saturating_sub(entry.issued_round) > self.max_staleness {
                    dropped += 1;
                } else {
                    entry.arrival = 0;
                    self.carry.push(entry);
                }
            }
        }
        self.deferred = deferred;

        self.order.clear();
        self.order.extend(0..self.vectors.len());
        let slots = &self.slots;
        self.order.sort_unstable_by_key(|&i| slots[i]);
        self.reordered.clear();
        for &i in &self.order {
            self.reordered.push(std::mem::take(&mut self.vectors[i]));
        }
        std::mem::swap(&mut self.vectors, &mut self.reordered);
        self.slots.sort_unstable();
        self.workers
            .extend(self.slots.iter().map(|&(_, worker)| worker));
        self.stats = QuorumStats::measure(
            self.round,
            self.slots.iter().map(|&(issued, _)| issued),
            self.vectors.len(),
            dropped,
            self.carry.len(),
        );
    }

    /// Puts a carried arrival back into the pool (resuming a snapshot).
    pub fn restore_carry(&mut self, worker: usize, issued_round: usize, vector: Vector) {
        self.carry.push(Entry {
            worker,
            issued_round,
            arrival: 0,
            vector,
        });
    }

    /// The carry-over pool as `(worker, issued_round, vector)`.
    pub fn carried(&self) -> impl Iterator<Item = (usize, usize, &Vector)> {
        self.carry
            .iter()
            .map(|e| (e.worker, e.issued_round, &e.vector))
    }

    /// The quorum's vectors (admission order until closed, then layout
    /// order).
    pub fn vectors(&self) -> &[Vector] {
        &self.vectors
    }

    /// The worker behind each slot of the closed layout.
    pub fn workers(&self) -> &[usize] {
        &self.workers
    }

    /// Whether every slot of the quorum is taken.
    pub fn is_full(&self) -> bool {
        self.vectors.len() == self.quorum
    }

    /// The latest arrival admitted this round: when the quorum closed.
    pub fn cutoff(&self) -> u128 {
        self.cutoff
    }

    /// The columns of the last closed round.
    pub fn stats(&self) -> QuorumStats {
        self.stats
    }

    fn offer(&mut self, entry: Entry) -> bool {
        match self.seat(entry) {
            Ok(()) => true,
            Err(entry) => {
                self.deferred.push(entry);
                false
            }
        }
    }

    fn seat(&mut self, entry: Entry) -> Result<(), Entry> {
        if self.vectors.len() >= self.limit || self.taken[entry.worker] {
            return Err(entry);
        }
        self.taken[entry.worker] = true;
        self.cutoff = self.cutoff.max(entry.arrival);
        self.slots.push((entry.issued_round, entry.worker));
        self.vectors.push(entry.vector);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged(tag: f64) -> Vector {
        Vector::filled(1, tag)
    }

    #[test]
    fn bounds_are_checked_once_for_every_caller() {
        let cluster = ClusterSpec::new(9, 2).unwrap();
        assert!(check_quorum(cluster, 6).is_err());
        assert!(check_quorum(cluster, 7).is_ok());
        assert!(check_quorum(cluster, 9).is_ok());
        assert!(check_quorum(cluster, 10).is_err());
        assert!(QuorumBook::new(cluster, 6, 1).is_err());
        assert!(check_refresh_pace(9, 0).is_err());
        assert!(check_refresh_pace(9, 1).is_ok());
        assert!(check_refresh_pace(9, 10).is_err());
    }

    #[test]
    fn one_slot_per_worker_and_carry_oldest_first() {
        let cluster = ClusterSpec::new(4, 1).unwrap();
        let mut book = QuorumBook::new(cluster, 3, 1).unwrap();
        book.open(0, 0);
        assert!(book.admit(2, 0, tagged(2.0), 30));
        assert!(book.admit(0, 0, tagged(0.0), 40));
        assert!(book.admit(3, 0, tagged(3.0), 50));
        assert!(book.is_full());
        assert!(!book.admit(1, 0, tagged(1.0), 60)); // quorum closed
        book.close();
        assert_eq!(book.cutoff(), 50);
        assert_eq!(book.workers(), &[0, 2, 3]);
        assert_eq!(book.vectors()[1], tagged(2.0));
        assert_eq!(book.stats().pending_carryover, 1);

        // Worker 1's straggler is offered first in round 1, so its fresh
        // proposal finds the worker's slot taken (the cap) and waits.
        book.open(1, 0);
        assert_eq!(book.vectors.len(), 1);
        assert!(!book.admit(1, 1, tagged(11.0), 5));
        assert!(book.admit(2, 1, tagged(12.0), 6));
        assert!(book.admit(0, 1, tagged(10.0), 7));
        book.close();
        assert_eq!(book.slots, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(
            book.stats(),
            QuorumStats {
                quorum_size: 3,
                stale_in_quorum: 1,
                max_staleness_in_quorum: 1,
                dropped_stale: 0,
                pending_carryover: 1,
            }
        );
        assert_eq!(book.carried().next().map(|(w, r, _)| (w, r)), Some((1, 1)));
    }

    #[test]
    fn leftovers_past_the_staleness_bound_are_dropped() {
        let cluster = ClusterSpec::new(4, 1).unwrap();
        let mut book = QuorumBook::new(cluster, 3, 0).unwrap();
        book.open(0, 0);
        for w in [3, 1, 0, 2] {
            book.admit(w, 0, tagged(w as f64), 0);
        }
        book.close();
        assert_eq!(book.workers(), &[0, 1, 3]);
        assert_eq!(book.stats().dropped_stale, 1);
        assert_eq!(book.carried().count(), 0);
    }

    #[test]
    fn reserved_slots_wait_for_release_and_close_fills_them() {
        let cluster = ClusterSpec::new(5, 1).unwrap();
        let mut book = QuorumBook::new(cluster, 5, 0).unwrap();
        book.open(3, 2);
        for w in 0..4 {
            book.admit(w, 3, tagged(w as f64), 10 * (w as u128 + 1));
        }
        assert_eq!(book.vectors.len(), 3);
        book.release();
        assert!(book.admit(4, 3, tagged(4.0), 0));
        book.close();
        // The deferred honest arrival filled the last slot at close.
        assert_eq!(book.workers(), &[0, 1, 2, 3, 4]);
        assert_eq!(book.cutoff(), 40);
        assert_eq!(book.stats().dropped_stale, 0);
    }
}
