//! # sfrd-shadow — access-history shadow memory (sharded and paged backends)
//!
//! The second half of an on-the-fly race detector (§3.5, §4): for every
//! memory location, remember enough previous accessors that a later
//! conflicting access can be checked against them.
//!
//! Two interchangeable stores implement the access history, selected by
//! [`ShadowBackend`]:
//!
//! * [`ShardedHistory`] (module [`sharded`]'s legacy design, PR 1) —
//!   mutex-sharded hash maps with per-batch lock amortization. Kept as the
//!   differential-testing baseline and ablation reference.
//! * [`PagedHistory`] (module [`paged`], the default) — a two-level
//!   direct-mapped page table: addresses resolve in O(1) through an
//!   atomically-published page directory with **no hashing and no locks**
//!   on the addressing path, and each location carries a packed atomic
//!   word (writer epoch + reader-summary tag) giving redundant reads a
//!   **zero-store fast path**. Only state-changing accesses take the
//!   per-location seqlock-style write section.
//!
//! [`AccessHistory`] is the thin façade the detectors program against; it
//! dispatches to whichever backend was selected at construction.
//!
//! ## Writer epochs (the seqlock-style verdict cache)
//!
//! Every [`LocEntry`] carries a [`writer_seq`](LocEntry::writer_seq)
//! counter bumped whenever a new writer is installed
//! ([`LocEntry::begin_write_epoch`]). Like a seqlock's sequence word, it
//! lets a reader *validate* rather than *recompute*: a detector that has
//! already proven "this entry's writer serially precedes my strand" may
//! cache that verdict keyed by the epoch, and on a later access skip the
//! (expensive) reachability query whenever the epoch is unchanged —
//! sound because a strand's own positions only advance serially, so a
//! writer that preceded an earlier position precedes every later one.
//! The per-strand cache lives in `sfrd-runtime`'s `AccessBatch`; this
//! crate only maintains the epoch. The paged backend additionally bakes
//! the epoch into each slot's packed word, which is what lets its read
//! fast path validate an entire snapshot with one atomic load.
//!
//! ## Reader policies
//!
//! Two reader-retention policies (selected per detector run):
//!
//! * [`ReaderPolicy::PerFutureLR`] (the [`Default`], and what SF-Order and
//!   WSP-Order run with unless configured otherwise) — the §3.5 bound:
//!   per (location, future) only the *leftmost* and *rightmost* readers,
//!   ≤ 2k per location in total (Lemmas 3.10/3.11). The triples are kept
//!   in most-recently-recorded order, which is what the paged backend's
//!   partial fast-path mirror relies on to hit;
//! * [`ReaderPolicy::All`] — keep every reader since the last write (what
//!   F-Order and MultiBags always use, and what the paper's SF-Order
//!   implementation ships, §4 "Implementation Overview").
//!
//! The entry type is generic in the position type `P` (each reachability
//! engine has its own); order comparisons are injected as closures so this
//! crate stays engine-agnostic.
//!
//! ```
//! use sfrd_shadow::{AccessHistory, ReaderPolicy, ShadowBackend};
//!
//! // Positions are detector-specific; here, plain (eng, heb) pairs.
//! // The default backend is the lock-free paged table: no mutex is ever
//! // taken on the mapped addressing path, so lock_ops stays 0.
//! let h: AccessHistory<(u32, u32)> = AccessHistory::with_policy(ReaderPolicy::All);
//! assert_eq!(h.backend(), ShadowBackend::Paged);
//! h.locked(0x1000, |entry| {
//!     assert!(entry.writer.is_none());
//!     entry.readers.record(
//!         0,
//!         (1, 2),
//!         |a, b| a.0 < b.0,                    // English order
//!         |a, b| a.1 < b.1,                    // Hebrew order
//!         |a, b| a.0 < b.0 && a.1 < b.1,       // precedes
//!     );
//!     entry.begin_write_epoch((3, 3));
//!     assert!(entry.readers.is_empty());
//! });
//! assert_eq!(h.lock_ops(), 0);
//!
//! // The legacy sharded store is still available for comparison; there,
//! // every access costs one shard-lock acquisition.
//! let s: AccessHistory<(u32, u32)> =
//!     AccessHistory::new(ReaderPolicy::All, ShadowBackend::Sharded);
//! s.locked(0x1000, |entry| entry.begin_write_epoch((3, 3)));
//! assert_eq!(s.lock_ops(), 1);
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub mod paged;
pub mod sharded;

pub use paged::{PageCursor, PagedHistory, MAPPED_BITS, PAGE_SHIFT, PAGE_SLOTS, SLOT_SHIFT};
pub use sharded::{ShardView, ShardedHistory};

/// Multiplicative address hasher (locally implemented; see DESIGN.md §7).
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Which access-history store backs the detector run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShadowBackend {
    /// Legacy mutex-sharded hash maps (PR 1's batched-shard design).
    Sharded,
    /// Lock-free two-level direct-mapped page table with the zero-store
    /// redundant-read fast path (the default).
    #[default]
    Paged,
}

/// Which readers to retain per location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReaderPolicy {
    /// All readers since the last write.
    All,
    /// Leftmost + rightmost reader per future (the 2k bound of §3.5; the
    /// default).
    #[default]
    PerFutureLR,
}

/// Retained readers of one location.
#[derive(Debug, Clone)]
pub enum Readers<P> {
    /// Every reader since the last write.
    All(Vec<P>),
    /// `(future, leftmost, rightmost)` triples.
    PerFuture(Vec<(u32, P, P)>),
}

impl<P: Copy> Readers<P> {
    pub(crate) fn new(policy: ReaderPolicy) -> Self {
        match policy {
            ReaderPolicy::All => Readers::All(Vec::new()),
            ReaderPolicy::PerFutureLR => Readers::PerFuture(Vec::new()),
        }
    }

    /// Iterate the retained readers. A future whose leftmost and
    /// rightmost reader are the same position yields it once, so a write
    /// checks it with one reachability query, not two.
    pub fn for_each(&self, mut f: impl FnMut(P))
    where
        P: PartialEq,
    {
        match self {
            Readers::All(v) => v.iter().copied().for_each(&mut f),
            Readers::PerFuture(v) => {
                for &(_, l, r) in v {
                    f(l);
                    if r != l {
                        f(r);
                    }
                }
            }
        }
    }

    /// Number of retained reader slots.
    pub fn len(&self) -> usize {
        match self {
            Readers::All(v) => v.len(),
            Readers::PerFuture(v) => v.len() * 2,
        }
    }

    /// No readers retained?
    pub fn is_empty(&self) -> bool {
        match self {
            Readers::All(v) => v.is_empty(),
            Readers::PerFuture(v) => v.is_empty(),
        }
    }

    /// Record a reader. `future` is the reader's future id. For the
    /// per-future policy, the triples are kept in most-recently-recorded
    /// order — the touched triple moves to the front, a new one is
    /// inserted there — so the paged backend's partial fast-path mirror
    /// holds the futures reading the location now. The Mellor-Crummey
    /// update rule is applied to the (leftmost, rightmost) pair:
    ///
    /// * a slot whose stored reader *precedes* the new one advances to it
    ///   (a serial successor subsumes its ancestor for all later checks);
    /// * otherwise the readers are logically parallel (a new reader can
    ///   never precede a stored one — execution respects the dag), and the
    ///   slot takes whichever is further left (English order) / right
    ///   (Hebrew order).
    ///
    /// `eng_less`/`heb_less` compare order positions; `precedes` is the
    /// engine's reachability query restricted to same-future pairs.
    pub fn record(
        &mut self,
        future: u32,
        p: P,
        eng_less: impl Fn(&P, &P) -> bool,
        heb_less: impl Fn(&P, &P) -> bool,
        precedes: impl Fn(&P, &P) -> bool,
    ) where
        P: PartialEq,
    {
        match self {
            Readers::All(v) => v.push(p),
            Readers::PerFuture(v) => {
                if let Some(i) = v.iter().position(|t| t.0 == future) {
                    let entry = &mut v[i];
                    let (l_moves, r_moves) =
                        lr_moves(entry.1, entry.2, p, eng_less, heb_less, precedes);
                    if l_moves {
                        entry.1 = p;
                    }
                    if r_moves {
                        entry.2 = p;
                    }
                    v[..=i].rotate_right(1);
                } else {
                    // Most locations are read by one future: allocate for
                    // exactly one triple first, not the usual four.
                    if v.capacity() == 0 {
                        v.reserve_exact(1);
                    }
                    v.insert(0, (future, p, p));
                }
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        match self {
            Readers::All(v) => v.clear(),
            Readers::PerFuture(v) => v.clear(),
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Readers::All(v) => v.capacity() * std::mem::size_of::<P>(),
            Readers::PerFuture(v) => v.capacity() * std::mem::size_of::<(u32, P, P)>(),
        }
    }
}

/// The update rule of [`Readers::record`] for one future's stored
/// (leftmost `l`, rightmost `r`) pair and a new reader `p`: whether each
/// slot moves to `p`. A slot already holding `p` stays (assigning an equal
/// value is no move), and when `l == r` the one `precedes` answer serves
/// both slots. The paged backend's fast path uses the same function for
/// its no-op test, so the two cannot drift apart.
#[inline]
pub(crate) fn lr_moves<P: Copy + PartialEq>(
    l: P,
    r: P,
    p: P,
    eng_less: impl Fn(&P, &P) -> bool,
    heb_less: impl Fn(&P, &P) -> bool,
    precedes: impl Fn(&P, &P) -> bool,
) -> (bool, bool) {
    let l_precedes = l != p && precedes(&l, &p);
    let l_moves = l != p && (l_precedes || eng_less(&p, &l));
    let r_precedes = if r == l {
        l_precedes
    } else {
        r != p && precedes(&r, &p)
    };
    let r_moves = r != p && (r_precedes || heb_less(&p, &r));
    (l_moves, r_moves)
}

/// Shadow state of one memory location.
#[derive(Debug)]
pub struct LocEntry<P> {
    /// Last writer, if any.
    pub writer: Option<P>,
    /// Retained readers since the last write.
    pub readers: Readers<P>,
    /// Writer epoch: bumped every time a new writer is installed. The
    /// seqlock-style validation word for cached serial-writer verdicts
    /// (see module docs).
    pub writer_seq: u64,
}

impl<P: Copy> LocEntry<P> {
    /// Install a new writer, advance the writer epoch, and drop the
    /// retained readers (sound: any race with a dropped reader is either
    /// already reported or subsumed by a race with this writer).
    pub fn begin_write_epoch(&mut self, w: P) {
        self.writer = Some(w);
        self.writer_seq += 1;
        self.readers.clear();
    }
}

/// Memory-access granularity: one shadow granule covers 16 bytes, matching
/// the paper's fine-grained locking description.
pub const GRANULE_SHIFT: u32 = 4;

/// Shard selection (sharded backend) hashes the *block* — `1 << BLOCK_SHIFT`
/// contiguous granules (1 KiB of address space) — not the individual
/// granule. Hashing the block keeps distant allocations spread across
/// shards, but preserves spatial locality within one: a strand scanning an
/// array produces long runs of same-shard accesses, which is what lets a
/// sorted batch flush amortize one lock over many entries instead of
/// degenerating to one lock per access.
pub const BLOCK_SHIFT: u32 = 6;

/// The access history the detectors program against — a thin façade over
/// the selected [`ShadowBackend`]. Backend-specific batch entry points
/// (shard views, page cursors) are reached through [`sharded`](Self::sharded)
/// / [`paged`](Self::paged).
// One history exists per detector run (never in collections), so the
// size gap between the eager paged root and the sharded store is moot.
#[allow(clippy::large_enum_variant)]
pub enum AccessHistory<P: Copy + Send> {
    /// Legacy mutex-sharded store.
    Sharded(ShardedHistory<P>),
    /// Lock-free paged store.
    Paged(PagedHistory<P>),
}

impl<P: Copy + Send + PartialEq> AccessHistory<P> {
    /// Create a history on the given backend.
    pub fn new(policy: ReaderPolicy, backend: ShadowBackend) -> Self {
        match backend {
            ShadowBackend::Sharded => AccessHistory::Sharded(ShardedHistory::with_policy(policy)),
            ShadowBackend::Paged => AccessHistory::Paged(PagedHistory::with_policy(policy)),
        }
    }

    /// Create a history on the default backend (paged).
    pub fn with_policy(policy: ReaderPolicy) -> Self {
        Self::new(policy, ShadowBackend::default())
    }

    /// Which backend this history runs on.
    pub fn backend(&self) -> ShadowBackend {
        match self {
            AccessHistory::Sharded(_) => ShadowBackend::Sharded,
            AccessHistory::Paged(_) => ShadowBackend::Paged,
        }
    }

    /// The reader-retention policy in force.
    pub fn policy(&self) -> ReaderPolicy {
        match self {
            AccessHistory::Sharded(h) => h.policy(),
            AccessHistory::Paged(h) => h.policy(),
        }
    }

    /// The sharded backend, if that is what backs this history.
    pub fn sharded(&self) -> Option<&ShardedHistory<P>> {
        match self {
            AccessHistory::Sharded(h) => Some(h),
            AccessHistory::Paged(_) => None,
        }
    }

    /// The paged backend, if that is what backs this history.
    pub fn paged(&self) -> Option<&PagedHistory<P>> {
        match self {
            AccessHistory::Paged(h) => Some(h),
            AccessHistory::Sharded(_) => None,
        }
    }

    /// Run `f` with the location's entry under that backend's exclusion
    /// discipline: a shard mutex (sharded) or the per-slot seqlock write
    /// section (paged — no mutex on the mapped path).
    #[inline]
    pub fn locked<R>(&self, addr: u64, f: impl FnOnce(&mut LocEntry<P>) -> R) -> R {
        match self {
            AccessHistory::Sharded(h) => h.locked(addr, f),
            AccessHistory::Paged(h) => h.locked(addr, f),
        }
    }

    /// Mutex acquisitions on the access path. For the sharded backend this
    /// is one per access (or per flush × touched shard when batching); for
    /// the paged backend only the out-of-range fallback map ever locks, so
    /// this is ~0 — the headline number of the PR 3 ablation.
    pub fn lock_ops(&self) -> u64 {
        match self {
            AccessHistory::Sharded(h) => h.lock_ops(),
            AccessHistory::Paged(h) => h.lock_ops(),
        }
    }

    /// Zero-store fast-path read hits (paged backend only; 0 on sharded).
    pub fn fast_hits(&self) -> u64 {
        match self {
            AccessHistory::Sharded(_) => 0,
            AccessHistory::Paged(h) => h.fast_hits(),
        }
    }

    /// Seqlock CAS retries + fast-path validation failures (paged backend
    /// only; 0 on sharded).
    pub fn cas_retries(&self) -> u64 {
        match self {
            AccessHistory::Sharded(_) => 0,
            AccessHistory::Paged(h) => h.cas_retries(),
        }
    }

    /// Shadow pages published (paged backend only; 0 on sharded).
    pub fn page_allocs(&self) -> u64 {
        match self {
            AccessHistory::Sharded(_) => 0,
            AccessHistory::Paged(h) => h.page_allocs(),
        }
    }

    /// Software prefetches issued by batch replays (paged backend only;
    /// 0 on sharded).
    pub fn prefetch_issued(&self) -> u64 {
        match self {
            AccessHistory::Sharded(_) => 0,
            AccessHistory::Paged(h) => h.prefetches(),
        }
    }

    /// Number of tracked locations.
    pub fn locations(&self) -> usize {
        match self {
            AccessHistory::Sharded(h) => h.locations(),
            AccessHistory::Paged(h) => h.locations(),
        }
    }

    /// Maximum retained readers over all locations (the §3.5 bound says
    /// ≤ 2k under [`ReaderPolicy::PerFutureLR`]).
    pub fn max_retained_readers(&self) -> usize {
        match self {
            AccessHistory::Sharded(h) => h.max_retained_readers(),
            AccessHistory::Paged(h) => h.max_retained_readers(),
        }
    }

    /// Approximate heap bytes of the store (tables/pages, arena slabs,
    /// reader payloads) — the Fig. 5 accounting.
    pub fn heap_bytes(&self) -> usize {
        match self {
            AccessHistory::Sharded(h) => h.heap_bytes(),
            AccessHistory::Paged(h) => h.heap_bytes(),
        }
    }

    /// Visit every `(addr, entry)` pair (diagnostics / differential tests;
    /// quiescent use only on the paged backend).
    pub fn for_each_entry(&self, f: impl FnMut(u64, &LocEntry<P>)) {
        match self {
            AccessHistory::Sharded(h) => h.for_each_entry(f),
            AccessHistory::Paged(h) => h.for_each_entry(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Pos = (u32, u32); // (eng, heb) toy positions

    fn eng_less(a: &Pos, b: &Pos) -> bool {
        a.0 < b.0
    }
    fn heb_less(a: &Pos, b: &Pos) -> bool {
        a.1 < b.1
    }
    fn precedes(a: &Pos, b: &Pos) -> bool {
        a != b && a.0 < b.0 && a.1 < b.1
    }

    fn both_backends(policy: ReaderPolicy) -> [AccessHistory<Pos>; 2] {
        [
            AccessHistory::new(policy, ShadowBackend::Sharded),
            AccessHistory::new(policy, ShadowBackend::Paged),
        ]
    }

    #[test]
    fn all_policy_keeps_every_reader() {
        for h in both_backends(ReaderPolicy::All) {
            for i in 0..5u32 {
                h.locked(0x100, |e| {
                    e.readers
                        .record(0, (i, 10 - i), eng_less, heb_less, precedes)
                });
            }
            h.locked(0x100, |e| {
                assert_eq!(e.readers.len(), 5);
                let mut seen = vec![];
                e.readers.for_each(|p| seen.push(p));
                assert_eq!(seen.len(), 5);
            });
        }
    }

    #[test]
    fn per_future_policy_keeps_extremes() {
        for h in both_backends(ReaderPolicy::PerFutureLR) {
            // Future 3: readers at (eng, heb) = (5,5), (2,8), (8,2).
            for (e, hb) in [(5, 5), (2, 8), (8, 2)] {
                h.locked(0x40, |ent| {
                    ent.readers.record(3, (e, hb), eng_less, heb_less, precedes)
                });
            }
            // A second future contributes separately.
            h.locked(0x40, |ent| {
                ent.readers.record(7, (1, 1), eng_less, heb_less, precedes)
            });
            h.locked(0x40, |ent| {
                assert_eq!(ent.readers.len(), 4); // 2 futures × (l, r)
                let mut seen = vec![];
                ent.readers.for_each(|p| seen.push(p));
                assert!(seen.contains(&(2, 8)), "leftmost by eng");
                assert!(seen.contains(&(8, 2)), "rightmost by heb");
                assert!(seen.contains(&(1, 1)));
                assert_eq!(seen.len(), 3, "future 7's equal (l, r) is yielded once");
            });
        }
    }

    #[test]
    fn per_future_triples_in_most_recently_recorded_order() {
        let mut r = Readers::new(ReaderPolicy::PerFutureLR);
        let futures = |r: &Readers<Pos>| match r {
            Readers::PerFuture(v) => v.iter().map(|t| t.0).collect::<Vec<_>>(),
            Readers::All(_) => unreachable!(),
        };
        for fut in [1, 2, 3] {
            r.record(fut, (fut, fut), eng_less, heb_less, precedes);
        }
        assert_eq!(futures(&r), [3, 2, 1], "new triples go to the front");
        // Touching an existing triple moves it to the front and applies the
        // LR update rule: (0, 9) is further left than (1, 1).
        r.record(1, (0, 9), eng_less, heb_less, precedes);
        assert_eq!(futures(&r), [1, 3, 2]);
        let Readers::PerFuture(v) = &r else {
            unreachable!()
        };
        assert_eq!(v[0], (1, (0, 9), (1, 1)));
        // A redundant read of the front triple changes nothing.
        r.record(1, (0, 9), eng_less, heb_less, precedes);
        assert_eq!(futures(&r), [1, 3, 2]);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn default_policy_is_per_future_lr() {
        assert_eq!(ReaderPolicy::default(), ReaderPolicy::PerFutureLR);
    }

    #[test]
    fn write_epoch_clears_readers_and_advances_seq() {
        for h in both_backends(ReaderPolicy::All) {
            h.locked(0x8, |e| {
                assert_eq!(e.writer_seq, 0);
                e.readers.record(0, (1, 1), eng_less, heb_less, precedes);
                e.begin_write_epoch((2, 2));
                assert!(e.readers.is_empty());
                assert_eq!(e.writer, Some((2, 2)));
                assert_eq!(e.writer_seq, 1);
                e.begin_write_epoch((3, 3));
                assert_eq!(e.writer_seq, 2);
            });
        }
    }

    #[test]
    fn distinct_addresses_distinct_entries() {
        for h in both_backends(ReaderPolicy::All) {
            for a in 0..1000u64 {
                h.locked(a * 8, |e| {
                    e.readers
                        .record(0, (a as u32, a as u32), eng_less, heb_less, precedes)
                });
            }
            assert_eq!(h.locations(), 1000);
            match h.backend() {
                ShadowBackend::Paged => assert_eq!(h.lock_ops(), 0),
                ShadowBackend::Sharded => assert_eq!(h.lock_ops(), 1000),
            }
            assert!(h.heap_bytes() > 0);
        }
    }

    #[test]
    fn paged_mapped_path_never_locks() {
        let h: AccessHistory<Pos> = AccessHistory::with_policy(ReaderPolicy::All);
        for a in 0..512u64 {
            h.locked(a << GRANULE_SHIFT, |e| e.begin_write_epoch((1, 1)));
        }
        assert_eq!(h.lock_ops(), 0, "mapped addressing path took a lock");
        assert!(h.page_allocs() >= 1);
    }

    #[test]
    fn prefetch_slot_is_passive_and_counted() {
        let h: AccessHistory<Pos> = AccessHistory::with_policy(ReaderPolicy::All);
        let AccessHistory::Paged(p) = &h else {
            panic!("default backend is paged")
        };
        // No page exists yet: the hint must not allocate one.
        assert!(!p.prefetch_slot(0x40));
        assert_eq!(h.page_allocs(), 0);
        // Out-of-range addresses are skipped entirely.
        assert!(!p.prefetch_slot(1u64 << 60));
        // After a real access publishes the page, the hint resolves.
        h.locked(0x40, |e| e.begin_write_epoch((1, 1)));
        assert!(p.prefetch_slot(0x40));
        assert!(p.prefetch_slot(0x48), "same page, different slot");
        assert_eq!(h.prefetch_issued(), 0, "hints are tallied by the caller");
        p.note_prefetches(2);
        assert_eq!(h.prefetch_issued(), 2);
        // Sharded backend reports zero through the facade.
        let s: AccessHistory<Pos> = AccessHistory::new(ReaderPolicy::All, ShadowBackend::Sharded);
        assert_eq!(s.prefetch_issued(), 0);
    }

    #[test]
    fn paged_sub_word_collisions_stay_exact() {
        // Two different addresses in one 8-byte slot span: the first claims
        // the slot, the second is diverted to the fallback map — entries
        // are never merged, so verdicts match the sharded backend exactly.
        let h: AccessHistory<Pos> = AccessHistory::with_policy(ReaderPolicy::All);
        h.locked(0x40, |e| e.begin_write_epoch((1, 1)));
        h.locked(0x44, |e| e.begin_write_epoch((2, 2)));
        h.locked(0x40, |e| assert_eq!(e.writer, Some((1, 1))));
        h.locked(0x44, |e| assert_eq!(e.writer, Some((2, 2))));
        assert_eq!(h.locations(), 2);
        assert_eq!(h.lock_ops(), 2, "one fallback lock per 0x44 access");
    }

    #[test]
    fn paged_out_of_range_addresses_use_fallback() {
        let h: AccessHistory<Pos> = AccessHistory::with_policy(ReaderPolicy::All);
        let high = 1u64 << 60;
        h.locked(high, |e| e.begin_write_epoch((1, 1)));
        h.locked(high, |e| assert_eq!(e.writer, Some((1, 1))));
        assert_eq!(h.lock_ops(), 2);
        assert_eq!(h.locations(), 1);
        let mut seen = vec![];
        h.for_each_entry(|addr, _| seen.push(addr));
        assert_eq!(seen, vec![high]);
    }

    #[test]
    fn paged_fast_path_hits_on_redundant_reads() {
        let h = PagedHistory::<Pos>::with_policy(ReaderPolicy::PerFutureLR);
        let addr = 0x40u64;
        // First read must go through the write section (records the triple).
        let mut cur = h.cursor();
        assert!(!cur.fast_read(addr, 3, (5, 5), eng_less, heb_less, precedes, |_, _| true));
        cur.locked(addr, |e| {
            e.readers.record(3, (5, 5), eng_less, heb_less, precedes)
        });
        // Same (future, pos) again: provably a no-op — fast hit, no store.
        assert!(cur.fast_read(addr, 3, (5, 5), eng_less, heb_less, precedes, |_, _| true));
        // A position that moves leftmost must miss.
        assert!(!cur.fast_read(addr, 3, (2, 8), eng_less, heb_less, precedes, |_, _| true));
        // A serial successor (advance rule fires) must miss too.
        assert!(!cur.fast_read(addr, 3, (6, 6), eng_less, heb_less, precedes, |_, _| true));
        // Parallel position inside the LR envelope for the same future:
        // stays a no-op only if neither slot moves — (5,5) vs (5,5) is the
        // stored pair, and (4,6)... eng_less((4,6),(5,5)) → leftmost moves.
        assert!(!cur.fast_read(addr, 3, (4, 6), eng_less, heb_less, precedes, |_, _| true));
        // An unknown future must miss (its triple is absent).
        assert!(!cur.fast_read(addr, 9, (5, 5), eng_less, heb_less, precedes, |_, _| true));
        // A writer veto routes to the slow path.
        assert!(!cur.fast_read(addr, 3, (5, 5), eng_less, heb_less, precedes, |_, _| false));
        // The cursor adds its hit tally into the history when dropped.
        drop(cur);
        assert_eq!(h.fast_hits(), 1);
    }

    #[test]
    fn paged_fast_path_disabled_for_keep_all_policy() {
        let h = PagedHistory::<Pos>::with_policy(ReaderPolicy::All);
        let mut cur = h.cursor();
        cur.locked(0x40, |e| {
            e.readers.record(0, (1, 1), eng_less, heb_less, precedes)
        });
        // Keep-all must always record, so the fast path never hits.
        assert!(!cur.fast_read(0x40, 0, (1, 1), eng_less, heb_less, precedes, |_, _| true));
        assert_eq!(h.fast_hits(), 0);
    }

    #[test]
    fn paged_mirror_spills_past_two_futures() {
        let h = PagedHistory::<Pos>::with_policy(ReaderPolicy::PerFutureLR);
        let mut cur = h.cursor();
        for fut in 0..3u32 {
            cur.locked(0x80, |e| {
                e.readers
                    .record(fut, (fut, fut), eng_less, heb_less, precedes)
            });
        }
        // Three futures exceed the inline mirror, which holds the two most
        // recently recorded ones: the oldest future (0) is not mirrored, so
        // its redundant read must bail to the locked path, which still has
        // all triples ...
        assert!(!cur.fast_read(0x80, 0, (0, 0), eng_less, heb_less, precedes, |_, _| true));
        cur.locked(0x80, |e| assert_eq!(e.readers.len(), 6));
        // ... while the most recent future (2) is mirrored and hits.
        assert!(cur.fast_read(0x80, 2, (2, 2), eng_less, heb_less, precedes, |_, _| true));
    }

    #[test]
    fn paged_write_epoch_invalidates_fast_path_epoch() {
        let h = PagedHistory::<Pos>::with_policy(ReaderPolicy::PerFutureLR);
        let mut cur = h.cursor();
        cur.locked(0x40, |e| {
            e.readers.record(1, (3, 3), eng_less, heb_less, precedes)
        });
        assert!(
            cur.fast_read(0x40, 1, (3, 3), eng_less, heb_less, precedes, |w, seq| {
                assert_eq!(w, None);
                assert_eq!(seq, 0);
                true
            })
        );
        cur.locked(0x40, |e| e.begin_write_epoch((4, 4)));
        // Readers were cleared by the write epoch: the triple is gone, so
        // the fast path misses (the read must re-record under the lock).
        assert!(!cur.fast_read(0x40, 1, (3, 3), eng_less, heb_less, precedes, |_, _| true));
    }

    #[test]
    fn concurrent_access_is_safe_on_both_backends() {
        use std::sync::Arc;
        for backend in [ShadowBackend::Sharded, ShadowBackend::Paged] {
            let h: Arc<AccessHistory<Pos>> =
                Arc::new(AccessHistory::new(ReaderPolicy::All, backend));
            let mut threads = vec![];
            for t in 0..4u32 {
                let h = Arc::clone(&h);
                threads.push(std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.locked((i % 64) << GRANULE_SHIFT, |e| {
                            e.readers.record(t, (t, t), eng_less, heb_less, precedes)
                        });
                    }
                }));
            }
            for t in threads {
                t.join().unwrap();
            }
            match backend {
                ShadowBackend::Sharded => assert_eq!(h.lock_ops(), 40_000),
                ShadowBackend::Paged => assert_eq!(h.lock_ops(), 0),
            }
            h.locked(0, |e| assert!(e.readers.len() >= 4 * 10_000 / 64));
        }
    }

    #[test]
    fn backends_agree_on_retained_state() {
        let [s, p] = both_backends(ReaderPolicy::PerFutureLR);
        let accesses: &[(u64, u32, Pos)] = &[
            (0x10, 0, (1, 9)),
            (0x10, 0, (2, 8)),
            (0x10, 1, (5, 5)),
            (0x20, 0, (3, 3)),
            (0x10, 1, (4, 6)),
        ];
        for h in [&s, &p] {
            for &(addr, fut, pos) in accesses {
                h.locked(addr, |e| {
                    e.readers.record(fut, pos, eng_less, heb_less, precedes)
                });
            }
        }
        let collect = |h: &AccessHistory<Pos>| {
            let mut v: Vec<(u64, Vec<Pos>)> = vec![];
            h.for_each_entry(|addr, e| {
                let mut readers = vec![];
                e.readers.for_each(|p| readers.push(p));
                v.push((addr, readers));
            });
            v.sort();
            v
        };
        assert_eq!(collect(&s), collect(&p));
        assert_eq!(s.max_retained_readers(), p.max_retained_readers());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let h: ShardedHistory<Pos> = ShardedHistory::new(ReaderPolicy::All, 5);
        assert_eq!(h.shard_count(), 8);
        let h1: ShardedHistory<Pos> = ShardedHistory::new(ReaderPolicy::All, 1);
        assert_eq!(h1.shard_count(), 1);
        // Single-shard table still works.
        h1.locked(1, |e| e.begin_write_epoch((0, 0)));
        h1.locked(2, |e| e.begin_write_epoch((1, 1)));
        assert_eq!(h1.locations(), 2);
    }

    #[test]
    fn batch_mode_amortizes_lock_ops() {
        let h: ShardedHistory<Pos> = ShardedHistory::new(ReaderPolicy::All, 4);
        // Group 64 addresses by shard, lock each shard once.
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); h.shard_count()];
        for a in (0..64u64).map(|a| a * 32) {
            by_shard[h.shard_index(a)].push(a);
        }
        for (shard, addrs) in by_shard.iter().enumerate() {
            if addrs.is_empty() {
                continue;
            }
            h.with_shard(shard, |view| {
                for &a in addrs {
                    view.entry(a).begin_write_epoch((1, 1));
                }
            });
        }
        assert!(
            h.lock_ops() <= h.shard_count() as u64,
            "one lock per touched shard, got {}",
            h.lock_ops()
        );
        assert_eq!(h.locations(), 64);
    }

    #[test]
    fn heap_bytes_covers_table_capacity() {
        // The audit fix: bytes must be capacity-based, so a store holding N
        // entries charges at least N * entry-size even before any reader
        // payload, on both backends.
        for h in both_backends(ReaderPolicy::All) {
            for a in 0..100u64 {
                h.locked(a << GRANULE_SHIFT, |e| e.begin_write_epoch((1, 1)));
            }
            let floor = 100 * std::mem::size_of::<(u64, LocEntry<Pos>)>();
            assert!(
                h.heap_bytes() >= floor,
                "{:?}: {} < {floor}",
                h.backend(),
                h.heap_bytes()
            );
        }
    }
}
