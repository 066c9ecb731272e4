//! Concurrent sharded multiset for the parallel Gamma interpreter.
//!
//! The Γ operator lets reactions fire "freely and in parallel" over disjoint
//! sub-multisets. A shared-memory realisation needs two things:
//!
//! 1. **Atomic claims** — a worker must consume its matched tuple and insert
//!    the products without another worker consuming the same occurrences.
//!    [`ShardedBag::claim_and_replace`] locks the affected shards in index
//!    order (deadlock-free) and performs the Γ step `(M − x⃗) + A(x⃗)` as one
//!    critical section.
//! 2. **Quiescence detection** — execution ends at the paper's "global
//!    termination state": no reaction condition holds anywhere. A monotonic
//!    [`version`](ShardedBag::version) counter, bumped on every successful
//!    claim, lets workers detect "I scanned everything and nothing changed
//!    meanwhile", the classic scan-version protocol.
//!
//! Shards are `CachePadded` to avoid false sharing between worker threads
//! (Rust Atomics & Locks, ch. 7).

use crate::element::{Element, Tag};
use crate::fxhash;
use crate::indexed::ElementBag;
use crate::symbol::Symbol;
use crossbeam_utils_shim::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// `crossbeam_utils::CachePadded` without forcing the dependency on every
// consumer of this crate: a minimal local re-implementation. 128-byte
// alignment covers the spatial-prefetcher pairing on modern x86 and the
// cache line of aarch64 big cores.
mod crossbeam_utils_shim {
    /// Pads and aligns a value to 128 bytes to defeat false sharing.
    #[repr(align(128))]
    #[derive(Debug, Default)]
    pub struct CachePadded<T>(pub T);

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }
    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }
}

/// Which of `num_shards` shards (a power of two) the `(label, tag)` key
/// lives in. Exposed as a free function so consumers that partition the
/// same alpha space — the parallel Gamma engine assigns each worker a
/// slice of `(label, tag)` keys — agree with [`ShardedBag::shard_of`]
/// without holding a bag.
#[inline]
pub fn shard_index(label: Symbol, tag: Tag, num_shards: usize) -> usize {
    debug_assert!(num_shards.is_power_of_two());
    let key = ((label.index() as u64) << 32) ^ tag.0;
    (fxhash::hash_u64(key) & (num_shards as u64 - 1)) as usize
}

/// A sharded, internally synchronised multiset of [`Element`]s.
pub struct ShardedBag {
    shards: Box<[CachePadded<Mutex<ElementBag>>]>,
    version: AtomicU64,
    len: AtomicUsize,
}

impl ShardedBag {
    /// Create a bag with at least `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| CachePadded(Mutex::new(ElementBag::new())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedBag {
            shards,
            version: AtomicU64::new(0),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `(label, tag)` lives in. All occurrences of a given
    /// `(label, tag)` key are co-located, so single-bucket scans touch one
    /// lock.
    #[inline]
    pub fn shard_of(&self, label: Symbol, tag: Tag) -> usize {
        shard_index(label, tag, self.shards.len())
    }

    /// Monotonic mutation counter. Bumped after every successful
    /// [`claim_and_replace`](Self::claim_and_replace) and every insert.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Total element count. Exact when quiescent; momentarily stale while
    /// claims are in flight.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if no elements are present (subject to the same staleness as
    /// [`len`](Self::len)).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a single element.
    pub fn insert(&self, e: Element) {
        let s = self.shard_of(e.label, e.tag);
        self.shards[s].lock().insert(e);
        self.len.fetch_add(1, Ordering::AcqRel);
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    /// Insert many elements (one version bump).
    pub fn insert_all(&self, elems: impl IntoIterator<Item = Element>) {
        let mut n = 0usize;
        for e in elems {
            let s = self.shard_of(e.label, e.tag);
            self.shards[s].lock().insert(e);
            n += 1;
        }
        if n > 0 {
            self.len.fetch_add(n, Ordering::AcqRel);
            self.version.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Atomically perform one Γ step: consume every element of `consumed`
    /// (with multiplicity) and insert every element of `produced`. Returns
    /// `false` — leaving the bag untouched — if any consumed element is
    /// unavailable, which is how optimistic matches lose races.
    pub fn claim_and_replace(&self, consumed: &[Element], produced: &[Element]) -> bool {
        // Collect the set of shards we must hold, sorted ascending so all
        // claimants acquire locks in the same global order.
        let mut shard_ids: Vec<usize> = consumed
            .iter()
            .chain(produced.iter())
            .map(|e| self.shard_of(e.label, e.tag))
            .collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();

        let mut guards: Vec<parking_lot::MutexGuard<'_, ElementBag>> =
            Vec::with_capacity(shard_ids.len());
        for &s in &shard_ids {
            guards.push(self.shards[s].lock());
        }
        let guard_pos = |s: usize| shard_ids.binary_search(&s).expect("shard locked");

        // Availability check with duplicate demand, across shards.
        {
            let mut demand: crate::FxHashMap<&Element, usize> = crate::FxHashMap::default();
            for e in consumed {
                *demand.entry(e).or_insert(0) += 1;
            }
            for (e, need) in demand {
                let g = &guards[guard_pos(self.shard_of(e.label, e.tag))];
                if g.count(e) < need {
                    return false;
                }
            }
        }

        for e in consumed {
            let g = &mut guards[guard_pos(self.shard_of(e.label, e.tag))];
            let removed = g.remove(e);
            debug_assert!(removed, "availability was just checked");
        }
        for e in produced {
            let g = &mut guards[guard_pos(self.shard_of(e.label, e.tag))];
            g.insert_ref(e);
        }
        drop(guards);

        if produced.len() >= consumed.len() {
            self.len
                .fetch_add(produced.len() - consumed.len(), Ordering::AcqRel);
        } else {
            self.len
                .fetch_sub(consumed.len() - produced.len(), Ordering::AcqRel);
        }
        self.version.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Run `f` with the shard `i` locked. The workhorse of parallel match
    /// scans: workers iterate shards (starting from different offsets) and
    /// search each local [`ElementBag`] index.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&ElementBag) -> R) -> R {
        f(&self.shards[i].lock())
    }

    /// Lock every shard in index order and return the guards. While the
    /// guards are held the bag is a consistent frozen multiset; searching
    /// through them (see the parallel engine's terminal check) avoids the
    /// O(|M|) clone that [`Self::snapshot`] pays. Lock order matches
    /// [`Self::claim_and_replace`], so holders and claimants cannot
    /// deadlock.
    pub fn lock_all(&self) -> Vec<parking_lot::MutexGuard<'_, ElementBag>> {
        self.shards.iter().map(|s| s.lock()).collect()
    }

    /// Lock the shards `ids` (ascending, without duplicates) and return
    /// the guards in that order. The lock order matches
    /// [`Self::claim_and_replace`], so a holder searching several buckets
    /// in place and concurrent claimants cannot deadlock.
    pub fn lock_shards(&self, ids: &[usize]) -> Vec<parking_lot::MutexGuard<'_, ElementBag>> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending shard ids");
        ids.iter().map(|&s| self.shards[s].lock()).collect()
    }

    /// Lock every shard (in order) and produce a consistent snapshot.
    pub fn snapshot(&self) -> ElementBag {
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut out = ElementBag::new();
        for g in &guards {
            for (e, c) in g.iter_counts() {
                out.insert_n(e, c);
            }
        }
        out
    }

    /// Move all contents out, leaving the bag empty.
    pub fn drain(&self) -> ElementBag {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut out = ElementBag::new();
        for g in guards.iter_mut() {
            for (e, c) in g.iter_counts() {
                out.insert_n(e, c);
            }
            g.clear();
        }
        self.len.store(0, Ordering::Release);
        self.version.fetch_add(1, Ordering::AcqRel);
        out
    }
}

impl From<ElementBag> for ShardedBag {
    fn from(bag: ElementBag) -> Self {
        let sharded = ShardedBag::new(16);
        sharded.insert_all(bag.iter());
        sharded
    }
}

// Serialised as `(num_shards, contents)`: the shard layout is a hash
// partition rebuilt on load, so only the shard count and the flattened
// multiset need to survive the process boundary. The version counter
// restarts at the insert bumps of the reload — it is a process-local
// quiescence clock, not persistent state.
impl serde::Serialize for ShardedBag {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.num_shards() as u64, self.snapshot()).serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for ShardedBag {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (shards, contents): (u64, ElementBag) = serde::Deserialize::deserialize(deserializer)?;
        let bag = ShardedBag::new(shards as usize);
        bag.insert_all(contents.iter());
        Ok(bag)
    }
}

impl std::fmt::Debug for ShardedBag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBag")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("version", &self.version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn e(v: i64, l: &str, t: u64) -> Element {
        Element::new(v, l, t)
    }

    #[test]
    fn insert_and_snapshot() {
        let bag = ShardedBag::new(4);
        bag.insert(e(1, "A", 0));
        bag.insert(e(2, "B", 1));
        assert_eq!(bag.len(), 2);
        let snap = bag.snapshot();
        assert!(snap.contains(&e(1, "A", 0)));
        assert!(snap.contains(&e(2, "B", 1)));
    }

    #[test]
    fn claim_success_and_failure() {
        let bag = ShardedBag::new(4);
        bag.insert_all([e(1, "A", 0), e(2, "B", 0)]);
        let v0 = bag.version();
        assert!(bag.claim_and_replace(&[e(1, "A", 0), e(2, "B", 0)], &[e(3, "C", 0)]));
        assert!(bag.version() > v0);
        assert_eq!(bag.len(), 1);
        // Elements are gone now.
        assert!(!bag.claim_and_replace(&[e(1, "A", 0)], &[]));
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn claim_checks_duplicate_demand() {
        let bag = ShardedBag::new(4);
        bag.insert(e(7, "X", 0));
        assert!(!bag.claim_and_replace(&[e(7, "X", 0), e(7, "X", 0)], &[]));
        bag.insert(e(7, "X", 0));
        assert!(bag.claim_and_replace(&[e(7, "X", 0), e(7, "X", 0)], &[]));
        assert_eq!(bag.len(), 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedBag::new(0).num_shards(), 1);
        assert_eq!(ShardedBag::new(3).num_shards(), 4);
        assert_eq!(ShardedBag::new(16).num_shards(), 16);
    }

    #[test]
    fn same_key_same_shard() {
        let bag = ShardedBag::new(8);
        let a = bag.shard_of(Symbol::intern("L"), Tag(5));
        let b = bag.shard_of(Symbol::intern("L"), Tag(5));
        assert_eq!(a, b);
    }

    #[test]
    fn free_shard_index_agrees_with_bag() {
        let bag = ShardedBag::new(16);
        for (l, t) in [("L", 0u64), ("M", 7), ("worker", 123), ("n", 42)] {
            let label = Symbol::intern(l);
            assert_eq!(
                shard_index(label, Tag(t), bag.num_shards()),
                bag.shard_of(label, Tag(t))
            );
        }
    }

    #[test]
    fn lock_all_freezes_a_consistent_view() {
        let bag = ShardedBag::new(4);
        bag.insert_all([e(1, "A", 0), e(2, "B", 1), e(2, "B", 1)]);
        let guards = bag.lock_all();
        assert_eq!(guards.len(), bag.num_shards());
        let total: usize = guards.iter().map(|g| g.len()).sum();
        assert_eq!(total, 3);
        drop(guards);
        // Locks released: claims proceed again.
        assert!(bag.claim_and_replace(&[e(1, "A", 0)], &[]));
    }

    #[test]
    fn drain_empties() {
        let bag = ShardedBag::new(4);
        bag.insert_all([e(1, "A", 0), e(2, "A", 0), e(3, "B", 0)]);
        let contents = bag.drain();
        assert_eq!(contents.len(), 3);
        assert_eq!(bag.len(), 0);
        assert!(bag.snapshot().is_empty());
    }

    #[test]
    fn concurrent_claims_never_double_spend() {
        // N tokens, 2N workers each trying to claim one token and produce
        // one receipt; exactly N must succeed.
        let bag = Arc::new(ShardedBag::new(8));
        const N: usize = 100;
        for _ in 0..N {
            bag.insert(e(1, "token", 0));
        }
        let mut handles = Vec::new();
        for i in 0..2 * N {
            let bag = Arc::clone(&bag);
            handles.push(std::thread::spawn(move || {
                bag.claim_and_replace(&[e(1, "token", 0)], &[e(i as i64, "receipt", 0)])
            }));
        }
        let successes = handles
            .into_iter()
            .filter(|_| true)
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(successes, N);
        let snap = bag.snapshot();
        assert_eq!(snap.count_label(Symbol::intern("receipt")), N);
        assert_eq!(snap.count_label(Symbol::intern("token")), 0);
    }

    #[test]
    fn serde_round_trip_preserves_contents_and_layout() {
        let bag = ShardedBag::new(8);
        bag.insert_all([e(1, "A", 0), e(1, "A", 0), e(2, "B", 7)]);
        let json = serde_json::to_string(&bag).unwrap();
        let back: ShardedBag = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_shards(), 8);
        assert_eq!(back.len(), 3);
        assert_eq!(back.snapshot(), bag.snapshot());
    }

    #[test]
    fn version_quiescence_protocol() {
        let bag = ShardedBag::new(2);
        bag.insert(e(1, "A", 0));
        let v = bag.version();
        // Failed claim must not bump the version.
        assert!(!bag.claim_and_replace(&[e(9, "missing", 0)], &[]));
        assert_eq!(bag.version(), v);
        // Successful claim must.
        assert!(bag.claim_and_replace(&[e(1, "A", 0)], &[]));
        assert!(bag.version() > v);
    }
}
