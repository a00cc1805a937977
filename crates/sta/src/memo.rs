//! Sparse, memory-bounded memo stores for derived analysis tables.
//!
//! The analysis used to memoize per-startpoint propagations, pass-2 row
//! tables and fanin cones in `Box<[OnceLock<…>]>` slot arrays — O(nodes)
//! slots *per analysis per mode*, and every filled slot retained for the
//! analysis' lifetime. At 100k cells × 32 modes that is the memory
//! cliff. [`BoundedMemo`] replaces them: a hash map that only holds the
//! keys actually queried, charges each filled entry an approximate byte
//! cost, and evicts in FIFO order once a byte budget is exceeded.
//!
//! Guarantees:
//!
//! * **Exactly-once while resident** — concurrent queries for one key
//!   share a single `OnceLock`, so a value is computed once unless it
//!   has been evicted in between. Under a budget large enough for the
//!   working set (the default), this degenerates to the old slot-array
//!   behavior.
//! * **Output-invariant eviction** — every memoized value is a pure
//!   function of (analysis, key); recomputing after eviction yields an
//!   identical value, so merge output stays byte-identical at *any*
//!   budget. Only the eviction/hit counters vary.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Byte budget for one analysis' memo stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoBudget {
    /// Total budget in bytes, split across the per-kind stores.
    pub bytes: u64,
}

impl MemoBudget {
    /// Default total budget: generous enough that eviction never fires
    /// on the in-tree suites (the exactly-once guarantee holds), while
    /// still bounding a 100k-cell × 32-mode run.
    pub const DEFAULT_BYTES: u64 = 256 * 1024 * 1024;

    /// A budget of `kb` kibibytes.
    pub fn from_kb(kb: u64) -> Self {
        Self { bytes: kb * 1024 }
    }

    /// Resolves an explicit per-run override (in KiB) against the
    /// environment/default fallback: `Some(kb)` wins, `None` defers to
    /// [`Self::from_env`].
    pub fn resolve(kb_override: Option<u64>) -> Self {
        match kb_override {
            Some(kb) => Self::from_kb(kb),
            None => Self::from_env(),
        }
    }

    /// The default budget, overridable via the
    /// `MODEMERGE_MEMO_BUDGET_KB` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("MODEMERGE_MEMO_BUDGET_KB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(kb) => Self::from_kb(kb),
            None => Self {
                bytes: Self::DEFAULT_BYTES,
            },
        }
    }
}

impl Default for MemoBudget {
    fn default() -> Self {
        Self {
            bytes: Self::DEFAULT_BYTES,
        }
    }
}

/// A memo slot shared between all queries racing on one key.
///
/// `charged` records whether this slot's cost has been added to
/// `MemoState::cost`; it is written and read only under the state write
/// lock (the atomic is for interior mutability through the `Arc`, not
/// for lock-free synchronization). Filling the `OnceLock` and charging
/// the cost are separate steps, so eviction must only debit slots whose
/// credit has actually landed — see [`BoundedMemo::fill`].
#[derive(Debug)]
struct Slot<V> {
    value: OnceLock<(V, usize)>,
    charged: AtomicBool,
}

impl<V> Slot<V> {
    fn new() -> Self {
        Self {
            value: OnceLock::new(),
            charged: AtomicBool::new(false),
        }
    }
}

type Entry<V> = Arc<Slot<V>>;

#[derive(Debug)]
struct MemoState<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Keys in insertion order — the FIFO eviction queue.
    queue: VecDeque<K>,
    /// Total cost of filled entries.
    cost: usize,
}

/// A capacity-limited memo map with exactly-once fill semantics.
///
/// Values are handed out by clone, so `V` should be a cheap handle
/// (`Arc<…>`); the stored value may be evicted at any time after fill.
#[derive(Debug)]
pub struct BoundedMemo<K, V> {
    state: RwLock<MemoState<K, V>>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedMemo<K, V> {
    /// Creates a store with a byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            state: RwLock::new(MemoState {
                map: HashMap::new(),
                queue: VecDeque::new(),
                cost: 0,
            }),
            budget: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the memoized value for `key`, computing (and charging
    /// `cost`) on a miss. Concurrent callers for the same resident key
    /// compute at most once.
    pub fn get_or_compute(
        &self,
        key: K,
        compute: impl FnOnce() -> V,
        cost: impl FnOnce(&V) -> usize,
    ) -> V {
        // Fast path: resident and filled. The guard must be dropped
        // before `fill` runs — in edition 2021 an `if let` scrutinee
        // temporary lives to the end of the block, and `fill` may take
        // the write lock on this same RwLock (self-deadlock).
        let resident = {
            let st = self.read();
            st.map.get(&key).map(Arc::clone)
        };
        if let Some(entry) = resident {
            if let Some((v, _)) = entry.value.get() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return v.clone();
            }
            // In-flight elsewhere: block on the shared slot below.
            return self.fill(&key, entry, compute, cost);
        }
        let entry = {
            let mut st = self.write();
            match st.map.get(&key) {
                Some(e) => Arc::clone(e),
                None => {
                    let e: Entry<V> = Arc::new(Slot::new());
                    st.map.insert(key.clone(), Arc::clone(&e));
                    st.queue.push_back(key.clone());
                    e
                }
            }
        };
        self.fill(&key, entry, compute, cost)
    }

    fn fill(
        &self,
        key: &K,
        entry: Entry<V>,
        compute: impl FnOnce() -> V,
        cost: impl FnOnce(&V) -> usize,
    ) -> V {
        let mut filled_here = false;
        let (v, c) = entry.value.get_or_init(|| {
            filled_here = true;
            let v = compute();
            let c = cost(&v);
            (v, c)
        });
        let (v, c) = (v.clone(), *c);
        if filled_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut st = self.write();
            // Charge only if this slot is still the resident one for
            // `key`. A concurrent fill's eviction pass may have dropped
            // it between our `get_or_init` and taking the write lock;
            // charging a detached slot would leak budget forever.
            let still_resident = st.map.get(key).is_some_and(|e| Arc::ptr_eq(e, &entry));
            if still_resident {
                entry.charged.store(true, Ordering::Relaxed);
                st.cost += c;
                // FIFO eviction of *charged* entries, never the key we
                // just inserted (evicting it immediately would defeat
                // sharing between the queries racing on it right now).
                let mut i = 0;
                while st.cost > self.budget && i < st.queue.len() {
                    let victim = st.queue[i].clone();
                    if victim == *key {
                        i += 1;
                        continue;
                    }
                    // Only slots whose cost has landed are debited and
                    // dropped: an unfilled slot has no cost, and a
                    // filled-but-uncharged slot's filler is about to
                    // take this lock — debiting it here would underflow
                    // `st.cost`.
                    let victim_cost = st.map.get(&victim).and_then(|e| {
                        if e.charged.load(Ordering::Relaxed) {
                            e.value.get().map(|(_, vc)| *vc)
                        } else {
                            None
                        }
                    });
                    match victim_cost {
                        Some(vc) => {
                            st.map.remove(&victim);
                            st.queue.remove(i);
                            st.cost -= vc;
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        None => i += 1,
                    }
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, MemoState<K, V>> {
        self.state.read().expect("memo store poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, MemoState<K, V>> {
        self.state.write().expect("memo store poisoned")
    }

    /// Queries served from a filled entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that computed the value (first fill or post-eviction
    /// recompute).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped to stay within budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.read().map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.read().map.is_empty()
    }

    /// Current charged cost in bytes.
    pub fn cost_bytes(&self) -> usize {
        self.read().cost
    }

    /// Drops every entry, for a caller that knows no later query will
    /// want them. Not an eviction: the counters are left as they are.
    ///
    /// Safe against fills in flight: their slots leave the map here, so
    /// [`Self::fill`]'s residency check skips the charge, and the value
    /// still reaches the callers racing on that slot.
    pub fn clear(&self) {
        let mut st = self.write();
        st.map.clear();
        st.queue.clear();
        st.cost = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memo(budget: usize) -> BoundedMemo<u32, Arc<Vec<u8>>> {
        BoundedMemo::new(budget)
    }

    #[test]
    fn fills_once_and_hits_after() {
        let m = memo(1 << 20);
        let a = m.get_or_compute(1, || Arc::new(vec![1; 100]), |v| v.len());
        let b = m.get_or_compute(1, || panic!("must not recompute"), |v| v.len());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((m.misses(), m.hits(), m.evictions()), (1, 1, 0));
        assert_eq!(m.cost_bytes(), 100);
    }

    #[test]
    fn evicts_fifo_when_over_budget() {
        let m = memo(250);
        for k in 0..3 {
            m.get_or_compute(k, || Arc::new(vec![0; 100]), |v| v.len());
        }
        // 300 bytes charged against 250: the oldest key was evicted.
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.len(), 2);
        assert!(m.cost_bytes() <= 250);
        // Key 0 recomputes (a miss), keys 1/2 still hit.
        m.get_or_compute(2, || panic!("resident"), |v| v.len());
        let before = m.misses();
        m.get_or_compute(0, || Arc::new(vec![0; 100]), |v| v.len());
        assert_eq!(m.misses(), before + 1);
    }

    #[test]
    fn never_evicts_the_key_just_filled() {
        let m = memo(10);
        // Entry alone exceeds budget; it must still be resident (evicting
        // it would break sharing with racers), and nothing else exists to
        // evict.
        m.get_or_compute(7, || Arc::new(vec![0; 100]), |v| v.len());
        assert_eq!(m.evictions(), 0);
        m.get_or_compute(7, || panic!("resident"), |v| v.len());
        assert_eq!(m.hits(), 1);
        // The next insert evicts it.
        m.get_or_compute(8, || Arc::new(vec![0; 100]), |v| v.len());
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn refills_resident_unfilled_slot_without_deadlock() {
        // A panicking compute leaves the slot resident but unfilled.
        // The retry then takes the fast path's in-flight branch into
        // `fill`, which needs the write lock — this hung when the read
        // guard was still live across that call.
        let m = memo(1 << 20);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.get_or_compute(1, || panic!("compute failed"), |v| v.len());
        }));
        assert!(r.is_err());
        let v = m.get_or_compute(1, || Arc::new(vec![9; 50]), |v| v.len());
        assert_eq!(v.len(), 50);
        assert_eq!(m.cost_bytes(), 50);
    }

    #[test]
    fn eviction_skips_unfilled_slots() {
        let m = memo(250);
        // Leave an unfilled slot at the head of the FIFO queue.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.get_or_compute(0, || panic!("compute failed"), |v| v.len());
        }));
        assert!(r.is_err());
        for k in 1..4 {
            m.get_or_compute(k, || Arc::new(vec![0; 100]), |v| v.len());
        }
        // The unfilled slot is never debited or dropped; the oldest
        // charged entry (key 1) is the victim instead.
        assert_eq!(m.evictions(), 1);
        assert!(m.cost_bytes() <= 250);
        m.get_or_compute(2, || panic!("resident"), |v| v.len());
        m.get_or_compute(3, || panic!("resident"), |v| v.len());
    }

    #[test]
    fn clear_drops_entries_and_never_charges_a_fill_in_flight() {
        use std::sync::mpsc;
        let m = memo(1 << 20);
        m.get_or_compute(1, || Arc::new(vec![0; 100]), |v| v.len());
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let shared = &m;
        std::thread::scope(|s| {
            let filler = s.spawn(move || {
                shared.get_or_compute(
                    2,
                    || {
                        started_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Arc::new(vec![0; 50])
                    },
                    |v| v.len(),
                )
            });
            // Key 2's slot is in the map, its compute is running.
            started_rx.recv().unwrap();
            m.clear();
            assert_eq!((m.len(), m.cost_bytes()), (0, 0));
            release_tx.send(()).unwrap();
            // The racing caller still gets its value …
            assert_eq!(filler.join().unwrap().len(), 50);
        });
        // … but the detached slot was never charged or re-inserted.
        assert_eq!((m.len(), m.cost_bytes()), (0, 0));
        // Clearing is not an eviction, and the next query recomputes.
        assert_eq!(m.evictions(), 0);
        let before = m.misses();
        m.get_or_compute(1, || Arc::new(vec![0; 100]), |v| v.len());
        assert_eq!(m.misses(), before + 1);
        assert_eq!(m.cost_bytes(), 100);
    }

    #[test]
    fn budget_from_kb() {
        assert_eq!(MemoBudget::from_kb(4).bytes, 4096);
        assert_eq!(MemoBudget::default().bytes, MemoBudget::DEFAULT_BYTES);
    }
}
