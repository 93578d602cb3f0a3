//! Process-global string interner backing [`Symbol`](crate::Symbol).
//!
//! The tabular model manipulates two sorts of symbols — *names* and
//! *values* — drawn from unbounded string universes (paper §2). Tables are
//! dense matrices of symbols, and every algebra operation compares symbols
//! (weak equality, subsumption, grouping keys), so symbol comparison and
//! hashing must be O(1). We therefore intern every string once into an
//! append-only pool and represent it by a `u32` index ([`Istr`]).
//!
//! The pool also hands out *fresh values* (strings guaranteed distinct from
//! every string interned so far), which back the tabular algebra's tagging
//! operations `tuple-new` / `set-new` and the occurrence identifiers of the
//! canonical representation (paper §3.5, Lemma 4.2).

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string: a dense `u32` handle into the global pool.
///
/// Two `Istr`s are equal iff the strings they denote are equal, so `Istr`
/// supports O(1) comparison and hashing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Istr(pub(crate) u32);

impl Istr {
    /// Resolve this handle back to its string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        pool().resolve(self)
    }

    /// The raw index. Stable for the lifetime of the process.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Istr({:?})", self.as_str())
    }
}

impl fmt::Display for Istr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// log₂ of the first chunk's slot count (see [`Pool`]).
const FIRST_BITS: u32 = 6;

/// Chunks that hold every `u32` id: chunk 0 holds the ids below
/// `2^FIRST_BITS`, and chunk `c ≥ 1` those from `2^(FIRST_BITS + c − 1)`
/// up to twice that, so each chunk past the first starts at a power of 2.
const CHUNKS: usize = (u32::BITS - FIRST_BITS + 1) as usize;

/// One chunk of the string table: a slot per id, each set once.
type Chunk = Box<[OnceLock<&'static str>]>;

/// The chunk and the slot within it that hold id `id`.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    if id < 1 << FIRST_BITS {
        return (0, id as usize);
    }
    let k = id.ilog2();
    ((k - FIRST_BITS + 1) as usize, (id - (1 << k)) as usize)
}

/// The strings interned so far, under the pool's one lock.
struct Interned {
    /// Every interned string → its id.
    ids: HashMap<&'static str, u32, LazyKeys>,
    /// Bytes of all the strings leaked so far.
    bytes: usize,
}

/// `RandomState`, keyed on first use: the global pool is built in a
/// `const` context, where `RandomState::new` cannot run. Random keys keep
/// untrusted strings (uploaded cells) from choosing their hash buckets.
struct LazyKeys(OnceLock<RandomState>);

impl BuildHasher for LazyKeys {
    type Hasher = DefaultHasher;

    fn build_hasher(&self) -> DefaultHasher {
        self.0.get_or_init(RandomState::new).build_hasher()
    }
}

/// The interning pool. Strings are leaked on first interning; the pool is
/// append-only, so resolved `&'static str`s stay valid forever.
///
/// Interning goes through one map under a `RwLock` (a hit reads, a miss
/// writes), which hands out ids densely in interning order. Resolving
/// reads an append-only table of the strings by id and takes no lock: the
/// table is a fixed array of chunks of doubling size, and each chunk and
/// each slot is a `OnceLock`, written under the map's write lock before
/// the id is returned and never moved afterwards.
pub struct Pool {
    interned: RwLock<Interned>,
    chunks: [OnceLock<Chunk>; CHUNKS],
    fresh_counter: AtomicU64,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            interned: RwLock::new(Interned {
                ids: HashMap::with_hasher(LazyKeys(OnceLock::new())),
                bytes: 0,
            }),
            chunks: [const { OnceLock::new() }; CHUNKS],
            fresh_counter: AtomicU64::new(0),
        }
    }

    /// The map, read. A panic under the write lock can come only before
    /// the map records a new id (see [`Pool::intern`]), so a poisoned lock
    /// is read through.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Interned> {
        self.interned.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern `s`, returning its handle. Idempotent.
    pub fn intern(&self, s: &str) -> Istr {
        if let Some(&id) = self.read().ids.get(s) {
            return Istr(id);
        }
        let mut interned = self
            .interned
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = interned.ids.get(s) {
            return Istr(id);
        }
        let id =
            u32::try_from(interned.ids.len()).expect("interner overflow: > 4G distinct symbols");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let (chunk, slot) = locate(id);
        let len = 1 << (FIRST_BITS as usize + chunk.saturating_sub(1));
        let slots = self.chunks[chunk].get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        interned.ids.insert(leaked, id);
        interned.bytes += leaked.len();
        // The slot is set last, by a call that cannot panic, and before the
        // write lock is released, so every id the map hands out resolves.
        let set = slots[slot].set(leaked);
        debug_assert!(set.is_ok(), "slot {id} set twice");
        Istr(id)
    }

    /// Resolve a handle to its string, with no lock. `OnceLock::set` in
    /// [`Pool::intern`] publishes a slot (release) and `OnceLock::get`
    /// here reads it (acquire); a handle reaches another thread only
    /// after the set, through whatever passed it there.
    #[inline]
    pub fn resolve(&self, i: Istr) -> &'static str {
        let (chunk, slot) = locate(i.0);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[slot].get())
            .expect("a handle is resolved only in the pool that interned it")
    }

    /// Mint a string that has never been interned before and intern it.
    ///
    /// Fresh strings use a reserved unit-separator prefix (`\u{1F}`), which
    /// the table parsers reject in user input, so freshness is guaranteed
    /// against all user-visible symbols as well as against previous calls.
    pub fn fresh(&self, tag: &str) -> Istr {
        loop {
            let n = self.fresh_counter.fetch_add(1, Ordering::Relaxed);
            let candidate = format!("\u{1F}{tag}{n}");
            // A collision can only happen if someone interned this exact
            // string manually; skip ahead in that (pathological) case.
            if self.read().ids.contains_key(candidate.as_str()) {
                continue;
            }
            return self.intern(&candidate);
        }
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.read().ids.len()
    }

    /// True if nothing has been interned (only before first use).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the distinct strings interned so far: memory the pool
    /// holds until the process exits.
    pub fn bytes(&self) -> usize {
        self.read().bytes
    }
}

/// A plain `static`, not a lazy one, so that reaching it from
/// [`Istr::as_str`] costs no initialization check.
static POOL: Pool = Pool::new();

/// The process-global pool.
#[inline]
pub fn pool() -> &'static Pool {
    &POOL
}

/// Intern a string in the global pool.
pub fn intern(s: &str) -> Istr {
    pool().intern(s)
}

/// Mint a fresh, never-before-seen string (see [`Pool::fresh`]).
pub fn fresh(tag: &str) -> Istr {
    pool().fresh(tag)
}

/// True if `s` uses the reserved fresh-value prefix and therefore denotes a
/// machine-generated symbol (a tag or an occurrence identifier).
pub fn is_reserved(s: &str) -> bool {
    s.starts_with('\u{1F}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("nuts");
        let b = intern("nuts");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "nuts");
    }

    #[test]
    fn distinct_strings_get_distinct_handles() {
        assert_ne!(intern("east"), intern("west"));
    }

    #[test]
    fn empty_string_interns() {
        let e = intern("");
        assert_eq!(e.as_str(), "");
    }

    #[test]
    fn fresh_values_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(fresh("t")));
        }
    }

    #[test]
    fn fresh_values_are_reserved() {
        assert!(is_reserved(fresh("t").as_str()));
        assert!(!is_reserved("Sales"));
    }

    #[test]
    fn fresh_skips_manually_interned_collisions() {
        // Force the pathological path: intern a string shaped like the next
        // fresh candidate, then ask for fresh values until we pass it.
        let n = pool().fresh_counter.load(Ordering::Relaxed);
        intern(&format!("\u{1F}clash{}", n));
        let f = fresh("clash");
        assert_ne!(f.as_str(), format!("\u{1F}clash{}", n));
    }

    #[test]
    fn unicode_round_trips() {
        let s = "région—part№";
        assert_eq!(intern(s).as_str(), s);
    }

    #[test]
    fn ids_stay_dense_across_chunk_boundaries() {
        // A pool of its own, so the ids start at 0: 1 025 strings fill
        // chunks 0 to 4 and open chunk 5.
        let pool = Pool::new();
        let text = |i: u32| format!("s{i}");
        let last = 1 << (FIRST_BITS + 4);
        for i in 0..=last {
            assert_eq!(pool.intern(&text(i)), Istr(i));
        }
        let mut ids = vec![0, 1];
        for k in FIRST_BITS..=FIRST_BITS + 4 {
            let (below, at) = ((1 << k) - 1, 1 << k);
            assert_eq!(locate(below).0 + 1, locate(at).0, "2^{k} starts a chunk");
            assert_eq!(locate(at).1, 0);
            ids.extend([below, at]);
        }
        for i in ids {
            assert_eq!(pool.resolve(Istr(i)), text(i));
            assert_eq!(pool.intern(&text(i)), Istr(i), "re-interning keeps the id");
        }
        assert!((0..=last).all(|i| pool.resolve(Istr(i)) == text(i)));
        assert_eq!(pool.len(), last as usize + 1);
        let bytes: usize = (0..=last).map(|i| text(i).len()).sum();
        assert_eq!(pool.bytes(), bytes);
    }

    #[test]
    fn readers_resolve_while_a_writer_interns() {
        // The writer sends each id to every reader as soon as it is
        // interned, so readers resolve ids whose chunks were just
        // published while the writer goes on opening new ones.
        const N: u32 = 5000;
        let pool = Pool::new();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..3).map(|_| std::sync::mpsc::channel::<Istr>()).unzip();
        std::thread::scope(|scope| {
            for ids in receivers {
                let pool = &pool;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for id in ids {
                        assert_eq!(pool.resolve(id), format!("w{}", id.index()));
                        seen.push(id);
                        let early = seen[id.index() as usize / 2];
                        assert_eq!(pool.resolve(early), format!("w{}", early.index()));
                    }
                    assert_eq!(seen.len(), N as usize);
                });
            }
            for i in 0..N {
                let id = pool.intern(&format!("w{i}"));
                assert_eq!(id, Istr(i));
                for to in &senders {
                    to.send(id).unwrap();
                }
            }
            drop(senders);
        });
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..200)
                        .map(|i| intern(&format!("c{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Istr>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }
}
