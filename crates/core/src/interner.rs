//! Process-global string interner backing [`Symbol`](crate::Symbol).
//!
//! The tabular model manipulates two sorts of symbols — *names* and
//! *values* — drawn from unbounded string universes (paper §2). Tables are
//! dense matrices of symbols, and every algebra operation compares symbols
//! (weak equality, subsumption, grouping keys), so symbol comparison and
//! hashing must be O(1). We therefore intern every string once into a
//! sharded, append-only pool and represent it by a `u32` index ([`Istr`]).
//!
//! The pool also hands out *fresh values* (strings guaranteed distinct from
//! every string interned so far), which back the tabular algebra's tagging
//! operations `tuple-new` / `set-new` and the occurrence identifiers of the
//! canonical representation (paper §3.5, Lemma 4.2).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of shards in the interner. Sharding keeps lock contention low
/// when tables are built from multiple threads (e.g. parallel benches).
const SHARDS: usize = 16;

/// An interned string: a dense `u32` handle into the global pool.
///
/// Two `Istr`s are equal iff the strings they denote are equal, so `Istr`
/// supports O(1) comparison and hashing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Istr(pub(crate) u32);

impl Istr {
    /// Resolve this handle back to its string.
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

struct Shard {
    map: HashMap<&'static str, u32>,
}

/// The global interning pool. Strings are leaked on first interning; the
/// pool is append-only, so resolved `&'static str`s stay valid forever.
pub struct Pool {
    shards: [RwLock<Shard>; SHARDS],
    /// Every interned string, at its `Istr::index()`. Ids are dense
    /// across all shards (a shard maps strings to ids only), so one flat
    /// vector under its own lock resolves any id, the hot path, with one
    /// index.
    strings: RwLock<Vec<&'static str>>,
    fresh_counter: AtomicU64,
}

impl Pool {
    fn new() -> Self {
        Pool {
            shards: std::array::from_fn(|_| {
                RwLock::new(Shard {
                    map: HashMap::new(),
                })
            }),
            strings: RwLock::new(Vec::new()),
            fresh_counter: AtomicU64::new(0),
        }
    }

    fn shard_of(s: &str) -> usize {
        // FNV-1a over the first and last byte plus length: cheap and good
        // enough to spread shard load; correctness does not depend on it.
        let b0 = s.as_bytes().first().copied().unwrap_or(0) as usize;
        let b1 = s.as_bytes().last().copied().unwrap_or(0) as usize;
        (b0.wrapping_mul(31) ^ b1 ^ s.len()) % SHARDS
    }

    /// Intern `s`, returning its handle. Idempotent.
    pub fn intern(&self, s: &str) -> Istr {
        let shard = &self.shards[Self::shard_of(s)];
        if let Some(&id) = shard.read().map.get(s) {
            return Istr(id);
        }
        let mut guard = shard.write();
        if let Some(&id) = guard.map.get(s) {
            return Istr(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let mut strings = self.strings.write();
        let id = u32::try_from(strings.len()).expect("interner overflow: > 4G distinct symbols");
        strings.push(leaked);
        guard.map.insert(leaked, id);
        Istr(id)
    }

    /// Resolve a handle to its string.
    pub fn resolve(&self, i: Istr) -> &'static str {
        self.strings.read()[i.0 as usize]
    }

    /// Append the string of each handle `ids` yields to `out` (`None`
    /// stays `None`), all under one read of the pool: the batch form of
    /// [`Pool::resolve`] for loops over many cells, such as rendering a
    /// table. `ids` runs under the pool's lock, so it must neither
    /// intern nor resolve.
    pub fn resolve_batch(
        &self,
        ids: impl Iterator<Item = Option<Istr>>,
        out: &mut Vec<Option<&'static str>>,
    ) {
        let strings = self.strings.read();
        out.extend(ids.map(|i| i.map(|i| strings[i.0 as usize])));
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
            let shard = &self.shards[Self::shard_of(&candidate)];
            if shard.read().map.contains_key(candidate.as_str()) {
                continue;
            }
            return self.intern(&candidate);
        }
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.read().len()
    }

    /// True if nothing has been interned (only before first use).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-global pool.
pub fn pool() -> &'static Pool {
    POOL.get_or_init(Pool::new)
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
