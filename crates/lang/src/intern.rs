//! Global string interning.
//!
//! Every [`crate::ast::Ident`] and [`crate::ast::ModName`] is backed by a
//! [`Sym`]: a `u32` index into a process-wide, append-only table of
//! leaked strings. Interning makes name equality and hashing integer
//! operations, makes qualified names `Copy`, and removes the `String`
//! clones that used to dominate the specialisation engine's memo keys
//! and environments.
//!
//! [`Sym::intern`] looks the text up in a map behind a lock (a read lock
//! on a hit, a write lock to add a name). [`Sym::as_str`] takes no lock:
//! each interned string is published into `SEGMENTS`, a fixed array of
//! lazily allocated segments whose slots are set once and never change,
//! so a read is two acquire loads. Segment `k` holds `64·2^k` slots, so
//! the table grows by allocating new segments, never by moving old ones.
//! Strings are leaked intentionally — the set of distinct names in a
//! compilation session is small and bounded by the source plus gensym
//! output, and leaking is what lets lookups hand out `'static`
//! references without reference counting.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string: cheap to copy, compare and hash.
///
/// Equality agrees with string equality (the interner is a bijection);
/// ordering is **not** derived from the id — callers that need
/// lexicographic order compare [`Sym::as_str`] (as the `Ord` impls of
/// `Ident`/`ModName` do), so interning order never leaks into output.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// Slots in segment 0; segment `k` holds `SEGMENT0 << k`.
const SEGMENT0: u64 = 64;

/// The published strings, indexed by [`slot`]. 26 segments hold
/// `64·(2^26 − 1)` slots, just under the `u32` id space.
static SEGMENTS: [OnceLock<Box<[OnceLock<&'static str>]>>; 26] =
    [const { OnceLock::new() }; 26];

/// The segment and offset of symbol `id`: ids `0..64` live in segment
/// 0, the next 128 in segment 1, and so on.
fn slot(id: u32) -> (usize, usize) {
    let x = u64::from(id) + SEGMENT0;
    let k = 63 - x.leading_zeros() - SEGMENT0.trailing_zeros();
    (k as usize, (x - (SEGMENT0 << k)) as usize)
}

fn interner() -> &'static RwLock<HashMap<&'static str, u32>> {
    static MAP: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Sym {
    /// Interns a string, returning its symbol. Idempotent: interning the
    /// same text always yields the same `Sym`.
    pub fn intern(s: &str) -> Sym {
        if let Some(&id) = interner().read().expect("interner poisoned").get(s) {
            return Sym(id);
        }
        let mut map = interner().write().expect("interner poisoned");
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        let id = u32::try_from(map.len()).expect("interner overflow");
        let (k, off) = slot(id);
        let segment = SEGMENTS
            .get(k)
            .expect("interner overflow")
            .get_or_init(|| (0..SEGMENT0 << k).map(|_| OnceLock::new()).collect());
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // Published before the id escapes the lock, so every `Sym` a
        // thread can hold names a set slot.
        segment[off].set(leaked).expect("interner slot published twice");
        map.insert(leaked, id);
        Sym(id)
    }

    /// The interned text. Lock-free; `'static` because the table leaks
    /// its strings.
    ///
    /// `intern` sets the slot (a release store inside `OnceLock`) before
    /// the `Sym` leaves it, and a `Sym` reaches another thread only
    /// through something that synchronises, so the acquire loads here
    /// always find the slot set.
    pub fn as_str(self) -> &'static str {
        let (k, off) = slot(self.0);
        SEGMENTS[k]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("symbol published by Sym::intern")
    }

    /// The raw table index (stable for the lifetime of the process).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::intern("power");
        let b = Sym::intern("power");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "power");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(Sym::intern("alpha"), Sym::intern("beta"));
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100).map(|i| Sym::intern(&format!("s{}", (t * i) % 50))).count()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(Sym::intern("s0"), Sym::intern("s0"));
    }

    #[test]
    fn slots_fill_segments_in_order() {
        assert_eq!(slot(0), (0, 0));
        assert_eq!(slot(63), (0, 63));
        assert_eq!(slot(64), (1, 0));
        assert_eq!(slot(191), (1, 127));
        assert_eq!(slot(192), (2, 0));
        assert_eq!(slot(u32::MAX - 64), (25, (64 << 25) - 1));
    }

    /// Writers intern fresh names across several segment boundaries
    /// while readers resolve every symbol published so far.
    #[test]
    fn lock_free_reads_race_with_interning() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Barrier, Mutex};

        const WRITERS: usize = 4;
        const PER_WRITER: usize = 3000;
        let published: Mutex<Vec<(Sym, String)>> = Mutex::default();
        let writers_done = AtomicBool::new(false);
        let start = Barrier::new(WRITERS + 2);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut checked = 0usize;
                        loop {
                            let done = writers_done.load(Ordering::Acquire);
                            let snapshot = published.lock().unwrap().clone();
                            for (sym, text) in &snapshot {
                                assert_eq!(sym.as_str(), text);
                            }
                            checked += snapshot.len();
                            if done {
                                return checked;
                            }
                        }
                    })
                })
                .collect();
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (published, start) = (&published, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..PER_WRITER {
                            let text = format!("race-w{w}-n{i}");
                            let sym = Sym::intern(&text);
                            published.lock().unwrap().push((sym, text));
                        }
                    })
                })
                .collect();
            for h in writers {
                h.join().unwrap();
            }
            writers_done.store(true, Ordering::Release);
            for h in readers {
                assert!(h.join().unwrap() >= WRITERS * PER_WRITER);
            }
        });
        let all = published.into_inner().unwrap();
        assert_eq!(all.len(), WRITERS * PER_WRITER);
        for (sym, text) in &all {
            assert_eq!(sym.as_str(), text);
            assert_eq!(Sym::intern(text), *sym);
        }
        let lo = all.iter().map(|(s, _)| s.id()).min().unwrap();
        let hi = all.iter().map(|(s, _)| s.id()).max().unwrap();
        assert!(slot(hi).0 >= slot(lo).0 + 4, "names should span several segments");
    }
}
