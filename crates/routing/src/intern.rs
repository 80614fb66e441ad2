//! The process-wide hash-consing table behind [`PathAttrs::intern`] and
//! [`Provenance::intern`], written once.
//!
//! [`PathAttrs::intern`]: crate::attrs::PathAttrs::intern
//! [`Provenance::intern`]: crate::provenance::Provenance::intern

use crystalnet_net::IdSet;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A `Mutex`-guarded set of canonical `Arc<T>`s, meant to live in a
/// `static`. `Arc<T>` hashes/compares through to the `T` (and
/// `Arc<T>: Borrow<T>`), so lookups by value need no key wrapper.
///
/// The guarantee callers rely on (and the differential tests assert):
/// two interned handles are [`Arc::ptr_eq`] **iff** their contents are
/// `==`. Interning order never affects which value a handle dereferences
/// to, so sharing the table across threads cannot perturb determinism.
pub(crate) struct Interner<T>(OnceLock<Mutex<IdSet<Arc<T>>>>);

impl<T: Eq + Hash> Interner<T> {
    pub(crate) const fn new() -> Self {
        Interner(OnceLock::new())
    }

    fn table(&self) -> MutexGuard<'_, IdSet<Arc<T>>> {
        self.0
            .get_or_init(|| Mutex::new(IdSet::default()))
            .lock()
            .expect("interner poisoned")
    }

    /// The canonical `Arc` for `value`, allocating only if no equal value
    /// is interned yet; the flag says whether the table already held it.
    pub(crate) fn intern(&self, value: T) -> (Arc<T>, bool) {
        let mut table = self.table();
        if let Some(existing) = table.get(&value) {
            return (Arc::clone(existing), true);
        }
        let arc = Arc::new(value);
        table.insert(Arc::clone(&arc));
        (arc, false)
    }

    /// Number of distinct values currently interned.
    pub(crate) fn len(&self) -> usize {
        self.table().len()
    }

    /// Drops interned values no longer referenced outside the table.
    pub(crate) fn sweep(&self) {
        self.table().retain(|a| Arc::strong_count(a) > 1);
    }
}
