//! The process-wide hash-consing table behind [`PathAttrs::intern`] and
//! [`Provenance::intern`], written once, and the [`Interned`] handle it
//! hands out.
//!
//! [`PathAttrs::intern`]: crate::attrs::PathAttrs::intern
//! [`Provenance::intern`]: crate::provenance::Provenance::intern

use crystalnet_net::IdSet;
use serde::{Serialize, Value};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A canonical interned value: a `Copy` reference that only the
/// interner creates. The interner leaks each distinct value once and
/// keeps it for the life of the process, so copying or dropping a handle
/// touches no reference count.
///
/// `==` compares addresses. That is sound because the interner hands out
/// one address per distinct value: two handles are `==` **iff** their
/// contents are. `Hash`, `Debug` and `Serialize` go to the value, so
/// nothing observable depends on where a value happens to live. Each
/// interned type's `Deserialize` interns, so a decoded handle `==` the
/// one that was sent.
pub struct Interned<T: 'static>(&'static T);

impl<T> Interned<T> {
    /// The value's address: stable for the life of the process and never
    /// shared by two distinct values, so it keys memos by identity.
    #[must_use]
    pub fn as_ptr(self) -> *const T {
        self.0
    }
}

impl<T> Clone for Interned<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Interned<T> {}

impl<T> Deref for Interned<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0
    }
}

impl<T> PartialEq for Interned<T> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl<T> Eq for Interned<T> {}

impl<T: Hash> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: Serialize> Serialize for Interned<T> {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

/// A `Mutex`-guarded set of canonical values, meant to live in a
/// `static`. `&T` hashes/compares through to the `T` (and
/// `&T: Borrow<T>`), so lookups by value need no key wrapper.
///
/// Interning order never affects which value a handle dereferences to, so
/// sharing the table across threads cannot perturb determinism.
pub(crate) struct Interner<T: 'static>(OnceLock<Mutex<IdSet<&'static T>>>);

impl<T: Eq + Hash> Interner<T> {
    pub(crate) const fn new() -> Self {
        Interner(OnceLock::new())
    }

    fn table(&self) -> MutexGuard<'_, IdSet<&'static T>> {
        self.0
            .get_or_init(|| Mutex::new(IdSet::default()))
            .lock()
            .expect("interner poisoned")
    }

    /// The canonical handle for `value`, leaking it only if no equal value
    /// is interned yet; the flag says whether the table already held it.
    pub(crate) fn intern(&self, value: T) -> (Interned<T>, bool) {
        let mut table = self.table();
        if let Some(&existing) = table.get(&value) {
            return (Interned(existing), true);
        }
        let leaked: &'static T = Box::leak(Box::new(value));
        table.insert(leaked);
        (Interned(leaked), false)
    }

    /// Number of distinct values interned since process start.
    pub(crate) fn len(&self) -> usize {
        self.table().len()
    }
}
