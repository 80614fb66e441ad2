//! The process-wide hash-consing table behind [`PathAttrs::intern`] and
//! [`Provenance::intern`], written once, and the [`Interned`] handle it
//! hands out.
//!
//! [`PathAttrs::intern`]: crate::attrs::PathAttrs::intern
//! [`Provenance::intern`]: crate::provenance::Provenance::intern

use crystalnet_net::{table_bytes, IdSet};
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

/// What a value holds on the heap besides its own struct: what the
/// interner charges for it beyond the box it leaks.
pub(crate) trait HeapBytes {
    /// Heap bytes of the value's fields, by capacity.
    fn heap_bytes(&self) -> usize;
}

/// A `Mutex`-guarded set of canonical values, meant to live in a
/// `static`. `&T` hashes/compares through to the `T` (and
/// `&T: Borrow<T>`), so lookups by value need no key wrapper.
///
/// Interning order never affects which value a handle dereferences to, so
/// sharing the table across threads cannot perturb determinism.
pub(crate) struct Interner<T: 'static>(OnceLock<Mutex<Table<T>>>);

/// The canonical values and the bytes their leaked boxes hold.
struct Table<T: 'static> {
    set: IdSet<&'static T>,
    leaked: usize,
}

impl<T: Eq + Hash + HeapBytes> Interner<T> {
    pub(crate) const fn new() -> Self {
        Interner(OnceLock::new())
    }

    fn table(&self) -> MutexGuard<'_, Table<T>> {
        self.0
            .get_or_init(|| {
                Mutex::new(Table {
                    set: IdSet::default(),
                    leaked: 0,
                })
            })
            .lock()
            .expect("interner poisoned")
    }

    /// The canonical handle for `value`, leaking it only if no equal value
    /// is interned yet; the flag says whether the table already held it.
    pub(crate) fn intern(&self, value: T) -> (Interned<T>, bool) {
        let mut table = self.table();
        if let Some(&existing) = table.set.get(&value) {
            return (Interned(existing), true);
        }
        table.leaked += size_of::<T>() + value.heap_bytes();
        let leaked: &'static T = Box::leak(Box::new(value));
        table.set.insert(leaked);
        (Interned(leaked), false)
    }

    /// Number of distinct values interned since process start.
    pub(crate) fn len(&self) -> usize {
        self.table().set.len()
    }

    /// Bytes the interned values hold (each box and its fields' heap) plus
    /// the set's own table.
    pub(crate) fn bytes(&self) -> u64 {
        let table = self.table();
        table.leaked as u64 + table_bytes::<&T>(table.set.capacity())
    }
}
