//! [`CowMap`]: the copy-on-write form of [`IdMap`] that a device's route
//! tables use, so a copy of a device owns only the entries it writes.
//!
//! A table keeps its entries in one `Arc`'d base map, and a copy of it
//! reads that same map: the source's own storage, never a clone of it.
//! While another table reads the base, writes go into the table's own
//! map (a removed base key becomes a tombstone); once nothing else does,
//! the next write folds them into the base and writes in place. An empty
//! table has no base, so a default, cleared or taken table allocates
//! nothing.

use crate::addr::{table_bytes, IdMap};
use std::hash::Hash;
use std::sync::Arc;

/// A table whose base is shared folds its writes into a fresh base once
/// it holds more than one write per `FOLD_DIVISOR` base entries: past
/// that, every miss in its own map pays a second probe for little
/// sharing.
pub const FOLD_DIVISOR: usize = 8;

/// A copy-on-write [`IdMap`]: one base map shared by every copy, plus
/// the writes a table made while another one read its base. See the
/// [module docs](self).
///
/// Reads take one probe into the base, plus one into the table's own
/// map when it holds writes. Iteration order is no order a reader should
/// show, as for [`IdMap`].
#[derive(Debug, Clone)]
pub struct CowMap<K, V> {
    /// Writes made while another table read the base; `None` is a
    /// tombstone, and only a base key ever has one. The next write after
    /// the base stops being shared folds them into it.
    own: IdMap<K, Option<V>>,
    /// The entries, shared by every copy; `None` until the first write.
    base: Option<Arc<IdMap<K, V>>>,
}

/// A table's heap bytes by owner: what it holds alone, and the base it
/// reads together with its source or its copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowBytes {
    /// Bytes only this table reads: its own writes, and its base when no
    /// other table reads it.
    pub own: u64,
    /// Bytes of a base that other tables read too.
    pub shared: u64,
}

impl CowBytes {
    /// Both halves.
    #[must_use]
    pub fn total(self) -> u64 {
        self.own + self.shared
    }
}

impl std::ops::Add for CowBytes {
    type Output = CowBytes;

    fn add(self, other: CowBytes) -> CowBytes {
        CowBytes {
            own: self.own + other.own,
            shared: self.shared + other.shared,
        }
    }
}

impl std::iter::Sum for CowBytes {
    fn sum<I: Iterator<Item = CowBytes>>(iter: I) -> CowBytes {
        iter.fold(CowBytes::default(), std::ops::Add::add)
    }
}

impl<K, V> Default for CowMap<K, V> {
    /// An empty table: no base, nothing allocated.
    fn default() -> Self {
        CowMap {
            own: IdMap::default(),
            base: None,
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone> CowMap<K, V> {
    /// The value under `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        if !self.own.is_empty() {
            if let Some(written) = self.own.get(key) {
                return written.as_ref();
            }
        }
        self.base.as_ref()?.get(key)
    }

    /// The value under `key`, to write in place. A table whose base is
    /// shared takes the base's value into its own writes first.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.shared() && !self.own.contains_key(key) {
            let v = self.base.as_ref()?.get(key)?.clone();
            self.own.insert(key.clone(), Some(v));
            self.fold_if_heavy();
        }
        if self.shared() {
            return self.own.get_mut(key)?.as_mut();
        }
        self.sole()?.get_mut(key)
    }

    /// Sets `key` to `value`.
    pub fn insert(&mut self, key: K, value: V) {
        let base = self.base.get_or_insert_with(Arc::default);
        match Arc::get_mut(base) {
            Some(base) => {
                fold(base, &mut self.own);
                base.insert(key, value);
            }
            None => {
                self.own.insert(key, Some(value));
                self.fold_if_heavy();
            }
        }
    }

    /// Removes `key`, returning its value. A table whose base is shared
    /// leaves a tombstone where the key lives in the base.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if let Some(base) = self.sole() {
            return base.remove(key);
        }
        let base = self.base.as_deref()?;
        let out = if base.contains_key(key) {
            self.own
                .insert(key.clone(), None)
                .unwrap_or_else(|| base.get(key).cloned())
        } else {
            self.own.remove(key).flatten()
        };
        self.fold_if_heavy();
        out
    }

    /// Removes every entry without allocating: a base only this table
    /// reads is emptied in place and keeps its capacity, a shared one is
    /// let go.
    pub fn clear(&mut self) {
        self.own = IdMap::default();
        match self.base.as_mut().and_then(Arc::get_mut) {
            Some(base) => base.clear(),
            None => self.base = None,
        }
    }

    /// Removes every entry and hands them out (unordered).
    pub fn drain(&mut self) -> std::vec::IntoIter<(K, V)> {
        let entries: Vec<(K, V)> = self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        self.clear();
        entries.into_iter()
    }

    /// Number of entries: the base's, with each own write counted
    /// against it (one probe per write).
    #[must_use]
    pub fn len(&self) -> usize {
        let Some(base) = &self.base else {
            return 0;
        };
        self.own.iter().fold(base.len(), |len, (k, v)| {
            match (v.is_some(), base.contains_key(k)) {
                (true, false) => len + 1,
                (false, true) => len - 1,
                _ => len,
            }
        })
    }

    /// Whether the table has no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // Only a base key has a tombstone, so fewer own writes than base
        // entries leave one of them standing.
        self.base
            .as_ref()
            .is_none_or(|base| self.own.len() >= base.len() && self.len() == 0)
    }

    /// Every entry (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let written = self.own.iter().filter_map(|(k, v)| Some((k, v.as_ref()?)));
        // A table with no writes reads its base without probing `own`.
        let own = (!self.own.is_empty()).then_some(&self.own);
        let read = self.base.iter().flat_map(move |base| {
            base.iter()
                .filter(move |(k, _)| own.is_none_or(|own| !own.contains_key(*k)))
        });
        written.chain(read)
    }

    /// Every key (unordered).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// The heap bytes this table holds ([`table_bytes`] of each map),
    /// split by whether another table reads its base.
    #[must_use]
    pub fn bytes(&self) -> CowBytes {
        let own = table_bytes::<(K, Option<V>)>(self.own.capacity());
        let base = (self.base.as_ref()).map_or(0, |b| table_bytes::<(K, V)>(b.capacity()));
        let shared = if self.shared() { base } else { 0 };
        CowBytes {
            own: own + base - shared,
            shared,
        }
    }

    /// The keys whose values may differ between `self` and `other`. When
    /// both read one base (a table and its copy, or two copies) that is
    /// only the keys either side holds as its own writes; otherwise it is
    /// every key of both. A key may come twice.
    pub fn diff_keys<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = &'a K> {
        let one_base = matches!(
            (&self.base, &other.base),
            (Some(a), Some(b)) if Arc::ptr_eq(a, b)
        );
        let writes = one_base.then(|| self.own.keys().chain(other.own.keys()));
        let all = (!one_base).then(|| self.keys().chain(other.keys()));
        writes
            .into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
    }

    /// Whether another table reads this one's base, so writes go to
    /// `own`. No `Weak` to a base is ever made, so a count of one means
    /// no other table can take a new reference either.
    fn shared(&self) -> bool {
        self.base.as_ref().is_some_and(|b| Arc::strong_count(b) > 1)
    }

    /// The base to write in place when no other table reads it, with the
    /// writes left in `own` folded in.
    fn sole(&mut self) -> Option<&mut IdMap<K, V>> {
        let base = self.base.as_mut().and_then(Arc::get_mut)?;
        fold(base, &mut self.own);
        Some(base)
    }

    /// Folds writes over a shared base into a fresh base of this table's
    /// own (one clone of the shared map) once they pass
    /// `1 / FOLD_DIVISOR` of it.
    fn fold_if_heavy(&mut self) {
        if let Some(base) = &mut self.base {
            if self.own.len() * FOLD_DIVISOR > base.len() {
                fold(Arc::make_mut(base), &mut self.own);
            }
        }
    }
}

/// Applies `own`'s writes to `base` and frees `own`.
fn fold<K: Eq + Hash, V>(base: &mut IdMap<K, V>, own: &mut IdMap<K, Option<V>>) {
    if own.is_empty() {
        return;
    }
    for (k, v) in std::mem::take(own) {
        match v {
            Some(v) => base.insert(k, v),
            None => base.remove(&k),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u32) -> CowMap<u32, u32> {
        let mut m = CowMap::default();
        for k in 0..n {
            m.insert(k, k * 10);
        }
        m
    }

    fn base(m: &CowMap<u32, u32>) -> &Arc<IdMap<u32, u32>> {
        m.base.as_ref().expect("a written table has a base")
    }

    #[test]
    fn a_copy_reads_its_sources_own_storage() {
        let src = filled(64);
        assert!(src.own.is_empty(), "a table nothing shares writes its base");
        let before = Arc::as_ptr(base(&src));
        let a = src.clone();
        let b = src.clone();
        assert!(Arc::ptr_eq(base(&a), base(&src)) && Arc::ptr_eq(base(&b), base(&src)));
        assert_eq!(Arc::as_ptr(base(&src)), before, "copying moves nothing");
        assert_eq!(
            Arc::strong_count(base(&src)),
            3,
            "the source holds no second map"
        );
        assert_eq!(src.bytes().own, 0);
        assert_eq!(a.bytes(), src.bytes());
        assert_eq!(a.diff_keys(&src).count(), 0);
    }

    #[test]
    fn a_source_writes_into_own_while_a_copy_lives_then_folds_in_place() {
        let mut src = filled(64);
        let copy = src.clone();
        src.insert(1, 0);
        assert_eq!(src.remove(&2), Some(20));
        assert!(
            Arc::ptr_eq(base(&src), base(&copy)),
            "the base stays shared"
        );
        assert_eq!(src.own.len(), 2);
        assert_eq!((src.get(&1), src.get(&2), src.len()), (Some(&0), None, 63));
        assert_eq!(
            (copy.get(&1), copy.get(&2), copy.len()),
            (Some(&10), Some(&20), 64)
        );
        let mut keys: Vec<u32> = src.diff_keys(&copy).copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);

        drop(copy);
        let at = Arc::as_ptr(base(&src));
        src.insert(3, 0);
        assert_eq!(Arc::as_ptr(base(&src)), at, "folded in place, not cloned");
        assert!(src.own.is_empty());
        assert_eq!(
            (src.get(&1), src.get(&2), src.get(&3), src.len()),
            (Some(&0), None, Some(&0), 63)
        );
    }

    #[test]
    fn a_copy_holds_only_its_writes_and_folds_back_when_they_get_heavy() {
        let src = filled(64);
        let mut copy = src.clone();
        assert_eq!(copy.own.capacity(), 0);
        copy.insert(100, 1);
        assert_eq!(copy.remove(&3), Some(30));
        assert_eq!(copy.remove(&3), None);
        assert_eq!(copy.own.len(), 2);
        assert_eq!(
            (copy.len(), copy.get(&3), copy.get(&100)),
            (64, None, Some(&1))
        );
        assert!(copy.bytes().own > 0 && copy.bytes().shared == src.bytes().total());
        for k in 200..210 {
            copy.insert(k, k);
        }
        assert!(copy.own.is_empty(), "12 writes over 64 fold");
        assert!(!Arc::ptr_eq(base(&copy), base(&src)));
        assert_eq!((copy.len(), src.len()), (74, 64));
        assert_eq!(copy.diff_keys(&src).count(), 74 + 64, "no shared base");
    }

    #[test]
    fn an_empty_table_allocates_nothing() {
        let mut m: CowMap<u32, u32> = CowMap::default();
        let copy = m.clone();
        assert!(m.base.is_none() && copy.base.is_none());
        assert_eq!((m.remove(&1), m.get_mut(&1)), (None, None));
        assert!(m.base.is_none(), "a miss on an empty table makes no base");
        let mut full = filled(4);
        let keep = full.clone();
        full.clear();
        assert!(
            full.base.is_none() && full.is_empty(),
            "a shared base is let go"
        );
        drop(keep);
        let mut taken = std::mem::take(&mut full);
        taken.insert(1, 1);
        assert!(full.base.is_none() && taken.len() == 1);
    }
}
