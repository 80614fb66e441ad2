//! [`CowMap`]: the copy-on-write form of [`IdMap`] that a device's route
//! tables use, so a copy of a device owns only the entries it writes.
//!
//! A table nothing shares is flat: one inline [`IdMap`], read and written
//! exactly as a plain map. The first copy *freezes* it: the source clones
//! its map once into an `Arc`'d base and keeps that clone cached until its
//! own next write, and every copy taken meanwhile reads through the same
//! base. A copy holds only its writes over the base (a removal is a
//! tombstone), and folds back to a flat table once its writes pass a
//! fixed fraction of the base ([`FOLD_DIVISOR`]).

use crate::addr::IdMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A copy folds back to a flat table once it holds more than one write
/// per `FOLD_DIVISOR` base entries: past that, every miss in its own map
/// pays a second probe for little sharing.
pub const FOLD_DIVISOR: usize = 8;

/// A frozen table: the map a source cloned at its first copy. Every
/// value is `Some`; the `Option` is only there so the clone is the flat
/// map's bytes.
type Frozen<K, V> = Arc<IdMap<K, Option<V>>>;

/// A copy-on-write [`IdMap`]: flat while nothing shares it, or a copy's
/// writes over a frozen base. See the [module docs](self).
///
/// Reads take one probe into the table's own map, plus one into the
/// base for a copy's key it has not written. Iteration order is no
/// order a reader should show, as for [`IdMap`].
#[derive(Debug)]
pub struct CowMap<K, V> {
    /// Flat: the whole table. A copy: its writes since the base froze;
    /// `None` is a tombstone, and only a base key ever has one.
    own: IdMap<K, Option<V>>,
    base: Base<K, V>,
}

#[derive(Debug)]
enum Base<K, V> {
    /// The whole table is `own`. The cell holds the frozen clone of `own`
    /// that copies read through, made at the first copy and dropped at
    /// the next write.
    Flat(OnceLock<Frozen<K, V>>),
    /// `own` holds the writes over this base.
    Layered(Frozen<K, V>),
}

impl<K, V> Default for Base<K, V> {
    fn default() -> Self {
        Base::Flat(OnceLock::new())
    }
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        CowMap {
            own: IdMap::default(),
            base: Base::default(),
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone> Clone for CowMap<K, V> {
    /// Freezes a flat source once (the clone is cached in it), then
    /// shares its base: a copy allocates nothing until it writes. An
    /// empty table has nothing to share, so its copy is a new empty one.
    fn clone(&self) -> Self {
        match &self.base {
            Base::Flat(_) if self.own.is_empty() => CowMap::default(),
            Base::Flat(frozen) => CowMap {
                own: IdMap::default(),
                base: Base::Layered(Arc::clone(
                    frozen.get_or_init(|| Arc::new(self.own.clone())),
                )),
            },
            Base::Layered(base) => CowMap {
                own: self.own.clone(),
                base: Base::Layered(Arc::clone(base)),
            },
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone> CowMap<K, V> {
    /// The value under `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.own.get(key) {
            Some(v) => v.as_ref(),
            None => match &self.base {
                Base::Layered(base) => base.get(key)?.as_ref(),
                Base::Flat(_) => None,
            },
        }
    }

    /// The value under `key`, to write in place. A copy takes the base's
    /// value into its own writes first.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match &mut self.base {
            Base::Flat(frozen) => {
                frozen.take();
            }
            Base::Layered(base) => {
                if !self.own.contains_key(key) {
                    let v = base.get(key)?.clone();
                    self.own.insert(key.clone(), v);
                    self.fold_if_heavy();
                }
            }
        }
        self.own.get_mut(key)?.as_mut()
    }

    /// Sets `key` to `value`.
    pub fn insert(&mut self, key: K, value: V) {
        self.own.insert(key, Some(value));
        self.wrote();
    }

    /// Removes `key`, returning its value. A copy leaves a tombstone
    /// where the key lives in the base.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let out = match &self.base {
            Base::Layered(base) => match base.get(key) {
                Some(in_base) => {
                    let in_base = in_base.clone();
                    match self.own.insert(key.clone(), None) {
                        Some(written) => written,
                        None => in_base,
                    }
                }
                None => self.own.remove(key).flatten(),
            },
            Base::Flat(_) => self.own.remove(key).flatten(),
        };
        self.wrote();
        out
    }

    /// Removes every entry, keeping the own map's capacity and dropping
    /// any base or frozen clone.
    pub fn clear(&mut self) {
        self.own.clear();
        self.base = Base::default();
    }

    /// Removes every entry and hands them out (unordered).
    pub fn drain(&mut self) -> std::vec::IntoIter<(K, V)> {
        let entries: Vec<(K, V)> = self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        self.clear();
        entries.into_iter()
    }

    /// Number of entries. A copy counts its writes against its base,
    /// one probe per write.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.base {
            Base::Flat(_) => self.own.len(),
            Base::Layered(base) => self.own.iter().fold(base.len(), |len, (k, v)| {
                match (v.is_some(), base.contains_key(k)) {
                    (true, false) => len + 1,
                    (false, true) => len - 1,
                    _ => len,
                }
            }),
        }
    }

    /// Whether the table has no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.base {
            Base::Flat(_) => self.own.is_empty(),
            // Only a base key has a tombstone, so a copy with fewer writes
            // than base entries still holds one of them.
            Base::Layered(base) => self.own.len() >= base.len() && self.len() == 0,
        }
    }

    /// Every entry (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let own = &self.own;
        let base = match &self.base {
            Base::Layered(base) => Some(&**base),
            Base::Flat(_) => None,
        };
        own.iter()
            .chain(
                base.into_iter()
                    .flat_map(move |b| b.iter().filter(move |(k, _)| !own.contains_key(*k))),
            )
            .filter_map(|(k, v)| Some((k, v.as_ref()?)))
    }

    /// Every key (unordered).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// The slots this table reads: its own map's capacity, plus its
    /// base's for a copy. A copy with no writes reads what its source
    /// holds; a source's frozen clone is not counted again.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.own.capacity()
            + match &self.base {
                Base::Layered(base) => base.capacity(),
                Base::Flat(_) => 0,
            }
    }

    /// The keys whose values may differ between `self` and `other`. When
    /// both read one frozen base — two copies of it, or a copy and the
    /// source that froze it and has not written since — that is only the
    /// keys either side wrote since; otherwise it is every key of both.
    /// A key may come twice.
    pub fn diff_keys<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = &'a K> {
        let shared = match (self.frozen(), other.frozen()) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let writes = shared.then(|| self.writes().chain(other.writes()));
        let all = (!shared).then(|| self.keys().chain(other.keys()));
        writes
            .into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
    }

    /// The frozen map this table equals but for [`Self::writes`]: a
    /// copy's base, or a flat table's own frozen clone while it is
    /// current.
    fn frozen(&self) -> Option<&Frozen<K, V>> {
        match &self.base {
            Base::Layered(base) => Some(base),
            Base::Flat(frozen) => frozen.get(),
        }
    }

    /// The keys written since [`Self::frozen`]: a copy's own map, and
    /// none for a flat table (its frozen clone is dropped at a write).
    fn writes(&self) -> impl Iterator<Item = &K> {
        let own = matches!(self.base, Base::Layered(_)).then_some(&self.own);
        own.into_iter().flat_map(IdMap::keys)
    }

    /// After a write: a flat table drops its frozen clone, which no
    /// longer equals it; a copy folds back when its writes got heavy.
    fn wrote(&mut self) {
        match &mut self.base {
            Base::Flat(frozen) => {
                frozen.take();
            }
            Base::Layered(_) => self.fold_if_heavy(),
        }
    }

    /// Folds a copy whose writes pass `1 / FOLD_DIVISOR` of its base into
    /// a flat table: its base (taken whole when no one else reads it)
    /// with its writes applied.
    fn fold_if_heavy(&mut self) {
        let Base::Layered(base) = &self.base else {
            return;
        };
        if self.own.len() * FOLD_DIVISOR <= base.len() {
            return;
        }
        let Base::Layered(base) = std::mem::take(&mut self.base) else {
            unreachable!("checked above");
        };
        let mut flat = Arc::unwrap_or_clone(base);
        for (k, v) in self.own.drain() {
            match v {
                Some(v) => flat.insert(k, Some(v)),
                None => flat.remove(&k),
            };
        }
        self.own = flat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: u32) -> CowMap<u32, u32> {
        let mut m = CowMap::default();
        for k in 0..n {
            m.insert(k, k * 10);
        }
        m
    }

    #[test]
    fn copies_share_one_frozen_base_until_the_source_writes() {
        let mut src = flat(64);
        let a = src.clone();
        let b = src.clone();
        assert!(Arc::ptr_eq(a.frozen().unwrap(), b.frozen().unwrap()));
        assert!(Arc::ptr_eq(a.frozen().unwrap(), src.frozen().unwrap()));
        assert_eq!(a.diff_keys(&src).count(), 0);
        src.insert(1, 0);
        assert!(src.frozen().is_none(), "a write drops the frozen clone");
        let c = src.clone();
        assert!(!Arc::ptr_eq(a.frozen().unwrap(), c.frozen().unwrap()));
        assert_eq!(c.get(&1), Some(&0));
        assert_eq!(a.get(&1), Some(&10));
    }

    #[test]
    fn a_copy_holds_only_its_writes_and_folds_back_when_they_get_heavy() {
        let src = flat(64);
        let mut copy = src.clone();
        assert_eq!(copy.own.capacity(), 0);
        assert_eq!(copy.capacity(), src.capacity());
        copy.insert(100, 1);
        assert_eq!(copy.remove(&3), Some(30));
        assert_eq!(copy.remove(&3), None);
        assert_eq!(copy.own.len(), 2);
        assert_eq!(
            (copy.len(), copy.get(&3), copy.get(&100)),
            (64, None, Some(&1))
        );
        let mut keys: Vec<u32> = copy.diff_keys(&src).copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 100]);
        for k in 200..210 {
            copy.insert(k, k);
        }
        assert!(matches!(copy.base, Base::Flat(_)), "12 writes over 64 fold");
        assert_eq!(copy.len(), 74);
        assert_eq!(copy.diff_keys(&src).count(), 74 + 64, "no shared base");
    }

    #[test]
    fn an_empty_table_copies_without_freezing() {
        let src: CowMap<u32, u32> = CowMap::default();
        let copy = src.clone();
        assert!(src.frozen().is_none() && copy.frozen().is_none());
    }
}
