//! Generation-checked slabs: how the host holds what a region owns — its
//! host buffers and its launch ticket — only while the region is live.
//!
//! A [`Slab`] hands out [`Key`]s: a slot index and the generation the slot
//! was at when the value went in. Removing a value bumps its slot's
//! generation and puts the slot back on a free list, so the next insert
//! reuses it and a key kept past its removal no longer matches anything —
//! a stale key is a lookup miss, never another value. A slot whose
//! generation would wrap is never handed out again. Slot indices stop one
//! short of `u32::MAX`, and an insert past that is `None`: the caller's
//! typed error, never an id minted by truncation.

use std::fmt;

/// A slot of the host's buffer or ticket table and the generation it was
/// handed out at ([`crate::BufId`], [`crate::Ticket`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    pub slot: u32,
    pub gen: u32,
}

impl Key {
    /// A key no slab hands out: slot indices stop below `u32::MAX`.
    pub const NONE: Key = Key { slot: u32::MAX, gen: u32::MAX };
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.slot, self.gen)
    }
}

struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// Values under generation-checked keys, in slots that are reused.
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Vacant slots that may be handed out again, most recently freed last.
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab { slots: Vec::new(), free: Vec::new(), live: 0 }
    }
}

impl<T> Slab<T> {
    /// Store `val` in the most recently freed slot, or a new one; `None`
    /// when every slot index is taken.
    pub fn insert(&mut self, val: T) -> Option<Key> {
        let key = match self.free.pop() {
            Some(slot) => {
                let s = self.slots.get_mut(slot as usize)?;
                s.val = Some(val);
                Key { slot, gen: s.gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).ok().filter(|&s| s < Key::NONE.slot)?;
                self.slots.push(Slot { gen: 0, val: Some(val) });
                Key { slot, gen: 0 }
            }
        };
        self.live += 1;
        Some(key)
    }

    pub fn get(&self, k: Key) -> Option<&T> {
        self.slots.get(k.slot as usize).filter(|s| s.gen == k.gen)?.val.as_ref()
    }

    pub fn get_mut(&mut self, k: Key) -> Option<&mut T> {
        self.slots.get_mut(k.slot as usize).filter(|s| s.gen == k.gen)?.val.as_mut()
    }

    /// Move the value out and free its slot; `None` for a stale key.
    pub fn remove(&mut self, k: Key) -> Option<T> {
        let s = self.slots.get_mut(k.slot as usize).filter(|s| s.gen == k.gen)?;
        let val = s.val.take()?;
        if let Some(gen) = s.gen.checked_add(1) {
            s.gen = gen;
            self.free.push(k.slot);
        }
        self.live -= 1;
        Some(val)
    }

    /// Values held.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Slots ever handed out: what the slab's storage is sized by.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_slot_is_reused_and_its_stale_key_matches_nothing() {
        let mut s = Slab::default();
        let a = s.insert("a").unwrap();
        let b = s.insert("b").unwrap();
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None, "a stale key misses");
        assert_eq!(s.remove(a), None, "a stale key frees nothing");
        let c = s.insert("c").unwrap();
        assert_eq!((c.slot, c.gen), (a.slot, a.gen + 1), "the freed slot comes back");
        assert_eq!((s.get(a), s.get(c), s.get(b)), (None, Some(&"c"), Some(&"b")));
        assert_eq!((s.len(), s.slots()), (2, 2));
        assert_eq!(s.get(Key::NONE), None);
    }

    #[test]
    fn a_slot_whose_generation_would_wrap_is_retired() {
        let mut s = Slab::default();
        let a = s.insert(1).unwrap();
        s.slots[0].gen = u32::MAX;
        let top = Key { gen: u32::MAX, ..a };
        assert_eq!(s.remove(top), Some(1));
        let b = s.insert(2).unwrap();
        assert_eq!(b.slot, 1, "the exhausted slot is never handed out again");
        assert_eq!((s.get(top), s.get(b)), (None, Some(&2)));
    }
}
