//! A generation-indexed slab allocator for hot-path message arenas.
//!
//! The memory pipe and controller move packets through several bounded
//! queues; storing the packet bodies once in a [`Slab`] and threading
//! 8-byte [`SlabRef`] handles through the queues turns every hop into a
//! small copy and keeps the bodies in a dense, reused allocation — no
//! per-packet heap churn.
//!
//! Handles are *generation-indexed*: each slot carries a generation
//! counter bumped on every [`Slab::remove`], and a handle is only valid
//! while its generation matches the slot's. A stale handle (the ABA
//! case: slot freed and reused by a different packet) is therefore a
//! detectable logic error — `get`/`remove` panic instead of silently
//! returning the wrong packet.

/// A generation-indexed handle into a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabRef {
    idx: u32,
    gen: u32,
}

/// One slot: the live generation plus the value, if occupied.
#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// A slab allocator handing out [`SlabRef`] handles.
///
/// Freed slots go on a free list and are reused LIFO, so a steady-state
/// pipeline touches the same few cache lines forever. Insertion order
/// and reuse order are fully deterministic — two runs performing the
/// same operations produce the same handles.
///
/// # Example
///
/// ```
/// use orderlight::slab::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), &"alpha");
/// assert_eq!(slab.remove(b), "beta");
/// assert_eq!(slab.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Slab { slots: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// Creates an empty slab with room for `cap` values before growing.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Slab { slots: Vec::with_capacity(cap), free: Vec::new(), len: 0 }
    }

    /// Number of live values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no values are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `val`, returning its handle.
    ///
    /// # Panics
    /// Panics if the slab would exceed `u32::MAX` slots.
    #[inline]
    pub fn insert(&mut self, val: T) -> SlabRef {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.val.is_none(), "free-listed slot was occupied");
            slot.val = Some(val);
            SlabRef { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab exceeded u32::MAX slots");
            self.slots.push(Slot { gen: 0, val: Some(val) });
            SlabRef { idx, gen: 0 }
        }
    }

    /// The slot a live handle points at, or a panic message for a stale
    /// or foreign one.
    fn slot(&self, r: SlabRef) -> &Slot<T> {
        let slot = &self.slots[r.idx as usize];
        assert!(slot.gen == r.gen && slot.val.is_some(), "stale slab handle {r:?}");
        slot
    }

    /// Borrows the value behind `r`.
    ///
    /// # Panics
    /// Panics if `r` is stale (its value was removed, even if the slot
    /// was since reused — the generation check catches ABA reuse).
    #[must_use]
    #[inline]
    pub fn get(&self, r: SlabRef) -> &T {
        self.slot(r).val.as_ref().expect("checked occupied")
    }

    /// Mutably borrows the value behind `r`.
    ///
    /// # Panics
    /// Panics if `r` is stale.
    #[inline]
    pub fn get_mut(&mut self, r: SlabRef) -> &mut T {
        let slot = &mut self.slots[r.idx as usize];
        assert!(slot.gen == r.gen && slot.val.is_some(), "stale slab handle {r:?}");
        slot.val.as_mut().expect("checked occupied")
    }

    /// Removes and returns the value behind `r`, bumping the slot's
    /// generation so every outstanding copy of `r` becomes stale.
    ///
    /// # Panics
    /// Panics if `r` is stale.
    #[inline]
    pub fn remove(&mut self, r: SlabRef) -> T {
        let slot = &mut self.slots[r.idx as usize];
        assert!(slot.gen == r.gen && slot.val.is_some(), "stale slab handle {r:?}");
        let val = slot.val.take().expect("checked occupied");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.len -= 1;
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert(1u32);
        let b = slab.insert(2u32);
        assert_eq!(slab.len(), 2);
        assert_eq!(*slab.get(a), 1);
        assert_eq!(*slab.get(b), 2);
        *slab.get_mut(a) = 10;
        assert_eq!(slab.remove(a), 10);
        assert_eq!(slab.remove(b), 2);
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_reused_lifo_and_deterministically() {
        let mut slab = Slab::new();
        let a = slab.insert('a');
        let b = slab.insert('b');
        slab.remove(a);
        slab.remove(b);
        // LIFO reuse: the most recently freed slot comes back first.
        let c = slab.insert('c');
        let d = slab.insert('d');
        assert_eq!(c.idx, b.idx);
        assert_eq!(d.idx, a.idx);
        assert_eq!(*slab.get(c), 'c');
        assert_eq!(*slab.get(d), 'd');
    }

    #[test]
    #[should_panic(expected = "stale slab handle")]
    fn stale_handle_detected_after_remove() {
        let mut slab = Slab::new();
        let a = slab.insert(7);
        slab.remove(a);
        let _ = slab.get(a);
    }

    #[test]
    #[should_panic(expected = "stale slab handle")]
    fn aba_reuse_is_caught_by_the_generation() {
        let mut slab = Slab::new();
        let a = slab.insert(7);
        slab.remove(a);
        // The slot is reused by a different value; the old handle must
        // NOT alias it.
        let b = slab.insert(8);
        assert_eq!(b.idx, a.idx, "precondition: same slot reused");
        let _ = slab.get(a);
    }
}
