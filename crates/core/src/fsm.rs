//! Copy-and-merge finite state machines for memory-pipe divergence points
//! (paper Figure 9, Section 5.3.2).
//!
//! When an ordering marker reaches a point where the memory pipe diverges
//! (L2 sub-partitions; the memory controller's separate read/write
//! queues), the *divergence FSM* replicates it onto every relevant
//! sub-path. Requests that follow the marker on any sub-path must not
//! proceed past the paired convergence point until every copy has arrived
//! there; the *convergence FSM* collects copies and re-emits the merged
//! marker exactly once.

use crate::message::{Marker, MarkerCopy, MarkerKey};
use std::collections::HashMap;

/// Replicates a marker onto `n_paths` sub-paths.
///
/// Returns one [`MarkerCopy`] per sub-path, each annotated with the total
/// copy count the downstream [`MergeFsm`] must collect.
///
/// # Panics
/// Panics if `n_paths` is zero or exceeds `u8::MAX`.
#[must_use]
pub fn diverge(marker: Marker, n_paths: usize) -> Vec<MarkerCopy> {
    assert!(n_paths > 0, "divergence requires at least one sub-path");
    let total = u8::try_from(n_paths).expect("at most 255 sub-paths");
    (0..n_paths).map(|_| MarkerCopy { marker: marker.clone(), total_copies: total }).collect()
}

/// The convergence-point state machine.
///
/// Tracks, per marker identity, how many copies have arrived; once the
/// count reaches the copy total, the merged marker is released. The FSM is
/// agnostic to which sub-path each copy arrived on.
///
/// # Example
///
/// ```
/// use orderlight::fsm::{diverge, MergeFsm};
/// use orderlight::message::Marker;
/// use orderlight::packet::OrderLightPacket;
/// use orderlight::types::{ChannelId, MemGroupId};
///
/// let marker = Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), 1));
/// let copies = diverge(marker.clone(), 2);
/// let mut fsm = MergeFsm::new();
/// assert_eq!(fsm.on_copy(&copies[0]), None);
/// assert_eq!(fsm.on_copy(&copies[1]), Some(marker));
/// ```
#[derive(Debug, Default, Clone)]
pub struct MergeFsm {
    arrived: HashMap<MarkerKey, u8>,
}

impl MergeFsm {
    /// Creates an empty convergence FSM.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the arrival of one marker copy.
    ///
    /// Returns `Some(marker)` exactly once per marker — when the final
    /// copy arrives — and `None` otherwise. A single-copy marker (no real
    /// divergence) merges immediately.
    pub fn on_copy(&mut self, copy: &MarkerCopy) -> Option<Marker> {
        let key = copy.marker.key();
        let count = self.arrived.entry(key).or_insert(0);
        *count += 1;
        if *count >= copy.total_copies {
            self.arrived.remove(&key);
            Some(copy.marker.clone())
        } else {
            None
        }
    }

    /// Number of marker identities still awaiting copies.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.arrived.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::OrderLightPacket;
    use crate::types::{ChannelId, GlobalWarpId, MemGroupId};

    fn ol(number: u32) -> Marker {
        Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number))
    }

    #[test]
    fn diverge_produces_annotated_copies() {
        let copies = diverge(ol(1), 4);
        assert_eq!(copies.len(), 4);
        assert!(copies.iter().all(|c| c.total_copies == 4));
    }

    #[test]
    #[should_panic(expected = "at least one sub-path")]
    fn diverge_zero_paths_panics() {
        let _ = diverge(ol(1), 0);
    }

    #[test]
    fn merge_fires_exactly_once_on_last_copy() {
        let mut fsm = MergeFsm::new();
        let copies = diverge(ol(7), 3);
        assert_eq!(fsm.on_copy(&copies[0]), None);
        assert_eq!(fsm.on_copy(&copies[1]), None);
        assert_eq!(fsm.pending(), 1);
        assert_eq!(fsm.on_copy(&copies[2]), Some(ol(7)));
        assert_eq!(fsm.pending(), 0);
    }

    #[test]
    fn single_copy_merges_immediately() {
        let mut fsm = MergeFsm::new();
        let copies = diverge(ol(1), 1);
        assert_eq!(fsm.on_copy(&copies[0]), Some(ol(1)));
    }

    #[test]
    fn interleaved_markers_do_not_cross_talk() {
        let mut fsm = MergeFsm::new();
        let a = diverge(ol(1), 2);
        let b = diverge(ol(2), 2);
        assert_eq!(fsm.on_copy(&a[0]), None);
        assert_eq!(fsm.on_copy(&b[0]), None);
        assert_eq!(fsm.pending(), 2);
        assert_eq!(fsm.on_copy(&b[1]), Some(ol(2)));
        assert_eq!(fsm.on_copy(&a[1]), Some(ol(1)));
    }

    #[test]
    fn fence_probes_merge_too() {
        let mut fsm = MergeFsm::new();
        let probe = Marker::FenceProbe {
            warp: GlobalWarpId::new(0, 0),
            fence_id: 42,
            channel: ChannelId(3),
        };
        let copies = diverge(probe.clone(), 2);
        assert_eq!(fsm.on_copy(&copies[0]), None);
        assert_eq!(fsm.on_copy(&copies[1]), Some(probe));
    }
}
