//! Multi-group OrderLight packets (paper Section 5.3.1): a packet
//! extended with additional 4-bit memory-group IDs is a *joint* barrier
//! — e.g. when combining partial results from two PIM kernels mapped to
//! different groups — while third-party groups stay unconstrained.
//!
//! The phase-1 work is made deliberately slow (two row switches per
//! group) so that "was held back by the barrier" versus "was free to
//! issue early" is separated by dozens of cycles, not scheduling noise.

use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerCopy, MemReq, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::types::{BankId, ChannelId, GlobalWarpId, MemGroupId, TsSlot};
use orderlight::{PimInstruction, PimOp};
use orderlight_hbm::{Channel, TimingParams};
use orderlight_memctrl::{McConfig, MemoryController};
use orderlight_pim::{PimUnit, TsSize};
use orderlight_trace::{RingSink, TraceEvent};
use std::sync::Arc;

/// A controller with its trace ring, and the address mapping.
fn controller() -> (MemoryController, Arc<RingSink>, AddressMapping) {
    let mapping = AddressMapping::hbm_default();
    // Four groups of four banks: two PIM groups plus a bystander.
    let groups = GroupMap::new(16, 4).expect("valid");
    let cfg = McConfig { mapping: mapping.clone(), groups, ..McConfig::default() };
    let mut mc = MemoryController::new(
        cfg,
        Channel::new(TimingParams::hbm_table1(), 16, 2048),
        PimUnit::new(TsSize::Half, 2048, 16),
    );
    let ring = Arc::new(RingSink::new(1 << 16));
    mc.set_sink(ring.clone(), 0);
    (mc, ring, mapping)
}

fn pim_to(
    mapping: &AddressMapping,
    op: PimOp,
    bank: u8,
    row: u64,
    col: u64,
    group: u8,
    seq: u64,
) -> MemReq {
    let addr = mapping
        .compose(ChannelId(0), mapping.bank_base_offset(BankId(bank)) + row * 2048 + col * 32);
    MemReq::Pim {
        instr: PimInstruction { op, addr, slot: TsSlot(col as u16), group: MemGroupId(group) },
        meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq },
    }
}

fn ol(pkt: OrderLightPacket) -> MemReq {
    MemReq::Marker(MarkerCopy { marker: Marker::OrderLight(pkt), total_copies: 1 })
}

fn drain(mc: &mut MemoryController) {
    let (mut now, mut resps) = (0, Vec::new());
    while !mc.is_idle() {
        mc.tick(now, &mut resps);
        resps.clear();
        now += 1;
        assert!(now < 200_000, "controller wedged");
    }
}

/// Issue cycle of the request with sequence number `seq`.
fn cycle_of(ring: &RingSink, seq: u64) -> u64 {
    ring.events()
        .into_iter()
        .find_map(|e| match e {
            TraceEvent::ReqIssued { cycle, seq: s, .. } if s == seq => Some(cycle),
            _ => None,
        })
        .unwrap_or_else(|| panic!("request {seq} never issued"))
}

#[test]
fn multi_group_packet_is_a_joint_barrier_and_spares_the_third_group() {
    let (mut mc, ring, mapping) = controller();
    // Phase 1: two rows' worth of loads in each PIM group — ~90 memory
    // cycles of work per group. Group 1's work is made slower so the
    // joint barrier visibly holds group 0's store past group 0's own
    // last load.
    let mut seq = 0;
    for row in 0..2 {
        for col in 0..4 {
            seq += 1;
            mc.push(pim_to(&mapping, PimOp::Load, 0, row, col, 0, seq));
        }
    }
    let g0_last_load = seq;
    for row in 0..3 {
        for col in 0..4 {
            seq += 1;
            mc.push(pim_to(&mapping, PimOp::Load, 4, row, col, 1, seq));
        }
    }
    let g1_last_load = seq;
    // One packet constraining groups 0 AND 1.
    let pkt = OrderLightPacket::with_groups(ChannelId(0), MemGroupId(0), &[MemGroupId(1)], 1)
        .expect("two groups fit");
    mc.push(ol(pkt));
    // Phase 2: stores in both groups + a bystander load in group 2.
    let g0_store = seq + 1;
    mc.push(pim_to(&mapping, PimOp::Store, 0, 3, 0, 0, g0_store));
    let g1_store = seq + 2;
    mc.push(pim_to(&mapping, PimOp::Store, 4, 3, 0, 1, g1_store));
    let bystander = seq + 3;
    mc.push(pim_to(&mapping, PimOp::Load, 8, 0, 0, 2, bystander));
    drain(&mut mc);

    // The joint barrier: group 0's store waits for group *1*'s last
    // load, which finishes long after group 0's own loads.
    assert!(cycle_of(&ring, g1_last_load) > cycle_of(&ring, g0_last_load) + 40);
    assert!(
        cycle_of(&ring, g0_store) > cycle_of(&ring, g1_last_load),
        "group-0 store must wait for group-1's pre-packet work (joint barrier)"
    );
    assert!(cycle_of(&ring, g1_store) > cycle_of(&ring, g1_last_load));
    // The bystander group was never constrained: it issued while the
    // slow phase-1 work was still in progress.
    assert!(
        cycle_of(&ring, bystander) < cycle_of(&ring, g1_last_load),
        "group 2 must not be constrained by the group-0/1 packet"
    );
    assert_eq!(mc.stats().ol_packets, 1);
    assert_eq!(mc.stats().sanity_violations, 0);
}

#[test]
fn single_group_packet_does_not_constrain_the_other_pim_group() {
    let (mut mc, ring, mapping) = controller();
    // Slow phase 1 in group 0 only (two row switches).
    let mut seq = 0;
    for row in 0..2 {
        for col in 0..4 {
            seq += 1;
            mc.push(pim_to(&mapping, PimOp::Load, 0, row, col, 0, seq));
        }
    }
    let g0_last_load = seq;
    mc.push(ol(OrderLightPacket::new(ChannelId(0), MemGroupId(0), 1)));
    let g0_store = seq + 1;
    mc.push(pim_to(&mapping, PimOp::Store, 0, 2, 0, 0, g0_store));
    let g1_store = seq + 2;
    mc.push(pim_to(&mapping, PimOp::Store, 4, 0, 0, 1, g1_store));
    drain(&mut mc);

    assert!(cycle_of(&ring, g0_store) > cycle_of(&ring, g0_last_load), "group 0 is ordered");
    assert!(
        cycle_of(&ring, g1_store) < cycle_of(&ring, g0_last_load),
        "the group-1 store must slip past the group-0 barrier"
    );
}
