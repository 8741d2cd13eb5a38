//! Integration test of the copy-and-merge protocol across *both*
//! divergence points (L2 sub-partitions, then the controller's separate
//! read/write queues), driving a pipe + controller pair directly.

use orderlight_suite::core::mapping::{AddressMapping, GroupMap};
use orderlight_suite::core::message::{Marker, MarkerCopy, MemReq, ReqMeta};
use orderlight_suite::core::packet::OrderLightPacket;
use orderlight_suite::core::types::{Addr, ChannelId, GlobalWarpId, MemGroupId, TsSlot};
use orderlight_suite::core::{PimInstruction, PimOp};
use orderlight_suite::hbm::{Channel, TimingParams};
use orderlight_suite::memctrl::{McConfig, MemoryController};
use orderlight_suite::noc::{MemoryPipe, PipeConfig};
use orderlight_suite::pim::{PimUnit, TsSize};

fn pim(op: PimOp, addr: Addr, slot: u16, seq: u64) -> MemReq {
    MemReq::Pim {
        instr: PimInstruction { op, addr, slot: TsSlot(slot), group: MemGroupId(0) },
        meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq },
    }
}

fn marker(number: u32) -> MemReq {
    MemReq::Marker(MarkerCopy {
        marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
        total_copies: 1,
    })
}

/// Phase boundaries must hold end-to-end: loads (row 0) -> packet ->
/// store (row 1) -> packet -> loads (row 0 again, juicy row hits the
/// scheduler would love to reorder). The store must issue before the
/// post-packet loads even though every queue and sub-partition between
/// the SM and the DRAM got a chance to reorder them.
#[test]
fn ordering_survives_both_divergence_points() {
    let mapping = AddressMapping::hbm_default();
    let cfg =
        McConfig { mapping: mapping.clone(), groups: GroupMap::default(), ..McConfig::default() };
    let mut mc = MemoryController::new(
        cfg,
        Channel::new(TimingParams::hbm_table1(), 16, 2048),
        PimUnit::new(TsSize::Half, 2048, 16),
    );
    let mut pipe = MemoryPipe::new(&PipeConfig::default());

    let row0 = |i: u64| mapping.compose(ChannelId(0), i * 32);
    let row1 = mapping.compose(ChannelId(0), 2048);
    // Stripes 0 and 1 land in different L2 sub-partitions, exercising
    // the copy-and-merge at the slice as well as at the R/W queues.
    pipe.push_request(pim(PimOp::Load, row0(0), 0, 1), 0);
    pipe.push_request(pim(PimOp::Load, row0(1), 1, 2), 0);
    pipe.push_request(marker(1), 0);
    pipe.push_request(pim(PimOp::Store, row1, 0, 3), 0);
    pipe.push_request(marker(2), 0);
    pipe.push_request(pim(PimOp::Load, row0(2), 2, 4), 0);
    pipe.push_request(pim(PimOp::Load, row0(3), 3, 5), 0);

    let (mut now, mut resps) = (0u64, Vec::new());
    let mut write_at = None;
    let mut third_read_at = None;
    while !(pipe.is_empty() && mc.is_idle()) {
        pipe.tick(now);
        while let Some(head) = pipe.peek_mc(now) {
            if !mc.can_accept(head) {
                break;
            }
            let req = pipe.pop_mc(now).expect("peeked");
            mc.push(req);
        }
        mc.tick(now, &mut resps);
        resps.clear();
        let s = mc.stats();
        if s.col_writes == 1 && write_at.is_none() {
            write_at = Some(now);
        }
        if s.col_reads >= 3 && third_read_at.is_none() {
            third_read_at = Some(now);
        }
        now += 1;
        assert!(now < 1_000_000, "pipe+controller wedged");
    }
    assert_eq!(pipe.l2_merges(), 2, "both packets merged at the L2 slice");
    assert_eq!(mc.stats().ol_packets, 2, "both packets merged at the scheduler");
    assert!(
        write_at.expect("store issued") < third_read_at.expect("loads issued"),
        "the store must reach DRAM before any post-packet load"
    );
}

/// Fence probes also survive both divergence points and produce exactly
/// one acknowledgement.
#[test]
fn fence_probe_acks_once_through_the_pipe() {
    let mapping = AddressMapping::hbm_default();
    let cfg =
        McConfig { mapping: mapping.clone(), groups: GroupMap::default(), ..McConfig::default() };
    let mut mc = MemoryController::new(
        cfg,
        Channel::new(TimingParams::hbm_table1(), 16, 2048),
        PimUnit::new(TsSize::Half, 2048, 16),
    );
    let mut pipe = MemoryPipe::new(&PipeConfig::default());
    for i in 0..4u64 {
        pipe.push_request(pim(PimOp::Load, mapping.compose(ChannelId(0), i * 32), i as u16, i), 0);
    }
    pipe.push_request(
        MemReq::Marker(MarkerCopy {
            marker: Marker::FenceProbe {
                warp: GlobalWarpId::new(0, 0),
                fence_id: 7,
                channel: ChannelId(0),
            },
            total_copies: 1,
        }),
        0,
    );
    let (mut now, mut resps) = (0u64, Vec::new());
    let mut acks = 0;
    while !(pipe.is_empty() && mc.is_idle()) {
        pipe.tick(now);
        while let Some(head) = pipe.peek_mc(now) {
            if !mc.can_accept(head) {
                break;
            }
            let req = pipe.pop_mc(now).expect("peeked");
            mc.push(req);
        }
        mc.tick(now, &mut resps);
        for resp in resps.drain(..) {
            pipe.push_response(resp, now);
        }
        while let Some(resp) = pipe.pop_response(now) {
            if matches!(resp, orderlight_suite::core::MemResp::FenceAck { fence_id: 7, .. }) {
                acks += 1;
            }
        }
        now += 1;
        assert!(now < 1_000_000);
    }
    assert_eq!(acks, 1);
    assert_eq!(mc.stats().col_reads, 4, "all loads issued before the ack path drained");
}
