//! Randomized test of the controller's ordering guarantee: for any
//! random multi-phase PIM program, the final DRAM contents under
//! OrderLight equal a sequential interpretation — i.e. the FR-FCFS
//! scheduler, free as it is to chase row hits, never reorders *across*
//! a packet within the constrained group.
//!
//! Programs come from the in-tree deterministic PRNG
//! ([`orderlight::rng::Rng`]) so every run exercises the same cases.

use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerCopy, MemReq, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::rng::Rng;
use orderlight::types::{ChannelId, GlobalWarpId, MemGroupId, Stripe, TsSlot};
use orderlight::{AluOp, PimInstruction, PimOp};
use orderlight_hbm::{Channel, TimingParams};
use orderlight_memctrl::{McConfig, MemoryController};
use orderlight_pim::{PimUnit, TsSize};
use std::collections::HashMap;

/// One random phase over a 4-slot tile.
#[derive(Debug, Clone, Copy)]
enum PhaseKind {
    Load(u8),
    FetchAdd(u8),
    Store(u8),
}

fn phase(rng: &mut Rng) -> PhaseKind {
    let row = rng.gen_range(6) as u8;
    match rng.gen_range(3) {
        0 => PhaseKind::Load(row),
        1 => PhaseKind::FetchAdd(row),
        _ => PhaseKind::Store(row),
    }
}

#[test]
fn orderlight_forces_sequential_semantics() {
    let mut rng = Rng::new(0x0bdf);
    for case in 0..64 {
        let n_phases = 1 + rng.gen_index(23);
        let phases: Vec<PhaseKind> = (0..n_phases).map(|_| phase(&mut rng)).collect();

        let mapping = AddressMapping::hbm_default();
        let cfg = McConfig {
            mapping: mapping.clone(),
            groups: GroupMap::default(),
            ..McConfig::default()
        };
        let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
        let pim = PimUnit::new(TsSize::Sixteenth, 2048, 1);
        let mut mc = MemoryController::new(cfg, channel, pim);

        // Init six rows of distinct data (rows of bank 0, channel 0).
        let addr =
            |row: u8, col: u64| mapping.compose(ChannelId(0), u64::from(row) * 2048 + col * 32);
        let mut golden_mem: HashMap<u64, Stripe> = HashMap::new();
        for row in 0..6u8 {
            for col in 0..4u64 {
                let a = addr(row, col);
                let v = Stripe::splat(u32::from(row) * 100 + col as u32 + 1);
                let loc = mapping.decode(a);
                mc.channel_mut().store_mut().write(loc.bank, loc.row, loc.col, v);
                golden_mem.insert(a.0, v);
            }
        }

        // Lower the phases into requests with an OrderLight packet after
        // each phase, and interpret them sequentially for the golden.
        let warp = GlobalWarpId::new(0, 0);
        let mut golden_ts = [Stripe::default(); 4];
        let mut reqs = Vec::new();
        let mut seq = 0u64;
        let mut number = 0u32;
        for ph in &phases {
            for slot in 0..4u64 {
                seq += 1;
                let (op, row) = match *ph {
                    PhaseKind::Load(r) => (PimOp::Load, r),
                    PhaseKind::FetchAdd(r) => (PimOp::Compute(AluOp::Add), r),
                    PhaseKind::Store(r) => (PimOp::Store, r),
                };
                let a = addr(row, slot);
                reqs.push(MemReq::Pim {
                    instr: PimInstruction {
                        op,
                        addr: a,
                        slot: TsSlot(slot as u16),
                        group: MemGroupId(0),
                    },
                    meta: ReqMeta { warp, seq },
                });
                // Golden sequential semantics.
                let mem = golden_mem.get(&a.0).copied().unwrap_or_default();
                match op {
                    PimOp::Load => golden_ts[slot as usize] = mem,
                    PimOp::Compute(alu) => {
                        golden_ts[slot as usize] = alu.apply(golden_ts[slot as usize], mem);
                    }
                    PimOp::Store => {
                        golden_mem.insert(a.0, golden_ts[slot as usize]);
                    }
                    PimOp::Execute(_) => unreachable!(),
                }
            }
            number += 1;
            reqs.push(MemReq::Marker(MarkerCopy {
                marker: Marker::OrderLight(OrderLightPacket::new(
                    ChannelId(0),
                    MemGroupId(0),
                    number,
                )),
                total_copies: 1,
            }));
        }

        // Feed and drain.
        let (mut now, mut resps) = (0u64, Vec::new());
        let mut iter = reqs.into_iter().peekable();
        while iter.peek().is_some() || !mc.is_idle() {
            while let Some(req) = iter.peek() {
                if !mc.can_accept(req) {
                    break;
                }
                mc.push(iter.next().expect("peeked"));
            }
            mc.tick(now, &mut resps);
            resps.clear();
            now += 1;
            assert!(now < 2_000_000, "case {case}: controller wedged");
        }

        // The simulated DRAM must match the sequential interpretation.
        for (a, v) in &golden_mem {
            let loc = mapping.decode(orderlight::types::Addr(*a));
            assert_eq!(
                mc.channel().store().read(loc.bank, loc.row, loc.col),
                *v,
                "case {case}: address {a:#x} diverged from sequential semantics"
            );
        }
        assert_eq!(mc.stats().sanity_violations, 0);
    }
}
