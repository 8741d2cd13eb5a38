//! Recreates the *behaviour* contrasted in paper Figure 7: with a
//! fence, the host stalls between every phase of the vector-add tile
//! while the ordering round-trips through the memory; with OrderLight,
//! the whole tile streams to the controller and the packets enforce the
//! phase boundaries there.
//!
//! Prints the memory controller's issue trace for one tile under both
//! primitives, with the stall the core pays in between.

use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::{Marker, MarkerCopy, MemReq, ReqMeta};
use orderlight::packet::OrderLightPacket;
use orderlight::types::{ChannelId, GlobalWarpId, MemGroupId, TsSlot};
use orderlight::{AluOp, PimInstruction, PimOp};
use orderlight_hbm::{Channel, TimingParams};
use orderlight_memctrl::{McConfig, MemoryController};
use orderlight_pim::{PimUnit, TsSize};

const N: u64 = 4;

fn mc() -> (MemoryController, AddressMapping) {
    let mapping = AddressMapping::hbm_default();
    let cfg = McConfig {
        mapping: mapping.clone(),
        groups: GroupMap::default(),
        trace: true,
        ..McConfig::default()
    };
    let mc = MemoryController::new(
        cfg,
        Channel::new(TimingParams::hbm_table1(), 16, 2048),
        PimUnit::new(TsSize::Sixteenth, 2048, 16),
    );
    (mc, mapping)
}

fn phase(mapping: &AddressMapping, op: PimOp, row: u64, base_seq: u64) -> Vec<MemReq> {
    (0..N)
        .map(|i| MemReq::Pim {
            instr: PimInstruction {
                op,
                addr: mapping.compose(ChannelId(0), row * 2048 + i * 32),
                slot: TsSlot(i as u16),
                group: MemGroupId(0),
            },
            meta: ReqMeta { warp: GlobalWarpId::new(0, 0), seq: base_seq + i },
        })
        .collect()
}

fn marker(number: u32) -> MemReq {
    MemReq::Marker(MarkerCopy {
        marker: Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), number)),
        total_copies: 1,
    })
}

fn drain(mc: &mut MemoryController, now: &mut u64) {
    let mut resps = Vec::new();
    while !mc.is_idle() {
        mc.tick(*now, &mut resps);
        resps.clear();
        *now += 1;
    }
}

fn print_trace(mc: &MemoryController) {
    for r in mc.trace() {
        println!("    cycle {:>4}: {}", r.cycle, r.what);
    }
}

fn main() {
    // The Figure 4 tile: load a (row 0), fetch-and-add b (row 1),
    // store c (row 2).
    println!("One vector_add tile (N = {N} stripes), memory-controller issue trace\n");

    println!("(a) fence: the core sends one phase, then STALLS for the round trip");
    println!("    (probe down the pipe + acknowledgement back, ~440+ core cycles)\n");
    let (mut m, mapping) = mc();
    let mut now = 0;
    let mut stall_note = Vec::new();
    for (p, (op, row)) in [(PimOp::Load, 0u64), (PimOp::Compute(AluOp::Add), 1), (PimOp::Store, 2)]
        .into_iter()
        .enumerate()
    {
        for req in phase(&mapping, op, row, p as u64 * N) {
            m.push(req);
        }
        let start = now;
        drain(&mut m, &mut now);
        stall_note.push(now - start);
    }
    print_trace(&m);
    println!("    core idle between phases (memory cycles): {:?}\n", stall_note);

    println!("(b) OrderLight: the core streams the whole tile, packets between phases;");
    println!("    the controller enforces each boundary locally — the core never waits\n");
    let (mut m, mapping) = mc();
    for req in phase(&mapping, PimOp::Load, 0, 0) {
        m.push(req);
    }
    m.push(marker(1));
    for req in phase(&mapping, PimOp::Compute(AluOp::Add), 1, N) {
        m.push(req);
    }
    m.push(marker(2));
    for req in phase(&mapping, PimOp::Store, 2, 2 * N) {
        m.push(req);
    }
    m.push(marker(3));
    let mut now = 0;
    drain(&mut m, &mut now);
    print_trace(&m);
    println!("\n    total: fence tile spanned the three stalls above; the OrderLight tile");
    println!("    finished in {now} memory cycles with zero core wait (paper Figure 7).");
}
