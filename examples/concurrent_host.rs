//! Fine-grained arbitration in action (paper Sections 3.4-3.5 and
//! 5.3.1): host traffic keeps flowing *while* a PIM kernel saturates the
//! same memory channel, and the memory-group ID in the OrderLight packet
//! decides whether the host is constrained.
//!
//! This example drives one memory controller directly: a vector-add PIM
//! kernel (memory group 0, with OrderLight packets) interleaved with
//! periodic host reads, once to group-1 banks (disjoint group — the
//! paper's intended mapping) and once to group-0 banks (shared group —
//! the host now waits behind every ordering packet).
//!
//! ```text
//! cargo run --release --example concurrent_host
//! ```

use orderlight_suite::core::mapping::{AddressMapping, GroupMap};
use orderlight_suite::core::message::{MemReq, MemResp, ReqMeta};
use orderlight_suite::core::types::{BankId, ChannelId, GlobalWarpId, MemGroupId};
use orderlight_suite::core::{InstrStream, KernelInstr, Reg};
use orderlight_suite::hbm::{Channel, TimingParams};
use orderlight_suite::memctrl::{McConfig, MemoryController};
use orderlight_suite::pim::{PimUnit, TsSize};
use orderlight_suite::sim::system::load_inputs;
use orderlight_suite::workloads::{OrderingMode, WorkloadId, WorkloadInstance};

/// Drives one controller with the PIM stream plus a host read every
/// `host_period` memory cycles to `host_bank`; returns the mean host
/// read latency in memory cycles.
fn run_with_host_bank(host_bank: BankId, host_period: u64) -> f64 {
    let mapping = AddressMapping::hbm_default();
    let groups = GroupMap::default();
    let instance = WorkloadInstance::new(
        WorkloadId::Add,
        mapping.clone(),
        &groups,
        TsSize::Eighth.stripes(2048),
        512,
        OrderingMode::OrderLight,
    );
    let channel_id = ChannelId(0);
    let cfg = McConfig { mapping: mapping.clone(), groups, ..McConfig::default() };
    let channel = Channel::new(TimingParams::hbm_table1(), 16, 2048);
    let pim = PimUnit::new(TsSize::Eighth, 2048, 16);
    let mut mc = MemoryController::new(cfg, channel, pim);
    load_inputs(&instance, channel_id, mc.channel_mut().store_mut());

    // Lower the whole PIM kernel into controller requests up front.
    let pim_warp = GlobalWarpId::new(0, 0);
    let host_warp = GlobalWarpId::new(0, 1);
    let mut stream = instance.pim_stream(channel_id);
    let mut pending: Vec<MemReq> = Vec::new();
    let mut seq = 0;
    let mut ol_number = 0u32;
    while let Some(instr) = stream.next_instr() {
        match instr {
            KernelInstr::Pim(p) => {
                seq += 1;
                pending.push(MemReq::Pim { instr: p, meta: ReqMeta { warp: pim_warp, seq } });
            }
            KernelInstr::Ordering(_) => {
                ol_number += 1;
                pending.push(MemReq::Marker(orderlight::message::MarkerCopy {
                    marker: orderlight::message::Marker::OrderLight(
                        orderlight::packet::OrderLightPacket::new(
                            channel_id,
                            MemGroupId(0),
                            ol_number,
                        ),
                    ),
                    total_copies: 1,
                }));
            }
            _ => unreachable!("PIM streams contain only PIM/ordering instructions"),
        }
    }
    pending.reverse(); // pop from the back

    let host_base = mapping.bank_base_offset(host_bank);
    let (mut now, mut resps) = (0u64, Vec::new());
    let mut issued_host = Vec::new();
    let mut latencies = Vec::new();
    let mut host_seq = 0u64;
    let mut host_stripe = 0u64;
    while !(pending.is_empty() && mc.is_idle()) || issued_host.len() > latencies.len() {
        // Feed the PIM kernel as fast as the controller accepts it.
        while let Some(req) = pending.last() {
            if !mc.can_accept(req) {
                break;
            }
            let req = pending.pop().expect("checked non-empty");
            mc.push(req);
        }
        // Periodic host read.
        if now.is_multiple_of(host_period) {
            host_stripe += 1;
            let addr = mapping.compose(channel_id, host_base + host_stripe * 32);
            host_seq += 1;
            let req = MemReq::HostRead {
                addr,
                reg: Reg(0),
                meta: ReqMeta { warp: host_warp, seq: host_seq },
            };
            if mc.can_accept(&req) {
                mc.push(req);
                issued_host.push(now);
            }
        }
        mc.tick(now, &mut resps);
        for resp in resps.drain(..) {
            if let MemResp::LoadData { warp, .. } = resp {
                if warp == host_warp {
                    latencies.push(now - issued_host[latencies.len()]);
                }
            }
        }
        now += 1;
        assert!(now < 10_000_000, "controller wedged");
    }
    latencies.iter().sum::<u64>() as f64 / latencies.len().max(1) as f64
}

fn main() {
    println!("Concurrent host accesses during a PIM kernel (one channel, OrderLight)\n");
    let disjoint = run_with_host_bank(BankId(8), 200);
    let shared = run_with_host_bank(BankId(0), 200);
    println!(
        "  host reads to memory group 1 (disjoint from PIM): mean latency {disjoint:>7.1} memory cycles"
    );
    println!(
        "  host reads to memory group 0 (shared with PIM)  : mean latency {shared:>7.1} memory cycles"
    );
    println!(
        "\n  sharing the PIM group costs the host {:.1}x higher latency — the",
        shared / disjoint
    );
    println!("  memory-group ID in the OrderLight packet (paper Figure 8) exists");
    println!("  precisely so non-PIM requests are never constrained.");
}
