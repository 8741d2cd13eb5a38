//! Component micro-benchmarks: the hot inner structures of the
//! simulator (bank state machine, channel issue, OrderLight packet
//! codec, copy-and-merge FSM, kernel generation).

use criterion::{criterion_group, criterion_main, Criterion};
use orderlight::fsm::{diverge, MergeFsm};
use orderlight::mapping::{AddressMapping, GroupMap};
use orderlight::message::Marker;
use orderlight::packet::OrderLightPacket;
use orderlight::types::{BankId, ChannelId, MemGroupId};
use orderlight::InstrStream;
use orderlight_hbm::{Channel, ColKind, DramCommand, TimingParams};
use orderlight_workloads::{OrderingMode, WorkloadId, WorkloadInstance};
use std::hint::black_box;

fn bench_packet_codec(c: &mut Criterion) {
    c.bench_function("packet_encode_decode", |b| {
        b.iter(|| {
            let pkt = OrderLightPacket::new(ChannelId(5), MemGroupId(1), black_box(12345));
            let decoded = OrderLightPacket::decode(pkt.encode()).expect("valid");
            black_box(decoded.number())
        });
    });
}

fn bench_merge_fsm(c: &mut Criterion) {
    c.bench_function("copy_merge_fsm", |b| {
        b.iter(|| {
            let mut fsm = MergeFsm::new();
            let mut merged = 0;
            for n in 0..64u32 {
                let marker =
                    Marker::OrderLight(OrderLightPacket::new(ChannelId(0), MemGroupId(0), n));
                for copy in diverge(marker, 2) {
                    if fsm.on_copy(&copy).is_some() {
                        merged += 1;
                    }
                }
            }
            black_box(merged)
        });
    });
}

fn bench_dram_stream(c: &mut Criterion) {
    c.bench_function("dram_write_stream_1k_rows", |b| {
        b.iter(|| {
            let mut ch = Channel::new(TimingParams::hbm_table1(), 16, 2048);
            let mut now = 0u64;
            for row in 0..1000u32 {
                while !ch.try_issue(DramCommand::Activate { bank: BankId(0), row }, now) {
                    now += 1;
                }
                let mut writes = 0;
                while writes < 8 {
                    if ch.try_issue(DramCommand::column(BankId(0), ColKind::Write), now) {
                        writes += 1;
                    }
                    now += 1;
                }
                while !ch.try_issue(DramCommand::Precharge { bank: BankId(0) }, now) {
                    now += 1;
                }
            }
            black_box(ch.col_commands())
        });
    });
}

fn bench_kernel_generation(c: &mut Criterion) {
    c.bench_function("pim_kernel_gen_add_16k_instrs", |b| {
        let inst = WorkloadInstance::new(
            WorkloadId::Add,
            AddressMapping::hbm_default(),
            &GroupMap::default(),
            8,
            4096,
            OrderingMode::OrderLight,
        );
        b.iter(|| {
            let mut stream = inst.pim_stream(ChannelId(0));
            let mut n = 0u64;
            while stream.next_instr().is_some() {
                n += 1;
            }
            black_box(n)
        });
    });
}

fn bench_controller_tick(c: &mut Criterion) {
    use orderlight::message::{MemReq, ReqMeta};
    use orderlight::types::{Addr, GlobalWarpId, TsSlot};
    use orderlight::{PimInstruction, PimOp};
    use orderlight_memctrl::{McConfig, MemoryController};
    use orderlight_pim::{PimUnit, TsSize};

    c.bench_function("memctrl_drain_64_loads", |b| {
        b.iter(|| {
            let cfg = McConfig::default();
            let mut mc = MemoryController::new(
                cfg,
                Channel::new(TimingParams::hbm_table1(), 16, 2048),
                PimUnit::new(TsSize::Eighth, 2048, 16),
            );
            for i in 0..64u64 {
                mc.push(MemReq::Pim {
                    instr: PimInstruction {
                        op: PimOp::Load,
                        addr: Addr(i * 32),
                        slot: TsSlot((i % 8) as u16),
                        group: MemGroupId(0),
                    },
                    meta: ReqMeta { warp: GlobalWarpId(0), seq: i },
                });
            }
            let (mut now, mut resps) = (0, Vec::new());
            while !mc.is_idle() {
                mc.tick(now, &mut resps);
                resps.clear();
                now += 1;
            }
            black_box(now)
        });
    });
}

fn bench_pipe_tick(c: &mut Criterion) {
    use orderlight::message::{MemReq, ReqMeta};
    use orderlight::types::{Addr, GlobalWarpId, TsSlot};
    use orderlight::{PimInstruction, PimOp};
    use orderlight_noc::{MemoryPipe, PipeConfig};

    c.bench_function("pipe_transit_64_requests", |b| {
        b.iter(|| {
            let mut pipe = MemoryPipe::new(&PipeConfig::default());
            let mut fed = 0u64;
            let mut got = 0u64;
            let mut now = 0u64;
            while got < 64 {
                if fed < 64 && pipe.can_push() {
                    pipe.push_request(
                        MemReq::Pim {
                            instr: PimInstruction {
                                op: PimOp::Load,
                                addr: Addr(fed * 32),
                                slot: TsSlot(0),
                                group: MemGroupId(0),
                            },
                            meta: ReqMeta { warp: GlobalWarpId(0), seq: fed },
                        },
                        now,
                    );
                    fed += 1;
                }
                pipe.tick(now);
                while pipe.pop_mc(now).is_some() {
                    got += 1;
                }
                now += 1;
            }
            black_box(now)
        });
    });
}

criterion_group!(
    benches,
    bench_packet_codec,
    bench_merge_fsm,
    bench_dram_stream,
    bench_kernel_generation,
    bench_controller_tick,
    bench_pipe_tick
);
criterion_main!(benches);
