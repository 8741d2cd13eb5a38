//! Conventional-GPU (host) kernel generator — the paper's "GPU Time"
//! baseline bars in Figure 10b.
//!
//! The same per-tile phase program is lowered to conventional loads,
//! in-core SIMD computes and stores. Ordering comes for free from
//! register dependences (the host sees its own load data), at the cost
//! of moving every byte across the memory pipe at host bandwidth —
//! which is exactly what PIM avoids.
//!
//! Tiles are sized for memory-level parallelism rather than TS: `K`
//! loads issue back-to-back into distinct registers before the dependent
//! computes consume them.

use crate::kernel::{Addressing, KernelSpec, Lcg, Phase, RandomPer};
use crate::layout::Layout;
use orderlight::types::ChannelId;
use orderlight::{InstrStream, KernelInstr, Reg};
use std::collections::VecDeque;

/// Host tile size in stripes (bounded by the register budget: `K`
/// accumulators + `K` fetch operands out of 64 registers).
pub const HOST_TILE: u64 = 16;

/// The host (conventional GPU) instruction-stream generator.
#[derive(Debug, Clone)]
pub struct HostKernelGen {
    spec: KernelSpec,
    layout: Layout,
    channel: ChannelId,
    total_stripes: u64,
    tile: u64,
    tile_stride: u64,
    n_tiles: u64,
    phase_idx: usize,
    emit_final: bool,
    final_emitted: bool,
    buf: VecDeque<KernelInstr>,
    rng: Lcg,
}

impl HostKernelGen {
    /// Creates a host generator covering `total_stripes` per structure.
    ///
    /// # Panics
    /// Panics if the spec is invalid or `total_stripes` is zero.
    #[must_use]
    pub fn new(spec: KernelSpec, layout: Layout, channel: ChannelId, total_stripes: u64) -> Self {
        HostKernelGen::with_slice(spec, layout, channel, total_stripes, 0, 1)
    }

    /// Creates the generator for warp `slice` of `slices` cooperating
    /// warps on this channel: tiles are dealt round-robin, and only
    /// slice 0 emits the optional final accumulator store.
    ///
    /// # Panics
    /// Panics if the spec is invalid, `total_stripes` is zero, or
    /// `slice >= slices`.
    #[must_use]
    pub fn with_slice(
        spec: KernelSpec,
        layout: Layout,
        channel: ChannelId,
        total_stripes: u64,
        slice: u64,
        slices: u64,
    ) -> Self {
        spec.validate().expect("kernel spec must be valid");
        assert!(total_stripes > 0, "empty kernel");
        assert!(slice < slices, "slice index out of range");
        let n_tiles = total_stripes.div_ceil(HOST_TILE);
        HostKernelGen {
            spec,
            layout,
            channel,
            total_stripes,
            tile: slice,
            tile_stride: slices,
            n_tiles,
            phase_idx: 0,
            emit_final: slice == 0,
            final_emitted: false,
            buf: VecDeque::new(),
            rng: Lcg(0xD1B5_4A32_D192_ED03 ^ u64::from(channel.0) ^ (slice << 8)),
        }
    }

    fn stripes_in_tile(&self, tile: u64) -> u64 {
        (self.total_stripes - tile * HOST_TILE).min(HOST_TILE)
    }

    /// Accumulator register for tile stripe `s`.
    fn acc(s: u64) -> Reg {
        Reg(s as u8)
    }

    /// Fetch-operand register for tile stripe `s`.
    fn operand(s: u64) -> Reg {
        Reg((HOST_TILE + s) as u8)
    }

    fn random_stripe(&mut self, span_rows: u64, run: u64) -> u64 {
        let spr = self.layout.mapping().stripes_per_row();
        let span_stripes = (span_rows.min(self.layout.rows_per_structure()) * spr).max(run);
        self.rng.next() % (span_stripes - run + 1)
    }

    fn refill(&mut self) {
        if self.tile >= self.n_tiles {
            return;
        }
        let n = self.stripes_in_tile(self.tile);
        let base = self.tile * HOST_TILE;
        let phase = self.spec.phases[self.phase_idx];
        match phase {
            Phase::Load { structure } => {
                for s in 0..n {
                    let addr = self.layout.addr(self.channel, structure, base + s);
                    self.buf.push_back(KernelInstr::Load { addr, reg: Self::acc(s) });
                }
            }
            Phase::FetchOp { op, structure, addressing } => {
                let tile_base = match addressing {
                    Addressing::Sequential => base,
                    Addressing::Random { per: RandomPer::Tile, span_rows } => {
                        self.random_stripe(span_rows, n)
                    }
                    Addressing::Random { per: RandomPer::Stripe, .. } => 0,
                };
                // All operand loads first (memory-level parallelism)...
                for s in 0..n {
                    let stripe = match addressing {
                        Addressing::Random { per: RandomPer::Stripe, span_rows } => {
                            self.random_stripe(span_rows, 1)
                        }
                        _ => tile_base + s,
                    };
                    let addr = self.layout.addr(self.channel, structure, stripe);
                    self.buf.push_back(KernelInstr::Load { addr, reg: Self::operand(s) });
                }
                // ...then the dependent combines.
                for s in 0..n {
                    self.buf.push_back(KernelInstr::Compute {
                        op,
                        dst: Self::acc(s),
                        a: Self::acc(s),
                        b: Self::operand(s),
                    });
                }
            }
            Phase::Exec { op, per_stripe, stride } => {
                for s in (0..n).step_by(stride as usize) {
                    for _ in 0..per_stripe {
                        self.buf.push_back(KernelInstr::Compute {
                            op,
                            dst: Self::acc(s),
                            a: Self::acc(s),
                            b: Self::acc(s),
                        });
                    }
                }
            }
            Phase::Store { structure } => {
                for s in 0..n {
                    let addr = self.layout.addr(self.channel, structure, base + s);
                    self.buf.push_back(KernelInstr::Store { addr, reg: Self::acc(s) });
                }
            }
        }
        self.phase_idx += 1;
        if self.phase_idx == self.spec.phases.len() {
            self.phase_idx = 0;
            self.tile += self.tile_stride;
        }
    }
}

impl HostKernelGen {
    /// Emits the post-run accumulator store, if the spec asks for one.
    fn emit_final_store(&mut self) {
        if !self.emit_final {
            self.final_emitted = true;
            return;
        }
        let Some(structure) = self.spec.final_store else {
            self.final_emitted = true;
            return;
        };
        let n = HOST_TILE.min(self.total_stripes);
        for s in 0..n {
            let addr = self.layout.addr(self.channel, structure, s);
            self.buf.push_back(KernelInstr::Store { addr, reg: Self::acc(s) });
        }
        self.final_emitted = true;
    }
}

impl InstrStream for HostKernelGen {
    fn next_instr(&mut self) -> Option<KernelInstr> {
        while self.buf.is_empty() && self.tile < self.n_tiles {
            self.refill();
        }
        if self.buf.is_empty() && !self.final_emitted {
            self.emit_final_store();
        }
        self.buf.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orderlight::mapping::{AddressMapping, GroupMap};
    use orderlight::types::MemGroupId;
    use orderlight::AluOp;

    fn add_spec() -> KernelSpec {
        KernelSpec {
            name: "add",
            phases: vec![
                Phase::Load { structure: 0 },
                Phase::FetchOp { op: AluOp::Add, structure: 1, addressing: Addressing::Sequential },
                Phase::Store { structure: 2 },
            ],
            structures: 3,
            tile_cap: None,
            ordering_chunk: None,
            final_store: None,
        }
    }

    fn layout() -> Layout {
        Layout::new(AddressMapping::hbm_default(), &GroupMap::default(), MemGroupId(0), 3, 64)
    }

    fn collect(mut g: HostKernelGen) -> Vec<KernelInstr> {
        let mut v = Vec::new();
        while let Some(i) = g.next_instr() {
            v.push(i);
        }
        v
    }

    #[test]
    fn host_add_tile_structure() {
        let g = HostKernelGen::new(add_spec(), layout(), ChannelId(0), 32);
        let instrs = collect(g);
        // 2 tiles of 16: per tile 16 loads + (16 loads + 16 computes) +
        // 16 stores = 64.
        assert_eq!(instrs.len(), 128);
        let loads = instrs.iter().filter(|i| matches!(i, KernelInstr::Load { .. })).count();
        let computes = instrs.iter().filter(|i| matches!(i, KernelInstr::Compute { .. })).count();
        let stores = instrs.iter().filter(|i| matches!(i, KernelInstr::Store { .. })).count();
        assert_eq!((loads, computes, stores), (64, 32, 32));
        assert_eq!(instrs.iter().filter(|i| i.is_ordering()).count(), 0);
    }

    #[test]
    fn operand_loads_precede_dependent_computes() {
        let g = HostKernelGen::new(add_spec(), layout(), ChannelId(0), 16);
        let instrs = collect(g);
        // Within the fetch phase (after the 16 accumulator loads), the
        // 16 operand loads all come before the 16 computes.
        let fetch_phase = &instrs[16..48];
        assert!(fetch_phase[..16].iter().all(|i| matches!(i, KernelInstr::Load { .. })));
        assert!(fetch_phase[16..].iter().all(|i| matches!(i, KernelInstr::Compute { .. })));
    }

    #[test]
    fn registers_stay_in_budget() {
        let g = HostKernelGen::new(add_spec(), layout(), ChannelId(0), 64);
        for i in collect(g) {
            let regs = match i {
                KernelInstr::Load { reg, .. } | KernelInstr::Store { reg, .. } => vec![reg],
                KernelInstr::Compute { dst, a, b, .. } => vec![dst, a, b],
                _ => vec![],
            };
            for r in regs {
                assert!((r.0 as u64) < 2 * HOST_TILE, "register {r} out of budget");
            }
        }
    }

    #[test]
    fn deterministic() {
        let mk = || HostKernelGen::new(add_spec(), layout(), ChannelId(2), 48);
        assert_eq!(collect(mk()), collect(mk()));
    }
}
