//! The benchmark's workloads and the seeded inputs they run.
//!
//! Every workload is a fixed multiset of scenarios; the seed only
//! chooses an order (sweeps) or each client's request sequence (serve). Simulated totals and the result digest therefore do not
//! depend on the seed, while host timing sees a different schedule for
//! every seed.

use orderlight::rng::Rng;
use orderlight_pim::TsSize;
use orderlight_sim::{ExecMode, ScenarioSpec};
use orderlight_workloads::{OrderingMode, WorkloadId};

/// KiB per data structure per channel for the PIM sweeps: deep enough
/// FR-FCFS queues that controller and HBM work dominate OrderLight runs.
pub const PIM_SWEEP_KB: u64 = 64;
/// Data sizes of the GPU host sweep: the working set grows 16x across
/// them, so L2 behaviour and build cost vary within one sweep.
pub const GPU_SWEEP_KB: [u64; 3] = [4, 16, 64];
/// KiB per structure of every served scenario.
pub const SERVE_KB: u64 = 8;
/// The five ordering backends a PIM request can select.
pub const PIM_BACKENDS: [OrderingMode; 5] = [
    OrderingMode::Fence,
    OrderingMode::OrderLight,
    OrderingMode::SeqNum,
    OrderingMode::LouvreVersioned,
    OrderingMode::BulkBitwiseStrong,
];
/// Closed-loop clients driving the service.
pub const CLIENTS: usize = 2;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 12 kernels x 4 TS sizes under OrderLight.
    PimOrderLight,
    /// The same 48 points under fences.
    PimFence,
    /// All 12 kernels on the GPU host at several data sizes.
    GpuHost,
    /// Hot and cold requests against an in-process scenario service.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::PimOrderLight, Workload::PimFence, Workload::GpuHost, Workload::ServeMix];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PimOrderLight => "pim-orderlight",
            Workload::PimFence => "pim-fence",
            Workload::GpuHost => "gpu-host",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed multiset of scenarios the workload simulates: the
    /// sweep's points, or the served universe for `serve-mix`.
    #[must_use]
    pub fn scenarios(self) -> Vec<ScenarioSpec> {
        let pim_sweep = |mode| {
            let mut points = Vec::new();
            for wl in WorkloadId::ALL {
                for ts in TsSize::ALL {
                    points.push(spec(wl, ExecMode::Pim(mode), ts, PIM_SWEEP_KB));
                }
            }
            points
        };
        match self {
            Workload::PimOrderLight => pim_sweep(OrderingMode::OrderLight),
            Workload::PimFence => pim_sweep(OrderingMode::Fence),
            Workload::GpuHost => {
                let mut points = Vec::new();
                for kb in GPU_SWEEP_KB {
                    for wl in WorkloadId::ALL {
                        points.push(spec(wl, ExecMode::Gpu, TsSize::Eighth, kb));
                    }
                }
                points
            }
            Workload::ServeMix => {
                let mut points = Vec::new();
                for mode in PIM_BACKENDS {
                    for wl in WorkloadId::ALL {
                        for ts in TsSize::ALL {
                            points.push(spec(wl, ExecMode::Pim(mode), ts, SERVE_KB));
                        }
                    }
                }
                points
            }
        }
    }
}

/// A scenario's canonical wire form: its identity in digests, reference
/// lookups and failure messages.
#[must_use]
pub fn key(spec: &ScenarioSpec) -> String {
    spec.to_value().to_json()
}

fn spec(workload: WorkloadId, mode: ExecMode, ts: TsSize, kb: u64) -> ScenarioSpec {
    ScenarioSpec { mode, ts, data_bytes_per_channel: kb * 1024, ..ScenarioSpec::new(workload) }
}

/// Yields a fresh seeded permutation of a sweep's points for every
/// pass, so that over a run the pool sees many different schedules.
pub struct PassOrder {
    points: Vec<ScenarioSpec>,
    rng: Rng,
}

impl PassOrder {
    /// The pass-order stream for `points` under `seed`.
    #[must_use]
    pub fn new(points: Vec<ScenarioSpec>, seed: u64) -> PassOrder {
        PassOrder { points, rng: Rng::new(seed ^ 0x7377_6565_7073) }
    }

    /// The next pass's point order.
    pub fn next_pass(&mut self) -> Vec<ScenarioSpec> {
        let mut order = self.points.clone();
        self.rng.shuffle(&mut order);
        order
    }
}

/// One request a serve client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The scenario asked for.
    pub spec: ScenarioSpec,
    /// Whether the scenario was asked before, so the reply should be cached.
    pub hot: bool,
}

/// The seeded serve schedule. It follows the service's documented use
/// (EXPERIMENTS.md, "Watching a sweep land on the daemon"): a sweep's
/// points are submitted once, then the sweep is run again and every
/// point is answered from the cache. So each scenario of the universe
/// is asked twice, once cold and once cached, for a hit ratio of 0.5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    /// Per-client request sequences. The universe is dealt round-robin
    /// in a seeded order. A client asks its share cold, then asks the
    /// same scenarios again in a fresh seeded order. It re-asks only
    /// what it has been answered itself, so every re-ask is cached
    /// whatever the other clients are doing.
    pub clients: Vec<Vec<Request>>,
}

impl ServePlan {
    /// The plan for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ServePlan {
        let mut rng = Rng::new(seed ^ 0x0073_6572_7665);
        let mut universe = Workload::ServeMix.scenarios();
        rng.shuffle(&mut universe);
        let mut clients = vec![Vec::new(); CLIENTS];
        for (i, &spec) in universe.iter().enumerate() {
            clients[i % CLIENTS].push(Request { spec, hot: false });
        }
        for requests in &mut clients {
            let mut rerun: Vec<Request> =
                requests.iter().map(|r| Request { hot: true, ..*r }).collect();
            rng.shuffle(&mut rerun);
            requests.extend(rerun);
        }
        ServePlan { clients }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_keys(specs: &[ScenarioSpec]) -> Vec<String> {
        let mut keys: Vec<String> = specs.iter().map(key).collect();
        keys.sort();
        keys
    }

    #[test]
    fn a_seed_reproduces_its_point_orders_and_requests() {
        for w in [Workload::PimOrderLight, Workload::PimFence, Workload::GpuHost] {
            let mut a = PassOrder::new(w.scenarios(), 17);
            let mut b = PassOrder::new(w.scenarios(), 17);
            for _ in 0..3 {
                assert_eq!(a.next_pass(), b.next_pass(), "{}", w.name());
            }
        }
        assert_eq!(ServePlan::new(17), ServePlan::new(17));
    }

    #[test]
    fn seeds_change_the_order_but_not_the_multiset() {
        for w in [Workload::PimOrderLight, Workload::PimFence, Workload::GpuHost] {
            let a = PassOrder::new(w.scenarios(), 1).next_pass();
            let b = PassOrder::new(w.scenarios(), 2).next_pass();
            assert_ne!(a, b, "{}", w.name());
            assert_eq!(sorted_keys(&a), sorted_keys(&b), "{}", w.name());
            assert_eq!(sorted_keys(&a), sorted_keys(&w.scenarios()), "{}", w.name());
        }
        let (a, b) = (ServePlan::new(1), ServePlan::new(2));
        assert_ne!(a.clients, b.clients);
        let asked = |p: &ServePlan, hot: bool| {
            let specs: Vec<ScenarioSpec> =
                p.clients.iter().flatten().filter(|r| r.hot == hot).map(|r| r.spec).collect();
            sorted_keys(&specs)
        };
        for hot in [false, true] {
            assert_eq!(asked(&a, hot), asked(&b, hot));
            assert_eq!(asked(&a, hot), sorted_keys(&Workload::ServeMix.scenarios()));
        }
    }

    #[test]
    fn two_seeds_give_the_same_digest_and_cycles() {
        let sample: Vec<ScenarioSpec> =
            Workload::ServeMix.scenarios().into_iter().step_by(20).collect();
        let fold = |seed| {
            let mut digest = crate::check::Digest::default();
            let mut cycles = 0;
            for spec in PassOrder::new(sample.clone(), seed).next_pass() {
                let stats = crate::sweep::timed_point(&spec).unwrap().stats;
                digest.add(&spec, &crate::check::stats_json(&stats));
                cycles += stats.core_cycles;
            }
            (digest, cycles)
        };
        assert_eq!(fold(1), fold(2));
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(Workload::PimOrderLight.scenarios().len(), 48);
        assert_eq!(Workload::PimFence.scenarios().len(), 48);
        assert_eq!(Workload::GpuHost.scenarios().len(), 36);
        let universe = Workload::ServeMix.scenarios();
        assert_eq!(universe.len(), 240);
        assert_eq!(sorted_keys(&universe).windows(2).filter(|w| w[0] == w[1]).count(), 0);
        // Each client re-asks exactly its own cold scenarios, after all
        // of them.
        for requests in ServePlan::new(9).clients {
            let (cold, hot) = requests.split_at(requests.len() / 2);
            assert!(cold.iter().all(|r| !r.hot) && hot.iter().all(|r| r.hot));
            let keys = |rs: &[Request]| sorted_keys(&rs.iter().map(|r| r.spec).collect::<Vec<_>>());
            assert_eq!(keys(cold), keys(hot));
            assert_ne!(
                cold.iter().map(|r| r.spec).collect::<Vec<_>>(),
                hot.iter().map(|r| r.spec).collect::<Vec<_>>()
            );
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
