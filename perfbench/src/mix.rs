//! The three workloads: tenant presets, engine configuration, and the
//! seeded query sequence each closed loop draws from.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rdx_api::{CacheParams, MemoryBudget, QuerySpec, ServeConfig};
use rdx_net::DEFAULT_MAX_PAYLOAD;
use rdx_serve::FairnessPolicy;
use rdx_workload::{MixConfig, QueryMix, Zipf};

/// How the load reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `NetClient` → unix-domain socket → `NetServer`.
    Unix,
    /// `Session` submit / drive / poll on one thread.
    InProcess,
}

/// One workload: a tenant population plus the engine settings it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `(N, ω)` per tenant, hottest first (zipf s = 1 popularity).
    pub tenants: &'static [(usize, usize)],
    pub transport: Transport,
    /// `true`: the cluster cache holds every distinct prefix and is warmed
    /// in set-up, under an unbounded global budget.  `false`: the cache is
    /// off and the global budget is ¼ of the hottest tenant's value bytes.
    pub warm_cache: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wire_warm_zipf",
        tenants: &[
            (1_000_000, 2),
            (300_000, 4),
            (100_000, 1),
            (30_000, 2),
            (1_000_000, 4),
        ],
        transport: Transport::Unix,
        warm_cache: true,
    },
    // The `wire_warm_zipf` mix at a quarter of the rows: at full size a cold
    // query takes ~0.3 s, too few per run for steady figures.
    Workload {
        name: "inproc_cold_budget",
        tenants: &[
            (250_000, 2),
            (75_000, 4),
            (25_000, 1),
            (7_500, 2),
            (250_000, 4),
        ],
        transport: Transport::InProcess,
        warm_cache: false,
    },
    Workload {
        name: "wire_small_hot",
        tenants: &[(20_000, 2), (10_000, 1), (5_000, 2), (2_000, 1)],
        transport: Transport::Unix,
        warm_cache: true,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One distinct query shape: tenant `tenant`, `π` columns from each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    pub tenant: usize,
    pub pi: usize,
}

impl Cell {
    pub fn spec(&self) -> QuerySpec {
        QuerySpec::symmetric(self.pi)
    }
}

/// Range of the seeded starting offset into the query cycle.
const PERIOD: u64 = 1000;

impl Workload {
    /// The tenants' relation pairs, generated from `seed`.
    pub fn generate(&self, seed: u64) -> QueryMix {
        QueryMix::generate(&MixConfig {
            tenants: self.tenants.to_vec(),
            queries: 0,
            zipf_exponent: 1.0,
            seed,
            ..MixConfig::default()
        })
    }

    /// The engine configuration: the `serve_mix` settings, with the cache
    /// and budget this workload calls for.
    pub fn serve_config(&self, mix: &QueryMix) -> ServeConfig {
        let (global_budget, cache_bytes) = if self.warm_cache {
            (MemoryBudget::unbounded(), 1 << 40)
        } else {
            (MemoryBudget::bytes(mix.tenant_data_bytes(0) / 4), 0)
        };
        ServeConfig {
            params: CacheParams::paper_pentium4(),
            global_budget,
            max_concurrent: 4,
            threads_per_query: 1,
            cache_bytes,
            fairness: FairnessPolicy::CostWeighted,
            plan_shares: Some(4),
            ..ServeConfig::default()
        }
    }

    /// Whether `cell`'s result is larger than the client's frame cap on a
    /// socket workload, so its `Done` frame cannot be delivered.  Every
    /// tenant's join returns N rows (hit rate 1).
    pub fn over_frame_cap(&self, cell: Cell) -> bool {
        let rows = self.tenants[cell.tenant].0;
        self.transport == Transport::Unix
            && rows * cell.spec().total() * 4 > DEFAULT_MAX_PAYLOAD as usize
    }

    /// Every `(tenant, π)` of the workload, `π` in `1..=ω`, including the
    /// over-frame-cap cells the measured loop never draws.
    pub fn cells(&self) -> Vec<Cell> {
        self.tenants
            .iter()
            .enumerate()
            .flat_map(|(tenant, &(_, omega))| (1..=omega).map(move |pi| Cell { tenant, pi }))
            .collect()
    }

    /// The first `len` queries of the seeded closed-loop sequence.
    ///
    /// Tenants are interleaved by a smooth weighted round robin over their
    /// zipf (s = 1) weights, so every window of the sequence holds each
    /// tenant in its zipf share to within one query; a tenant's `π` cycles
    /// over the widths in `1..=ω` whose result fits the frame cap.  The
    /// seed picks where in the cycle a run starts.  Runs on different seeds
    /// thus do the same mix of work, so their spread is the host's, not the
    /// draw's.
    pub fn sequence(&self, seed: u64, len: usize) -> Vec<Cell> {
        let zipf = Zipf::new(self.tenants.len(), 1.0);
        let weight: Vec<f64> = (0..self.tenants.len())
            .map(|t| zipf.probability(t))
            .collect();
        let skip = (StdRng::seed_from_u64(seed).next_u64() % PERIOD) as usize;
        let widths: Vec<Vec<usize>> = (0..self.tenants.len())
            .map(|tenant| {
                (1..=self.tenants[tenant].1)
                    .filter(|&pi| !self.over_frame_cap(Cell { tenant, pi }))
                    .collect()
            })
            .collect();
        let mut credit = vec![0.0; self.tenants.len()];
        let mut drawn = vec![0usize; self.tenants.len()];
        let mut out = Vec::with_capacity(len);
        for i in 0..skip + len {
            for (c, w) in credit.iter_mut().zip(&weight) {
                *c += w;
            }
            let tenant = (0..credit.len())
                .max_by(|&a, &b| credit[a].total_cmp(&credit[b]).then(b.cmp(&a)))
                .unwrap_or(0);
            credit[tenant] -= 1.0;
            let pis = &widths[tenant];
            let cell = Cell {
                tenant,
                pi: pis[drawn[tenant] % pis.len()],
            };
            drawn[tenant] += 1;
            if i >= skip {
                out.push(cell);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sequence_is_a_pure_function_of_the_seed() {
        let w = find("wire_warm_zipf").unwrap();
        assert_eq!(w.sequence(3, 500), w.sequence(3, 500));
        assert_ne!(w.sequence(3, 500), w.sequence(4, 500));
    }

    #[test]
    fn every_window_keeps_the_zipf_shares() {
        let w = find("wire_warm_zipf").unwrap();
        let zipf = Zipf::new(5, 1.0);
        for seed in 0..20 {
            let seq = w.sequence(seed, 100);
            for t in 0..5 {
                let n = seq.iter().filter(|c| c.tenant == t).count() as f64;
                let want = 100.0 * zipf.probability(t);
                assert!(
                    (n - want).abs() <= 1.5,
                    "seed {seed} tenant {t}: {n} vs {want}"
                );
            }
        }
        // In process, π cycles through all the tenant's widths.
        let cold = find("inproc_cold_budget").unwrap();
        let pis: Vec<usize> = cold
            .sequence(0, 200)
            .iter()
            .filter(|c| c.tenant == 4)
            .map(|c| c.pi)
            .take(8)
            .collect();
        let mut sorted = pis[..4].to_vec();
        sorted.sort();
        assert_eq!(sorted, vec![1, 2, 3, 4]);
        assert_eq!(pis[..4], pis[4..]);
    }

    #[test]
    fn the_socket_loop_never_draws_an_over_cap_result() {
        let w = find("wire_warm_zipf").unwrap();
        // The 1M x 4 tenant's π = 3 and 4 give 24 and 32 MB results.
        let over: Vec<Cell> = w
            .cells()
            .into_iter()
            .filter(|&c| w.over_frame_cap(c))
            .collect();
        assert_eq!(
            over,
            vec![Cell { tenant: 4, pi: 3 }, Cell { tenant: 4, pi: 4 }]
        );
        for seed in 0..20 {
            let seq = w.sequence(seed, 1000);
            assert!(seq.iter().all(|&c| !w.over_frame_cap(c)), "seed {seed}");
            // The tenant keeps its zipf share; its π cycles over the widths
            // that fit.
            let pis: BTreeSet<usize> = seq.iter().filter(|c| c.tenant == 4).map(|c| c.pi).collect();
            assert_eq!(pis, BTreeSet::from([1, 2]));
        }
        // In process there is no frame cap.
        let cold = find("inproc_cold_budget").unwrap();
        assert!(cold.cells().iter().all(|&c| !cold.over_frame_cap(c)));
    }
}
