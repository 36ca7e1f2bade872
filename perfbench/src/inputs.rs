//! Workload definitions and the seed-derived inputs the rank bodies see.
//!
//! The seed picks three things and nothing else: the rank permutation
//! behind the neighbour and collective roles, the payload and reduction
//! value patterns, and the collective roots. The permutation keeps the
//! machine's shape (hosts, containers, ranks within a container are each
//! shuffled as blocks), so every seed exercises the same mix of
//! intra-container, intra-host and inter-host edges and only *which*
//! ranks play each role changes.

use bytes::Bytes;
use cmpi_cluster::{DeploymentScenario, NamespaceSharing};

/// Neighbour offsets of the windowed halo exchange (in role space).
pub const HALO_OFFSETS: [usize; 4] = [1, 2, 4, 8];
/// Messages per neighbour per step (one per tag).
pub const HALO_WINDOW: u32 = 4;
/// Halo message size.
pub const HALO_BYTES: usize = 1024;
/// `u64` words of the per-step halo allreduce (2 KiB).
pub const HALO_REDUCE_WORDS: usize = 256;

/// `coll64` sizes, chosen on both sides of the default 8 KiB SHM eager
/// and 17 KiB HCA eager thresholds (64 KiB is rendezvous on both).
pub const BCAST_BYTES: usize = 64 * 1024;
/// `u64` words of `reduce`/`allreduce` (16 KiB).
pub const REDUCE_WORDS: usize = 2048;
/// `u64` words each rank contributes to `gather` (2 KiB).
pub const GATHER_WORDS: usize = 256;
/// `u64` words each rank contributes to `allgather` (512 B).
pub const ALLGATHER_WORDS: usize = 64;
/// `u64` words per destination block of `alltoall` (128 B).
pub const ALLTOALL_WORDS: usize = 16;

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 32 ranks, the job32 body: small-message eager path.
    Halo32,
    /// 64 ranks, all seven collectives: selector, two-level variants,
    /// rendezvous copies.
    Coll64,
    /// 4096 ranks, a few halo steps: bring-up and teardown.
    Scale4096,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Halo32, Workload::Coll64, Workload::Scale4096];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Halo32 => "halo32",
            Workload::Coll64 => "coll64",
            Workload::Scale4096 => "scale4096",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `(hosts, containers per host, ranks per container)`.
    pub fn shape(self) -> (u32, u32, u32) {
        match self {
            Workload::Halo32 => (2, 2, 8),
            Workload::Coll64 => (4, 2, 8),
            Workload::Scale4096 => (256, 2, 8),
        }
    }

    pub fn ranks(self) -> usize {
        let (h, c, r) = self.shape();
        (h * c * r) as usize
    }

    /// Steps one job runs.
    pub fn steps(self) -> usize {
        match self {
            Workload::Halo32 => 3000,
            Workload::Coll64 => 200,
            Workload::Scale4096 => 4,
        }
    }

    /// Fiber stack size; `None` keeps the engine default.
    pub fn stack_kib(self) -> Option<usize> {
        match self {
            Workload::Scale4096 => Some(128),
            _ => None,
        }
    }

    /// Words per role in the shared value table.
    pub fn words(self) -> usize {
        match self {
            Workload::Coll64 => REDUCE_WORDS,
            _ => HALO_REDUCE_WORDS,
        }
    }

    pub fn scenario(self) -> DeploymentScenario {
        let (h, c, r) = self.shape();
        DeploymentScenario::containers(h, c, r, NamespaceSharing::default())
    }
}

/// SplitMix64: the benchmark's only random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n ≪ 2^32, so the modulo bias is negligible).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a job's ranks read: generated once per job, before
/// `JobSpec::run`, and shared read-only.
pub struct Inputs {
    pub workload: Workload,
    pub n: usize,
    /// role → physical rank.
    pub rank_of_role: Vec<usize>,
    /// physical rank → role.
    pub role_of_rank: Vec<usize>,
    /// Per step: `[bcast, reduce, gather]` roots (physical ranks).
    pub roots: Vec<[usize; 3]>,
    /// Payload pattern key.
    salt: u64,
    /// Seeded payloads, built before the job so no rank generates them
    /// inside its timed body: `coll64` holds each role's broadcast
    /// buffer, the halo workloads each (role, tag) message.
    payloads: Vec<Bytes>,
    /// `n × words` contribution values, role-major, each below 2^32 so
    /// sums over 4096 ranks plus the step offset cannot overflow.
    base: Vec<u64>,
    /// Column sums of `base` (the expected reductions at step 0).
    pub sums: Vec<u64>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let (hosts, conts, per) = workload.shape();
        let (hosts, conts, per) = (hosts as usize, conts as usize, per as usize);
        let n = workload.ranks();
        // Block-structured permutation: role block (h, c) → physical
        // (host_perm[h], cont_perm[h][c]), slot s → slot_perm[..][s].
        let mut host_perm: Vec<usize> = (0..hosts).collect();
        rng.shuffle(&mut host_perm);
        let mut rank_of_role = Vec::with_capacity(n);
        for &ph in &host_perm {
            let mut cont_perm: Vec<usize> = (0..conts).collect();
            rng.shuffle(&mut cont_perm);
            for &pc in &cont_perm {
                let mut slots: Vec<usize> = (0..per).collect();
                rng.shuffle(&mut slots);
                rank_of_role.extend(slots.iter().map(|&s| (ph * conts + pc) * per + s));
            }
        }
        let mut role_of_rank = vec![0; n];
        for (role, &rank) in rank_of_role.iter().enumerate() {
            role_of_rank[rank] = role;
        }
        let roots = (0..workload.steps())
            .map(|_| [rng.below(n), rng.below(n), rng.below(n)])
            .collect();
        let salt = rng.next_u64();
        let words = workload.words();
        let mut base = Vec::with_capacity(n * words);
        for role in 0..n {
            for i in 0..words {
                base.push(value(salt, role, i));
            }
        }
        let mut sums = vec![0u64; words];
        for row in base.chunks_exact(words) {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        let payloads = match workload {
            Workload::Coll64 => (0..n).map(|i| pattern(salt, i, BCAST_BYTES)).collect(),
            _ => (0..n * HALO_WINDOW as usize)
                .map(|i| pattern(salt, i, HALO_BYTES))
                .collect(),
        };
        Inputs {
            workload,
            n,
            rank_of_role,
            role_of_rank,
            roots,
            salt,
            payloads,
            base,
            sums,
        }
    }

    /// A fingerprint of everything the seed chose.
    pub fn digest(&self) -> u64 {
        let mut h = mix(self.salt);
        let fold = |h: u64, v: usize| mix(h ^ v as u64);
        h = self.rank_of_role.iter().fold(h, |h, &r| fold(h, r));
        self.roots.iter().flatten().fold(h, |h, &r| fold(h, r))
    }

    /// The halo message `role` sends with `tag`.
    pub fn halo_payload(&self, role: usize, tag: u32) -> &Bytes {
        &self.payloads[role * HALO_WINDOW as usize + tag as usize]
    }

    /// The buffer `role` broadcasts when it is the root.
    pub fn bcast_payload(&self, role: usize) -> &Bytes {
        &self.payloads[role]
    }

    /// The contribution row of `role`.
    pub fn row(&self, role: usize) -> &[u64] {
        let w = self.workload.words();
        &self.base[role * w..(role + 1) * w]
    }
}

/// Contribution value `i` of `role`: below 2^32.
fn value(salt: u64, role: usize, i: usize) -> u64 {
    mix(salt ^ ((role as u64) << 32) ^ i as u64) >> 32
}

/// `len` pseudo-random bytes keyed by `(salt, key)`.
fn pattern(salt: u64, key: usize, len: usize) -> Bytes {
    let k = mix(salt ^ 0xA5A5_0000_0000_0000 ^ key as u64);
    (0..len as u64 / 8)
        .flat_map(|i| mix(k.wrapping_add(i)).to_le_bytes())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection_that_keeps_the_machine_shape() {
        for w in Workload::ALL {
            let inp = Inputs::generate(w, 7);
            let mut seen = vec![false; inp.n];
            for &r in &inp.rank_of_role {
                assert!(!seen[r]);
                seen[r] = true;
            }
            let per = w.shape().2 as usize;
            // Roles of one block share a container.
            for block in inp.rank_of_role.chunks(per) {
                assert!(block.iter().all(|&r| r / per == block[0] / per));
            }
        }
    }

    #[test]
    fn one_seed_reproduces_its_inputs_and_two_seeds_differ() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 1);
            let b = Inputs::generate(w, 1);
            let c = Inputs::generate(w, 2);
            assert_eq!(a.rank_of_role, b.rank_of_role);
            assert_eq!(a.roots, b.roots);
            assert_eq!(a.base, b.base);
            assert_ne!(a.rank_of_role, c.rank_of_role);
            assert_ne!(a.roots, c.roots);
            assert_ne!(a.base, c.base);
            assert_eq!(a.payloads, b.payloads);
            assert_ne!(a.payloads, c.payloads);
        }
    }
}
