//! Hierarchical IPv4 address pools.
//!
//! Real backbone traffic concentrates in a small number of prefixes at
//! every granularity — the property that makes iterative refinement
//! (/8 → /16 → /32) pay off. [`AddressSpace`] reproduces it by growing
//! a random prefix tree: a few /8s, a few /16s under each, a few /24s
//! under each of those, and finally hosts. Popularity is Zipf at the
//! host level, so the per-prefix aggregate is heavy-tailed too.

use crate::distributions::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for growing an address pool.
#[derive(Debug, Clone, Copy)]
pub struct AddressSpaceConfig {
    /// Number of /8 prefixes in use.
    pub slash8s: usize,
    /// /16s per /8.
    pub slash16s_per_8: usize,
    /// /24s per /16.
    pub slash24s_per_16: usize,
    /// Hosts per /24.
    pub hosts_per_24: usize,
    /// Zipf exponent for host popularity.
    pub zipf_s: f64,
}

impl Default for AddressSpaceConfig {
    fn default() -> Self {
        AddressSpaceConfig {
            slash8s: 12,
            slash16s_per_8: 8,
            slash24s_per_16: 6,
            hosts_per_24: 16,
            zipf_s: 1.05,
        }
    }
}

/// A pool of IPv4 addresses with hierarchical structure and Zipf
/// popularity.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    hosts: Vec<u32>,
    popularity: Zipf,
}

impl AddressSpace {
    /// Grow a pool from the config, deterministically from `seed`.
    pub fn generate(cfg: &AddressSpaceConfig, seed: u64) -> Self {
        assert!(
            (1..=200).contains(&cfg.slash8s)
                && (1..=256).contains(&cfg.slash16s_per_8)
                && (1..=256).contains(&cfg.slash24s_per_16)
                && (1..=254).contains(&cfg.hosts_per_24),
            "address space config out of range: {cfg:?}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hosts = Vec::new();
        let mut used8: Vec<u8> = Vec::new();
        for _ in 0..cfg.slash8s {
            // Distinct, routable-looking first octets (avoid 0, 10, 127, >223).
            let o1 = loop {
                let c: u8 = rng.gen_range(1..=223);
                if c != 10 && c != 127 && !used8.contains(&c) {
                    break c;
                }
            };
            used8.push(o1);
            let mut used16: Vec<u8> = Vec::new();
            for _ in 0..cfg.slash16s_per_8 {
                let o2 = loop {
                    let c: u8 = rng.gen();
                    if !used16.contains(&c) {
                        break c;
                    }
                };
                used16.push(o2);
                let mut used24: Vec<u8> = Vec::new();
                for _ in 0..cfg.slash24s_per_16 {
                    let o3 = loop {
                        let c: u8 = rng.gen();
                        if !used24.contains(&c) {
                            break c;
                        }
                    };
                    used24.push(o3);
                    let mut used_host: Vec<u8> = Vec::new();
                    for _ in 0..cfg.hosts_per_24 {
                        let o4 = loop {
                            let c: u8 = rng.gen_range(1..=254);
                            if !used_host.contains(&c) {
                                break c;
                            }
                        };
                        used_host.push(o4);
                        hosts.push(u32::from_be_bytes([o1, o2, o3, o4]));
                    }
                }
            }
        }
        // Shuffle so Zipf rank is uncorrelated with prefix layout:
        // popular hosts scatter across prefixes rather than all landing
        // in the first /8.
        for i in (1..hosts.len()).rev() {
            let j = rng.gen_range(0..=i);
            hosts.swap(i, j);
        }
        let popularity = Zipf::new(hosts.len(), cfg.zipf_s);
        AddressSpace { hosts, popularity }
    }

    /// Total number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// All hosts (rank order, not popularity order).
    pub fn hosts(&self) -> &[u32] {
        &self.hosts
    }

    /// Sample an address by Zipf popularity.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.hosts[self.popularity.sample(rng)]
    }

    /// A fixed, deterministic pick: the host at `rank` in popularity
    /// order. Useful for choosing stable attack victims.
    pub fn nth(&self, rank: usize) -> u32 {
        self.hosts[rank % self.hosts.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generates_expected_host_count() {
        let cfg = AddressSpaceConfig {
            slash8s: 3,
            slash16s_per_8: 4,
            slash24s_per_16: 5,
            hosts_per_24: 6,
            zipf_s: 1.0,
        };
        let a = AddressSpace::generate(&cfg, 1);
        assert_eq!(a.len(), 3 * 4 * 5 * 6);
        // All hosts distinct.
        let set: BTreeSet<u32> = a.hosts().iter().copied().collect();
        assert_eq!(set.len(), a.len());
    }

    #[test]
    fn hierarchy_is_concentrated() {
        let a = AddressSpace::generate(&AddressSpaceConfig::default(), 2);
        let cfg = AddressSpaceConfig::default();
        let slash8s: BTreeSet<u32> = a.hosts().iter().map(|h| h >> 24).collect();
        let slash16s: BTreeSet<u32> = a.hosts().iter().map(|h| h >> 16).collect();
        assert_eq!(slash8s.len(), cfg.slash8s);
        assert_eq!(slash16s.len(), cfg.slash8s * cfg.slash16s_per_8);
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let cfg = AddressSpaceConfig::default();
        let a = AddressSpace::generate(&cfg, 7);
        let b = AddressSpace::generate(&cfg, 7);
        let c = AddressSpace::generate(&cfg, 8);
        assert_eq!(a.hosts(), b.hosts());
        assert_ne!(a.hosts(), c.hosts());
    }

    #[test]
    fn sampling_is_heavy_tailed() {
        use rand::SeedableRng;
        let a = AddressSpace::generate(&AddressSpaceConfig::default(), 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        const N: usize = 30_000;
        for _ in 0..N {
            *counts.entry(a.sample(&mut rng)).or_default() += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|x, y| y.cmp(x));
        let top10: usize = freqs.iter().take(10).sum();
        assert!(top10 > N / 5, "top10={top10}");
        // But the tail is broad: many distinct hosts appear.
        assert!(counts.len() > 500, "distinct={}", counts.len());
    }

    #[test]
    fn avoids_reserved_first_octets() {
        let a = AddressSpace::generate(&AddressSpaceConfig::default(), 5);
        for h in a.hosts() {
            let o1 = h >> 24;
            assert!(o1 != 0 && o1 != 10 && o1 != 127 && o1 <= 223, "octet {o1}");
            assert!(h & 0xff != 0 && h & 0xff != 255);
        }
    }

    #[test]
    fn nth_is_stable() {
        let a = AddressSpace::generate(&AddressSpaceConfig::default(), 6);
        assert_eq!(a.nth(0), a.nth(0));
        assert_eq!(a.nth(a.len()), a.nth(0)); // wraps
    }
}
