//! Property-based laws for the approximate register layouts in
//! `sonata-sketch`.
//!
//! Three families of properties:
//!
//! * **Merge laws** — fabric-merge soundness rests on merged sketches
//!   behaving exactly like sketches of the union stream: count-min
//!   merge is commutative and associative, Bloom or-merge is
//!   commutative, associative, *and* idempotent, HLL register-max
//!   merge is commutative, associative, and idempotent.
//! * **Count-min guarantee** — over arbitrary key/weight
//!   distributions, every estimate is ≥ the true count
//!   (never-undercount is structural, not probabilistic), and the
//!   overshoot stays within `ε·‖stream‖₁` for at least a `1 − δ`
//!   fraction of keys. On a fixed skewed stream, the worst overshoot
//!   stays within the declared ε at every width.
//! * **Bloom admission** — an inserted key is *never* reported absent
//!   (zero false negatives), which is what makes first-touch
//!   admission safe for distinct semantics.

use proptest::prelude::*;
use sonata::pisa::StateLayout;
use sonata_sketch::{
    cm_depth_for, cm_epsilon, cm_width_for, mix64, BloomFilter, CmOp, CountMinSketch, ErrorBound,
    HyperLogLog, BLOOM_HASHES,
};
use std::collections::HashMap;

/// Arbitrary weighted streams: small key space to force collisions.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..64, 1u64..1_000), 0..200)
}

fn cm_of(seed: u64, stream: &[(u64, u64)]) -> CountMinSketch {
    let mut cm = CountMinSketch::new(64, 4, seed, CmOp::Add);
    for &(k, v) in stream {
        cm.update(&[k], v);
    }
    cm
}

fn bloom_of(seed: u64, keys: &[u64]) -> BloomFilter {
    let mut b = BloomFilter::new(2048, BLOOM_HASHES, seed);
    for &k in keys {
        b.insert(&[k]);
    }
    b
}

fn hll_of(seed: u64, keys: &[u64]) -> HyperLogLog {
    let mut h = HyperLogLog::new(10, seed);
    for &k in keys {
        h.insert(&[k]);
    }
    h
}

proptest! {
    /// cm(a) ∪ cm(b) == cm(b) ∪ cm(a) == cm(a ++ b): the merged sketch
    /// is exactly the sketch of the concatenated stream, so merge
    /// order across switches cannot change any estimate.
    #[test]
    fn cm_merge_commutes_and_equals_union_stream(
        a in arb_stream(),
        b in arb_stream(),
        seed in any::<u64>(),
    ) {
        let (ca, cb) = (cm_of(seed, &a), cm_of(seed, &b));
        let mut ab = ca.clone();
        prop_assert!(ab.merge(&cb));
        let mut ba = cb.clone();
        prop_assert!(ba.merge(&ca));
        prop_assert_eq!(&ab, &ba);
        let mut union_stream = a;
        union_stream.extend(b.iter().copied());
        prop_assert_eq!(&ab, &cm_of(seed, &union_stream));
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c) for count-min pointwise-add merge.
    #[test]
    fn cm_merge_is_associative(
        a in arb_stream(),
        b in arb_stream(),
        c in arb_stream(),
        seed in any::<u64>(),
    ) {
        let (ca, cb, cc) = (cm_of(seed, &a), cm_of(seed, &b), cm_of(seed, &c));
        let mut left = ca.clone();
        prop_assert!(left.merge(&cb));
        prop_assert!(left.merge(&cc));
        let mut bc = cb.clone();
        prop_assert!(bc.merge(&cc));
        let mut right = ca;
        prop_assert!(right.merge(&bc));
        prop_assert_eq!(left, right);
    }

    /// Max-mode count-min (the layout for `Agg::Max` reduces) obeys
    /// the same union-stream law under pointwise-max merge.
    #[test]
    fn cm_max_merge_equals_union_stream(
        a in arb_stream(),
        b in arb_stream(),
        seed in any::<u64>(),
    ) {
        let build = |s: &[(u64, u64)]| {
            let mut cm = CountMinSketch::new(64, 4, seed, CmOp::Max);
            for &(k, v) in s {
                cm.update(&[k], v);
            }
            cm
        };
        let mut merged = build(&a);
        prop_assert!(merged.merge(&build(&b)));
        let mut union_stream = a;
        union_stream.extend(b.iter().copied());
        prop_assert_eq!(merged, build(&union_stream));
    }

    /// Count-min never undercounts, and the overshoot honors the
    /// declared bound: at most a δ fraction of keys exceed ε·‖s‖₁.
    #[test]
    fn cm_error_within_declared_bound(
        stream in arb_stream(),
        seed in any::<u64>(),
    ) {
        let mut cm = CountMinSketch::new(cm_width_for(0.05), cm_depth_for(0.05), seed, CmOp::Add);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut mass = 0u64;
        for &(k, v) in &stream {
            cm.update(&[k], v);
            *truth.entry(k).or_default() += v;
            mass += v;
        }
        prop_assert_eq!(cm.mass(), mass);
        let ErrorBound { epsilon, delta } = cm.bound();
        let slack = (epsilon * mass as f64).ceil() as u64;
        let mut over_budget = 0usize;
        for (&k, &t) in &truth {
            let est = cm.estimate(&[k]);
            prop_assert!(est >= t, "count-min undercounted: {} < {}", est, t);
            if est - t > slack {
                over_budget += 1;
            }
        }
        // The guarantee is per-key with failure probability δ; allow
        // the δ fraction (rounded up) of keys to exceed the slack.
        let allowed = (delta * truth.len() as f64).ceil() as usize;
        prop_assert!(
            over_budget <= allowed,
            "{over_budget} of {} keys exceeded ε·mass slack {slack} (δ allows {allowed})",
            truth.len(),
        );
    }

    /// Bloom filters have zero false negatives, ever.
    #[test]
    fn bloom_has_zero_false_negatives(
        keys in proptest::collection::vec(any::<u64>(), 0..300),
        seed in any::<u64>(),
    ) {
        let b = bloom_of(seed, &keys);
        for &k in &keys {
            prop_assert!(b.contains(&[k]), "inserted key {k:#x} reported absent");
        }
    }

    /// Bloom or-merge is commutative, associative, and idempotent,
    /// and the merged filter contains every key of both sides.
    #[test]
    fn bloom_merge_laws(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
        seed in any::<u64>(),
    ) {
        let (ba, bb) = (bloom_of(seed, &a), bloom_of(seed, &b));
        let mut ab = ba.clone();
        prop_assert!(ab.merge(&bb));
        let mut ba2 = bb.clone();
        prop_assert!(ba2.merge(&ba));
        prop_assert_eq!(&ab, &ba2);
        // Idempotent: merging a filter into itself changes nothing
        // (inserted-count bookkeeping aside, the bit array is fixed).
        let mut twice = ab.clone();
        prop_assert!(twice.merge(&ab));
        prop_assert_eq!(twice.words(), ab.words());
        for &k in a.iter().chain(&b) {
            prop_assert!(ab.contains(&[k]));
        }
    }

    /// HLL register-max merge is commutative and idempotent, and the
    /// merged estimator equals the estimator of the union stream.
    #[test]
    fn hll_merge_laws(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
        seed in any::<u64>(),
    ) {
        let (ha, hb) = (hll_of(seed, &a), hll_of(seed, &b));
        let mut ab = ha.clone();
        prop_assert!(ab.merge(&hb));
        let mut ba = hb.clone();
        prop_assert!(ba.merge(&ha));
        prop_assert_eq!(&ab, &ba);
        let mut idem = ab.clone();
        prop_assert!(idem.merge(&ab));
        prop_assert_eq!(&idem, &ab);
        let mut union_keys = a;
        union_keys.extend(b.iter().copied());
        prop_assert_eq!(&ab, &hll_of(seed, &union_keys));
    }

    /// Shape/seed mismatches refuse to merge instead of silently
    /// corrupting state.
    #[test]
    fn mismatched_sketches_refuse_merge(seed in any::<u64>()) {
        let mut cm = CountMinSketch::new(64, 4, seed, CmOp::Add);
        prop_assert!(!cm.merge(&CountMinSketch::new(32, 4, seed, CmOp::Add)));
        prop_assert!(!cm.merge(&CountMinSketch::new(64, 4, seed.wrapping_add(1), CmOp::Add)));
        prop_assert!(!cm.merge(&CountMinSketch::new(64, 4, seed, CmOp::Max)));
        let mut bl = BloomFilter::new(2048, 4, seed);
        prop_assert!(!bl.merge(&BloomFilter::new(1024, 4, seed)));
        let mut h = HyperLogLog::new(10, seed);
        prop_assert!(!h.merge(&HyperLogLog::new(11, seed)));
    }
}

/// `StateLayout` round-trips through its wire tag and its CLI name.
#[test]
fn state_layout_tags_and_names_round_trip() {
    for layout in [
        StateLayout::Exact,
        StateLayout::CountMin,
        StateLayout::Bloom,
        StateLayout::Hll,
    ] {
        assert_eq!(StateLayout::from_tag(layout.tag()), Some(layout));
        assert_eq!(StateLayout::parse(layout.name()), Some(layout));
    }
    assert_eq!(StateLayout::from_tag(9), None);
    assert_eq!(StateLayout::parse("gibberish"), None);
}

/// Observed error against bits: a skewed stream (4 096 keys, key `r`
/// weighted ∝ 1/(r+1) at scale 10 000, keys shuffled through `mix64`
/// so ranks don't correlate with hash values) pushed through count-min
/// sketches of growing width. The worst per-key overshoot, as a share
/// of the stream's mass, stays under the declared ε = e/width at
/// every width.
#[test]
fn skewed_stream_overshoot_stays_under_declared_epsilon_at_every_width() {
    let stream: Vec<(u64, u64)> = (0..4_096u64)
        .map(|r| (mix64(r ^ 0x5eed), (10_000 / (r + 1)).max(1)))
        .collect();
    let mass: u64 = stream.iter().map(|&(_, v)| v).sum();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in &stream {
        *truth.entry(k).or_default() += v;
    }
    for width in [64usize, 256, 1024, 4096] {
        let mut cm = CountMinSketch::new(width, 4, 0x5eed, CmOp::Add);
        for &(k, v) in &stream {
            cm.update(&[k], v);
        }
        let worst = truth
            .iter()
            .map(|(&k, &t)| cm.estimate(&[k]) - t)
            .max()
            .unwrap();
        let (observed, declared) = (worst as f64 / mass as f64, cm_epsilon(width));
        assert!(
            observed <= declared,
            "width {width}: observed error {observed:.5} above declared ε {declared:.5}"
        );
    }
}
