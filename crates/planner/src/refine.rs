//! Query augmentation for dynamic refinement (Section 4.1).
//!
//! A query refinable on a hierarchical key (say `dIP`) is *augmented*
//! to run at a coarser level `r`:
//!
//! 1. every reference to the key field inside `map` expressions and
//!    join key expressions is wrapped in a mask to level `r`, so the
//!    rest of the query operates on `dIP/r` buckets unchanged;
//! 2. when the level follows a previous level `p`, a filter on
//!    `mask(key, p) ∈ {prefixes that satisfied level p}` is prepended
//!    to every packet-consuming pipeline — compiled to a dynamic
//!    filter table whose entries the runtime rewrites each window;
//! 3. threshold filters keep their original values here; the planner
//!    relaxes them separately from training data (coarser aggregates
//!    are larger sums, so the original threshold is correct but
//!    inefficient).

use sonata_packet::{Field, Value};
use sonata_query::expr::{Expr, Pred};
use sonata_query::{Operator, Pipeline, Query};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The candidate refinement levels used throughout the evaluation:
/// /4, /8, …, /32 for IPv4 keys (the paper considers a maximum of
/// eight levels, Section 6.1).
pub fn refinement_levels(field: Field) -> Vec<u8> {
    match field.finest_refinement_level() {
        Some(32) => (1..=8).map(|i| i * 4).collect(),
        Some(f) => (1..=f).collect(),
        None => Vec::new(),
    }
}

/// Wrap key-field references in `expr` with a mask to `level`.
fn mask_expr(e: &Expr, field: Field, level: u8) -> Expr {
    match e {
        Expr::Col(c) if c.as_ref() == field.name() => {
            Expr::Mask(Box::new(Expr::Col(c.clone())), level)
        }
        Expr::Col(_) | Expr::Lit(_) => e.clone(),
        // An existing mask over the key field is re-leveled (refining
        // an already-refined query); other masks pass through.
        Expr::Mask(inner, l) => {
            if expr_mentions(inner, field) {
                Expr::Mask(inner.clone(), (*l).min(level))
            } else {
                Expr::Mask(Box::new(mask_expr(inner, field, level)), *l)
            }
        }
        Expr::Add(a, b) => Expr::Add(
            Box::new(mask_expr(a, field, level)),
            Box::new(mask_expr(b, field, level)),
        ),
        Expr::Sub(a, b) => Expr::Sub(
            Box::new(mask_expr(a, field, level)),
            Box::new(mask_expr(b, field, level)),
        ),
        Expr::Mul(a, b) => Expr::Mul(
            Box::new(mask_expr(a, field, level)),
            Box::new(mask_expr(b, field, level)),
        ),
        Expr::Div(a, b) => Expr::Div(
            Box::new(mask_expr(a, field, level)),
            Box::new(mask_expr(b, field, level)),
        ),
    }
}

fn expr_mentions(e: &Expr, field: Field) -> bool {
    let mut cols = Vec::new();
    e.referenced_cols(&mut cols);
    cols.iter().any(|c| c.as_ref() == field.name())
}

fn mask_pipeline(p: &mut Pipeline, field: Field, level: u8) {
    for op in &mut p.ops {
        if let Operator::Map { exprs } = op {
            for (_, e) in exprs.iter_mut() {
                *e = mask_expr(e, field, level);
            }
        }
    }
}

/// Build the refined variant of `query` at `level`.
///
/// `prev` supplies the previous (coarser) level and the prefix set
/// that satisfied it — pass an empty set for runtime use (the dynamic
/// filter starts closed and the runtime opens it window by window), or
/// a concrete set for training-time cost estimation.
pub fn refine_query(query: &Query, level: u8, prev: Option<(u8, BTreeSet<Value>)>) -> Query {
    let hint = query
        .refinement
        .as_ref()
        .expect("refine_query needs a refinement hint");
    let field = hint.field;
    let finest = field.finest_refinement_level().unwrap_or(32);
    let mut q = query.clone();
    q.name = match prev {
        Some((p, _)) => format!("{}@{}from{}", query.name, level, p),
        None => format!("{}@{}", query.name, level),
    };
    if level < finest {
        mask_pipeline(&mut q.pipeline, field, level);
        if let Some(join) = &mut q.join {
            mask_pipeline(&mut join.right, field, level);
            mask_pipeline(&mut join.post, field, level);
            for e in &mut join.left_keys {
                *e = mask_expr(e, field, level);
            }
        }
    }
    if let Some((prev_level, set)) = prev {
        let filter = Operator::Filter(Pred::InSet {
            expr: Expr::Mask(Box::new(Expr::Col(field.name().into())), prev_level),
            set: Arc::new(set),
        });
        q.pipeline.ops.insert(0, filter.clone());
        if let Some(join) = &mut q.join {
            join.right.ops.insert(0, filter);
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{PacketBuilder, TcpFlags};
    use sonata_query::catalog::{self, Thresholds};
    use sonata_query::interpret::run_query;

    fn syn(src: u32, dst: u32) -> sonata_packet::Packet {
        PacketBuilder::tcp_raw(src, 9, dst, 80)
            .flags(TcpFlags::SYN)
            .build()
    }

    #[test]
    fn levels_for_ipv4_and_dns() {
        assert_eq!(
            refinement_levels(Field::Ipv4Dst),
            vec![4, 8, 12, 16, 20, 24, 28, 32]
        );
        assert_eq!(refinement_levels(Field::DnsRrName).len(), 8);
        assert!(refinement_levels(Field::TcpFlags).is_empty());
    }

    #[test]
    fn refined_query_aggregates_by_prefix() {
        let t = Thresholds {
            new_tcp: 2,
            ..Thresholds::default()
        };
        let q = catalog::newly_opened_tcp_conns(&t);
        let r8 = refine_query(&q, 8, None);
        assert!(r8.validate().is_ok());
        // Two /32s in the same /8: counts merge at level 8.
        let pkts = vec![syn(1, 0x0a000001), syn(2, 0x0a000002), syn(3, 0x0a000002)];
        let out = run_query(&r8, &pkts).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::U64(0x0a000000));
        assert_eq!(out[0].get(1), &Value::U64(3));
        // At the finest level, the original query is unchanged.
        let r32 = refine_query(&q, 32, None);
        let out32 = run_query(&r32, &pkts).unwrap();
        assert_eq!(out32, run_query(&q, &pkts).unwrap());
    }

    #[test]
    fn prev_filter_restricts_traffic() {
        let t = Thresholds {
            new_tcp: 0,
            ..Thresholds::default()
        };
        let q = catalog::newly_opened_tcp_conns(&t);
        let allowed: BTreeSet<Value> = [Value::U64(0x0a000000)].into_iter().collect();
        let r16 = refine_query(&q, 16, Some((8, allowed)));
        assert!(r16.validate().is_ok());
        let pkts = vec![syn(1, 0x0a010001), syn(2, 0x0b010001)];
        let out = run_query(&r16, &pkts).unwrap();
        // Only the 10.0.0.0/8 packet survives, bucketed at /16.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::U64(0x0a010000));
    }

    #[test]
    fn join_query_refines_both_branches() {
        let t = Thresholds {
            syn_flood: 0,
            ..Thresholds::default()
        };
        let q = catalog::tcp_syn_flood(&t);
        let r8 = refine_query(&q, 8, Some((4, BTreeSet::new())));
        assert!(r8.validate().is_ok());
        // Both branches got the prepended dynamic filter.
        assert!(matches!(
            r8.pipeline.ops[0],
            Operator::Filter(Pred::InSet { .. })
        ));
        let join = r8.join.as_ref().unwrap();
        assert!(matches!(
            join.right.ops[0],
            Operator::Filter(Pred::InSet { .. })
        ));
        // With an empty previous set, nothing passes.
        let out = run_query(&r8, &[syn(1, 0x0a000001)]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn refinement_monotonicity_no_lost_traffic() {
        // Every /32 that satisfies the original query lies inside a /8
        // that satisfies the coarse query with the same threshold.
        let t = Thresholds {
            new_tcp: 3,
            ..Thresholds::default()
        };
        let q = catalog::newly_opened_tcp_conns(&t);
        let mut pkts = Vec::new();
        for i in 0..6 {
            pkts.push(syn(i, 0x0a000001)); // 6 SYNs: satisfies
        }
        for i in 0..2 {
            pkts.push(syn(i, 0x0b000001)); // 2 SYNs: does not
        }
        let fine = run_query(&q, &pkts).unwrap();
        assert_eq!(fine.len(), 1);
        let coarse = run_query(&refine_query(&q, 8, None), &pkts).unwrap();
        let coarse_keys: BTreeSet<Value> = coarse.iter().map(|t| t.get(0).clone()).collect();
        for hit in &fine {
            let prefix = hit.get(0).mask_to_level(8);
            assert!(coarse_keys.contains(&prefix), "lost {hit}");
        }
    }

    #[test]
    fn refining_a_refined_query_tightens_the_mask() {
        // Re-refinement (runtime re-planning path): masking an
        // already-masked key keeps the coarser of the two levels.
        let q = catalog::newly_opened_tcp_conns(&Thresholds {
            new_tcp: 0,
            ..Thresholds::default()
        });
        let r16 = refine_query(&q, 16, None);
        let r8_of_16 = refine_query(&r16, 8, None);
        let pkts = vec![syn(1, 0x0a0b0c0d)];
        let out = run_query(
            &Query {
                pipeline: r8_of_16.pipeline.clone(),
                ..r8_of_16
            },
            &pkts,
        )
        .unwrap();
        assert_eq!(out[0].get(0), &Value::U64(0x0a000000));
    }

    #[test]
    fn text_key_masking_in_refined_query() {
        use sonata_packet::Field;
        let q = catalog::malicious_domains(&Thresholds {
            malicious_domains: 0,
            ..Thresholds::default()
        });
        assert_eq!(q.refinement.as_ref().unwrap().field, Field::DnsRrName);
        let r2 = refine_query(&q, 2, None);
        assert!(r2.validate().is_ok());
        let msg = sonata_packet::DnsHeader::response(
            1,
            "a.b.evil.example",
            sonata_packet::dns::DnsQType::A,
            vec![sonata_packet::DnsRecord {
                name: "a.b.evil.example".into(),
                rtype: sonata_packet::dns::DnsQType::A,
                ttl: 5,
                rdata: vec![5, 0, 0, 1],
            }],
        );
        let pkt = sonata_packet::PacketBuilder::dns(0x08080808, 0xc0000201, msg).build();
        let out = run_query(&r2, &[pkt]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).as_text(), Some("evil.example"));
    }

    #[test]
    fn refined_names_are_distinct_and_descriptive() {
        let q = catalog::newly_opened_tcp_conns(&Thresholds::default());
        let a = refine_query(&q, 8, None);
        let b = refine_query(&q, 16, Some((8, BTreeSet::new())));
        assert_ne!(a.name, b.name);
        assert!(a.name.contains("@8"));
        assert!(b.name.contains("16from8"));
    }

    #[test]
    fn deepest_level_with_empty_forwarded_set_blocks_everything() {
        // The runtime hands the deepest level an *empty* forwarded key
        // set when the coarser level produced nothing (or when a fault
        // forced the boundary update to be skipped): the refined query
        // must stay valid, keep full key precision, and simply pass no
        // traffic until a later window opens the filter.
        let t = Thresholds {
            new_tcp: 0,
            ..Thresholds::default()
        };
        let q = catalog::newly_opened_tcp_conns(&t);
        let r32 = refine_query(&q, 32, Some((16, BTreeSet::new())));
        assert!(r32.validate().is_ok());
        let out = run_query(&r32, &[syn(1, 0x0a000001), syn(2, 0x0b000001)]).unwrap();
        assert!(out.is_empty(), "closed filter must block all traffic");
        // The closed dynamic filter is the *only* structural change
        // relative to the unfiltered finest level.
        assert!(matches!(
            r32.pipeline.ops[0],
            Operator::Filter(Pred::InSet { .. })
        ));
        assert_eq!(
            r32.pipeline.ops.len(),
            refine_query(&q, 32, None).pipeline.ops.len() + 1
        );
    }

    #[test]
    fn boundary_update_for_a_retired_level_gates_at_full_precision() {
        // Re-planning can retire a fine level while a boundary update
        // keyed at it is still in flight. Building the coarser level
        // with the retired level's (/32-keyed) set must gate traffic
        // at the set's own precision — never widen stale /32 entries
        // into whole /8 buckets.
        let t = Thresholds {
            new_tcp: 0,
            ..Thresholds::default()
        };
        let q = catalog::newly_opened_tcp_conns(&t);
        let stale: BTreeSet<Value> = [Value::U64(0x0a000001)].into_iter().collect();
        let r8 = refine_query(&q, 8, Some((32, stale)));
        assert!(r8.validate().is_ok());
        let pkts = vec![syn(1, 0x0a000001), syn(2, 0x0a000002), syn(3, 0x0b000001)];
        let out = run_query(&r8, &pkts).unwrap();
        // Only the exact /32 in the stale set survives; its sibling in
        // the same /8 is (correctly) excluded, so the bucket count is
        // 1, not 2.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::U64(0x0a000000));
        assert_eq!(out[0].get(1), &Value::U64(1));
    }

    #[test]
    fn zorro_right_branch_masks_key() {
        let q = catalog::zorro(&Thresholds::default());
        let r8 = refine_query(&q, 8, None);
        assert!(r8.validate().is_ok());
        // The join's left-key expression is masked too.
        let join = r8.join.as_ref().unwrap();
        assert!(matches!(join.left_keys[0], Expr::Mask(_, 8)));
    }

    /// How every run of every branch of `q` lowered on the stream
    /// side's bound path: left, right, post-join.
    fn lowerings(q: &Query) -> Vec<Vec<[usize; 3]>> {
        use sonata_query::{query::joined_schema, BoundPipeline, Schema};
        let bind = |p: &Pipeline, s: &Schema| BoundPipeline::bind(&p.ops, s).unwrap();
        let left = bind(&q.pipeline, &Schema::packet());
        let mut all = vec![left.lowering()];
        if let Some(join) = &q.join {
            let right = bind(&join.right, &Schema::packet());
            let joined = joined_schema(left.output_schema(), right.output_schema(), &join.keys);
            all.extend([right.lowering(), bind(&join.post, &joined).lowering()]);
        }
        all
    }

    #[test]
    fn refinement_adds_one_residual_filter_and_keeps_every_run_flat() {
        // A refined query is its base with the key masked — a flat
        // projection, for addresses and for names — behind one `InSet`
        // filter per packet branch, which the bound path leaves to the
        // residual evaluator. Nothing else may fall back with it.
        let t = Thresholds::default();
        let mut queries = catalog::all(&t);
        queries.push(catalog::malicious_domains(&t));
        for q in &queries {
            let base = lowerings(q);
            for level in [8, 16, 24] {
                let key = match q.refinement.as_ref().unwrap().field {
                    Field::DnsRrName => Value::Text("example.com".into()),
                    _ => Value::U64(0x0a00_0000),
                };
                let refined = refine_query(q, level, Some((level / 2, [key].into())));
                let mut want = base.clone();
                for branch in want.iter_mut().take(2) {
                    let [compares, residuals, exprs] = branch[0];
                    branch.insert(0, [compares, residuals + 1, exprs]);
                }
                assert_eq!(lowerings(&refined), want, "{}", refined.name);
            }
        }
    }
}
