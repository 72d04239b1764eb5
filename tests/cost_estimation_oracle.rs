//! The planner's cost estimator against the reference interpreter.
//!
//! `estimate_costs` runs each refined query once per level and window,
//! on bound pipelines over narrow rows. The reference here is the
//! definition it must reproduce bit for bit: every probe, level output
//! and transition is its own whole-window pass of `run_query` /
//! `run_operator` over full packet tuples, re-bound per call, with the
//! previous-level filter as a real `InSet` operator and the unit list
//! and slot widths recomputed per transition.
//!
//! Also here, because it is the estimator's input: the evaluation
//! trace's single merge against one `inject` per attack.

use sonata::packet::{Field, Packet, Value};
use sonata::pisa::compile::{
    compile_pipeline, max_switch_units, table_specs, RegisterSizing, TableSpec,
};
use sonata::pisa::TaskId;
use sonata::planner::costs::{estimate_costs, BranchCost, CostConfig, QueryCosts, TransitionCost};
use sonata::planner::{plan_with_costs, refine_query, refinement_levels, PlanMode, PlannerConfig};
use sonata::query::catalog::{self, Thresholds};
use sonata::query::interpret::{run_operator, run_query_with_schema};
use sonata::query::query::{OpRef, PipelineRef};
use sonata::query::{Operator, Pipeline, Query, QueryId, Schema, Tuple};
use sonata::traffic::trace::EvaluationTrace;
use sonata::traffic::{BackgroundConfig, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// `N(k)` per partition point and keys per stateful unit.
type Sample = (Vec<f64>, Vec<f64>);

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

/// One branch pipeline over one window, one `run_operator` at a time.
fn branch_pass(pipeline: &Pipeline, packets: &[Tuple]) -> Sample {
    let units = table_specs(pipeline);
    let mut n = vec![packets.len() as f64];
    let mut keys = Vec::new();
    let mut schema = Schema::packet();
    let mut tuples: Vec<Tuple> = packets.to_vec();
    for unit in units.iter().take(max_switch_units(&units)) {
        for oi in unit.ops.clone() {
            let op = &pipeline.ops[oi];
            (schema, tuples) = run_operator(op, &schema, tuples).unwrap();
            // A reduce's keys count before its merged threshold prunes.
            if op.is_stateful() {
                keys.push(tuples.len() as f64);
            }
        }
        n.push(tuples.len() as f64);
    }
    (n, keys)
}

fn slot_bits(pipeline: &Pipeline) -> Vec<u32> {
    let units = table_specs(pipeline);
    let maxk = max_switch_units(&units);
    let stateful = units.iter().take(maxk).filter(|u| u.stateful).count();
    let sizing = RegisterSizing {
        slots: 16,
        arrays: 1,
        ..Default::default()
    };
    let task = TaskId {
        query: QueryId(u32::MAX),
        level: 32,
        branch: 0,
    };
    let stages: Vec<usize> = (0..maxk).map(|i| i * 2).collect();
    match compile_pipeline(pipeline, task, &stages, &vec![sizing; stateful], 0, 0) {
        Ok(cp) => (cp.fragment.registers.iter())
            .map(|r| r.key_bits + r.value_bits)
            .collect(),
        Err(_) => vec![64; stateful],
    }
}

/// A branch pipeline run standalone, as a probe.
fn standalone(q: &Query, ops: &[Operator]) -> Query {
    Query {
        pipeline: Pipeline { ops: ops.to_vec() },
        join: None,
        delay_budget: None,
        ..q.clone()
    }
}

fn relax_level(
    query: &Query,
    field: Field,
    level: u8,
    windows: &[&[Packet]],
    satisfying: &[BTreeSet<Value>],
) -> Vec<(OpRef, u64)> {
    let refined = refine_query(query, level, None);
    let mut relaxed = Vec::new();
    for (at, col, orig) in refined.threshold_filters() {
        let pipeline = match at.pipeline {
            PipelineRef::Left => &refined.pipeline,
            PipelineRef::Right => &refined.join.as_ref().unwrap().right,
            PipelineRef::Post => continue,
        };
        let probe = standalone(&refined, &pipeline.ops[..at.index]);
        let origins = probe.output_origins();
        let mut mins: Vec<f64> = Vec::new();
        for (pkts, satisfying) in windows.iter().zip(satisfying) {
            let (schema, tuples) = run_query_with_schema(&probe, pkts).unwrap();
            let columns = schema.columns();
            let key_idx = (columns.iter().position(|c| origins.get(c) == Some(&field)))
                .or_else(|| columns.iter().position(|c| c.as_ref() == field.name()));
            let (Some(key_idx), Some(col_idx)) = (key_idx, schema.index_of(&col)) else {
                continue;
            };
            let prefixes: BTreeSet<Value> =
                satisfying.iter().map(|v| v.mask_to_level(level)).collect();
            let level_min = (tuples.iter())
                .filter(|t| prefixes.contains(t.get(key_idx)))
                .filter_map(|t| t.get(col_idx).as_u64())
                .min();
            mins.extend(level_min.map(|m| m as f64));
        }
        relaxed.push(match mins.is_empty() {
            true => (at, orig),
            false => (at, orig.max((median(&mut mins) as u64).saturating_sub(1))),
        });
    }
    relaxed
}

/// The estimator's definition: one interpreter pass per question.
fn reference_costs(query: &Query, training: &[&[Packet]], cfg: &CostConfig) -> QueryCosts {
    let windows: Vec<&[Packet]> = (training.iter().take(cfg.max_windows.max(1)))
        .copied()
        .collect();
    let hint = query.refinement.as_ref();
    let field = hint.map(|h| h.field);
    let finest = field
        .and_then(|f| f.finest_refinement_level())
        .unwrap_or(32);
    let mut levels: Vec<u8> = match (&cfg.levels, field) {
        (Some(l), Some(_)) => l.clone(),
        (None, Some(f)) => refinement_levels(f),
        (_, None) => Vec::new(),
    };
    levels.retain(|l| (1..finest).contains(l));
    levels.push(finest);
    levels.sort_unstable();
    levels.dedup();

    let satisfying: Vec<BTreeSet<Value>> = (windows.iter())
        .map(|pkts| {
            let (schema, tuples) = run_query_with_schema(query, pkts).unwrap();
            let idx = hint.and_then(|h| schema.index_of(&h.out_col)).unwrap_or(0);
            tuples.iter().map(|t| t.get(idx).clone()).collect()
        })
        .collect();

    let mut relaxed = BTreeMap::new();
    if let (Some(f), true) = (field, cfg.relax_thresholds) {
        for &level in levels.iter().filter(|&&l| l != finest) {
            relaxed.insert(level, relax_level(query, f, level, &windows, &satisfying));
        }
    }
    let mut costs = QueryCosts {
        query: query.id,
        field,
        finest,
        levels: levels.clone(),
        relaxed,
        satisfying,
        transitions: BTreeMap::new(),
    };

    // Keys each coarse level reports per window under its relaxed
    // thresholds: the final output plus, when the post-join pipeline
    // hinges on a content predicate, every self-thresholded branch.
    let mut level_outputs: BTreeMap<u8, Vec<BTreeSet<Value>>> = BTreeMap::new();
    for &level in levels.iter().filter(|&&l| l != finest) {
        let hint = hint.expect("coarse levels need a refinement hint");
        let rq = costs.refined_with_thresholds(query, level, None);
        let keys_of = |q: &Query, pkts: &[Packet], or_field: bool| -> BTreeSet<Value> {
            let (schema, tuples) = run_query_with_schema(q, pkts).unwrap();
            let idx = match (schema.index_of(&hint.out_col), or_field) {
                (Some(idx), _) => idx,
                (None, false) => 0,
                (None, true) => match schema.index_of(hint.field.name()) {
                    Some(idx) => idx,
                    None => return BTreeSet::new(),
                },
            };
            (tuples.iter())
                .map(|t| t.get(idx).mask_to_level(level))
                .collect()
        };
        let per_window = (windows.iter())
            .map(|pkts| {
                let mut keys = keys_of(&rq, pkts, false);
                let branches =
                    std::iter::once(&rq.pipeline).chain(rq.join.iter().map(|j| &j.right));
                if rq
                    .join
                    .as_ref()
                    .is_some_and(|j| j.post.has_content_predicate())
                {
                    for p in branches.filter(|p| p.ends_with_threshold_filter()) {
                        keys.extend(keys_of(&standalone(&rq, &p.ops), pkts, true));
                    }
                }
                keys
            })
            .collect();
        level_outputs.insert(level, per_window);
    }

    let tuple_windows: Vec<Vec<Tuple>> = (windows.iter())
        .map(|pkts| pkts.iter().map(Tuple::from_packet).collect())
        .collect();
    let mut pairs: Vec<(Option<u8>, u8)> = Vec::new();
    for (i, &r) in levels.iter().enumerate() {
        pairs.push((None, r));
        pairs.extend(levels[..i].iter().map(|&p| (Some(p), r)));
    }
    for (prev, r) in pairs {
        // branch → (units, slot bits, per-window samples)
        let mut per_branch: Vec<(Vec<TableSpec>, Vec<u32>, Vec<Sample>)> = Vec::new();
        for (w, tuples) in tuple_windows.iter().enumerate() {
            // The previous level's output of the window before.
            let prev_arg = prev.map(|p| (p, level_outputs[&p][w.saturating_sub(1)].clone()));
            let rq = costs.refined_with_thresholds(query, r, prev_arg);
            let branches = std::iter::once(&rq.pipeline).chain(rq.join.iter().map(|j| &j.right));
            for (bi, p) in branches.enumerate() {
                if per_branch.len() <= bi {
                    per_branch.push((table_specs(p), slot_bits(p), Vec::new()));
                }
                per_branch[bi].2.push(branch_pass(p, tuples));
            }
        }
        let branches = (per_branch.into_iter())
            .map(|(units, slot_bits, samples)| {
                let over = |pick: &dyn Fn(&Sample) -> f64| {
                    median(&mut samples.iter().map(pick).collect::<Vec<_>>())
                };
                BranchCost {
                    max_units: max_switch_units(&units),
                    units,
                    n: (0..samples[0].0.len()).map(|k| over(&|s| s.0[k])).collect(),
                    keys: (0..samples[0].1.len()).map(|i| over(&|s| s.1[i])).collect(),
                    slot_bits,
                }
            })
            .collect();
        costs
            .transitions
            .insert((prev, r), TransitionCost { branches });
    }
    costs
}

/// All of Table 3 plus the DNS-name-keyed extension query.
fn queries() -> Vec<Query> {
    let t = Thresholds::default();
    let mut queries = catalog::all(&t);
    queries.push(catalog::malicious_domains(&t));
    queries
}

/// `[finest]`, two levels, four levels — `[32]`, `[8, 32]`,
/// `[8, 16, 24, 32]` for an IPv4 key, the same shape for a DNS name.
fn level_sets(q: &Query) -> Vec<Vec<u8>> {
    let hint = q.refinement.as_ref().expect("catalog queries refine");
    let f = hint.field.finest_refinement_level().unwrap();
    vec![vec![f], vec![f / 4, f], vec![f / 4, f / 2, f / 4 * 3, f]]
}

#[test]
fn estimator_matches_the_interpreter_oracle() {
    let (mut cases, mut relaxed_above_original, mut gated_prunes) = (0, 0, 0);
    for seed in [1u64, 11, 31] {
        // One-second windows of a three-window trace: ~1 k packets each,
        // every needle still above its threshold in most of them.
        let ev = EvaluationTrace::generate(seed, 3, 3_000, 0.01);
        let w: Vec<&[Packet]> = ev.trace.windows(1_000).map(|(_, p)| p).collect();
        assert!(w.len() >= 3 && w[..3].iter().all(|w| w.len() > 500));
        let training_sets: [&[&[Packet]]; 4] = [&[], &[w[0]], &[w[0], w[1]], &[w[0], &[], w[2]]];
        for q in &queries() {
            for levels in level_sets(q) {
                for relax_thresholds in [true, false] {
                    for training in training_sets {
                        let cfg = CostConfig {
                            levels: Some(levels.clone()),
                            relax_thresholds,
                            ..Default::default()
                        };
                        let case = format!(
                            "{} seed {seed} levels {levels:?} relax {relax_thresholds} windows {}",
                            q.name,
                            training.len()
                        );
                        let got = estimate_costs(q, training, &cfg).expect(&case);
                        let want = reference_costs(q, training, &cfg);
                        // Field by field first, for a readable failure.
                        assert_eq!(got.levels, want.levels, "{case}");
                        assert_eq!(got.satisfying, want.satisfying, "{case}");
                        assert_eq!(got.relaxed, want.relaxed, "{case}");
                        for (t, want_t) in &want.transitions {
                            assert_eq!(got.transitions.get(t), Some(want_t), "{case} {t:?}");
                        }
                        assert_eq!(got, want, "{case}");
                        for &mode in PlanMode::ALL {
                            let cfg = PlannerConfig {
                                mode,
                                cost: cfg.clone(),
                                ..Default::default()
                            };
                            let one = std::slice::from_ref(q);
                            let plan = |c: QueryCosts| plan_with_costs(one, &[c], &cfg).unwrap();
                            let (a, b) = (plan(got.clone()), plan(want.clone()));
                            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{case} {mode}");
                        }
                        cases += 1;
                        // The table must reach what it is there to pin.
                        let originals = q.threshold_filters();
                        relaxed_above_original += (want.relaxed.values().flatten())
                            .filter(|(at, v)| {
                                originals.iter().any(|(o, _, orig)| o == at && v > orig)
                            })
                            .count();
                        gated_prunes += (want.transitions.iter())
                            .filter(|((p, _), _)| p.is_some())
                            .filter_map(|(_, t)| t.branches.first())
                            .filter(|b| b.n.len() > 1 && b.n[1] < b.n[0])
                            .count();
                    }
                }
            }
        }
    }
    assert_eq!(cases, 3 * 12 * 3 * 2 * 4);
    assert!(relaxed_above_original > 100, "{relaxed_above_original}");
    assert!(gated_prunes > 1000, "{gated_prunes}");
}

/// `EvaluationTrace::generate` merges its eight attacks at once; the
/// definition is one `inject` after another.
#[test]
fn evaluation_trace_is_background_plus_one_inject_per_attack() {
    for seed in [1u64, 11, 31] {
        for scale in [0.01, 0.1] {
            let (windows, window_ms) = (3u32, 3_000u64);
            let ev = EvaluationTrace::generate(seed, windows, window_ms, scale);
            let cfg = BackgroundConfig {
                duration_ms: windows as u64 * window_ms,
                packets: ((100_000.0 * scale) as usize).max(1_000) * windows as usize,
                ..BackgroundConfig::default()
            };
            let mut want = Trace::background(&cfg, seed);
            for (i, a) in ev.attacks.iter().enumerate() {
                want.inject(a, seed.wrapping_add(100 + i as u64));
            }
            assert_eq!(ev.attacks.len(), 8);
            assert!(ev.trace.len() > cfg.packets);
            assert!(
                ev.trace.packets() == want.packets(),
                "seed {seed} scale {scale}"
            );
        }
    }
}
