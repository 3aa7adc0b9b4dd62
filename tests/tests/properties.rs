//! Property-based tests of the core invariants, driven by a deterministic
//! in-repo generator (the offline environment has no `proptest`):
//!
//! * the provenance-tracking semantics agrees with direct evaluation
//!   (`[[ [[q]]★ ]] = [[q]]`, §3.1) — on random query/table pairs AND on
//!   every ground-truth query of the 80-task benchmark suite;
//! * Property 1/2: the abstract semantics over-approximates the provenance
//!   of every instantiation, so a consistent query is never pruned
//!   (Def. 3 soundness) — again on random pairs and the full suite;
//! * the engine's lazily derived id channel agrees exactly with `ref(·)`
//!   collection over the star channel, and its lazy star with an
//!   uncached provenance evaluation — on random pairs and on every
//!   frontier candidate of the 80 suite tasks, where each column's static
//!   heads also contain every star cell's summary;
//! * the acceptance heads gate admits every ground truth, and each Def. 1
//!   witness column's heads hold what its demo column needs;
//! * demonstrations generated from a provenance table are always accepted
//!   by the `≺` rules (truncation and permutation preserve consistency);
//! * surface syntax round-trips through the parser.

use sickle_benchmarks::{all_benchmarks, demo_expr_of, frontier_candidates, rng::Rng};
use sickle_core::{
    abstract_evaluate, concretize, demo_ref_sets, evaluate, prov_evaluate, AbsTable, EvalCache,
    PQuery, Pred, Query, Semantics,
};
use sickle_provenance::{
    demo_consistent, expr_consistent, parse_expr, AnalysisCache, ColumnHeads, Demo, RefSet,
    RefSetPool, RefUniverse, SetId,
};
use sickle_table::{AggFunc, AnalyticFunc, ArithExpr, ArithOp, CmpOp, Grid, Table, Value};

/// Def. 3 through the check the search consults: `demo` (exact reference
/// sets standing in for a demonstration) is interned into `pool`, the pool
/// `abs` was computed over, registered with `analysis`, and decided by
/// `AnalysisCache::consistent`, whose verdict memo serves abstract tables
/// of 64 cells or more.
fn cached_def3(
    demo: &Grid<RefSet>,
    abs: &Grid<SetId>,
    analysis: &AnalysisCache,
    pool: &RefSetPool,
) -> bool {
    let ids = demo.map(|s| pool.intern(s.clone()));
    let token = analysis.register_demo(&ids);
    analysis.consistent(&token, &ids, abs, pool)
}

// ---------------------------------------------------------------------------
// Deterministic generators
// ---------------------------------------------------------------------------

fn random_value(rng: &mut Rng) -> Value {
    match rng.gen_range(5) {
        0..=2 => Value::Int(rng.gen_range(6) as i64),
        3 => "a".into(),
        _ => ["b", "c"][rng.gen_range(2)].into(),
    }
}

fn random_table(rng: &mut Rng) -> Table {
    let n_rows = 1 + rng.gen_range(6);
    let n_cols = 2 + rng.gen_range(3);
    let rows = (0..n_rows)
        .map(|_| (0..n_cols).map(|_| random_value(rng)).collect())
        .collect();
    Table::from_grid(Grid::from_rows(rows).expect("rectangular"))
}

/// A small well-formed query over a table whose first two columns always
/// exist (every operator preserves or creates columns 0 and 1).
fn random_query(rng: &mut Rng, depth: usize) -> Query {
    if depth == 0 || rng.gen_range(4) == 0 {
        return Query::Input(0);
    }
    let src = Box::new(random_query(rng, depth - 1));
    let key = rng.gen_range(2);
    match rng.gen_range(5) {
        0 => Query::Group {
            src,
            keys: vec![key],
            agg: AggFunc::ALL[rng.gen_range(AggFunc::ALL.len())],
            target: key + 1,
        },
        1 => Query::Partition {
            src,
            keys: vec![key],
            func: AnalyticFunc::ALL[rng.gen_range(AnalyticFunc::ALL.len())],
            target: key + 1,
        },
        2 => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][rng.gen_range(4)];
            Query::Arith {
                src,
                func: ArithExpr::bin(op, ArithExpr::Param(0), ArithExpr::Param(1)),
                cols: vec![0, 1],
            }
        }
        3 => Query::Filter {
            src,
            pred: Pred::ColConst(0, CmpOp::Le, Value::Int(rng.gen_range(4) as i64)),
        },
        _ => Query::Sort {
            src,
            cols: vec![key],
            asc: rng.gen_range(2) == 0,
        },
    }
}

/// Randomly re-open some parameters of a concrete query as holes.
fn punch_holes(q: &Query, mask: u32) -> PQuery {
    fn go(q: &Query, mask: u32, i: &mut u32) -> PQuery {
        let take = |i: &mut u32| {
            let bit = mask >> (*i % 32) & 1 == 1;
            *i += 1;
            bit
        };
        match q {
            Query::Input(k) => PQuery::Input(*k),
            Query::Filter { src, pred } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Filter {
                    src,
                    pred: keep.then(|| pred.clone()),
                }
            }
            Query::Join { left, right } => PQuery::Join {
                left: Box::new(go(left, mask, i)),
                right: Box::new(go(right, mask, i)),
            },
            Query::LeftJoin { left, right, pred } => {
                let left = Box::new(go(left, mask, i));
                let right = Box::new(go(right, mask, i));
                let keep = take(i);
                PQuery::LeftJoin {
                    left,
                    right,
                    pred: keep.then(|| pred.clone()),
                }
            }
            Query::Proj { src, cols } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Proj {
                    src,
                    cols: keep.then(|| cols.clone()),
                }
            }
            Query::Sort { src, cols, asc } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Sort {
                    src,
                    params: keep.then(|| (cols.clone(), *asc)),
                }
            }
            Query::Group {
                src,
                keys,
                agg,
                target,
            } => {
                let src = Box::new(go(src, mask, i));
                let keep_keys = take(i);
                let keep_agg = take(i);
                PQuery::Group {
                    src,
                    keys: keep_keys.then(|| keys.clone()),
                    agg: keep_agg.then_some((*agg, *target)),
                }
            }
            Query::Partition {
                src,
                keys,
                func,
                target,
            } => {
                let src = Box::new(go(src, mask, i));
                let keep_keys = take(i);
                let keep_func = take(i);
                PQuery::Partition {
                    src,
                    keys: keep_keys.then(|| keys.clone()),
                    func: keep_func.then_some((*func, *target)),
                }
            }
            Query::Arith { src, func, cols } => {
                let src = Box::new(go(src, mask, i));
                let keep = take(i);
                PQuery::Arith {
                    src,
                    func: keep.then(|| (func.clone(), cols.clone())),
                }
            }
        }
    }
    let mut i = 0;
    go(q, mask, &mut i)
}

const CASES: u64 = 120;

// ---------------------------------------------------------------------------
// Randomized properties
// ---------------------------------------------------------------------------

/// §3.1: evaluating every provenance cell recovers the concrete table.
#[test]
fn semantics_agree_on_random_queries() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        if let Ok(direct) = evaluate(&q, &inputs) {
            let star = prov_evaluate(&q, &inputs).expect("both semantics accept");
            let via_star = concretize(&star, &inputs);
            assert!(via_star.bag_eq(&direct), "seed {seed}: query {q}");
        }
    }
}

/// Property 1/2: the abstraction never prunes an instantiation. The exact
/// reference sets of `[[q]]★` must embed into the abstract table of any
/// hole-punched generalization of `q` (Def. 3 soundness).
#[test]
fn abstraction_is_sound_on_random_queries() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let mask = rng.next_u64() as u32;
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        if star.n_rows() == 0 {
            continue;
        }
        let universe = RefUniverse::from_tables(&inputs);
        let exact: Grid<_> = star.map(|e| universe.set_from(e.refs()));
        let pq = punch_holes(&q, mask);
        let cache = EvalCache::new();
        let abs: AbsTable =
            abstract_evaluate(&pq, &inputs, &universe, &cache).expect("abstract evaluates");
        // Treat the exact sets as the "demonstration": Def. 3 must hold.
        assert!(
            cached_def3(&exact, &abs.sets, &AnalysisCache::new(), cache.pool()),
            "seed {seed}: query {q} pruned via partial {pq}"
        );
    }
}

/// The engine's lazily derived id channel must agree exactly with
/// collecting `ref(·)` over the star channel, on every random query, and
/// so must the direct term walk `set_of` on every cell (checked against
/// sets grown one `insert` at a time, too). Each query also
/// runs on the table's rows repeated past 128 cells, where sets spill out
/// of inline storage.
#[test]
fn engine_sets_channel_matches_star_refs() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let copies = 129 / (t.n_rows() * t.n_cols()) + 1;
        let rows = (0..copies).flat_map(|_| t.grid().rows().map(|r| r.to_vec()));
        let wide = Table::from_grid(Grid::from_rows(rows.collect()).expect("rectangular"));
        for inputs in [[t], [wide]] {
            let universe = RefUniverse::from_tables(&inputs);
            let pool = RefSetPool::new();
            let Ok(exec) = sickle_core::exec(Semantics::Provenance, &q, &inputs) else {
                continue;
            };
            let ids = exec.set_ids(&universe, &pool);
            let from_star = exec.star().map(|e| universe.set_from(e.refs()));
            assert_eq!(
                ids.map(|&id| pool.get(id)),
                from_star,
                "seed {seed}: query {q}"
            );
            let from_walk = exec.star().map(|e| universe.set_of(e));
            assert_eq!(from_walk, from_star, "seed {seed}: query {q}");
            let inserted = exec.star().map(|e| {
                let mut s = universe.empty_set();
                e.refs().into_iter().for_each(|r| s.insert(&universe, r));
                s
            });
            assert_eq!(from_walk, inserted, "seed {seed}: query {q}");
        }
    }
}

/// Frontier visits replayed per suite task by
/// [`lazy_channels_match_on_every_suite_frontier_candidate`].
const FRONTIER_VISITS: usize = 1_000;

/// On every concrete candidate of the first [`FRONTIER_VISITS`] search
/// visits of all 80 suite tasks, evaluated through the search's own
/// engine cache (children shared, derived one node at a time): the lazy
/// id grid equals interning `universe.column_sets` of the candidate's
/// star, the lazy star equals an uncached `prov_evaluate`, and each
/// column's static heads ([`Query::column_heads`]) contain the summary of
/// every one of its star cells.
#[test]
fn lazy_channels_match_on_every_suite_frontier_candidate() {
    let mut checked = 0;
    for b in all_benchmarks() {
        let (task, _) = b.task(2022).expect("suite demo generates");
        let ctx = sickle_core::TaskContext::new(task);
        let pool = ctx.pool();
        for q in frontier_candidates(&ctx, &b.config(), usize::MAX, FRONTIER_VISITS) {
            let Ok(exec) = ctx.eval_cache.exec(&q, Semantics::Provenance, ctx.inputs()) else {
                continue;
            };
            let heads = q.column_heads(&ctx.input_arities);
            let ids = exec.set_ids(&ctx.universe, pool);
            let star = exec.star();
            for (j, col) in star.columns().enumerate() {
                for e in col.iter() {
                    assert!(
                        heads[j].contains(ColumnHeads::of(e)),
                        "task {}: column {j} heads of {q} miss {e}",
                        b.id
                    );
                }
            }
            let from_star = star.map_columns(|col| {
                ctx.universe
                    .column_sets(col)
                    .into_iter()
                    .map(|s| pool.intern(s))
                    .collect()
            });
            assert_eq!(*ids, from_star, "task {}: ids of {q}", b.id);
            let uncached = prov_evaluate(&q, ctx.inputs()).expect("evaluates uncached");
            assert_eq!(*star, uncached, "task {}: star of {q}", b.id);
            checked += 1;
        }
    }
    assert!(checked > 10_000, "only {checked} candidates checked");
}

/// Demonstrations generated from provenance cells are accepted by ≺:
/// argument permutation and ♦-truncation preserve consistency.
#[test]
fn generated_demos_stay_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        for row in 0..star.n_rows().min(2) {
            for col in 0..star.n_cols() {
                let cell = &star[(row, col)];
                let demo = demo_expr_of(cell, &mut rng);
                assert!(
                    expr_consistent(&demo, cell),
                    "seed {seed}: demo {demo} not ≺ {cell} (query {q})"
                );
            }
        }
    }
}

/// A demonstration accepted by Def. 1 has every cell's references embedded
/// per Def. 3 on the exact sets (the prefilter the search relies on is a
/// necessary condition).
#[test]
fn def1_implies_exact_def3() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        if star.n_rows() == 0 {
            continue;
        }
        let cells: Vec<_> = (0..star.n_cols())
            .map(|c| demo_expr_of(&star[(0, c)], &mut rng))
            .collect();
        let demo = Demo::new(vec![cells]).expect("one row");
        if sickle_provenance::demo_consistent(&demo, &star).is_some() {
            let universe = RefUniverse::from_tables(&inputs);
            let refs = demo_ref_sets(&demo, &universe);
            let pool = RefSetPool::new();
            let exact = star.map(|e| pool.intern(universe.set_from(e.refs())));
            assert!(
                cached_def3(&refs, &exact, &AnalysisCache::new(), &pool),
                "seed {seed}: query {q}"
            );
        }
    }
}

/// Demonstration surface syntax round-trips through the parser.
#[test]
fn demo_syntax_round_trips() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let t = random_table(&mut rng);
        let q = random_query(&mut rng, 2);
        let inputs = [t];
        let Ok(star) = prov_evaluate(&q, &inputs) else {
            continue;
        };
        for row in 0..star.n_rows().min(1) {
            for col in 0..star.n_cols() {
                let demo = demo_expr_of(&star[(row, col)], &mut rng);
                // Skip string constants with quotes-in-display subtleties.
                let shown = demo.to_string();
                if shown.contains('◇') || shown.chars().all(|c| c != '"') {
                    if let Ok(reparsed) = parse_expr(&shown.replace('◇', "...")) {
                        let back = reparsed.to_string();
                        assert_eq!(shown, back, "seed {seed}: query {q}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-semantics properties on the 80-task benchmark suite
// ---------------------------------------------------------------------------

/// On every benchmark's ground truth (over the §5.1-sampled inputs):
/// `evaluate` and `prov_evaluate ∘ concretize` agree as bags.
#[test]
fn suite_semantics_agree_on_all_80_ground_truths() {
    for b in all_benchmarks() {
        let (task, _) = b
            .task(2022)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let direct = evaluate(&b.ground_truth, &task.inputs)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let star = prov_evaluate(&b.ground_truth, &task.inputs)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let via_star = concretize(&star, &task.inputs);
        assert!(
            via_star.bag_eq(&direct),
            "benchmark {} ({}): semantics disagree",
            b.id,
            b.name
        );
    }
}

/// The acceptance heads gate is sound on the suite: every ground truth
/// passes it, and each demo column's Def. 1 witness column has static
/// heads holding what that demo column needs.
#[test]
fn heads_gate_admits_all_80_ground_truths() {
    for b in all_benchmarks() {
        let (task, _) = b.task(2022).expect("suite demo generates");
        let ctx = sickle_core::TaskContext::new(task);
        let heads = b.ground_truth.column_heads(&ctx.input_arities);
        assert!(
            ColumnHeads::hosts_all(&heads, &ctx.demo_heads),
            "benchmark {}: heads gate rejects",
            b.id
        );
        let star = ctx
            .eval_cache
            .exec(&b.ground_truth, Semantics::Provenance, ctx.inputs())
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id))
            .star();
        let witness = demo_consistent(ctx.demo(), &star)
            .unwrap_or_else(|| panic!("benchmark {}: ground truth fails Def. 1", b.id));
        for (dj, &tj) in witness.col_map.iter().enumerate() {
            assert!(
                heads[tj].contains(ctx.demo_heads[dj]),
                "benchmark {}: column {dj}",
                b.id
            );
        }
    }
}

/// Def. 3 soundness across the suite: for every ground truth, the abstract
/// table of each hole-punched generalization over-approximates the exact
/// provenance reference sets.
#[test]
fn suite_abstraction_over_approximates_all_80_ground_truths() {
    for b in all_benchmarks() {
        let (task, _) = b
            .task(2022)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        let star = prov_evaluate(&b.ground_truth, &task.inputs)
            .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
        if star.n_rows() == 0 {
            continue;
        }
        let universe = RefUniverse::from_tables(&task.inputs);
        let exact: Grid<_> = star.map(|e| universe.set_from(e.refs()));
        // Three deterministic hole patterns per benchmark: all holes, every
        // other hole, sparse holes.
        let cache = EvalCache::new();
        let analysis = AnalysisCache::new();
        for mask in [0u32, 0x5555_5555, 0x1111_1111] {
            let pq = punch_holes(&b.ground_truth, mask);
            let abs = abstract_evaluate(&pq, &task.inputs, &universe, &cache)
                .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
            assert!(
                cached_def3(&exact, &abs.sets, &analysis, cache.pool()),
                "benchmark {} ({}): sound abstraction violated for mask {mask:#x} ({pq})",
                b.id,
                b.name
            );
        }
    }
}

#[test]
fn bag_equality_is_permutation_invariant() {
    let t = Table::new(
        ["a", "b"],
        vec![
            vec![1.into(), 2.into()],
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
        ],
    )
    .unwrap();
    let shuffled = Table::new(
        ["a", "b"],
        vec![
            vec![3.into(), 4.into()],
            vec![1.into(), 2.into()],
            vec![1.into(), 2.into()],
        ],
    )
    .unwrap();
    assert!(t.bag_eq(&shuffled));
}
