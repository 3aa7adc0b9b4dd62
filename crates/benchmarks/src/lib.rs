//! # sickle-benchmarks
//!
//! The 80-task evaluation suite of the Sickle reproduction (§5.1):
//! 60 forum-style tasks (43 easy, 17 hard) and 20 TPC-DS-style tasks, each
//! a tuple `(T̄, q_gt, out_cols)` from which computation demonstrations are
//! generated programmatically with the paper's procedure
//! ([`generate_demo`]).
//!
//! The paper's raw corpora are not redistributable, so the tasks are
//! hand-ported substitutes whose schemas, operator counts and feature mix
//! match the published distribution (`experiments census` prints the
//! mix next to the paper's).
//!
//! # Examples
//!
//! ```
//! use sickle_benchmarks::all_benchmarks;
//!
//! let suite = all_benchmarks();
//! assert_eq!(suite.len(), 80);
//! let running = &suite[43]; // first hard task = the paper's running example
//! assert!(running.name.contains("enrollment"));
//! ```

#![warn(missing_docs)]

pub mod corpusgen;
pub mod data;
mod demogen;
pub mod rng;
mod suite;

pub use corpusgen::{generate_candidate, CandidateTask, CorpusCategory};
pub use demogen::{
    demo_expr_of, demo_is_consistent_with_gt, generate_demo, scale_table, scale_table_keyed,
    DemoGenError, GeneratedDemo, DEMO_ROWS, MAX_DEMO_VALUES, MAX_INPUT_ROWS,
};
pub use rng::Rng;

use sickle_core::{evaluate, JoinKey, OpKind, Query, SynthConfig, SynthTask};
use sickle_table::{ArithExpr, Table, Value};

/// Replays the pruned search frontier of a task exactly as the search
/// visits it (size-ordered skeletons, provenance-analyzer pruning, hole
/// expansion) and returns up to `cap` concrete candidate queries in
/// visit order, giving up after `max_visited` work-list pops. Shared by
/// the `accept` micro-bench and the cache-policy integration tests so
/// both operate on the same candidate stream — the bench's churn
/// verdict cross-checks and the tests' byte-identical re-verification
/// must not drift apart.
pub fn frontier_candidates(
    ctx: &sickle_core::TaskContext,
    config: &SynthConfig,
    cap: usize,
    max_visited: usize,
) -> Vec<Query> {
    use sickle_core::{construct_skeletons, expand, Analyzer, ProvenanceAnalyzer};
    let analyzer = ProvenanceAnalyzer;
    let mut work: std::collections::VecDeque<_> = construct_skeletons(ctx, config).into();
    work.make_contiguous().reverse();
    let mut out = Vec::new();
    let mut visited = 0usize;
    while let Some(pq) = work.pop_back() {
        visited += 1;
        if out.len() >= cap || visited > max_visited {
            break;
        }
        if pq.is_concrete() {
            out.push(pq.to_concrete().expect("concrete by check"));
            continue;
        }
        if !analyzer.is_feasible(&pq, ctx) {
            continue;
        }
        work.extend(expand(&pq, ctx, config));
    }
    out
}

/// Which sub-suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Forum/tutorial task requiring 1–3 operators.
    ForumEasy,
    /// Forum/tutorial task requiring 3–4 operators.
    ForumHard,
    /// TPC-DS-style decision-support task (3–4 operators, joins).
    TpcDs,
}

impl Category {
    /// Display label used by the harness.
    pub fn label(self) -> &'static str {
        match self {
            Category::ForumEasy => "forum-easy",
            Category::ForumHard => "forum-hard",
            Category::TpcDs => "tpcds",
        }
    }

    /// True for the "hard" population of Figs. 12/13 (hard forum + TPC-DS).
    pub fn is_hard(self) -> bool {
        !matches!(self, Category::ForumEasy)
    }
}

/// Structural features of a ground-truth query (the §5.1 census).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Features {
    /// Uses `join`/`left_join`.
    pub join: bool,
    /// Uses `partition` (partition-aggregation).
    pub partition: bool,
    /// Uses `group` (group-aggregation).
    pub group: bool,
    /// Uses `filter`.
    pub filter: bool,
    /// Uses `sort`.
    pub sort: bool,
    /// Operator count.
    pub size: usize,
}

fn collect_features(q: &Query, f: &mut Features) {
    match q {
        Query::Input(_) => {}
        Query::Join { .. } | Query::LeftJoin { .. } => f.join = true,
        Query::Partition { .. } => f.partition = true,
        Query::Group { .. } => f.group = true,
        Query::Filter { .. } => f.filter = true,
        Query::Sort { .. } => f.sort = true,
        Query::Proj { .. } | Query::Arith { .. } => {}
    }
    for c in q.children() {
        collect_features(c, f);
    }
}

fn max_partition_keys(q: &Query) -> usize {
    let own = match q {
        Query::Partition { keys, .. } => keys.len(),
        _ => 0,
    };
    q.children()
        .into_iter()
        .map(max_partition_keys)
        .max()
        .unwrap_or(0)
        .max(own)
}

/// One benchmark task.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Stable 1-based identifier.
    pub id: usize,
    /// Short descriptive name (`schema: task`).
    pub name: &'static str,
    /// Sub-suite.
    pub category: Category,
    /// Raw (unsampled) input tables.
    pub inputs: Vec<Table>,
    /// The ground-truth query.
    pub ground_truth: Query,
    /// Columns of `[[q_gt]]★` the simulated user demonstrates.
    pub out_cols: Vec<usize>,
    /// Declared primary/foreign keys for join enumeration.
    pub join_keys: Vec<JoinKey>,
    /// Extra filter constants the task description would provide.
    pub extra_constants: Vec<Value>,
    /// Additional arithmetic templates beyond the default library.
    pub extra_arith: Vec<ArithExpr>,
}

impl Benchmark {
    /// The structural features of the ground truth.
    pub fn features(&self) -> Features {
        let mut f = Features {
            size: self.ground_truth.size(),
            ..Features::default()
        };
        collect_features(&self.ground_truth, &mut f);
        f
    }

    /// The synthesizer configuration for this task: search depth equals the
    /// ground truth's operator count, the operator set always includes the
    /// analytical core plus `filter` (`sort` only when the solution needs
    /// it), and joins are enabled whenever multiple inputs exist.
    pub fn config(&self) -> SynthConfig {
        let features = self.features();
        let mut chain_ops = vec![
            OpKind::Group,
            OpKind::Partition,
            OpKind::Arith,
            OpKind::Filter,
        ];
        if features.sort {
            chain_ops.push(OpKind::Sort);
        }
        let mut arith_templates = sickle_table::default_arith_templates();
        arith_templates.extend(self.extra_arith.iter().cloned());
        SynthConfig::new()
            .with_max_depth(features.size)
            .with_chain_ops(chain_ops)
            .with_enable_join(self.inputs.len() > 1)
            .with_max_partition_cols(max_partition_keys(&self.ground_truth).max(1))
            .with_arith_templates(arith_templates)
    }

    /// Generates the synthesis task (sampled inputs + demonstration) for a
    /// seed, per the §5.1 procedure.
    ///
    /// # Errors
    ///
    /// Returns [`DemoGenError`] if the ground truth cannot be demonstrated.
    pub fn task(&self, seed: u64) -> Result<(SynthTask, GeneratedDemo), DemoGenError> {
        let gen = generate_demo(&self.inputs, &self.ground_truth, &self.out_cols, seed)?;
        let mut task = SynthTask::new(gen.inputs.clone(), gen.demo.clone());
        task.join_keys = self.join_keys.clone();
        task.extra_constants = self.extra_constants.clone();
        Ok((task, gen))
    }

    /// Decides whether a synthesized query is "the correct query" for the
    /// harness (§5.2: the search runs until `q_gt` is found).
    ///
    /// Queries in this grammar carry intermediate columns (there is no
    /// final `SELECT`), so syntactic identity is too strict; instead the
    /// candidate must reproduce the ground truth's demonstrated output
    /// columns on the *full, unsampled* inputs — the candidate's output
    /// must contain the reference output as a column-subtable (bag
    /// semantics).
    pub fn is_correct(&self, candidate: &Query) -> bool {
        if candidate == &self.ground_truth {
            return true;
        }
        let Ok(reference) = evaluate(&self.ground_truth, &self.inputs) else {
            return false;
        };
        let reference = reference.project(&self.out_cols);
        let Ok(out) = evaluate(candidate, &self.inputs) else {
            return false;
        };
        contains_column_subtable(&out, &reference)
    }
}

/// True when `outer` contains `target` as a column-subtable: an injective
/// column selection of `outer` whose projection is bag-equal to `target`.
pub fn contains_column_subtable(outer: &Table, target: &Table) -> bool {
    if target.n_cols() > outer.n_cols() || target.n_rows() != outer.n_rows() {
        return false;
    }
    // Candidate outer columns per target column: equal value multisets.
    fn multiset(t: &Table, c: usize) -> Vec<Value> {
        let mut v: Vec<Value> = (0..t.n_rows()).map(|r| t.row(r)[c].clone()).collect();
        v.sort();
        v
    }
    let target_sets: Vec<_> = (0..target.n_cols()).map(|c| multiset(target, c)).collect();
    let outer_sets: Vec<_> = (0..outer.n_cols()).map(|c| multiset(outer, c)).collect();
    let candidates: Vec<Vec<usize>> = target_sets
        .iter()
        .map(|ts| {
            (0..outer.n_cols())
                .filter(|&oc| outer_sets[oc] == *ts)
                .collect()
        })
        .collect();

    fn assign(
        j: usize,
        candidates: &[Vec<usize>],
        used: &mut Vec<bool>,
        chosen: &mut Vec<usize>,
        outer: &Table,
        target: &Table,
    ) -> bool {
        if j == candidates.len() {
            return outer.project(chosen).bag_eq(target);
        }
        for &oc in &candidates[j] {
            if used[oc] {
                continue;
            }
            used[oc] = true;
            chosen.push(oc);
            if assign(j + 1, candidates, used, chosen, outer, target) {
                return true;
            }
            chosen.pop();
            used[oc] = false;
        }
        false
    }

    let mut used = vec![false; outer.n_cols()];
    let mut chosen = Vec::new();
    assign(0, &candidates, &mut used, &mut chosen, outer, target)
}

/// The full 80-task suite, ordered: 43 easy forum tasks, 17 hard forum
/// tasks, 20 TPC-DS-style tasks.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut out = suite::forum_easy();
    out.extend(suite::forum_hard());
    out.extend(suite::tpcds());
    for (i, b) in out.iter().enumerate() {
        assert_eq!(b.id, i + 1, "benchmark ids must be contiguous");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_80_tasks_with_expected_split() {
        let suite = all_benchmarks();
        assert_eq!(suite.len(), 80);
        let easy = suite
            .iter()
            .filter(|b| b.category == Category::ForumEasy)
            .count();
        let hard = suite
            .iter()
            .filter(|b| b.category == Category::ForumHard)
            .count();
        let tpcds = suite
            .iter()
            .filter(|b| b.category == Category::TpcDs)
            .count();
        assert_eq!((easy, hard, tpcds), (43, 17, 20));
    }

    #[test]
    fn every_ground_truth_evaluates() {
        for b in all_benchmarks() {
            let out = evaluate(&b.ground_truth, &b.inputs)
                .unwrap_or_else(|e| panic!("benchmark {} ({}) fails: {e}", b.id, b.name));
            assert!(out.n_rows() > 0, "benchmark {} output empty", b.id);
            for &c in &b.out_cols {
                assert!(c < out.n_cols(), "benchmark {} out_col {c} oob", b.id);
            }
        }
    }

    #[test]
    fn every_demo_is_consistent_with_its_ground_truth() {
        for b in all_benchmarks() {
            let (_, gen) = b
                .task(2022)
                .unwrap_or_else(|e| panic!("benchmark {}: {e}", b.id));
            assert!(
                demo_is_consistent_with_gt(&gen, &b.ground_truth),
                "benchmark {} ({}) demo inconsistent",
                b.id,
                b.name
            );
        }
    }

    #[test]
    fn ground_truth_is_correct_for_itself() {
        for b in all_benchmarks() {
            assert!(b.is_correct(&b.ground_truth), "benchmark {}", b.id);
        }
    }

    #[test]
    fn feature_census_close_to_paper() {
        let suite = all_benchmarks();
        let joins = suite.iter().filter(|b| b.features().join).count();
        let parts = suite.iter().filter(|b| b.features().partition).count();
        let groups = suite.iter().filter(|b| b.features().group).count();
        // Paper: 24 join, 51 partition, 32 group.
        assert!(joins >= 12, "joins = {joins}");
        assert!(parts >= 40, "partitions = {parts}");
        assert!(groups >= 28, "groups = {groups}");
    }

    #[test]
    fn easy_tasks_are_small_hard_tasks_are_large() {
        for b in all_benchmarks() {
            let size = b.ground_truth.size();
            match b.category {
                Category::ForumEasy => assert!(size <= 3, "benchmark {} size {size}", b.id),
                _ => assert!(size >= 3, "benchmark {} size {size}", b.id),
            }
        }
    }

    #[test]
    fn column_subtable_check_works() {
        let big = Table::new(
            ["a", "b", "c"],
            vec![
                vec![1.into(), "x".into(), 10.into()],
                vec![2.into(), "y".into(), 20.into()],
            ],
        )
        .unwrap();
        let small = Table::new(
            ["c", "a"],
            vec![vec![20.into(), 2.into()], vec![10.into(), 1.into()]],
        )
        .unwrap();
        assert!(contains_column_subtable(&big, &small));
        let wrong = Table::new(
            ["c", "a"],
            vec![vec![20.into(), 1.into()], vec![10.into(), 2.into()]],
        )
        .unwrap();
        assert!(!contains_column_subtable(&big, &wrong));
    }
}
