//! Property harness for re-solving edited demonstrations: random
//! single-cell and row edits on suite demonstrations, each solved on the
//! session that solved its predecessor, must produce solution lists
//! byte-identical to a cold solve of the edited demonstration. The
//! session-wide analysis cache is a pure speedup — any rendered
//! divergence here is an unsoundness in its demo fingerprinting.
//!
//! A deterministic LCG drives the edit script so failures replay
//! exactly; edits chain (each edit starts from the previous one), so the
//! chain's session accumulates the verdicts of every demo along the
//! walk. A separate test interleaves structurally-similar
//! demonstrations through one session — the adversarial shape behind the
//! analysis cache's divergence test — to prove verdicts never leak
//! across demos that share a session.

use sickle_benchmarks::all_benchmarks;
use sickle_core::{Budget, Session, SynthRequest, SynthResult, SynthTask};
use sickle_provenance::Demo;
use sickle_table::{Table, Value};

/// Deterministic 64-bit LCG (Knuth's MMIX constants); top bits are the
/// usable stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random demonstration edit: drop a row, duplicate a row, or copy
/// one cell over another cell of the same column (a "single-cell edit" —
/// same-column cells keep the grid well-typed for the task). Returns
/// `None` when the demo is too small for the drawn op or the edit would
/// be a no-op.
fn random_edit(demo: &Demo, rng: &mut Lcg) -> Option<Demo> {
    let rows: Vec<Vec<_>> = (0..demo.n_rows())
        .map(|r| {
            (0..demo.n_cols())
                .map(|c| demo.cell(r, c).clone())
                .collect()
        })
        .collect();
    let mut rows = rows;
    match rng.below(3) {
        0 if demo.n_rows() >= 2 => {
            rows.remove(rng.below(rows.len()));
        }
        1 => {
            let r = rng.below(rows.len());
            let dup = rows[r].clone();
            rows.push(dup);
        }
        _ if demo.n_rows() >= 2 => {
            let c = rng.below(demo.n_cols());
            let from = rng.below(rows.len());
            let to = rng.below(rows.len());
            if from == to || rows[from][c] == rows[to][c] {
                return None;
            }
            let cell = rows[from][c].clone();
            rows[to][c] = cell;
        }
        _ => return None,
    }
    let edited = Demo::new(rows).ok()?;
    (edited != *demo).then_some(edited)
}

fn oracle_request(task: SynthTask, id: usize, max_visited: usize) -> SynthRequest {
    let suite = all_benchmarks();
    let b = suite.iter().find(|b| b.id == id).expect("known benchmark");
    SynthRequest::from_task(task)
        .with_search(b.config())
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(max_visited))
                .with_max_solutions(10),
        )
}

/// The `solutions`-oracle rendering (counters + ranked solution list):
/// cache reuse must leave every byte of this unchanged.
fn render(result: &SynthResult) -> String {
    let mut out = format!(
        "visited={} pruned={} solutions={}\n",
        result.stats.visited,
        result.stats.pruned,
        result.solutions.len()
    );
    for (i, q) in result.solutions.iter().enumerate() {
        out.push_str(&format!("  {:2}. {q}\n", i + 1));
    }
    out
}

#[test]
fn random_edit_chains_match_cold_solves() {
    const BUDGET: usize = 4_000;
    const EDITS_PER_TASK: usize = 5;
    let suite = all_benchmarks();
    let mut rng = Lcg(0x5eed_2022);
    for id in [1, 2, 3] {
        let b = suite.iter().find(|b| b.id == id).unwrap();
        let (base, _) = b.task(2022).expect("demo generates");

        // One warm session per task, serving the base and then every edit
        // of the chain (like a user iterating on one demo).
        let session = Session::new();
        session
            .solve(&oracle_request(base.clone(), id, BUDGET))
            .expect("base solves");
        let mut current = base;
        let mut applied = 0;
        let mut draws = 0;
        while applied < EDITS_PER_TASK && draws < 50 {
            draws += 1;
            let Some(demo) = random_edit(&current.demo, &mut rng) else {
                continue;
            };
            let mut edited = current.clone();
            edited.demo = demo;

            let warm = session
                .solve(&oracle_request(edited.clone(), id, BUDGET))
                .expect("edit solves on the chain's session");
            let cold = Session::new()
                .solve(&oracle_request(edited.clone(), id, BUDGET))
                .expect("cold solve");
            assert_eq!(
                render(&warm),
                render(&cold),
                "task {id} edit #{applied} (draw {draws}): warm edit diverged from cold solve"
            );

            current = edited;
            applied += 1;
        }
        assert!(
            applied >= 3,
            "task {id}: edit generator produced only {applied} edits in {draws} draws"
        );
    }
}

fn region_table() -> Table {
    Table::new(
        vec!["region", "revenue"],
        vec![
            vec![Value::Str("west".into()), Value::Int(10)],
            vec![Value::Str("west".into()), Value::Int(20)],
            vec![Value::Str("east".into()), Value::Int(5)],
        ],
    )
    .expect("well-formed table")
}

fn inline_request(demo_rows: &[&[&str]]) -> SynthRequest {
    let demo = Demo::parse(demo_rows).expect("demo parses");
    SynthRequest::new(vec![region_table()], demo)
        .with_max_depth(1)
        .with_budget(
            Budget::unbounded()
                .with_max_visited(Some(50_000))
                .with_max_solutions(5),
        )
}

#[test]
fn similar_demos_through_one_session_never_share_verdicts() {
    // Same table, same demo shape, different reference structure — the
    // adversarial setup of the analysis cache's divergence test, now
    // end-to-end: interleaved through one session (as an edit chain a ->
    // b -> a is), each demo must answer exactly as on a fresh session.
    let demo_a: &[&[&str]] = &[
        &["T[1,1]", "sum(T[1,2], T[2,2])"],
        &["T[3,1]", "sum(T[3,2])"],
    ];
    let demo_b: &[&[&str]] = &[
        &["T[1,1]", "sum(T[1,2])"],
        &["T[3,1]", "sum(T[2,2], T[3,2])"],
    ];
    let session = Session::new();
    let cold = |rows| render(&Session::new().solve(&inline_request(rows)).unwrap());
    for (label, rows) in [
        ("a", demo_a),
        ("b", demo_b),
        ("a again", demo_a),
        ("b again", demo_b),
    ] {
        let warm = render(&session.solve(&inline_request(rows)).unwrap());
        assert_eq!(warm, cold(rows), "demo {label} leaked verdicts");
    }
}
