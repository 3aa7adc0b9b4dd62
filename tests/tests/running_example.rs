//! End-to-end integration tests on the paper's running example
//! (Figs. 1–6): the three semantics, the consistency criteria, the
//! Fig. 6 pruning decision, and full synthesis.

use std::time::Duration;

use sickle_core::{
    concretize, evaluate, prov_evaluate, Analyzer, Budget, PQuery, ProvenanceAnalyzer, Session,
    SynthRequest, SynthTask, TaskContext,
};
use sickle_integration::{enrollment, running_example_query};
use sickle_provenance::{demo_consistent, Demo};
use sickle_table::Value;

fn fig3_demo() -> Demo {
    Demo::parse(&[
        &["T[1,1]", "T[1,2]", "sum(T[1,4], T[2,4]) / T[1,5] * 100"],
        &[
            "T[7,1]",
            "T[7,2]",
            "sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100",
        ],
    ])
    .expect("Fig. 3 parses")
}

#[test]
fn figure1_concrete_output() {
    let out = evaluate(&running_example_query(), &[enrollment()]).unwrap();
    // 2 cities x 4 quarters.
    assert_eq!(out.n_rows(), 8);
    // Percentages from Fig. 1's t3: A: 53.5, 64.1, 70.9, 88.3.
    let a_pcts: Vec<f64> = out
        .rows()
        .filter(|r| r[0] == "A".into())
        .map(|r| r[5].as_f64().unwrap())
        .collect();
    let expected = [53.53, 64.17, 70.96, 88.39];
    for (got, want) in a_pcts.iter().zip(expected) {
        assert!((got - want).abs() < 0.1, "got {got}, want {want}");
    }
}

#[test]
fn figure4_provenance_terms() {
    let star = prov_evaluate(&running_example_query(), &[enrollment()]).unwrap();
    // Row 1: percentage derived from the two quarter-1 cells.
    let row1 = star[(0, 5)].to_string();
    assert!(row1.contains("sum(T1[1,4], T1[2,4])"), "{row1}");
    // Row 4: cumsum flattened into a sum over all 8 city-A enrollments.
    let row4 = &star[(3, 5)];
    assert_eq!(row4.refs().iter().filter(|r| r.col == 3).count(), 8);
    // Group cells on the City column.
    assert_eq!(star[(0, 0)].to_string(), "group{T1[1,1], T1[2,1]}");
    // Provenance evaluation agrees with direct evaluation.
    let direct = evaluate(&running_example_query(), &[enrollment()]).unwrap();
    assert!(concretize(&star, &[enrollment()]).bag_eq(&direct));
}

#[test]
fn definition1_accepts_ground_truth() {
    let star = prov_evaluate(&running_example_query(), &[enrollment()]).unwrap();
    let witness = demo_consistent(&fig3_demo(), &star).expect("Def. 1 holds");
    // The witness maps demo rows to quarter-1 and quarter-4 of city A.
    assert_eq!(witness.row_map, vec![0, 3]);
    assert_eq!(witness.col_map, vec![0, 1, 5]);
}

#[test]
fn definition1_rejects_wrong_query() {
    // Group by city only: quarters are merged, so the demonstrated
    // quarter-1 percentage can no longer be derived.
    let wrong = sickle_core::Query::Group {
        src: Box::new(sickle_core::Query::Input(0)),
        keys: vec![0],
        agg: sickle_table::AggFunc::Sum,
        target: 3,
    };
    let star = prov_evaluate(&wrong, &[enrollment()]).unwrap();
    assert!(demo_consistent(&fig3_demo(), &star).is_none());
}

#[test]
fn figure6_qb_is_pruned_but_solution_path_is_not() {
    // Def. 3 as the search runs it: the analyzer through the task's
    // analysis cache.
    let ctx = TaskContext::new(SynthTask::new(vec![enrollment()], fig3_demo()));

    // q_B = arithmetic(group(T, [City,Quarter,Population], □, □), □).
    let q_b = PQuery::Arith {
        src: Box::new(PQuery::Group {
            src: Box::new(PQuery::Input(0)),
            keys: Some(vec![0, 1, 4]),
            agg: None,
        }),
        func: None,
    };
    assert!(
        !ProvenanceAnalyzer.is_feasible(&q_b, &ctx),
        "Fig. 6: q_B must be pruned"
    );

    // The solution skeleton with the same keys stays feasible.
    let on_path = PQuery::Arith {
        src: Box::new(PQuery::Partition {
            src: Box::new(PQuery::Group {
                src: Box::new(PQuery::Input(0)),
                keys: Some(vec![0, 1, 4]),
                agg: None,
            }),
            keys: None,
            func: None,
        }),
        func: None,
    };
    assert!(ProvenanceAnalyzer.is_feasible(&on_path, &ctx));
}

#[test]
fn full_synthesis_recovers_a_consistent_analytical_pipeline() {
    let request = SynthRequest::new(vec![enrollment()], fig3_demo())
        .with_max_depth(3)
        .with_budget(
            Budget::default()
                .with_timeout(Some(Duration::from_secs(180)))
                .with_max_solutions(1),
        );
    let result = Session::new().solve(&request).expect("request validates");
    let q = result.solutions.first().expect("solvable at depth 3");
    // The solution must produce the Fig. 1 percentages for city A.
    let out = evaluate(q, &request.task.inputs).unwrap();
    let row = out
        .rows()
        .find(|r| r[0] == "A".into() && r[1] == Value::Int(4))
        .expect("city A / quarter 4 present");
    let pct = row.last().unwrap().as_f64().unwrap();
    assert!((pct - 88.39).abs() < 0.1, "got {pct}");
}
