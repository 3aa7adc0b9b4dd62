//! Correctness from an independent reference: demo containment of every
//! returned solution, and the `solutions` oracle dump.

use sickle_core::{evaluate, Query};
use sickle_provenance::Demo;
use sickle_table::{Table, Value};

/// The 80-task `solutions` dump at demo seed 2022 and a 20k-visit budget
/// (one warm session, sequential search), as the `solutions` binary
/// prints it.
const ORACLE_2022: &str = include_str!("../oracle/solutions-2022.txt");

/// The demo seed the oracle dump was made with.
pub const ORACLE_SEED: u64 = 2022;

/// Rendered solutions of task `id` in the oracle dump.
pub fn oracle_solutions(id: usize) -> Option<Vec<String>> {
    let mut lines = ORACLE_2022.lines();
    lines.find(|l| {
        l.strip_prefix("## ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse::<usize>().ok())
            == Some(id)
    })?;
    Some(
        lines
            .take_while(|l| !l.starts_with("## "))
            .filter_map(|l| l.trim_start().split_once(". ").map(|(_, q)| q.to_string()))
            .collect(),
    )
}

fn same(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// True when `q`'s output on `inputs` holds every demo row's values
/// (`DemoExpr::eval`; cells with an omission are skipped) under one
/// injective mapping of demo columns to output columns, comparing
/// numbers with a relative tolerance of 1e-6.
pub fn contains_demo(q: &Query, inputs: &[Table], demo: &Demo) -> bool {
    let Ok(out) = evaluate(q, inputs) else {
        return false;
    };
    let rows: Vec<Vec<Option<Value>>> = (0..demo.n_rows())
        .map(|r| {
            (0..demo.n_cols())
                .map(|c| demo.cell(r, c).eval(inputs))
                .collect()
        })
        .collect();
    let mut map = Vec::with_capacity(demo.n_cols());
    let mut used = vec![false; out.n_cols()];
    assign(&rows, &out, &mut map, &mut used)
}

fn assign(
    rows: &[Vec<Option<Value>>],
    out: &Table,
    map: &mut Vec<usize>,
    used: &mut [bool],
) -> bool {
    let n_cols = rows.first().map_or(0, Vec::len);
    if map.len() == n_cols {
        return rows.iter().all(|demo_row| {
            (0..out.n_rows()).any(|r| {
                demo_row.iter().zip(map.iter()).all(|(v, &c)| {
                    v.as_ref()
                        .is_none_or(|v| out.get(r, c).is_some_and(|o| same(v, o)))
                })
            })
        });
    }
    for c in 0..out.n_cols() {
        if used[c] {
            continue;
        }
        used[c] = true;
        map.push(c);
        if assign(rows, out, map, used) {
            return true;
        }
        map.pop();
        used[c] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_blocks_parse() {
        let first = oracle_solutions(1).expect("task 1 in the dump");
        assert_eq!(first[0], "group(T1, [0], sum(c4))");
        assert_eq!(first.len(), 3);
        assert!(oracle_solutions(80).is_some());
        assert!(oracle_solutions(81).is_none());
    }

    #[test]
    fn containment_needs_one_injection_for_all_rows() {
        let t = Table::new(
            ["City", "Enrolled"],
            vec![
                vec!["A".into(), 10.into()],
                vec!["A".into(), 20.into()],
                vec!["B".into(), 5.into()],
            ],
        )
        .unwrap();
        let inputs = [t];
        let demo = Demo::parse(&[
            &["T[1,1]", "sum(T[1,2], T[2,2])"],
            &["T[3,1]", "sum(T[3,2])"],
        ])
        .unwrap();
        let grouped = Query::Group {
            src: Box::new(Query::Input(0)),
            keys: vec![0],
            agg: sickle_table::AggFunc::Sum,
            target: 1,
        };
        assert!(contains_demo(&grouped, &inputs, &demo));
        // The raw input holds "A" and "B" rows but not the sums.
        assert!(!contains_demo(&Query::Input(0), &inputs, &demo));
        // Omitted cells are skipped: only the first column is checked.
        let partial = Demo::parse(&[&["T[1,1]", "sum(T[1,2], ...)"]]).unwrap();
        assert!(contains_demo(&Query::Input(0), &inputs, &partial));
    }
}
