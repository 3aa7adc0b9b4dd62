//! # sickle
//!
//! Synthesize analytical SQL queries from *computation demonstrations* — a
//! clean-room Rust reproduction of "Synthesizing Analytical SQL Queries
//! from Computation Demonstration" (PLDI 2022).
//!
//! Instead of input-output examples, the user demonstrates *how* a few
//! output cells are computed, with spreadsheet-style formulas over input
//! cell references — possibly with omitted arguments (`...`). The public
//! face is the session API: a warm [`Session`] serves [`SynthRequest`]s,
//! blocking via [`Session::solve`] or streaming via [`Session::submit`]:
//!
//! ```
//! use sickle::{Budget, Demo, Session, SynthRequest, Table};
//!
//! // Input: sales per (region, quarter).
//! let t = Table::new(
//!     ["region", "quarter", "revenue"],
//!     vec![
//!         vec!["west".into(), 1.into(), 10.into()],
//!         vec!["west".into(), 2.into(), 20.into()],
//!         vec!["east".into(), 1.into(), 5.into()],
//!         vec!["east".into(), 2.into(), 8.into()],
//!     ],
//! )?;
//!
//! // "For each region, the total revenue" — demonstrated for both regions.
//! let demo = Demo::parse(&[
//!     &["T[1,1]", "sum(T[1,3], T[2,3])"],
//!     &["T[3,1]", "sum(T[3,3], T[4,3])"],
//! ])?;
//!
//! let session = Session::new(); // long-lived: reuse across requests
//! let request = SynthRequest::new(vec![t], demo)
//!     .with_max_depth(1)
//!     .with_budget(Budget::default().with_max_solutions(3));
//! let result = session.solve(&request)?;
//! println!("best query: {}", result.solutions[0]);
//! # assert!(!result.solutions.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Streaming delivery of the same request — solutions arrive as events
//! the moment the search finds them, with live progress and cancellation:
//!
//! ```
//! use sickle::{Demo, Session, SolutionEvent, SynthRequest, Table};
//!
//! # let t = Table::new(
//! #     ["region", "revenue"],
//! #     vec![vec!["west".into(), 10.into()], vec!["east".into(), 5.into()]],
//! # )?;
//! # let demo = Demo::parse(&[&["T[1,1]", "sum(T[1,2])"], &["T[2,1]", "sum(T[2,2])"]])?;
//! let session = Session::new();
//! let stream = session.submit(SynthRequest::new(vec![t], demo).with_max_depth(1))?;
//! for event in stream {
//!     match event {
//!         SolutionEvent::Solution { index, query } => {
//!             println!("solution #{}: {query}", index + 1)
//!         }
//!         SolutionEvent::Progress(p) => eprintln!("visited {}", p.stats.visited),
//!         SolutionEvent::Done(result) => println!("{} total", result.solutions.len()),
//!         _ => {}
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Errors are unified under [`SickleError`] (table construction, demo
//! parsing, evaluation, request validation), and baseline analyzers plug
//! in through [`AnalyzerChoice::custom`]:
//!
//! ```
//! use sickle::{AnalyzerChoice, TypeAnalyzer};
//!
//! let type_abs = AnalyzerChoice::custom("type-abs", || Box::new(TypeAnalyzer));
//! assert_eq!(type_abs.name(), "type-abs");
//! ```
//!
//! ## Crate map
//!
//! * [`sickle_table`] — columnar values/tables with `Arc`-shared columns,
//!   the value interner, aggregation/window/arithmetic functions
//!   (re-exported: [`Table`], [`Value`], [`AggFunc`], …);
//! * [`sickle_provenance`] — provenance expressions `e★`, demonstrations
//!   `E`, the `≺` consistency rules;
//! * [`sickle_core`] — the Fig. 7 query language, the unified execution
//!   engine ([`exec`]) behind the three semantics, the Algorithm 1
//!   synthesizer (one sequential search per request) and the [`Session`]
//!   API in front of it, whose concurrent requests share the session's
//!   set pool and analysis cache;
//! * [`sickle_baselines`] — the type/value-abstraction baselines of §5;
//! * [`sickle_benchmarks`] — the 80-task evaluation suite.

#![warn(missing_docs)]

pub use sickle_baselines::{TypeAnalyzer, ValueAnalyzer};
pub use sickle_core::{
    abstract_evaluate, concretize, evaluate, exec, prov_evaluate, Analyzer, AnalyzerChoice, Budget,
    CancelToken, EvalCache, EvalError, ExecTable, JoinKey, NoPruneAnalyzer, OpKind, PQuery, Pred,
    ProgressSnapshot, ProvenanceAnalyzer, Query, SearchStats, Semantics, Session, SickleError,
    SolutionEvent, SolutionStream, SynthConfig, SynthRequest, SynthResult, SynthTask, TaskContext,
};
pub use sickle_provenance::{
    demo_consistent, expr_consistent, parse_expr, CellRef, Demo, DemoExpr, Expr, FuncName,
    ParseError,
};
pub use sickle_table::{
    default_arith_templates, extract_groups, AggFunc, AnalyticFunc, ArithExpr, ArithOp, CmpOp,
    Grid, Table, TableError, Value,
};

/// The benchmark suite, re-exported for examples and downstream evaluation.
pub mod benchmarks {
    pub use sickle_benchmarks::*;
}
