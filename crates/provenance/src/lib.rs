//! # sickle-provenance
//!
//! Provenance expressions, user demonstrations and the consistency rules of
//! the Sickle analytical SQL synthesizer (PLDI 2022).
//!
//! This crate defines:
//!
//! * [`Expr`] / [`CellRef`] — the cells of a provenance-embedded table `T★`
//!   produced by the provenance-tracking semantics (Fig. 8/9), including the
//!   `f(f(a,b),c) → f(a,b,c)` simplification for `sum`/`max`/`min`;
//! * [`DemoExpr`] / [`Demo`] — user demonstrations `E` with partial
//!   expressions `f♦(…)`, plus a spreadsheet-formula parser ([`parse_expr`]);
//! * [`expr_consistent`] — the generalization relation `e ≺ e★` (Fig. 10);
//! * [`demo_consistent`] — table-level provenance consistency (Def. 1);
//! * [`ColumnHeads`] — the function heads, references and constants a
//!   column's cells can show, and whether they let a table host every
//!   demo column (a necessary condition for `≺`);
//! * [`RefUniverse`] / [`RefSet`] — bitset reference sets used by the
//!   abstract provenance analysis (Fig. 11 / Def. 3), inline for small
//!   universes and copy-on-write shared beyond;
//! * [`RefSetPool`] / [`SetId`] — hash-consed set interning: abstract
//!   tables become grids of 4-byte ids, equal content gets one id, and
//!   one pool is shared by the concurrent requests on a pooled session;
//! * [`AnalysisCache`] — sharded cross-sibling memo of Def. 3 verdicts,
//!   keyed by interned id grids plus a collision-free per-demo
//!   fingerprint ([`DemoToken`]) so one cache serves a whole session of
//!   demonstrations;
//! * [`find_table_match`] — the shared injective subtable matcher, plus the
//!   staged pieces the acceptance path composes ([`column_candidates`],
//!   [`match_seed_rows`], [`find_table_match_seeded`]).
//!
//! # Examples
//!
//! Checking that a demonstrated cell is generalized by a provenance term:
//!
//! ```
//! use sickle_provenance::{expr_consistent, parse_expr, CellRef, Expr, FuncName};
//! use sickle_table::AggFunc;
//!
//! // The user wrote `sum(T[1,4], T[2,4], ◇, T[8,4])`.
//! let demo = parse_expr("sum(T[1,4], T[2,4], ..., T[8,4])")?;
//! // The candidate query aggregates rows 1–8 of column 4.
//! let star = Expr::apply(
//!     FuncName::Agg(AggFunc::Sum),
//!     (0..8).map(|r| Expr::Ref(CellRef::new(0, r, 3))).collect(),
//! );
//! assert!(expr_consistent(&demo, &star));
//! # Ok::<(), sickle_provenance::ParseError>(())
//! ```

#![warn(missing_docs)]

mod analysis;
mod consistency;
mod demo;
mod expr;
mod matching;
mod pool;
mod ref_set;

pub use analysis::{containment_seed, AnalysisCache, AnalysisCacheStats, DemoToken};
pub use consistency::{
    demo_consistent, demo_consistent_with_candidates, expr_consistent, ColumnHeads,
};
pub use demo::{parse_expr, Demo, DemoExpr, ParseError};
pub use expr::{CellRef, Expr, FuncName, RefTerm};
pub use matching::{
    column_candidates, find_table_match, find_table_match_seeded, match_seed_rows, MatchDims,
    MatchSeed, TableMatch,
};
pub use pool::{FxBuild, FxHasher, FxMap, RefSetPool, SetId};
pub use ref_set::{RefSet, RefUniverse};
