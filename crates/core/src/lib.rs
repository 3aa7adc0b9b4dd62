//! # sickle-core
//!
//! The core of the Sickle analytical SQL synthesizer (PLDI 2022
//! reproduction): query AST, the unified execution engine behind the three
//! semantics (standard, provenance-tracking, abstract provenance), and the
//! abstraction-based enumerative synthesis algorithm.
//!
//! ## Crate map
//!
//! * [`Query`] / [`PQuery`] (`ast`) — the Fig. 7 language and partial
//!   queries with holes;
//! * [`exec`] / [`ExecTable`] (`engine`) — the shared columnar operator
//!   pipeline. Every operator (`group`, `partition`, `arithmetic`,
//!   `filter`, `sort`, joins) is implemented *once*; an [`ExecTable`]
//!   carries the concrete values and, at [`Semantics::Provenance`], a
//!   step record from which its reference-set ids and provenance terms
//!   derive lazily;
//! * [`evaluate`] (`eval`) — standard semantics `[[q(T̄)]]`, the values
//!   channel of the pipeline;
//! * [`prov_evaluate`] (`prov_eval`) — provenance-tracking semantics
//!   `[[q(T̄)]]★` (Fig. 9), the star channel;
//! * [`abstract_evaluate`] (`abstract_eval`) — abstract provenance
//!   `[[q(T̄)]]◦` (Fig. 11); concrete leaves read the pipeline's lazy
//!   id channel. [`ProvenanceAnalyzer`] runs the Def. 3 check on it
//!   through the cached [`sickle_provenance::AnalysisCache::consistent`];
//! * [`EvalCache`] — memoized engine results keyed by
//!   `(query, semantics)`, threaded through the search so sibling partial
//!   queries share inner-subquery evaluations. Eviction is governed by a
//!   [`CachePolicy`]: deterministic sweeps (cold entries first, in map
//!   order) with hysteresis, demoting cold or unprobed survivors by
//!   freeing their derived id and star channels instead of dropping
//!   them; the churn is counted straight into the [`SearchStats`] rows;
//! * [`Session`] / [`SynthRequest`] / [`SolutionStream`] (`session`) — the
//!   public front door: a warm, reusable service instance running
//!   Algorithm 1 as one sequential search per request, blocking or
//!   streaming, with validated requests, [`Budget`]s, [`CancelToken`]s
//!   and the unified [`SickleError`]. Concurrent requests on one session
//!   share its [`sickle_provenance::AnalysisCache`] and
//!   [`sickle_provenance::RefSetPool`];
//! * [`Analyzer`] (`synth`) — the pruning oracle the search is
//!   parameterized by ([`ProvenanceAnalyzer`] is the paper's; baselines
//!   live in `sickle-baselines`);
//! * [`SearchStats`] (`stats`) — every search counter, declared once and
//!   rendered by name through [`SearchStats::visit`].
//!
//! # Examples
//!
//! Synthesizing "sum Enrolled per City" from a two-row demonstration:
//!
//! ```
//! use sickle_core::{Budget, Session, SynthRequest};
//! use sickle_provenance::Demo;
//! use sickle_table::Table;
//!
//! let t = Table::new(
//!     ["City", "Enrolled"],
//!     vec![
//!         vec!["A".into(), 10.into()],
//!         vec!["A".into(), 20.into()],
//!         vec!["B".into(), 5.into()],
//!     ],
//! )?;
//! let demo = Demo::parse(&[
//!     &["T[1,1]", "sum(T[1,2], T[2,2])"],
//!     &["T[3,1]", "sum(T[3,2])"],
//! ])?;
//! let session = Session::new();
//! let request = SynthRequest::new(vec![t], demo).with_max_depth(1);
//! let result = session.solve(&request)?;
//! assert!(!result.solutions.is_empty());
//! # let _ = Budget::default();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod abstract_eval;
mod ast;
mod engine;
mod error;
mod eval;
mod memo;
mod prov_eval;
mod session;
mod session_pool;
mod stats;
mod synth;

pub use abstract_eval::{abstract_evaluate, abstract_evaluate_rc, demo_ref_sets, AbsTable};
pub use ast::{PQuery, Pred, Query};
pub use engine::{
    exec, exec_filtered_join_strategy, exec_step, CachePolicy, EvalCache, ExecTable, JoinStrategy,
    Semantics,
};
pub use error::SickleError;
pub use eval::{evaluate, EvalError};
pub use prov_eval::{concretize, expand_arith, prov_evaluate, ProvTable};
pub use session::{
    AnalyzerChoice, Budget, CancelToken, Session, SolutionEvent, SolutionStream, StreamWait,
    SynthRequest,
};
pub use session_pool::{demo_fingerprint, SessionPool, SessionPoolConfig};
pub use stats::{Counter, ProgressSnapshot, SearchStats, Unit};
pub use synth::{
    construct_skeletons, expand, Analyzer, JoinKey, NoPruneAnalyzer, OpKind, ProvenanceAnalyzer,
    SynthConfig, SynthResult, SynthTask, TaskContext,
};
