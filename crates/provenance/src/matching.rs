//! Subtable matching: injective row/column assignments.
//!
//! Both consistency criteria of the paper reduce to the same combinatorial
//! question: given a demonstration with `m × n` cells and a (provenance or
//! abstract) table with `M × N` cells, do injective maps
//! `rows: [m] → [M]`, `cols: [n] → [N]` exist such that every demonstration
//! cell is compatible with its image? (Def. 1 uses `≺` as compatibility,
//! Def. 3 uses `ref(E[i,j]) ⊆ T◦[r,c]`.)
//!
//! [`find_table_match`] solves this by backtracking over column assignments
//! (most-constrained column first), maintaining per-demo-row candidate sets,
//! and finishing with a bipartite row matching (Kuhn's algorithm).
//!
//! The concrete acceptance path runs the same search *twice* per candidate
//! — once over cheap reference-subset tests (the Def. 3 prefilter on exact
//! provenance) and once over the expensive Def. 1 expression matching —
//! from three pieces:
//!
//! 1. [`column_candidates`] derives the table columns that can host each
//!    demo column from a caller-supplied host test (the one place that
//!    loop lives; callers memoize the test across candidates as they see
//!    fit);
//! 2. [`find_table_match_seeded`] runs the assignment search from a
//!    [`MatchSeed`] — column candidates plus, optionally, per-demo-row
//!    candidate rows;
//! 3. [`match_seed_rows`] derives those rows from the column candidates,
//!    so the second run need not start blind.
//!
//! Seeding is sound whenever the seeding oracle is *implied by* the seeded
//! oracle (Def. 1 consistency implies reference containment), and the
//! verdict is identical to the blind search — only the returned witness
//! may differ (both are valid assignments). Without row candidates the
//! seeded search is the blind search: same verdict, same witness.

/// Dimensions of a matching problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchDims {
    /// Demonstration rows (`m`).
    pub demo_rows: usize,
    /// Demonstration columns (`n`).
    pub demo_cols: usize,
    /// Candidate table rows (`M`).
    pub table_rows: usize,
    /// Candidate table columns (`N`).
    pub table_cols: usize,
}

/// A successful assignment: `row_map[i]` / `col_map[j]` give the table
/// row/column matched to demonstration row `i` / column `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMatch {
    /// Demo row → table row (injective).
    pub row_map: Vec<usize>,
    /// Demo column → table column (injective).
    pub col_map: Vec<usize>,
}

/// The candidate structure a matching run computes before its assignment
/// search, reusable to seed a later run over a *stronger* compatibility
/// oracle (see [`find_table_match_seeded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSeed {
    /// `col_candidates[dj]` — table columns that can host demo column `dj`
    /// (every demo row finds at least one compatible table row there), as
    /// [`column_candidates`] derives them.
    pub col_candidates: Vec<Vec<usize>>,
    /// `row_candidates[di][ti]` — whether table row `ti` can host demo row
    /// `di` under *some* candidate column choice for every demo column
    /// ([`match_seed_rows`]); `None` leaves every row open.
    pub row_candidates: Option<Vec<Vec<bool>>>,
}

/// Lazily-memoized cell compatibility oracle. Verdicts are stored in a
/// tri-state bitmatrix (two bits per cell pair: known + value), so
/// backtracking re-probes cost two bit tests instead of re-deriving the
/// underlying check — for Def. 1 that check is a full `expr_consistent`
/// recursion.
struct CellOracle<'f> {
    dims: MatchDims,
    known: Vec<u64>,
    value: Vec<u64>,
    f: &'f mut dyn FnMut(usize, usize, usize, usize) -> bool,
}

impl<'f> CellOracle<'f> {
    fn new(
        dims: MatchDims,
        f: &'f mut dyn FnMut(usize, usize, usize, usize) -> bool,
    ) -> CellOracle<'f> {
        let cells = dims.demo_rows * dims.demo_cols * dims.table_rows * dims.table_cols;
        CellOracle {
            dims,
            known: vec![0; cells.div_ceil(64)],
            value: vec![0; cells.div_ceil(64)],
            f,
        }
    }

    #[inline]
    fn ok(&mut self, di: usize, dj: usize, ti: usize, tj: usize) -> bool {
        let idx = ((di * self.dims.demo_cols + dj) * self.dims.table_rows + ti)
            * self.dims.table_cols
            + tj;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.known[word] & bit != 0 {
            return self.value[word] & bit != 0;
        }
        let v = (self.f)(di, dj, ti, tj);
        self.known[word] |= bit;
        if v {
            self.value[word] |= bit;
        }
        v
    }
}

/// Searches for an injective row/column assignment under which every
/// demonstration cell `(di, dj)` is compatible with its image
/// `(row_map[di], col_map[dj])` according to `cell_ok`.
///
/// Returns the first assignment found, or `None` when no assignment exists
/// (this is the pruning signal of Def. 3 / the rejection signal of Def. 1).
///
/// `cell_ok(di, dj, ti, tj)` may be expensive; results are memoized, so it
/// is invoked at most once per cell pair.
pub fn find_table_match(
    dims: MatchDims,
    cell_ok: &mut dyn FnMut(usize, usize, usize, usize) -> bool,
) -> Option<TableMatch> {
    if let Some(resolved) = trivial_match(dims) {
        return resolved;
    }
    let mut oracle = CellOracle::new(dims, cell_ok);
    let col_candidates = column_candidates(dims, |dj, tj| {
        (0..dims.demo_rows).all(|di| (0..dims.table_rows).any(|ti| oracle.ok(di, dj, ti, tj)))
    })?;
    search_assignment(&mut oracle, &col_candidates, None)
}

/// The feasible table columns of every demo column: `tj` is a candidate
/// for `dj` iff `hosts(dj, tj)` — for a cell oracle, every demo row has at
/// least one compatible table row in column `tj`. Probes demo columns in
/// order, each against every table column in order, and returns `None` at
/// the first demo column no table column can host (no assignment exists).
pub fn column_candidates(
    dims: MatchDims,
    mut hosts: impl FnMut(usize, usize) -> bool,
) -> Option<Vec<Vec<usize>>> {
    (0..dims.demo_cols)
        .map(|dj| {
            let cands: Vec<usize> = (0..dims.table_cols).filter(|&tj| hosts(dj, tj)).collect();
            (!cands.is_empty()).then_some(cands)
        })
        .collect()
}

/// The per-demo-row candidate mask induced by column candidates: `ti` can
/// host `di` only when, for every demo column, some candidate table
/// column is compatible at `(di, ti)`. A valid assignment's rows always
/// satisfy this (its columns are all candidates), so restricting a search
/// to these rows is exact — this is the row side of a [`MatchSeed`].
pub fn match_seed_rows(
    dims: MatchDims,
    col_candidates: &[Vec<usize>],
    cell_ok: &mut dyn FnMut(usize, usize, usize, usize) -> bool,
) -> Vec<Vec<bool>> {
    (0..dims.demo_rows)
        .map(|di| {
            (0..dims.table_rows)
                .map(|ti| {
                    col_candidates
                        .iter()
                        .enumerate()
                        .all(|(dj, cols)| cols.iter().any(|&tj| cell_ok(di, dj, ti, tj)))
                })
                .collect()
        })
        .collect()
}

/// Runs the assignment search from a [`MatchSeed`], skipping the
/// candidate-derivation pass entirely.
///
/// `seed.col_candidates[dj]` must list every table column that can host
/// demo column `dj` under `cell_ok` (callers reject an empty list before
/// calling, as [`column_candidates`] does). Without row candidates the
/// result — verdict and witness — is exactly [`find_table_match`]'s over
/// `cell_ok`. Seeds derived from a *weaker* oracle are sound whenever
/// `cell_ok(c) ⇒ seed oracle(c)` cell-wise: every feasible column/row
/// under `cell_ok` is then already in the seed, and the verdict equals a
/// blind [`find_table_match`] over `cell_ok`. The witness may then differ
/// from the blind search's (candidate order differs), but any returned
/// assignment satisfies `cell_ok` on every demonstration cell.
pub fn find_table_match_seeded(
    dims: MatchDims,
    seed: &MatchSeed,
    cell_ok: &mut dyn FnMut(usize, usize, usize, usize) -> bool,
) -> Option<TableMatch> {
    if let Some(resolved) = trivial_match(dims) {
        return resolved;
    }
    debug_assert_eq!(seed.col_candidates.len(), dims.demo_cols);
    debug_assert!(seed
        .row_candidates
        .as_ref()
        .is_none_or(|rows| rows.len() == dims.demo_rows));
    let mut oracle = CellOracle::new(dims, cell_ok);
    search_assignment(
        &mut oracle,
        &seed.col_candidates,
        seed.row_candidates.as_deref(),
    )
}

/// Instances every entry point resolves without a search: a demo larger
/// than the table never matches, an empty demo always does.
fn trivial_match(dims: MatchDims) -> Option<Option<TableMatch>> {
    if dims.demo_rows > dims.table_rows || dims.demo_cols > dims.table_cols {
        return Some(None);
    }
    (dims.demo_rows == 0 || dims.demo_cols == 0).then(|| {
        Some(TableMatch {
            row_map: Vec::new(),
            col_map: Vec::new(),
        })
    })
}

/// The backtracking assignment phase shared by every entry point;
/// `seed_rows` restricts the initial per-demo-row candidate sets.
fn search_assignment(
    oracle: &mut CellOracle<'_>,
    col_candidates: &[Vec<usize>],
    seed_rows: Option<&[Vec<bool>]>,
) -> Option<TableMatch> {
    let dims = oracle.dims;
    // Assign most-constrained demo columns first.
    let mut order: Vec<usize> = (0..dims.demo_cols).collect();
    order.sort_by_key(|&dj| col_candidates[dj].len());

    let mut col_map = vec![usize::MAX; dims.demo_cols];
    let mut used_cols = vec![false; dims.table_cols];
    // row_candidates[di] = set of table rows compatible with all columns
    // assigned so far (as a bitmask-free bool vec for simplicity).
    let row_candidates: Vec<Vec<bool>> = match seed_rows {
        Some(rows) => rows.to_vec(),
        None => vec![vec![true; dims.table_rows]; dims.demo_rows],
    };

    fn assign(
        depth: usize,
        order: &[usize],
        col_candidates: &[Vec<usize>],
        col_map: &mut [usize],
        used_cols: &mut [bool],
        row_candidates: &[Vec<bool>],
        oracle: &mut CellOracle<'_>,
    ) -> Option<Vec<usize>> {
        let dims = oracle.dims;
        if depth == order.len() {
            return bipartite_rows(row_candidates, dims.table_rows);
        }
        let dj = order[depth];
        'next: for &tj in &col_candidates[dj] {
            if used_cols[tj] {
                continue;
            }
            // Narrow row candidates under this column choice.
            let mut narrowed: Vec<Vec<bool>> = Vec::with_capacity(row_candidates.len());
            for (di, cands) in row_candidates.iter().enumerate() {
                let mut nc = vec![false; dims.table_rows];
                let mut any = false;
                for (ti, &alive) in cands.iter().enumerate() {
                    if alive && oracle.ok(di, dj, ti, tj) {
                        nc[ti] = true;
                        any = true;
                    }
                }
                if !any {
                    continue 'next;
                }
                narrowed.push(nc);
            }
            col_map[dj] = tj;
            used_cols[tj] = true;
            if let Some(rows) = assign(
                depth + 1,
                order,
                col_candidates,
                col_map,
                used_cols,
                &narrowed,
                oracle,
            ) {
                return Some(rows);
            }
            used_cols[tj] = false;
            col_map[dj] = usize::MAX;
        }
        None
    }

    let row_map = assign(
        0,
        &order,
        col_candidates,
        &mut col_map,
        &mut used_cols,
        &row_candidates,
        oracle,
    )?;
    Some(TableMatch { row_map, col_map })
}

/// Kuhn's augmenting-path bipartite matching: matches every demo row to a
/// distinct table row within its candidate set. Returns the demo→table map.
fn bipartite_rows(candidates: &[Vec<bool>], table_rows: usize) -> Option<Vec<usize>> {
    let m = candidates.len();
    let mut table_to_demo = vec![usize::MAX; table_rows];

    fn try_augment(
        di: usize,
        candidates: &[Vec<bool>],
        visited: &mut [bool],
        table_to_demo: &mut [usize],
    ) -> bool {
        for (ti, &alive) in candidates[di].iter().enumerate() {
            if alive && !visited[ti] {
                visited[ti] = true;
                if table_to_demo[ti] == usize::MAX
                    || try_augment(table_to_demo[ti], candidates, visited, table_to_demo)
                {
                    table_to_demo[ti] = di;
                    return true;
                }
            }
        }
        false
    }

    for di in 0..m {
        let mut visited = vec![false; table_rows];
        if !try_augment(di, candidates, &mut visited, &mut table_to_demo) {
            return None;
        }
    }
    let mut row_map = vec![usize::MAX; m];
    for (ti, &di) in table_to_demo.iter().enumerate() {
        if di != usize::MAX {
            row_map[di] = ti;
        }
    }
    Some(row_map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(m: usize, n: usize, mm: usize, nn: usize) -> MatchDims {
        MatchDims {
            demo_rows: m,
            demo_cols: n,
            table_rows: mm,
            table_cols: nn,
        }
    }

    #[test]
    fn identity_match() {
        let got =
            find_table_match(dims(2, 2, 2, 2), &mut |di, dj, ti, tj| di == ti && dj == tj).unwrap();
        assert_eq!(got.col_map, vec![0, 1]);
        assert_eq!(got.row_map, vec![0, 1]);
    }

    #[test]
    fn demo_larger_than_table_fails() {
        assert!(find_table_match(dims(3, 1, 2, 5), &mut |_, _, _, _| true).is_none());
        assert!(find_table_match(dims(1, 3, 5, 2), &mut |_, _, _, _| true).is_none());
    }

    #[test]
    fn permuted_columns_found() {
        // Demo column 0 only fits table column 2, demo column 1 only table 0.
        let got = find_table_match(dims(1, 2, 1, 3), &mut |_, dj, _, tj| {
            (dj == 0 && tj == 2) || (dj == 1 && tj == 0)
        })
        .unwrap();
        assert_eq!(got.col_map, vec![2, 0]);
    }

    #[test]
    fn injectivity_on_rows_enforced() {
        // Both demo rows only compatible with table row 0 -> impossible.
        assert!(find_table_match(dims(2, 1, 2, 1), &mut |_, _, ti, _| ti == 0).is_none());
    }

    #[test]
    fn row_matching_needs_augmenting_paths() {
        // demo row 0 fits table rows {0,1}, demo row 1 fits {0} only:
        // matching must route row 0 to table row 1.
        let got = find_table_match(dims(2, 1, 2, 1), &mut |di, _, ti, _| {
            (di == 0 && (ti == 0 || ti == 1)) || (di == 1 && ti == 0)
        })
        .unwrap();
        assert_eq!(got.row_map, vec![1, 0]);
    }

    #[test]
    fn column_choice_constrains_rows() {
        // With table col 0, demo rows map only to table row 0 (conflict);
        // with table col 1, rows map to distinct table rows.
        let got = find_table_match(dims(2, 1, 2, 2), &mut |di, _, ti, tj| match tj {
            0 => ti == 0,
            1 => di == ti,
            _ => false,
        })
        .unwrap();
        assert_eq!(got.col_map, vec![1]);
        assert_eq!(got.row_map, vec![0, 1]);
    }

    #[test]
    fn empty_demo_trivially_matches() {
        let got = find_table_match(dims(0, 0, 3, 3), &mut |_, _, _, _| false).unwrap();
        assert!(got.row_map.is_empty());
        assert!(got.col_map.is_empty());
    }

    #[test]
    fn no_match_when_cell_incompatible() {
        assert!(find_table_match(dims(1, 1, 1, 1), &mut |_, _, _, _| false).is_none());
    }

    /// The host test of a cell oracle, as the blind search derives it.
    fn hosts(
        d: MatchDims,
        oracle: impl Fn(usize, usize, usize, usize) -> bool,
    ) -> impl FnMut(usize, usize) -> bool {
        move |dj, tj| (0..d.demo_rows).all(|di| (0..d.table_rows).any(|ti| oracle(di, dj, ti, tj)))
    }

    /// The staged composition the acceptance path runs over a weak
    /// oracle: [`column_candidates`], the column-seeded search, and —
    /// when it finds a match — the row candidates it induces. Returns the
    /// weak search's result and the full seed.
    fn staged(
        d: MatchDims,
        weak: impl Fn(usize, usize, usize, usize) -> bool + Copy,
    ) -> (Option<TableMatch>, Option<MatchSeed>) {
        let Some(col_candidates) = column_candidates(d, hosts(d, weak)) else {
            return (None, None);
        };
        let mut seed = MatchSeed {
            col_candidates,
            row_candidates: None,
        };
        let found = find_table_match_seeded(d, &seed, &mut { weak });
        if found.is_none() {
            return (None, None);
        }
        seed.row_candidates = Some(match_seed_rows(d, &seed.col_candidates, &mut { weak }));
        (found, Some(seed))
    }

    /// Seeding the search with externally-computed candidate sets must give
    /// exactly the result of the self-computing entry point.
    #[test]
    fn seeded_candidates_agree_with_direct_search() {
        // A mix of feasible and infeasible instances over a parity oracle.
        for (m, n, mm, nn) in [(2, 2, 3, 3), (2, 3, 2, 3), (3, 2, 4, 4), (1, 1, 2, 2)] {
            let d = dims(m, n, mm, nn);
            let oracle =
                |di: usize, dj: usize, ti: usize, tj: usize| (di + dj + ti + tj).is_multiple_of(2);
            let direct = find_table_match(d, &mut { oracle });
            let Some(col_candidates) = column_candidates(d, hosts(d, oracle)) else {
                assert!(direct.is_none());
                continue;
            };
            let seed = MatchSeed {
                col_candidates,
                row_candidates: None,
            };
            let seeded = find_table_match_seeded(d, &seed, &mut { oracle });
            assert_eq!(direct, seeded, "dims {d:?}");
        }
    }

    /// The staged composition returns exactly the blind verdict and
    /// witness, plus a seed whose candidates reproduce the blind search.
    #[test]
    fn report_agrees_with_blind_and_seeds_reruns() {
        for (m, n, mm, nn, modulus) in [
            (2, 2, 3, 3, 2usize),
            (2, 3, 4, 4, 3),
            (3, 2, 4, 5, 2),
            (1, 1, 2, 2, 5),
            (2, 2, 2, 2, 7),
        ] {
            let d = dims(m, n, mm, nn);
            let oracle = |di: usize, dj: usize, ti: usize, tj: usize| {
                (di * 3 + dj * 5 + ti * 7 + tj).is_multiple_of(modulus)
            };
            let blind = find_table_match(d, &mut { oracle });
            let (found, seed) = staged(d, oracle);
            assert_eq!(blind, found, "dims {d:?} mod {modulus}");
            let Some(seed) = seed else {
                assert!(found.is_none());
                continue;
            };
            // Re-running seeded over the same oracle gives the same verdict.
            let rerun = find_table_match_seeded(d, &seed, &mut { oracle });
            assert_eq!(blind.is_some(), rerun.is_some());
            // Any returned witness satisfies the oracle cell-wise.
            if let Some(tm) = &rerun {
                for di in 0..m {
                    for dj in 0..n {
                        assert!(oracle(di, dj, tm.row_map[di], tm.col_map[dj]));
                    }
                }
            }
        }
    }

    /// Seeding a *stronger* oracle (fewer compatible cells) from a weaker
    /// one's staged run matches the stronger oracle's blind verdict.
    #[test]
    fn seeded_stronger_oracle_matches_blind() {
        for (m, n, mm, nn) in [(2, 2, 4, 4), (2, 3, 4, 5), (3, 2, 5, 4)] {
            let d = dims(m, n, mm, nn);
            let weak =
                |di: usize, dj: usize, ti: usize, tj: usize| (di + dj + ti + tj).is_multiple_of(2);
            // strong ⇒ weak by construction.
            let strong = |di: usize, dj: usize, ti: usize, tj: usize| {
                weak(di, dj, ti, tj) && (ti + tj).is_multiple_of(2)
            };
            let (found, seed) = staged(d, weak);
            let blind_strong = find_table_match(d, &mut { strong });
            match seed {
                Some(seed) => {
                    let seeded = find_table_match_seeded(d, &seed, &mut { strong });
                    assert_eq!(blind_strong.is_some(), seeded.is_some(), "dims {d:?}");
                    if let Some(tm) = &seeded {
                        for di in 0..m {
                            for dj in 0..n {
                                assert!(strong(di, dj, tm.row_map[di], tm.col_map[dj]));
                            }
                        }
                    }
                }
                // No seed ⇒ the weak prefilter already rejected; the
                // stronger oracle must reject too.
                None => assert!(found.is_none() && blind_strong.is_none()),
            }
        }
    }

    /// The tri-state memo must never re-invoke the underlying oracle for a
    /// probed cell pair, in the blind search (candidate derivation plus
    /// assignment) and in the row-seeded search alike.
    #[test]
    fn oracle_probes_are_memoized() {
        let d = dims(2, 2, 3, 3);
        let parity =
            |di: usize, dj: usize, ti: usize, tj: usize| (di + dj + ti + tj).is_multiple_of(2);
        let (_, seed) = staged(d, parity);
        let seed = seed.expect("parity instance matches");
        for seeded in [false, true] {
            let mut calls = std::collections::HashMap::new();
            let mut counted = |di, dj, ti, tj| {
                *calls.entry((di, dj, ti, tj)).or_insert(0) += 1;
                parity(di, dj, ti, tj)
            };
            if seeded {
                let _ = find_table_match_seeded(d, &seed, &mut counted);
            } else {
                let _ = find_table_match(d, &mut counted);
            }
            assert!(
                calls.values().all(|&c| c == 1),
                "repeat probes hit the underlying oracle (seeded {seeded}): {calls:?}"
            );
        }
    }
}
