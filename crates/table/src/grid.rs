//! A generic columnar matrix of cells.
//!
//! Concrete tables, provenance-embedded tables (`T★`) and abstract tables
//! (`T◦`) all share this shape; only the cell type differs.
//!
//! Storage is *columnar*: each column is an [`Arc`]-shared vector, so
//! projections ([`Grid::select_columns`]) are O(columns) pointer copies,
//! cloning a grid never copies cell data, and operators that append a column
//! (`partition`, `arithmetic`) reuse every source column untouched. Mutation
//! goes through copy-on-write ([`Arc::make_mut`]), so the row-building APIs
//! of the previous row-major representation keep working.

use std::fmt;
use std::sync::Arc;

/// A rectangular grid of cells with a fixed column count, stored column-major
/// with `Arc`-shared columns.
///
/// Row indices and column indices are 0-based throughout the code base; the
/// paper's `T[i, j]` (1-based) corresponds to `grid[(i - 1, j - 1)]`.
///
/// # Examples
///
/// ```
/// use sickle_table::Grid;
///
/// let g = Grid::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
/// assert_eq!(g.n_rows(), 2);
/// assert_eq!(g.n_cols(), 2);
/// assert_eq!(g[(1, 0)], 3);
/// // Column projection shares the underlying column storage.
/// let p = g.select_columns(&[1]);
/// assert_eq!(p[(0, 0)], 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Grid<C> {
    n_rows: usize,
    cols: Vec<Arc<Vec<C>>>,
}

/// Error returned when constructing a [`Grid`] from ragged rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaggedRowsError {
    /// Index of the first offending row.
    pub row: usize,
    /// Its length.
    pub found: usize,
    /// The expected length (length of row 0).
    pub expected: usize,
}

impl fmt::Display for RaggedRowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "row {} has {} cells, expected {}",
            self.row, self.found, self.expected
        )
    }
}

impl std::error::Error for RaggedRowsError {}

/// A borrowed view of one grid row.
///
/// Rows are not contiguous in columnar storage, so this view indexes into
/// the parent grid's columns on demand.
pub struct Row<'a, C> {
    grid: &'a Grid<C>,
    row: usize,
}

// Manual impls: derived Clone/Copy would add a spurious `C: Clone` bound.
impl<'a, C> Clone for Row<'a, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, C> Copy for Row<'a, C> {}

impl<'a, C> Row<'a, C> {
    /// Number of cells (the grid's column count).
    pub fn len(&self) -> usize {
        self.grid.n_cols()
    }

    /// True when the grid has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow of the cell in column `col`, or `None` if out of bounds.
    pub fn get(&self, col: usize) -> Option<&'a C> {
        self.grid.cols.get(col).map(|c| &c[self.row])
    }

    /// Iterator over the row's cells in column order.
    pub fn iter(&self) -> impl Iterator<Item = &'a C> + '_ {
        let row = self.row;
        self.grid.cols.iter().map(move |c| &c[row])
    }

    /// The last cell of the row, if any.
    pub fn last(&self) -> Option<&'a C> {
        self.grid.cols.last().map(|c| &c[self.row])
    }

    /// Copies the row into an owned vector.
    pub fn to_vec(&self) -> Vec<C>
    where
        C: Clone,
    {
        self.iter().cloned().collect()
    }
}

impl<'a, C> std::ops::Index<usize> for Row<'a, C> {
    type Output = C;

    fn index(&self, col: usize) -> &C {
        &self.grid.cols[col][self.row]
    }
}

impl<'a, C> IntoIterator for Row<'a, C> {
    type Item = &'a C;
    type IntoIter = RowIter<'a, C>;

    fn into_iter(self) -> RowIter<'a, C> {
        RowIter { row: self, col: 0 }
    }
}

impl<'a, C> IntoIterator for &Row<'a, C> {
    type Item = &'a C;
    type IntoIter = RowIter<'a, C>;

    fn into_iter(self) -> RowIter<'a, C> {
        RowIter { row: *self, col: 0 }
    }
}

/// Iterator over the cells of a [`Row`].
pub struct RowIter<'a, C> {
    row: Row<'a, C>,
    col: usize,
}

impl<'a, C> Iterator for RowIter<'a, C> {
    type Item = &'a C;

    fn next(&mut self) -> Option<&'a C> {
        let out = self.row.get(self.col);
        self.col += 1;
        out
    }
}

impl<'a, C: PartialEq> PartialEq<[C]> for Row<'a, C> {
    fn eq(&self, other: &[C]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == b)
    }
}

impl<'a, C: PartialEq, const N: usize> PartialEq<[C; N]> for Row<'a, C> {
    fn eq(&self, other: &[C; N]) -> bool {
        *self == other[..]
    }
}

impl<'a, C: PartialEq, const N: usize> PartialEq<&[C; N]> for Row<'a, C> {
    fn eq(&self, other: &&[C; N]) -> bool {
        *self == other[..]
    }
}

impl<'a, C: fmt::Debug> fmt::Debug for Row<'a, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<C> Grid<C> {
    /// Creates an empty grid with `n_cols` columns and no rows.
    pub fn empty(n_cols: usize) -> Self {
        Grid {
            n_rows: 0,
            cols: (0..n_cols).map(|_| Arc::new(Vec::new())).collect(),
        }
    }

    /// Creates a grid from rows, all of which must have equal length.
    ///
    /// # Errors
    ///
    /// Returns [`RaggedRowsError`] if any row's length differs from row 0's.
    pub fn from_rows(rows: Vec<Vec<C>>) -> Result<Self, RaggedRowsError> {
        let n_cols = rows.first().map_or(0, Vec::len);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != n_cols {
                return Err(RaggedRowsError {
                    row: i,
                    found: r.len(),
                    expected: n_cols,
                });
            }
        }
        let n_rows = rows.len();
        let mut cols: Vec<Vec<C>> = (0..n_cols).map(|_| Vec::with_capacity(n_rows)).collect();
        for row in rows {
            for (c, cell) in row.into_iter().enumerate() {
                cols[c].push(cell);
            }
        }
        Ok(Grid {
            n_rows,
            cols: cols.into_iter().map(Arc::new).collect(),
        })
    }

    /// Creates a grid directly from columns, all of which must have equal
    /// length. `Arc`s are adopted as-is (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths.
    pub fn from_columns(cols: Vec<Arc<Vec<C>>>) -> Self {
        let n_rows = cols.first().map_or(0, |c| c.len());
        for (i, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), n_rows, "column {i} has wrong length for grid");
        }
        Grid { n_rows, cols }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Borrow of the cell at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<&C> {
        self.cols.get(col).and_then(|c| c.get(row))
    }

    /// Borrow of column `col` as a slice (the fast path for columnar
    /// operators).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn column(&self, col: usize) -> &[C] {
        &self.cols[col]
    }

    /// The shared handle of column `col`, for zero-copy column reuse.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    pub fn column_arc(&self, col: usize) -> &Arc<Vec<C>> {
        &self.cols[col]
    }

    /// Iterator over all column handles.
    pub fn columns(&self) -> impl Iterator<Item = &Arc<Vec<C>>> {
        self.cols.iter()
    }

    /// View of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> Row<'_, C> {
        assert!(row < self.n_rows, "row {row} out of bounds");
        Row { grid: self, row }
    }

    /// Iterator over row views.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_, C>> {
        (0..self.n_rows).map(move |row| Row { grid: self, row })
    }

    /// Appends a row (copy-on-write when columns are shared).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.n_cols()`. (Grids never hold ragged rows.)
    pub fn push_row(&mut self, row: Vec<C>)
    where
        C: Clone,
    {
        assert_eq!(
            row.len(),
            self.cols.len(),
            "pushed row has wrong arity for grid"
        );
        for (c, cell) in row.into_iter().enumerate() {
            Arc::make_mut(&mut self.cols[c]).push(cell);
        }
        self.n_rows += 1;
    }

    /// Consumes the grid and returns its rows.
    pub fn into_rows(self) -> Vec<Vec<C>>
    where
        C: Clone,
    {
        let n_cols = self.n_cols();
        let mut rows: Vec<Vec<C>> = (0..self.n_rows)
            .map(|_| Vec::with_capacity(n_cols))
            .collect();
        for col in self.cols {
            let col = Arc::try_unwrap(col).unwrap_or_else(|shared| (*shared).clone());
            for (r, cell) in col.into_iter().enumerate() {
                rows[r].push(cell);
            }
        }
        rows
    }

    /// New grid with only the given columns, in the given order.
    ///
    /// Columns are shared, not copied: this is O(`cols.len()`).
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of bounds.
    pub fn select_columns(&self, cols: &[usize]) -> Grid<C> {
        Grid {
            n_rows: self.n_rows,
            cols: cols.iter().map(|&c| Arc::clone(&self.cols[c])).collect(),
        }
    }

    /// New grid with only the given rows, in the given order (a gather over
    /// a selection vector).
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Grid<C>
    where
        C: Clone,
    {
        Grid {
            n_rows: rows.len(),
            cols: self
                .cols
                .iter()
                .map(|col| Arc::new(rows.iter().map(|&r| col[r].clone()).collect()))
                .collect(),
        }
    }

    /// New grid extending `self` with one extra column on the right. The
    /// existing columns are shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != self.n_rows()`.
    pub fn with_column(&self, col: Vec<C>) -> Grid<C> {
        assert_eq!(col.len(), self.n_rows, "appended column has wrong length");
        let mut cols: Vec<Arc<Vec<C>>> = self.cols.iter().map(Arc::clone).collect();
        cols.push(Arc::new(col));
        Grid {
            n_rows: self.n_rows,
            cols,
        }
    }

    /// Concatenates the columns of `self` and `other` (both must have the
    /// same row count). Columns are shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(&self, other: &Grid<C>) -> Grid<C> {
        assert_eq!(self.n_rows, other.n_rows, "hcat row counts differ");
        Grid {
            n_rows: self.n_rows,
            cols: self
                .cols
                .iter()
                .chain(other.cols.iter())
                .map(Arc::clone)
                .collect(),
        }
    }

    /// Applies `f` to every cell, producing a grid of the same shape. Cells
    /// are visited column by column.
    pub fn map<D>(&self, mut f: impl FnMut(&C) -> D) -> Grid<D> {
        self.map_columns(|col| col.iter().map(&mut f).collect())
    }

    /// Applies `f` to every column, producing a grid of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a column of the wrong length.
    pub fn map_columns<D>(&self, mut f: impl FnMut(&[C]) -> Vec<D>) -> Grid<D> {
        let cols = self.cols.iter().map(|col| {
            let out = f(col);
            assert_eq!(out.len(), self.n_rows, "mapped column has wrong length");
            Arc::new(out)
        });
        Grid {
            n_rows: self.n_rows,
            cols: cols.collect(),
        }
    }
}

impl<C> std::ops::Index<(usize, usize)> for Grid<C> {
    type Output = C;

    fn index(&self, (row, col): (usize, usize)) -> &C {
        &self.cols[col][row]
    }
}

impl<C: Clone> std::ops::IndexMut<(usize, usize)> for Grid<C> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut C {
        &mut Arc::make_mut(&mut self.cols[col])[row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Grid::from_rows(vec![vec![1, 2], vec![3]]).unwrap_err();
        assert_eq!(err.row, 1);
        assert_eq!(err.expected, 2);
        assert_eq!(err.found, 1);
        assert!(err.to_string().contains("row 1"));
    }

    #[test]
    fn select_columns_reorders_and_shares() {
        let g = Grid::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        let s = g.select_columns(&[2, 0]);
        assert_eq!(s.row(0).to_vec(), vec![3, 1]);
        assert_eq!(s.row(1).to_vec(), vec![6, 4]);
        assert_eq!(s.n_cols(), 2);
        // Shared storage, not copied.
        assert!(Arc::ptr_eq(s.column_arc(1), g.column_arc(0)));
    }

    #[test]
    fn select_rows_picks_subset() {
        let g = Grid::from_rows(vec![vec![1], vec![2], vec![3]]).unwrap();
        let s = g.select_rows(&[2, 0]);
        assert_eq!(s.into_rows(), vec![vec![3], vec![1]]);
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
        let m = g.map(|c| c * 10);
        assert_eq!(m[(1, 1)], 40);
        assert_eq!(m.n_cols(), 2);
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn push_row_checks_arity() {
        let mut g: Grid<i32> = Grid::empty(2);
        g.push_row(vec![1]);
    }

    #[test]
    fn empty_grid() {
        let g: Grid<i32> = Grid::empty(3);
        assert_eq!(g.n_rows(), 0);
        assert_eq!(g.n_cols(), 3);
        assert!(g.get(0, 0).is_none());
    }

    #[test]
    fn push_row_copy_on_write_does_not_alias() {
        let g = Grid::from_rows(vec![vec![1, 2]]).unwrap();
        let mut h = g.clone();
        h.push_row(vec![3, 4]);
        assert_eq!(g.n_rows(), 1);
        assert_eq!(h.n_rows(), 2);
        assert_eq!(h[(1, 0)], 3);
    }

    #[test]
    fn with_column_and_hcat_share_existing_columns() {
        let g = Grid::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
        let e = g.with_column(vec![9, 9]);
        assert_eq!(e.n_cols(), 3);
        assert!(Arc::ptr_eq(e.column_arc(0), g.column_arc(0)));
        let h = g.hcat(&e);
        assert_eq!(h.n_cols(), 5);
        assert_eq!(h[(1, 4)], 9);
    }

    #[test]
    fn row_view_compares_with_slices() {
        let g = Grid::from_rows(vec![vec![1, 2, 3]]).unwrap();
        assert_eq!(g.row(0), [1, 2, 3]);
        assert_eq!(g.row(0).last(), Some(&3));
        let collected: Vec<i32> = g.row(0).iter().copied().collect();
        assert_eq!(collected, vec![1, 2, 3]);
    }

    #[test]
    fn from_columns_adopts_arcs() {
        let c0 = Arc::new(vec![1, 2]);
        let c1 = Arc::new(vec![3, 4]);
        let g = Grid::from_columns(vec![Arc::clone(&c0), c1]);
        assert_eq!(g.n_rows(), 2);
        assert!(Arc::ptr_eq(g.column_arc(0), &c0));
    }
}
