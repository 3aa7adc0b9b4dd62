//! User demonstrations `E` (Fig. 8, right).
//!
//! A demonstration is a partial output table whose cells are expressions
//! over input-cell references; a function application may be *partial*
//! (`f♦(e₁, …, e_l)`), meaning the user omitted some arguments. Cells never
//! contain `group{…}` terms — all members of a group carry the same value,
//! so the user just references any one of them (§3.2).
//!
//! Demonstrations can be constructed programmatically or parsed from a
//! spreadsheet-formula-like surface syntax via [`parse_expr`] /
//! [`Demo::parse`]:
//!
//! ```text
//! sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100
//! ```
//!
//! where `...` (or `◇`) marks omitted arguments and `T[i,j]` / `T2[i,j]`
//! reference cell `(i, j)` (1-based) of the first / second input table.

use std::fmt;

use sickle_table::{AggFunc, ArithOp, Grid, Value};

use crate::expr::{CellRef, FuncName, RefTerm};

/// A demonstration expression `e` (Fig. 8, right).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DemoExpr {
    /// A constant value.
    Const(Value),
    /// A reference to an input cell, created by drag-and-drop in the UI.
    Ref(CellRef),
    /// A function application; `partial` marks `f♦` (omitted arguments).
    Apply {
        /// The function symbol.
        func: FuncName,
        /// The arguments the user did provide.
        args: Vec<DemoExpr>,
        /// True for `f♦`: some arguments were omitted (may be anywhere in
        /// the argument list).
        partial: bool,
    },
}

impl DemoExpr {
    /// Convenience constructor for a complete application.
    pub fn apply(func: FuncName, args: Vec<DemoExpr>) -> DemoExpr {
        DemoExpr::Apply {
            func,
            args,
            partial: false,
        }
    }

    /// Convenience constructor for a partial application `f♦(…)`.
    pub fn apply_partial(func: FuncName, args: Vec<DemoExpr>) -> DemoExpr {
        DemoExpr::Apply {
            func,
            args,
            partial: true,
        }
    }

    /// Collects every [`CellRef`] in the expression (the paper's `ref(·)`).
    pub fn refs(&self) -> Vec<CellRef> {
        let mut out = Vec::new();
        self.for_each_ref(&mut |r| out.push(r));
        out
    }

    /// Number of explicit leaf values (refs + consts); the demonstration
    /// "size" metric used in §5.2 counts cells, and this counts effort per
    /// cell for the user-study effort model.
    pub fn leaf_count(&self) -> usize {
        match self {
            DemoExpr::Const(_) | DemoExpr::Ref(_) => 1,
            DemoExpr::Apply { args, .. } => args.iter().map(DemoExpr::leaf_count).sum(),
        }
    }

    /// True if the expression or any sub-expression is partial.
    pub fn has_omission(&self) -> bool {
        match self {
            DemoExpr::Const(_) | DemoExpr::Ref(_) => false,
            DemoExpr::Apply { args, partial, .. } => {
                *partial || args.iter().any(DemoExpr::has_omission)
            }
        }
    }

    /// Evaluates the expression to a concrete value against the inputs.
    ///
    /// Returns `None` when the expression contains an omission (`f♦`) — its
    /// value is then unknowable. This is what value-based abstractions
    /// (Scythe-style) consume; partial expressions are exactly where they
    /// lose pruning power (§2.2).
    pub fn eval(&self, inputs: &[sickle_table::Table]) -> Option<Value> {
        match self {
            DemoExpr::Const(v) => Some(v.clone()),
            DemoExpr::Ref(r) => r.resolve(inputs).cloned(),
            DemoExpr::Apply {
                func,
                args,
                partial,
            } => {
                if *partial {
                    return None;
                }
                let vals: Vec<Value> =
                    args.iter().map(|a| a.eval(inputs)).collect::<Option<_>>()?;
                Some(match func {
                    FuncName::Agg(a) => a.apply(&vals),
                    FuncName::Op(o) => {
                        if vals.len() != 2 {
                            return None;
                        }
                        o.eval(&vals[0], &vals[1])
                    }
                    FuncName::Rank | FuncName::DenseRank => {
                        // rank(own, peers…): rank of the first value.
                        let (own, peers) = vals.split_first()?;
                        let dense = matches!(func, FuncName::DenseRank);
                        if dense {
                            let mut below: Vec<&Value> =
                                peers.iter().filter(|v| *v < own).collect();
                            below.sort();
                            below.dedup();
                            Value::Int(below.len() as i64 + 1)
                        } else {
                            Value::Int(peers.iter().filter(|v| *v < own).count() as i64 + 1)
                        }
                    }
                })
            }
        }
    }
}

impl fmt::Display for DemoExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemoExpr::Const(v) => write!(f, "{v}"),
            DemoExpr::Ref(r) => write!(f, "{r}"),
            DemoExpr::Apply {
                func,
                args,
                partial,
            } => {
                if let FuncName::Op(op) = func {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, " {op} ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    if *partial {
                        write!(f, " {op} ◇")?;
                    }
                    write!(f, ")")
                } else {
                    write!(f, "{func}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    if *partial {
                        if !args.is_empty() {
                            write!(f, ", ")?;
                        }
                        write!(f, "◇")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

impl RefTerm for DemoExpr {
    fn for_each_ref(&self, f: &mut impl FnMut(CellRef)) {
        match self {
            DemoExpr::Const(_) => {}
            DemoExpr::Ref(r) => f(*r),
            DemoExpr::Apply { args, .. } => args.iter().for_each(|a| a.for_each_ref(f)),
        }
    }
}

/// A user demonstration: a grid of [`DemoExpr`] cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demo {
    cells: Grid<DemoExpr>,
}

impl Demo {
    /// Builds a demonstration from rows of expressions.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows are ragged.
    pub fn new(rows: Vec<Vec<DemoExpr>>) -> Result<Demo, sickle_table::RaggedRowsError> {
        Ok(Demo {
            cells: Grid::from_rows(rows)?,
        })
    }

    /// Parses a demonstration from rows of formula strings.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for the first cell that fails to parse.
    ///
    /// ```
    /// use sickle_provenance::Demo;
    ///
    /// let demo = Demo::parse(&[
    ///     &["T[1,1]", "sum(T[1,4], T[2,4]) / T[1,5] * 100"],
    ///     &["T[7,1]", "sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100"],
    /// ]).unwrap();
    /// assert_eq!(demo.n_rows(), 2);
    /// assert_eq!(demo.n_cols(), 2);
    /// ```
    pub fn parse(rows: &[&[&str]]) -> Result<Demo, ParseError> {
        let mut parsed = Vec::with_capacity(rows.len());
        for row in rows {
            let mut cells = Vec::with_capacity(row.len());
            for src in *row {
                cells.push(parse_expr(src)?);
            }
            parsed.push(cells);
        }
        Demo::new(parsed).map_err(|e| ParseError {
            src: String::new(),
            pos: 0,
            msg: format!("ragged demonstration rows: {e}"),
        })
    }

    /// Number of demonstration rows.
    pub fn n_rows(&self) -> usize {
        self.cells.n_rows()
    }

    /// Number of demonstration columns.
    pub fn n_cols(&self) -> usize {
        self.cells.n_cols()
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> &DemoExpr {
        &self.cells[(row, col)]
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid<DemoExpr> {
        &self.cells
    }

    /// Total number of demonstration cells (the §5.2 "demonstration size").
    pub fn n_cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// All distinct constants appearing in the demonstration. The
    /// synthesizer only invents filter constants from this set (§5.1).
    pub fn constants(&self) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        for row in self.cells.rows() {
            for cell in row {
                collect_consts(cell, &mut out);
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

fn collect_consts(e: &DemoExpr, out: &mut Vec<Value>) {
    match e {
        DemoExpr::Const(v) => out.push(v.clone()),
        DemoExpr::Ref(_) => {}
        DemoExpr::Apply { args, .. } => args.iter().for_each(|a| collect_consts(a, out)),
    }
}

impl fmt::Display for Demo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.cells.rows() {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{cell}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Error produced by the demonstration formula parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The source text.
    pub src: String,
    /// Byte offset of the error.
    pub pos: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at byte {} in {:?}: {}",
            self.pos, self.src, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a single demonstration formula.
///
/// Grammar (whitespace-insensitive):
///
/// ```text
/// expr    := term (('+' | '-') term)*
/// term    := factor (('*' | '/') factor)*
/// factor  := number | string | ref | call | '(' expr ')'
/// ref     := 'T' [0-9]* '[' int ',' int ']'        -- 1-based
/// call    := ident '(' (arg (',' arg)*)? ')'
/// arg     := expr | '...' | '◇' | '<>'              -- omission markers
/// ```
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
///
/// # Examples
///
/// ```
/// use sickle_provenance::parse_expr;
///
/// let e = parse_expr("sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100").unwrap();
/// assert!(e.has_omission());
/// assert_eq!(e.refs().len(), 4);
/// ```
pub fn parse_expr(src: &str) -> Result<DemoExpr, ParseError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    let e = p.expr()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

struct Parser<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
}

/// Argument slot during call parsing: a real expression or an omission.
enum Arg {
    Expr(DemoExpr),
    Omitted,
}

impl<'s> Parser<'s> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            src: self.src.to_owned(),
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn expr(&mut self) -> Result<DemoExpr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(b'+') => ArithOp::Add,
                Some(b'-') => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.term()?;
            lhs = DemoExpr::apply(FuncName::Op(op), vec![lhs, rhs]);
        }
    }

    fn term(&mut self) -> Result<DemoExpr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(b'*') => ArithOp::Mul,
                Some(b'/') => ArithOp::Div,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.factor()?;
            lhs = DemoExpr::apply(FuncName::Op(op), vec![lhs, rhs]);
        }
    }

    fn factor(&mut self) -> Result<DemoExpr, ParseError> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(b')')?;
                Ok(e)
            }
            Some(b'"') | Some(b'\'') => self.string(),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.ident_or_call(),
            _ => Err(self.err("expected expression")),
        }
    }

    fn string(&mut self) -> Result<DemoExpr, ParseError> {
        let quote = self.bytes[self.pos];
        self.pos += 1;
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != quote {
            self.pos += 1;
        }
        if self.pos == self.bytes.len() {
            return Err(self.err("unterminated string"));
        }
        let s = &self.src[start..self.pos];
        self.pos += 1;
        Ok(DemoExpr::Const(Value::from(s)))
    }

    fn number(&mut self) -> Result<DemoExpr, ParseError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'.')
        {
            // Don't swallow an omission marker `...`.
            if self.bytes[self.pos] == b'.' && self.bytes.get(self.pos + 1) == Some(&b'.') {
                break;
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if let Ok(i) = text.parse::<i64>() {
            Ok(DemoExpr::Const(Value::Int(i)))
        } else if let Ok(f) = text.parse::<f64>() {
            Ok(DemoExpr::Const(Value::Float(f)))
        } else {
            Err(self.err(format!("bad number {text:?}")))
        }
    }

    fn ident(&mut self) -> &'s str {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn ident_or_call(&mut self) -> Result<DemoExpr, ParseError> {
        self.skip_ws();
        let name = self.ident();
        self.skip_ws();
        // Table reference: `T[...]`, `T1[...]`, `T2[...]`.
        if self.bytes.get(self.pos) == Some(&b'[') {
            return self.cell_ref(name);
        }
        if self.bytes.get(self.pos) == Some(&b'(') {
            return self.call(name);
        }
        Err(self.err(format!("unexpected identifier {name:?}")))
    }

    fn cell_ref(&mut self, name: &str) -> Result<DemoExpr, ParseError> {
        let table = if name == "T" {
            0
        } else if let Some(num) = name.strip_prefix('T') {
            let n: usize = num
                .parse()
                .map_err(|_| self.err(format!("bad table name {name:?}")))?;
            if n == 0 {
                return Err(self.err("table indices are 1-based"));
            }
            n - 1
        } else {
            return Err(self.err(format!("bad table name {name:?}")));
        };
        self.expect(b'[')?;
        let row = self.int()?;
        self.expect(b',')?;
        let col = self.int()?;
        self.expect(b']')?;
        if row == 0 || col == 0 {
            return Err(self.err("cell references are 1-based"));
        }
        Ok(DemoExpr::Ref(CellRef::new(table, row - 1, col - 1)))
    }

    fn int(&mut self) -> Result<usize, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected integer"))
    }

    fn call(&mut self, name: &str) -> Result<DemoExpr, ParseError> {
        let func = match name {
            "sum" => FuncName::Agg(AggFunc::Sum),
            "avg" => FuncName::Agg(AggFunc::Avg),
            "max" => FuncName::Agg(AggFunc::Max),
            "min" => FuncName::Agg(AggFunc::Min),
            "count" => FuncName::Agg(AggFunc::Count),
            "rank" => FuncName::Rank,
            "dense_rank" => FuncName::DenseRank,
            other => return Err(self.err(format!("unknown function {other:?}"))),
        };
        self.expect(b'(')?;
        let mut args = Vec::new();
        let mut partial = false;
        if !self.eat(b')') {
            loop {
                match self.arg()? {
                    Arg::Expr(e) => args.push(e),
                    Arg::Omitted => partial = true,
                }
                if self.eat(b',') {
                    continue;
                }
                self.expect(b')')?;
                break;
            }
        }
        Ok(DemoExpr::Apply {
            func,
            args,
            partial,
        })
    }

    fn arg(&mut self) -> Result<Arg, ParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with("...") {
            self.pos += 3;
            return Ok(Arg::Omitted);
        }
        if self.src[self.pos..].starts_with("◇") {
            self.pos += "◇".len();
            return Ok(Arg::Omitted);
        }
        if self.src[self.pos..].starts_with("<>") {
            self.pos += 2;
            return Ok(Arg::Omitted);
        }
        Ok(Arg::Expr(self.expr()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_running_example_cells() {
        let e = parse_expr("sum(T[1,4], T[2,4]) / T[1,5] * 100").unwrap();
        assert!(!e.has_omission());
        assert_eq!(e.refs().len(), 3);
        // Structure: ((sum / ref) * 100)
        match &e {
            DemoExpr::Apply {
                func: FuncName::Op(ArithOp::Mul),
                args,
                partial: false,
            } => {
                assert_eq!(args.len(), 2);
                assert_eq!(args[1], DemoExpr::Const(Value::Int(100)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_omission_markers() {
        for marker in ["...", "◇", "<>"] {
            let src = format!("sum(T[1,4], {marker}, T[8,4])");
            let e = parse_expr(&src).unwrap();
            assert!(e.has_omission(), "marker {marker}");
            assert_eq!(e.refs().len(), 2);
        }
    }

    #[test]
    fn parses_multi_table_refs() {
        let e = parse_expr("T2[3,1]").unwrap();
        assert_eq!(e, DemoExpr::Ref(CellRef::new(1, 2, 0)));
    }

    #[test]
    fn rejects_zero_based_refs() {
        assert!(parse_expr("T[0,1]").is_err());
        assert!(parse_expr("T0[1,1]").is_err());
    }

    #[test]
    fn rejects_unknown_function() {
        let err = parse_expr("median(T[1,1])").unwrap_err();
        assert!(err.msg.contains("unknown function"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_expr("T[1,1] T[2,2]").is_err());
    }

    #[test]
    fn parses_strings_and_floats() {
        assert_eq!(
            parse_expr("'west'").unwrap(),
            DemoExpr::Const(Value::from("west"))
        );
        assert_eq!(
            parse_expr("2.5").unwrap(),
            DemoExpr::Const(Value::Float(2.5))
        );
    }

    #[test]
    fn precedence_mul_over_add() {
        // 1 + 2 * 3 => 1 + (2 * 3)
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            DemoExpr::Apply {
                func: FuncName::Op(ArithOp::Add),
                args,
                ..
            } => match &args[1] {
                DemoExpr::Apply {
                    func: FuncName::Op(ArithOp::Mul),
                    ..
                } => {}
                other => panic!("rhs should be mul, got {other:?}"),
            },
            other => panic!("expected add at top, got {other:?}"),
        }
    }

    #[test]
    fn display_round_trips_syntax() {
        let e = parse_expr("sum(T[1,4], ..., T[8,4]) / T[7,5] * 100").unwrap();
        let shown = e.to_string();
        assert!(shown.contains("◇"), "{shown}");
        assert!(shown.contains("sum(T1[1,4]"), "{shown}");
    }

    #[test]
    fn demo_constants_and_size() {
        let demo = Demo::parse(&[
            &["T[1,1]", "sum(T[1,2]) * 100"],
            &["T[2,1]", "sum(T[2,2]) * 100"],
        ])
        .unwrap();
        assert_eq!(demo.n_cells(), 4);
        assert_eq!(demo.constants(), vec![Value::Int(100)]);
    }

    #[test]
    fn empty_call_is_partial_friendly() {
        let e = parse_expr("count()").unwrap();
        assert_eq!(e.leaf_count(), 0);
    }

    #[test]
    fn parse_error_reports_position() {
        let err = parse_expr("sum(T[1,1]").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        assert!(err.pos >= 9);
    }
}
