//! Deterministic fuzzing of the parsers that take untrusted input: the
//! JSON codec behind the wire protocol, the CSV table reader and the
//! demonstration formula parser. Inputs come from the in-repo `Rng`:
//! random strings over each grammar's alphabet (with multi-byte and
//! control characters), and mutations of valid documents (insert,
//! delete, replace, duplicate, truncate). Every input must come back as a
//! value or a structured error whose position lies inside the input;
//! none may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sickle_bench::{parse_csv_table as parse_table, render_csv_table as render_table, Json};
use sickle_benchmarks::rng::Rng;
use sickle_provenance::{parse_expr, Demo};

/// Inputs generated per parser.
const CASES: usize = 3_000;

/// Characters every generator draws from, besides each grammar's own.
const COMMON: &[char] = &[
    ' ', '\t', '\n', '\r', '\0', '\\', '"', '\'', ',', '.', '-', '+', 'e', 'E', '0', '1', '9', 'a',
    'z', 'é', '€', '😀', '\u{7f}', '\u{feff}',
];

const JSON_CHARS: &[char] = &[
    '{', '}', '[', ']', ':', 't', 'r', 'u', 'f', 'n', 'l', 's', 'b',
];

const CSV_CHARS: &[char] = &['\n', '"', ',', 't', 'r', 'u', 'f', 'a', 'l', 's', '5'];

const DEMO_CHARS: &[char] = &[
    'T', '[', ']', '(', ')', '*', '/', '◇', '<', '>', 's', 'u', 'm', 'x', '2',
];

const JSON_SEEDS: &[&str] = &[
    r#"{"op":"solve","inputs":[{"name":"t","csv":"a,b\n1,2"}],"demo":[["T[1,1]","sum(T[1,2], ...)"]],"budget":{"max_visited":100,"timeout_ms":5}}"#,
    r#"[1, -2.5e3, 0.0, 1E+2, true, false, null, "xé\n\"", {}, []]"#,
    r#"{"a":{"b":{"c":[[["deep"]]]}},"u":"😀"}"#,
    r#"[1e999999, -0, "\ud800", "\udc00\ud800", "\u12", "\x", 18446744073709551616]"#,
];

const CSV_SEEDS: &[&str] = &[
    "a,b,c\n1,2.5,x\n\"q,uo\"\"te\",true,\n",
    "city,quarter,enrolled\r\nA,1,1667\r\nA,2,256\r\nB,1,\"\"\r\n",
    "x\n-0\n1e3\nNaN\nfalse\n",
    "\"\"\"\na\n\"b",
    "a,a\n1e999999,18446744073709551616\n",
];

const DEMO_SEEDS: &[&str] = &[
    "sum(T[1,4], T[2,4], ..., T[8,4]) / T[7,5] * 100",
    "T2[3,1]",
    "max(<>, ◇, 'str', \"s\", -(1 + 2) * 3.5)",
    "group{T[1,1], T[2,1]}",
    "T[0,0] + T[18446744073709551616,1] + T99999999999999999999[1,1]",
    "1e999999 / 0 - 'unterminated",
    "sum(..., ◇, <>",
];

/// A random string of up to `max_len` characters from `own` and
/// [`COMMON`].
fn random_text(rng: &mut Rng, own: &[char], max_len: usize) -> String {
    let len = rng.gen_range(max_len + 1);
    (0..len).map(|_| pick(rng, own)).collect()
}

fn pick(rng: &mut Rng, own: &[char]) -> char {
    let i = rng.gen_range(own.len() + COMMON.len());
    if i < own.len() {
        own[i]
    } else {
        COMMON[i - own.len()]
    }
}

/// `seed` with one to four random edits.
fn mutate(rng: &mut Rng, seed: &str, own: &[char]) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for _ in 0..1 + rng.gen_range(4) {
        let at = rng.gen_range(chars.len() + 1);
        match rng.gen_range(5) {
            0 => chars.insert(at, pick(rng, own)),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            2 if at < chars.len() => chars[at] = pick(rng, own),
            3 => {
                let end = (at + rng.gen_range(8)).min(chars.len());
                let slice: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, slice);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// The fuzz inputs of one parser: random texts, mutated seeds, the seeds
/// themselves and deep nests of `open`.
fn inputs(seed: u64, own: &[char], seeds: &[&str], open: &str) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    out.extend([1, 127, 128, 129, 10_000].map(|n| open.repeat(n)));
    for i in 0..CASES {
        out.push(if i % 3 == 0 {
            random_text(&mut rng, own, 48)
        } else {
            let base = seeds[rng.gen_range(seeds.len())];
            mutate(&mut rng, base, own)
        });
    }
    out
}

/// Runs `parse` on every input, failing with the offending input on a
/// panic. `check` asserts the result is well formed.
fn fuzz<R>(
    name: &str,
    inputs: &[String],
    parse: impl Fn(&str) -> R,
    mut check: impl FnMut(&str, &R),
) {
    for src in inputs {
        let result = catch_unwind(AssertUnwindSafe(|| parse(src)))
            .unwrap_or_else(|_| panic!("{name} parser panicked on {src:?}"));
        check(src, &result);
    }
}

#[test]
fn json_parser_returns_values_or_positioned_errors() {
    let mut errors = 0;
    fuzz(
        "json",
        &inputs(1, JSON_CHARS, JSON_SEEDS, "["),
        Json::parse,
        |src, result| match result {
            Ok(json) => {
                // Whatever parses renders, and the rendering parses back.
                let again = Json::parse(&json.render());
                assert!(again.is_ok(), "{src:?} re-parse: {again:?}");
            }
            Err(e) => {
                assert!(e.pos <= src.len(), "{src:?}: {e}");
                assert!(!e.msg.is_empty(), "{src:?}");
            }
        },
    );
    fuzz(
        "json",
        &inputs(2, JSON_CHARS, JSON_SEEDS, "{\"k\":"),
        Json::parse,
        |_, result| errors += usize::from(result.is_err()),
    );
    assert!(errors > 0);
}

#[test]
fn csv_parser_returns_tables_or_row_errors() {
    fuzz(
        "csv",
        &inputs(3, CSV_CHARS, CSV_SEEDS, "\""),
        parse_table,
        |src, result| match result {
            Ok(table) => {
                // A parsed table renders (or refuses with a structured
                // error) without panicking.
                let rendered = catch_unwind(AssertUnwindSafe(|| render_table(table)));
                assert!(rendered.is_ok(), "csv render panicked on {src:?}");
            }
            Err(e) => {
                assert!(!e.msg.is_empty(), "{src:?}");
                assert!(e.row <= src.len() + 1, "{src:?}: {e}");
            }
        },
    );
}

#[test]
fn demo_formula_parser_returns_formulas_or_positioned_errors() {
    let formulas = inputs(4, DEMO_CHARS, DEMO_SEEDS, "(");
    fuzz("demo formula", &formulas, parse_expr, |src, result| {
        if let Err(e) = result {
            assert!(e.pos <= src.len(), "{src:?}: {e}");
            assert!(!e.msg.is_empty(), "{src:?}");
            // The excerpt is bounded, whatever the input's size.
            assert!(e.excerpt.len() <= 64 + 8, "{src:?}: {e}");
        }
    });
    // Whole demonstrations: rows of fuzzed cells, ragged ones included.
    let mut rng = Rng::seed_from_u64(5);
    for chunk in formulas.chunks(6) {
        let width = 1 + rng.gen_range(3);
        let rows: Vec<Vec<&str>> = chunk
            .chunks(width)
            .map(|row| row.iter().map(String::as_str).collect())
            .collect();
        let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        let result = catch_unwind(AssertUnwindSafe(|| Demo::parse(&rows)));
        assert!(result.is_ok(), "Demo::parse panicked on {rows:?}");
    }
}
