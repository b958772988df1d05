//! The project rule set. Each rule walks the token stream of one file (plus
//! the comment side channel) and reports findings; the engine in `lib.rs`
//! handles file discovery, test-region masking and allow-comment suppression.
//!
//! | id                  | invariant |
//! |---------------------|-----------|
//! | `no-wall-clock`     | R2: no `SystemTime`/`Instant`/`std::time` in `ipu-sim`/`ipu-ftl`/`ipu-flash`/`ipu-trace` non-test code |
//! | `unordered-iter`    | R3: no `HashMap`/`HashSet` in files on the deterministic-output surface (reports, JSONL export, replay-cache state) |
//! | `serde-default`     | R4: every field of `Deserialize` structs in the config-hygiene files carries `#[serde(default)]` |
//! | `forbid-unsafe`     | R5: every crate root declares `#![forbid(unsafe_code)]` |
//! | `float-eq`          | R6: no `==`/`!=` against float literals outside tests |
//! | `missing-doc`       | R7: scheme-trait methods and error/scheme enum variants carry doc comments |
//! | `no-debug-print`    | R8: no `dbg!`/`println!` in library code (bin entry points exempt) |
//! | `panic-reachability`| R9: no panicking token transitively reachable from a host-driven seed (see [`crate::callgraph`]) — replaces the old per-file `no-panic` |
//! | `exhaustive-match`  | R10: no bare `_ =>` arms on growth enums (see [`crate::exhaustive_match`]) |
//! | `merge-complete`    | R11: conservation-ledger structs merge and serialize every field (see [`crate::merge_complete`]) |
//! | `nondet-reduce`     | R12: no order-sensitive reductions over unordered containers (see [`crate::nondet_reduce`]) |
//!
//! R9–R12 live in their own modules; this module keeps the lexical rules and
//! the `run_all` per-file dispatcher. `panic-reachability` is the one rule
//! that cannot run per-file — its findings come from the workspace call graph
//! in the engine's second phase.

use crate::lexer::{TokKind, Token};
use crate::{FileCtx, Finding};

/// All rule identifiers, as accepted by `// ipu-lint: allow(<rule>)`.
pub const RULE_IDS: &[&str] = &[
    "no-wall-clock",
    "unordered-iter",
    "serde-default",
    "forbid-unsafe",
    "float-eq",
    "missing-doc",
    "no-debug-print",
    "panic-reachability",
    "exhaustive-match",
    "merge-complete",
    "nondet-reduce",
];

/// Crates whose non-test code must not read wall-clock time (R2).
const DETERMINISTIC_CRATES: &[&str] = &["sim", "ftl", "flash", "trace", "fleet"];

/// Files on the deterministic-output surface (R3): anything here feeds report
/// rendering, JSONL export, or state replayed under the on-disk cache, where
/// unordered iteration silently breaks bit-identical replay.
pub const ORDERED_OUTPUT_FILES: &[&str] = &[
    "crates/trace/src/stats.rs",
    "crates/trace/src/analysis.rs",
    "crates/ftl/src/cache_meta.rs",
    "crates/ftl/src/schemes/common.rs",
    "crates/ftl/src/schemes/mod.rs",
    "crates/core/src/report.rs",
    "crates/core/src/results.rs",
    "crates/core/src/scorecard.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/profile.rs",
    "crates/core/src/charts.rs",
    "crates/core/src/svg.rs",
    "crates/obs/src/export.rs",
    "crates/fleet/src/report.rs",
    "crates/fleet/src/fault.rs",
    "crates/fleet/src/health.rs",
    "crates/fleet/src/tolerance.rs",
];

/// Config-hygiene scopes (R4): `(file, Some(struct))` checks one struct,
/// `(file, None)` checks every `Deserialize`-deriving struct in the file.
const SERDE_DEFAULT_SCOPES: &[(&str, Option<&str>)] = &[
    ("crates/core/src/config.rs", None),
    ("crates/flash/src/config.rs", Some("DeviceConfig")),
];

/// Documentation scopes (R7): `pub trait` methods and/or `pub enum` variants
/// in these files must carry doc comments.
const DOC_SCOPES: &[(&str, DocScope)] = &[
    ("crates/ftl/src/schemes/mod.rs", DocScope::TraitsAndEnums),
    ("crates/ftl/src/error.rs", DocScope::Enums),
    ("crates/flash/src/device.rs", DocScope::Enums),
];

#[derive(Clone, Copy, PartialEq)]
enum DocScope {
    Enums,
    TraitsAndEnums,
}

/// Crates exempt from the debug-print rule (R8): user-facing binaries whose
/// job is to print.
const PRINT_EXEMPT_CRATES: &[&str] = &["cli", "lint"];

/// Runs every file-scoped rule over `ctx`, appending findings.
/// `panic-reachability` is absent on purpose: it needs the whole-workspace
/// call graph and runs in the engine's second phase.
pub fn run_all(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    no_wall_clock(ctx, out);
    unordered_iter(ctx, out);
    serde_default(ctx, out);
    forbid_unsafe(ctx, out);
    float_eq(ctx, out);
    missing_doc(ctx, out);
    no_debug_print(ctx, out);
    crate::exhaustive_match::run(ctx, out);
    crate::merge_complete::run(ctx, out);
    crate::nondet_reduce::run(ctx, out);
}

fn finding(ctx: &FileCtx<'_>, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: ctx.rel_path.to_string(),
        line,
        message,
    }
}

/// Keywords that can directly precede `[` without forming an index expression
/// (e.g. `in [a, b]`, `return [x]`).
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// R2 — determinism: no wall-clock reads in simulation crates.
fn no_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.is_test[i] {
            continue;
        }
        if toks[i].is_ident("SystemTime") || toks[i].is_ident("Instant") {
            out.push(finding(
                ctx,
                "no-wall-clock",
                toks[i].line,
                format!(
                    "{} is wall-clock time — simulation state must only depend on simulated time",
                    toks[i].text
                ),
            ));
        }
        if i + 2 < toks.len()
            && toks[i].is_ident("std")
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("time")
        {
            out.push(finding(
                ctx,
                "no-wall-clock",
                toks[i].line,
                "std::time is wall-clock time — use simulated Nanos".to_string(),
            ));
        }
    }
}

/// R3 — ordering determinism on the report/export/replay surface.
fn unordered_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ORDERED_OUTPUT_FILES.contains(&ctx.rel_path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.is_test[i] {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(finding(
                ctx,
                "unordered-iter",
                t.line,
                format!(
                    "{} iteration order is nondeterministic and this file feeds \
                     deterministic output — use BTreeMap/BTreeSet or sort explicitly",
                    t.text
                ),
            ));
        }
    }
}

/// R4 — config hygiene: `#[serde(default)]` on every field so a config schema
/// change deserializes (and then reads as a cache miss) instead of failing.
fn serde_default(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let Some(&(_, struct_filter)) = SERDE_DEFAULT_SCOPES
        .iter()
        .find(|(f, _)| *f == ctx.rel_path)
    else {
        return;
    };
    let toks = ctx.tokens;
    let mut i = 0;
    while i < toks.len() {
        // A `#[derive(...)]` attribute containing Deserialize…
        if !(toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_end = match matching_bracket(toks, i + 1) {
            Some(e) => e,
            None => break,
        };
        let derives_deserialize = toks[i + 2].is_ident("derive")
            && toks[i + 2..attr_end]
                .iter()
                .any(|t| t.is_ident("Deserialize"));
        i = attr_end + 1;
        if !derives_deserialize {
            continue;
        }
        // …followed (after more attributes) by `pub struct Name { fields }`.
        while i < toks.len() && toks[i].is_punct("#") {
            match matching_bracket(toks, i + 1) {
                Some(e) => i = e + 1,
                None => return,
            }
        }
        while i < toks.len() && (toks[i].is_ident("pub") || toks[i].is_punct("(")) {
            // skip `pub` / `pub(crate)` tokens
            if toks[i].is_punct("(") {
                match matching_paren(toks, i) {
                    Some(e) => i = e + 1,
                    None => return,
                }
            } else {
                i += 1;
            }
        }
        if i >= toks.len() || !toks[i].is_ident("struct") {
            continue; // enum or tuple struct: out of scope for this rule
        }
        let name = match toks.get(i + 1) {
            Some(t) if t.kind == TokKind::Ident => t.text.clone(),
            _ => continue,
        };
        // Find the `{` opening the field block (skip generics).
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(";") {
            continue; // unit/tuple struct
        }
        let body_end = match matching_brace(toks, j) {
            Some(e) => e,
            None => break,
        };
        i = body_end + 1;
        if let Some(filter) = struct_filter {
            if name != filter {
                continue;
            }
        }
        check_struct_fields(ctx, &name, toks, j + 1, body_end, out);
    }
}

/// Walks the fields between `start` and `end` (exclusive), flagging any whose
/// attribute list lacks `#[serde(default)]` (or `#[serde(..., default, ...)]`).
fn check_struct_fields(
    ctx: &FileCtx<'_>,
    struct_name: &str,
    toks: &[Token],
    start: usize,
    end: usize,
    out: &mut Vec<Finding>,
) {
    let mut i = start;
    while i < end {
        // Collect this field's attributes.
        let mut has_default = false;
        while i < end && toks[i].is_punct("#") {
            let attr_end = match matching_bracket(toks, i + 1) {
                Some(e) => e.min(end),
                None => end,
            };
            if toks[i + 2].is_ident("serde")
                && toks[i + 2..attr_end].iter().any(|t| t.is_ident("default"))
            {
                has_default = true;
            }
            i = attr_end + 1;
        }
        if i >= end {
            break;
        }
        // `pub name :` — the field itself.
        while i < end && (toks[i].is_ident("pub") || toks[i].is_punct("(")) {
            if toks[i].is_punct("(") {
                match matching_paren(toks, i) {
                    Some(e) => i = e.min(end) + 1,
                    None => return,
                }
            } else {
                i += 1;
            }
        }
        if i >= end {
            break;
        }
        let field = &toks[i];
        if field.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        if !has_default {
            out.push(finding(
                ctx,
                "serde-default",
                field.line,
                format!(
                    "field `{struct_name}.{}` lacks #[serde(default)] — a schema change must \
                     deserialize as a cache miss, not an error",
                    field.text
                ),
            ));
        }
        // Skip the type, to the `,` at this nesting depth (or the end).
        let mut depth = 0i32;
        while i < end {
            match toks[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// R5 — every crate root opts out of `unsafe` for good.
fn forbid_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let toks = ctx.tokens;
    let found = (0..toks.len()).any(|i| {
        toks[i].is_punct("#")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct("("))
            && toks[i + 5..]
                .iter()
                .take_while(|t| !t.is_punct(")"))
                .any(|t| t.is_ident("unsafe_code"))
    });
    if !found {
        out.push(finding(
            ctx,
            "forbid-unsafe",
            1,
            "crate root lacks #![forbid(unsafe_code)]".to_string(),
        ));
    }
}

/// R6 — no float `==`/`!=` outside tests.
fn float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.is_test[i] {
            continue;
        }
        if !(toks[i].is_punct("==") || toks[i].is_punct("!=")) {
            continue;
        }
        let neighbor_float = (i > 0 && toks[i - 1].kind == TokKind::Float)
            || toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Float);
        if neighbor_float {
            out.push(finding(
                ctx,
                "float-eq",
                toks[i].line,
                format!(
                    "`{}` against a float literal — exact float comparison is fragile; \
                     compare ranges, bits, or add an allow with the exactness argument",
                    toks[i].text
                ),
            ));
        }
    }
}

/// R7 — documentation on the scheme trait and error enums.
fn missing_doc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let Some(&(_, scope)) = DOC_SCOPES.iter().find(|(f, _)| *f == ctx.rel_path) else {
        return;
    };
    let toks = ctx.tokens;
    // Lines on which a doc comment ends, and lines holding only attributes —
    // a doc comment "covers" an item if it ends just above the item or its
    // attribute lines.
    let doc_end_lines: Vec<u32> = ctx
        .comments
        .iter()
        .filter(|c| c.doc)
        .map(|c| c.end_line)
        .collect();

    let mut i = 0;
    while i < toks.len() {
        if ctx.is_test[i] {
            i += 1;
            continue;
        }
        let is_pub = toks[i].is_ident("pub");
        let kw = if is_pub {
            toks.get(i + 1)
        } else {
            Some(&toks[i])
        };
        let Some(kw) = kw else { break };
        if is_pub && kw.is_ident("trait") && scope == DocScope::TraitsAndEnums {
            if let Some(open) = toks[i..].iter().position(|t| t.is_punct("{")) {
                let open = i + open;
                if let Some(end) = matching_brace(toks, open) {
                    check_trait_items(ctx, toks, open, end, &doc_end_lines, out);
                    i = end + 1;
                    continue;
                }
            }
        }
        if is_pub && kw.is_ident("enum") {
            let name = toks.get(i + 2).map(|t| t.text.clone()).unwrap_or_default();
            if let Some(open) = toks[i..].iter().position(|t| t.is_punct("{")) {
                let open = i + open;
                if let Some(end) = matching_brace(toks, open) {
                    check_enum_variants(ctx, &name, toks, open, end, &doc_end_lines, out);
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Whether an item whose first token (attribute or signature) sits on
/// `first_line` has a doc comment directly above it.
fn has_doc_above(first_line: u32, doc_end_lines: &[u32]) -> bool {
    doc_end_lines.contains(&(first_line.saturating_sub(1)))
}

fn check_trait_items(
    ctx: &FileCtx<'_>,
    toks: &[Token],
    open: usize,
    end: usize,
    doc_end_lines: &[u32],
    out: &mut Vec<Finding>,
) {
    let mut i = open + 1;
    while i < end {
        let item_start = i;
        // Scan this item: to its terminating `;` or past its `{...}` body.
        let mut fn_name: Option<String> = None;
        let mut j = i;
        let mut depth = 0i32;
        while j < end {
            let t = &toks[j];
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    if t.is_punct("{") && depth == 0 {
                        // Default method body: skip it whole.
                        if let Some(close) = matching_brace(toks, j) {
                            j = close;
                        }
                        break;
                    }
                    depth += 1;
                }
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {
                    if t.is_ident("fn") && fn_name.is_none() {
                        fn_name = toks.get(j + 1).map(|n| n.text.clone());
                    }
                }
            }
            j += 1;
        }
        if let Some(name) = fn_name {
            if !has_doc_above(toks[item_start].line, doc_end_lines) {
                out.push(finding(
                    ctx,
                    "missing-doc",
                    toks[item_start].line,
                    format!("trait method `{name}` has no doc comment"),
                ));
            }
        }
        i = j + 1;
    }
}

fn check_enum_variants(
    ctx: &FileCtx<'_>,
    enum_name: &str,
    toks: &[Token],
    open: usize,
    end: usize,
    doc_end_lines: &[u32],
    out: &mut Vec<Finding>,
) {
    let mut i = open + 1;
    while i < end {
        let variant_start = i;
        // First ident after attributes is the variant name.
        let mut j = i;
        while j < end && toks[j].is_punct("#") {
            match matching_bracket(toks, j + 1) {
                Some(e) => j = e + 1,
                None => return,
            }
        }
        if j >= end || toks[j].kind != TokKind::Ident {
            break;
        }
        let name = toks[j].text.clone();
        if !has_doc_above(toks[variant_start].line, doc_end_lines) {
            out.push(finding(
                ctx,
                "missing-doc",
                toks[variant_start].line,
                format!("enum variant `{enum_name}::{name}` has no doc comment"),
            ));
        }
        // Skip to the `,` at this depth (variant payloads may nest).
        let mut depth = 0i32;
        while j < end {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
}

/// R8 — library code never prints to stdout or leaves `dbg!` behind.
fn no_debug_print(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if PRINT_EXEMPT_CRATES.contains(&ctx.crate_name) || ctx.file_name == "main.rs" {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if ctx.is_test[i] {
            continue;
        }
        if toks[i].kind == TokKind::Ident
            && (toks[i].text == "println" || toks[i].text == "dbg")
            && toks[i + 1].is_punct("!")
            && !(i > 0 && toks[i - 1].is_punct("."))
        {
            out.push(finding(
                ctx,
                "no-debug-print",
                toks[i].line,
                format!(
                    "{}! in library code — return strings or use the obs layer",
                    toks[i].text
                ),
            ));
        }
    }
}
