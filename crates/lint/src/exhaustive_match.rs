//! `exhaustive-match` — no wildcard arms on growth enums.
//!
//! The enums in [`GROWTH_ENUMS`] are the ones the ROADMAP keeps adding
//! variants to: a fifth scheme (IPS, arXiv 2409.14360) means a new
//! `SchemeKind`; new background work means a new `RoundOrigin`; new fault
//! shapes mean new `FlashError`s. A `_ =>` arm on any of these compiles
//! cleanly when the variant lands and silently swallows it — exactly the
//! failure mode exhaustive matching exists to prevent. The rule flags every
//! *bare* `_` arm (a lone `_` pattern, no guard) in a `match` whose other arm
//! patterns name a growth-enum variant. Guarded wildcards (`x if cond =>`)
//! and binding patterns (`other =>`) are left alone: they express intent,
//! and rustc still forces totality around them.

use crate::lexer::{TokKind, Token};
use crate::ttree::TokenTreeIndex;
use crate::{FileCtx, Finding};

/// Enums that grow with the roadmap; wildcard arms on these are denied.
pub const GROWTH_ENUMS: &[&str] = &[
    "SchemeKind",
    "RoundOrigin",
    "FlashError",
    "FtlError",
    "ReqStatus",
    "FlashOpKind",
];

/// One parsed match arm: its pattern token span and source line.
struct Arm {
    pat: (usize, usize),
    line: u32,
}

/// Runs the rule over one file.
pub fn run(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for (open, close) in match_bodies(toks, ctx.tree) {
        // The `match` keyword index for test-masking: walk back from the
        // body; masking any token of the match masks the whole expression.
        if ctx.is_test.get(open).copied().unwrap_or(false) {
            continue;
        }
        let arms = parse_arms(toks, ctx.tree, open, close);
        let names: Vec<&str> = arms
            .iter()
            .flat_map(|a| growth_enums_in(toks, a.pat))
            .collect();
        if names.is_empty() {
            continue;
        }
        for arm in &arms {
            let (s, e) = arm.pat;
            // Bare wildcard: the pattern is exactly one `_` token.
            if e == s + 1 && toks[s].is_ident("_") {
                out.push(Finding {
                    rule: "exhaustive-match",
                    file: ctx.rel_path.to_string(),
                    line: arm.line,
                    message: format!(
                        "wildcard `_` arm in a match over growth enum `{}` — a new variant \
                         (e.g. the IPS scheme) would be silently swallowed; enumerate every \
                         variant or bind it with a named pattern",
                        names[0]
                    ),
                });
            }
        }
    }
}

/// `{`..`}` spans of every `match` body in the file. Also used by the engine
/// to classify indexing sites for `panic-reachability` (match-arm indexing is
/// a panic token everywhere; see [`crate::callgraph::scan_body`]).
pub(crate) fn match_bodies(toks: &[Token], tree: &TokenTreeIndex) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("match") || (i > 0 && toks[i - 1].is_punct(".")) {
            continue;
        }
        // First `{` at group depth 0 after the scrutinee opens the body
        // (struct literals are not allowed in scrutinee position).
        let mut j = i + 1;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                match tree.close_of(j) {
                    Some(c) => {
                        j = c + 1;
                        continue;
                    }
                    None => return out,
                }
            }
            if t.is_punct("{") {
                if let Some(close) = tree.close_of(j) {
                    out.push((j, close));
                }
                break;
            }
            j += 1;
        }
    }
    out
}

/// Splits a match body into arms: pattern spans end at the arm's `=>` (the
/// guard, if any, is part of the span we *search* but the bare-`_` check
/// looks at the span before any `if`).
fn parse_arms(toks: &[Token], tree: &TokenTreeIndex, open: usize, close: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        let pat_start = i;
        let line = toks[i].line;
        // Scan to `=>` at this depth.
        let mut j = i;
        let mut guard_at = None;
        while j < close {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                match tree.close_of(j) {
                    Some(c) => {
                        j = c + 1;
                        continue;
                    }
                    None => return arms,
                }
            }
            if t.is_ident("if") && guard_at.is_none() {
                guard_at = Some(j);
            }
            if t.is_punct("=>") {
                break;
            }
            j += 1;
        }
        if j >= close {
            break;
        }
        let pat_end = guard_at.unwrap_or(j);
        arms.push(Arm {
            pat: (pat_start, pat_end),
            line,
        });
        // Skip the arm body: a `{...}` group, or tokens to the depth-0 `,`.
        let mut k = j + 1;
        if k < close && toks[k].is_punct("{") {
            match tree.close_of(k) {
                Some(c) => k = c + 1,
                None => return arms,
            }
            if k < close && toks[k].is_punct(",") {
                k += 1;
            }
        } else {
            while k < close {
                let t = &toks[k];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    match tree.close_of(k) {
                        Some(c) => {
                            k = c + 1;
                            continue;
                        }
                        None => return arms,
                    }
                }
                if t.is_punct(",") {
                    k += 1;
                    break;
                }
                k += 1;
            }
        }
        i = k;
    }
    arms
}

/// Growth-enum names referenced as `Enum::Variant` inside a pattern span.
fn growth_enums_in(toks: &[Token], (s, e): (usize, usize)) -> Vec<&'static str> {
    let mut found = Vec::new();
    for i in s..e.min(toks.len()) {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if let Some(&hit) = GROWTH_ENUMS.iter().find(|&&g| toks[i].is_ident(g)) {
            if toks.get(i + 1).is_some_and(|t| t.is_punct("::")) {
                found.push(hit);
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use crate::lint_str;

    #[test]
    fn wildcard_on_growth_enum_fires() {
        let src = "fn f(k: SchemeKind) -> u8 { match k { SchemeKind::Baseline => 0, _ => 1 } }";
        let (findings, _) = lint_str("core", "crates/core/src/x.rs", false, src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "exhaustive-match");
    }

    #[test]
    fn named_binding_and_guard_are_fine() {
        let src = "fn f(k: SchemeKind) -> u8 { match k { SchemeKind::Baseline => 0, k if k == SchemeKind::Mga => 1, other => 2 } }";
        let (findings, _) = lint_str("core", "crates/core/src/x.rs", false, src);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn non_growth_matches_ignored() {
        let src = "fn f(s: &str) -> u8 { match s { \"a\" => 0, _ => 1 } }";
        let (findings, _) = lint_str("core", "crates/core/src/x.rs", false, src);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn enum_in_arm_body_does_not_scope_the_match() {
        // The growth enum appears only in an arm *body*, not a pattern —
        // the match itself is over a bool and may use `_`.
        let src = "fn f(b: bool) -> SchemeKind { match b { true => SchemeKind::Ipu, _ => SchemeKind::Mga } }";
        let (findings, _) = lint_str("core", "crates/core/src/x.rs", false, src);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
