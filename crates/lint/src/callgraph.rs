//! Workspace-wide approximate call graph and the `panic-reachability` rule.
//!
//! The graph's nodes are every `fn` body in the scanned source set (test
//! code excluded); edges go from a function to the functions its body
//! *names*. Three call shapes are recognized:
//!
//! * **qualified** — `Type::name(..)`: resolved against `(owner, name)`
//!   pairs; falls back to free functions named `name` inside a module whose
//!   crate matches the path segment (`ipu_flash::read(..)`).
//! * **direct** — `name(..)`: resolved to free functions named `name`,
//!   preferring the caller's own crate.
//! * **method** — `.name(..)`: resolved to *every* workspace fn named
//!   `name` that has an owner (the "method-name fallback"). Receiver types
//!   are not inferred, so this over-approximates: a `.record(..)` call edges
//!   to every workspace `record` method.
//!
//! Soundness posture: reachability is an **over**-approximation (extra
//! edges, never missing name matches), so `panic-reachability` errs toward
//! flagging. The known under-approximations — calls through `Box<dyn Fn>`,
//! function pointers, and macro-generated bodies — do not occur on the
//! host-reachable surfaces this rule guards; DESIGN.md §13 records them.
//!
//! Seeds (the "host-reachable" set) are the workspace's externally driven
//! entry points:
//!
//! * every method of an `impl FtlScheme for _` block, plus `FtlScheme`
//!   trait default bodies — the per-request dispatch surface;
//! * `FlashDevice::{program, read, read_scaled, try_erase}` — the flash
//!   array entry points (crate `flash`);
//! * every method of `EventCore` (crate `sim`) — the event-core dispatch
//!   machinery that interleaves background pulses with host ops.
//!
//! A *panicking token* inside any reachable fn is a finding: `.unwrap(` /
//! `.expect(`, the panic macro family, and slice indexing **inside `match`
//! arms** — the indexing shape that has actually bitten this codebase, and
//! the same calibration the old lexical `no-panic` rule used. Indexing
//! outside match arms is deliberately not a panic token: the FTL hot paths
//! are full of bounds-established `frame[level]`-style access, and flagging
//! all of it would bury the rule under allow comments (DESIGN.md §13 records
//! this noise-floor decision).

use crate::lexer::{TokKind, Token};
use crate::ttree::FnDef;
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A call site extracted from a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `name(..)` with no path or receiver.
    Direct { name: String },
    /// `Owner::name(..)` — `owner` is the last path segment before `::`.
    Qualified { owner: String, name: String },
    /// `.name(..)` method call.
    Method { name: String },
}

/// One panicking token inside a fn body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub line: u32,
    /// Human description, e.g. "`.unwrap()`" or "`panic!`".
    pub what: String,
}

/// Per-fn facts contributed by one file's analysis pass.
#[derive(Debug, Clone)]
pub struct FnFacts {
    pub def: FnDef,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate directory name (`ftl`, `sim`, …).
    pub crate_name: String,
    pub calls: Vec<CallRef>,
    pub panics: Vec<PanicSite>,
}

/// Method names of [`FlashDevice`] that host requests enter through.
const FLASH_SEED_FNS: &[&str] = &["program", "read", "read_scaled", "try_erase"];

/// Extracts calls and panic sites from one fn body. `match_spans` are the
/// file's `match` body token spans: indexing is a panic token only inside
/// them.
pub fn scan_body(
    toks: &[Token],
    body: (usize, usize),
    match_spans: &[(usize, usize)],
) -> (Vec<CallRef>, Vec<PanicSite>) {
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let (open, close) = body;
    for i in open + 1..close {
        let t = &toks[i];
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            let name = t.text.clone();
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            // `fn name(` is a nested definition, not a call; `match`/`if`
            // style keywords never precede `(` as calls either.
            if prev.is_some_and(|p| p.is_ident("fn")) {
                continue;
            }
            if name == "unwrap" || name == "expect" {
                if prev.is_some_and(|p| p.is_punct(".")) {
                    panics.push(PanicSite {
                        line: t.line,
                        what: format!("`.{name}()`"),
                    });
                }
                continue;
            }
            match prev {
                Some(p) if p.is_punct(".") => calls.push(CallRef::Method { name }),
                Some(p) if p.is_punct("::") => {
                    let owner = i
                        .checked_sub(2)
                        .map(|q| &toks[q])
                        .filter(|q| q.kind == TokKind::Ident)
                        .map(|q| q.text.clone());
                    match owner {
                        Some(owner) => calls.push(CallRef::Qualified { owner, name }),
                        None => calls.push(CallRef::Direct { name }),
                    }
                }
                _ => calls.push(CallRef::Direct { name }),
            }
            continue;
        }
        // Panic-family macros.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && !(i > 0 && toks[i - 1].is_punct("."))
        {
            panics.push(PanicSite {
                line: t.line,
                what: format!("`{}!`", t.text),
            });
            continue;
        }
        // Indexing: `expr[` where expr ends in an ident/`)`/`]`/`?`.
        if t.is_punct("[") && i > open + 1 {
            let prev = &toks[i - 1];
            let indexes = (prev.kind == TokKind::Ident && !crate::rules::is_keyword(&prev.text))
                || prev.is_punct(")")
                || prev.is_punct("]")
                || prev.is_punct("?");
            if !indexes {
                continue;
            }
            if match_spans.iter().any(|&(s, e)| i > s && i < e) {
                panics.push(PanicSite {
                    line: t.line,
                    what: "indexing in a match arm".to_string(),
                });
            }
        }
    }
    (calls, panics)
}

/// The assembled workspace call graph.
pub struct CallGraph {
    nodes: Vec<FnFacts>,
    /// name → node ids (all fns).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (owner, name) → node ids.
    by_owner: BTreeMap<(String, String), Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph. `nodes` must already exclude test fns; order is
    /// preserved (callers should pass files in sorted order so node ids —
    /// and therefore BFS tie-breaks — are deterministic).
    pub fn build(nodes: Vec<FnFacts>) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(n.def.name.clone()).or_default().push(id);
            if let Some(owner) = &n.def.owner {
                by_owner
                    .entry((owner.clone(), n.def.name.clone()))
                    .or_default()
                    .push(id);
            }
        }
        CallGraph {
            nodes,
            by_name,
            by_owner,
        }
    }

    /// Resolves one call site to candidate callee node ids.
    fn resolve(&self, caller_crate: &str, call: &CallRef) -> Vec<usize> {
        match call {
            CallRef::Qualified { owner, name } => {
                if let Some(ids) = self.by_owner.get(&(owner.clone(), name.clone())) {
                    return ids.clone();
                }
                // `module::func(..)` — the "owner" was a module path segment.
                // Fall back to free fns with that name; a crate-looking
                // segment (`ipu_flash`) narrows to that crate.
                let krate = owner.strip_prefix("ipu_").unwrap_or(owner);
                let free: Vec<usize> = self
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| self.nodes[id].def.owner.is_none())
                            .collect()
                    })
                    .unwrap_or_default();
                let in_crate: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&id| self.nodes[id].crate_name == krate)
                    .collect();
                if !in_crate.is_empty() {
                    in_crate
                } else {
                    free
                }
            }
            CallRef::Direct { name } => {
                let free: Vec<usize> = self
                    .by_name
                    .get(name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&id| self.nodes[id].def.owner.is_none())
                            .collect()
                    })
                    .unwrap_or_default();
                let same: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&id| self.nodes[id].crate_name == caller_crate)
                    .collect();
                if !same.is_empty() {
                    same
                } else {
                    free
                }
            }
            // Method-name fallback: any owned fn with this name, anywhere.
            CallRef::Method { name } => self
                .by_name
                .get(name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| self.nodes[id].def.owner.is_some())
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    /// Whether a node is a host-reachability seed.
    fn is_seed(n: &FnFacts) -> bool {
        if n.def.trait_name.as_deref() == Some("FtlScheme") {
            return true;
        }
        if n.crate_name == "flash"
            && n.def.owner.as_deref() == Some("FlashDevice")
            && FLASH_SEED_FNS.contains(&n.def.name.as_str())
        {
            return true;
        }
        n.crate_name == "sim" && n.def.owner.as_deref() == Some("EventCore")
    }

    /// Runs the reachability analysis, returning `panic-reachability`
    /// findings sorted by `(file, line)`.
    pub fn panic_reachability(&self) -> Vec<Finding> {
        // BFS from seeds, recording a parent pointer for the path message.
        let n = self.nodes.len();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut reached = vec![false; n];
        let mut queue = VecDeque::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if Self::is_seed(node) {
                reached[id] = true;
                queue.push_back(id);
            }
        }
        while let Some(id) = queue.pop_front() {
            let caller_crate = self.nodes[id].crate_name.clone();
            let mut targets = BTreeSet::new();
            for call in &self.nodes[id].calls {
                for t in self.resolve(&caller_crate, call) {
                    targets.insert(t);
                }
            }
            for t in targets {
                if !reached[t] {
                    reached[t] = true;
                    parent[t] = Some(id);
                    queue.push_back(t);
                }
            }
        }

        let mut out = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if !reached[id] || node.panics.is_empty() {
                continue;
            }
            let path = self.path_label(id, &parent);
            for p in &node.panics {
                out.push(Finding {
                    rule: "panic-reachability",
                    file: node.file.clone(),
                    line: p.line,
                    message: format!(
                        "{} in `{}` is host-reachable ({path}) — propagate an error or \
                         rewrite infallibly",
                        p.what,
                        node.label(),
                    ),
                });
            }
        }
        out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
        out
    }

    /// "seed `A::f` → `g` → `h`" labelling for one reached node.
    fn path_label(&self, id: usize, parent: &[Option<usize>]) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = parent[cur] {
            chain.push(p);
            cur = p;
            if chain.len() > 6 {
                break; // keep messages bounded; the head is the seed side
            }
        }
        chain.reverse();
        let labels: Vec<String> = chain.iter().map(|&i| self.nodes[i].label()).collect();
        if labels.len() == 1 {
            format!("seed `{}`", labels[0])
        } else {
            format!("via seed `{}` → `{}`", labels[0], labels[1..].join("` → `"))
        }
    }

    /// Node count (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl FnFacts {
    /// `Owner::name` or bare `name` label for messages.
    fn label(&self) -> String {
        match &self.def.owner {
            Some(o) => format!("{o}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::ttree::{collect_fns, TokenTreeIndex};

    fn facts(crate_name: &str, file: &str, src: &str) -> Vec<FnFacts> {
        let out = lex(src);
        let tree = TokenTreeIndex::build(&out.tokens);
        let match_spans = crate::exhaustive_match::match_bodies(&out.tokens, &tree);
        collect_fns(&out.tokens, &tree)
            .into_iter()
            .filter(|f| !f.is_test)
            .map(|def| {
                let (calls, panics) = scan_body(&out.tokens, def.body, &match_spans);
                FnFacts {
                    def,
                    file: file.to_string(),
                    crate_name: crate_name.to_string(),
                    calls,
                    panics,
                }
            })
            .collect()
    }

    #[test]
    fn cross_file_unwrap_reachable_from_scheme_seed() {
        let mut nodes = facts(
            "ftl",
            "crates/ftl/src/a.rs",
            "impl FtlScheme for Ipu { fn on_write(&mut self) { helper(1); } }",
        );
        nodes.extend(facts(
            "sim",
            "crates/sim/src/b.rs",
            "pub fn helper(x: u32) -> u32 { maybe(x).unwrap() }\npub fn maybe(x: u32) -> Option<u32> { Some(x) }",
        ));
        let g = CallGraph::build(nodes);
        let findings = g.panic_reachability();
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].file, "crates/sim/src/b.rs");
        assert!(findings[0].message.contains("Ipu::on_write"));
    }

    #[test]
    fn unreached_fn_may_panic() {
        let nodes = facts(
            "core",
            "crates/core/src/x.rs",
            "pub fn render() { v.last().unwrap(); }",
        );
        let g = CallGraph::build(nodes);
        assert!(g.panic_reachability().is_empty());
    }

    #[test]
    fn method_name_fallback_bridges_receivers() {
        let mut nodes = facts(
            "sim",
            "crates/sim/src/ec.rs",
            "impl EventCore { fn dispatch(&mut self) { self.sched.push_op(1); } }",
        );
        nodes.extend(facts(
            "sim",
            "crates/sim/src/res.rs",
            "impl ChipSchedule { fn push_op(&mut self, x: u32) { panic!(\"full\"); } }",
        ));
        let g = CallGraph::build(nodes);
        let findings = g.panic_reachability();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("ChipSchedule::push_op"));
        assert!(findings[0].message.contains("EventCore::dispatch"));
    }

    #[test]
    fn flash_entry_points_are_seeds_and_match_arm_indexing_counts() {
        let nodes = facts(
            "flash",
            "crates/flash/src/device.rs",
            "impl FlashDevice { pub fn program(&mut self, i: usize) { match i { 0 => self.cells[i] = 1, _ => {} } } }",
        );
        let g = CallGraph::build(nodes);
        let findings = g.panic_reachability();
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("indexing in a match arm"));
    }

    #[test]
    fn indexing_outside_match_arms_is_not_a_panic_token() {
        let nodes = facts(
            "flash",
            "crates/flash/src/device.rs",
            "impl FlashDevice { pub fn program(&mut self, i: usize) { let x = self.cells[i]; } }",
        );
        let g = CallGraph::build(nodes);
        assert!(g.panic_reachability().is_empty());
    }

    #[test]
    fn test_fns_never_seed_or_sink() {
        let nodes = facts(
            "ftl",
            "crates/ftl/src/a.rs",
            "#[cfg(test)] mod t { impl FtlScheme for F { fn w(&mut self) { x.unwrap(); } } }",
        );
        let g = CallGraph::build(nodes);
        assert!(g.is_empty());
        assert!(g.panic_reachability().is_empty());
    }

    #[test]
    fn qualified_calls_resolve_by_owner() {
        let mut nodes = facts(
            "ftl",
            "crates/ftl/src/a.rs",
            "impl FtlScheme for Ipu { fn on_read(&mut self) { Helper::go(); Other::go(); } }",
        );
        nodes.extend(facts(
            "ftl",
            "crates/ftl/src/b.rs",
            "impl Helper { fn go() { panic!(\"a\"); } }\nimpl Unrelated { fn nope() { panic!(\"b\"); } }",
        ));
        let g = CallGraph::build(nodes);
        let findings = g.panic_reachability();
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("Helper::go"));
    }
}
