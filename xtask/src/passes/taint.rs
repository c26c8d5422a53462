//! **N1 — nondeterminism taint** (`ES-A010`).
//!
//! Starting from the scheduler entry points (`schedule`, `execute`,
//! `execute_with`, `repair`, `repair_with`, and the online
//! shared-network entry points `run_online` and `arrival_script`, all
//! in `crates/core/src/`),
//! walk the name-resolved call graph across all crate `src/` trees and
//! flag, in every reachable non-test function, observations of
//! unordered or ambient state that would make schedules
//! irreproducible:
//!
//! * iteration over `HashMap`/`HashSet` locals (`.iter()`, `.keys()`,
//!   `.values()`, `.drain()`, `.retain()`, `for _ in &map`, …) —
//!   hash order is randomized per process;
//! * wall-clock reads: `Instant::now()`, `SystemTime::now()`,
//!   `.elapsed()`;
//! * thread-identity observation: `thread::current`, `ThreadId`;
//! * pointer-as-integer observation: `as_ptr()`/`from_ref()`/
//!   `addr_of!`-family results cast `as usize`-like, or `.addr()` —
//!   allocator addresses differ run to run;
//! * unordered float reductions: `sum`/`product`/`fold` over a hash
//!   container in a float context — float addition is not
//!   associative, so reduction order changes the result.
//!
//! Resolution is by callee *name* (no type inference): same file
//! first, then same crate, then any crate. That over-approximates
//! reachability — safe for a determinism lint (false positives are
//! visible, false negatives are not). Locals only: hash containers
//! reaching a fn through parameters or fields are L1's territory
//! (hot-path crates ban them outright).

use super::{crate_of, in_crate_src, Model};
use crate::lexer::TokenKind;
use crate::parser::ParsedFile;
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Call-graph roots: the scheduler/executor/repair entry points, plus
/// the online shared-network entry points (the event loop and the
/// arrival-script generator both feed bitwise-pinned outcomes).
const ROOT_FNS: [&str; 7] = [
    "schedule",
    "execute",
    "execute_with",
    "repair",
    "repair_with",
    "run_online",
    "arrival_script",
];

/// Methods that iterate a hash container in arbitrary order.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Functions producing pointers whose integer value is address-derived.
const PTR_FNS: [&str; 7] = [
    "as_ptr",
    "as_mut_ptr",
    "addr_of",
    "addr_of_mut",
    "from_ref",
    "from_mut",
    "dangling",
];

/// Integer types a pointer cast to which observes the address.
const INT_CASTS: [&str; 5] = ["usize", "u64", "isize", "i64", "u128"];

/// Run N1 over the model.
pub fn run(model: &Model) -> Vec<Finding> {
    // Index every non-test fn in crate src trees by name.
    let mut index: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, file) in model.files.iter().enumerate() {
        if !in_crate_src(&file.rel) {
            continue;
        }
        for (fj, f) in file.fns.iter().enumerate() {
            if !f.is_test {
                index.entry(f.name.as_str()).or_default().push((fi, fj));
            }
        }
    }

    // BFS from the entry points, remembering which root reached each fn.
    let mut origin: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for (&name, sites) in &index {
        if !ROOT_FNS.contains(&name) {
            continue;
        }
        for &(fi, fj) in sites {
            if model.files[fi].rel.starts_with("crates/core/src/") {
                origin.insert((fi, fj), name.to_string());
                queue.push_back((fi, fj));
            }
        }
    }
    while let Some((fi, fj)) = queue.pop_front() {
        let root = origin[&(fi, fj)].clone();
        let calls: Vec<String> = model.files[fi].fns[fj]
            .calls
            .iter()
            .map(|c| c.callee.clone())
            .collect();
        for callee in calls {
            let Some(candidates) = index.get(callee.as_str()) else {
                continue;
            };
            // Same file, else same crate, else anywhere.
            let same_file: Vec<_> = candidates.iter().filter(|&&(f, _)| f == fi).collect();
            let resolved: Vec<(usize, usize)> = if same_file.is_empty() {
                let here = crate_of(&model.files[fi].rel);
                let same_crate: Vec<_> = candidates
                    .iter()
                    .filter(|&&(f, _)| crate_of(&model.files[f].rel) == here)
                    .copied()
                    .collect();
                if same_crate.is_empty() {
                    candidates.clone()
                } else {
                    same_crate
                }
            } else {
                same_file.into_iter().copied().collect()
            };
            for key in resolved {
                if let std::collections::btree_map::Entry::Vacant(e) = origin.entry(key) {
                    e.insert(root.clone());
                    queue.push_back(key);
                }
            }
        }
    }

    let mut findings = Vec::new();
    for (&(fi, fj), root) in &origin {
        scan_fn(&model.files[fi], fj, root, &mut findings);
    }
    findings
}

/// Scan one reachable fn for nondeterminism hazards.
#[allow(clippy::too_many_lines)]
fn scan_fn(file: &ParsedFile, fj: usize, root: &str, findings: &mut Vec<Finding>) {
    let f = &file.fns[fj];
    let toks = &file.tokens;
    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let op = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.kind) {
            Some(TokenKind::Op(o)) => Some(o.as_str()),
            _ => None,
        }
    };
    let mut flag = |line: u32, what: &str, detail: &str| {
        findings.push(Finding {
            code: "ES-A010",
            pass: "N1",
            file: file.rel.clone(),
            line,
            message: format!(
                "{what} in `{}` (reachable from scheduler entry point `{root}`) — {detail}",
                f.name
            ),
        });
    };

    // Hash-container locals bound by `let` in this body.
    let mut hash_locals: BTreeSet<String> = BTreeSet::new();
    for k in f.body.clone() {
        if !matches!(ident(k), Some("HashMap" | "HashSet")) {
            continue;
        }
        // Walk back to the `let` of the enclosing statement.
        let mut j = k;
        while j > f.body.start {
            j -= 1;
            match toks[j].kind {
                TokenKind::Op(ref o) if o == ";" || o == "{" || o == "}" => break,
                TokenKind::Ident(ref s) if s == "let" => {
                    let mut n = j + 1;
                    if ident(n) == Some("mut") {
                        n += 1;
                    }
                    if let Some(name) = ident(n) {
                        hash_locals.insert(name.to_string());
                    }
                    break;
                }
                _ => {}
            }
        }
    }

    // (a) hash iteration through method calls and `for … in` loops.
    for c in &f.calls {
        if c.method && ITER_METHODS.contains(&c.callee.as_str()) && c.tok >= 2 {
            if let Some(recv) = ident(c.tok - 2) {
                if hash_locals.contains(recv) {
                    flag(
                        c.line,
                        &format!("hash-order iteration `{recv}.{}()`", c.callee),
                        "HashMap/HashSet iteration order is randomized per process; \
                         use BTreeMap/BTreeSet or sort first",
                    );
                }
            }
        }
    }
    let mut k = f.body.start;
    while k < f.body.end {
        if ident(k) == Some("for") {
            // `for <pat> in [&][mut] <ident> {`
            let mut j = k + 1;
            let limit = (k + 24).min(f.body.end);
            while j < limit && ident(j) != Some("in") && op(j) != Some("{") {
                j += 1;
            }
            if ident(j) == Some("in") {
                let mut n = j + 1;
                while matches!(op(n), Some("&")) || matches!(ident(n), Some("mut")) {
                    n += 1;
                }
                if let Some(name) = ident(n) {
                    if hash_locals.contains(name) && matches!(op(n + 1), Some("{" | ".") | None) {
                        flag(
                            toks[n].line,
                            &format!("hash-order iteration `for … in {name}`"),
                            "HashMap/HashSet iteration order is randomized per process; \
                             use BTreeMap/BTreeSet or sort first",
                        );
                    }
                }
            }
        }
        // (b) wall clocks: `Instant::now()` / `SystemTime::now()`.
        if matches!(ident(k), Some("Instant" | "SystemTime"))
            && op(k + 1) == Some("::")
            && ident(k + 2) == Some("now")
        {
            flag(
                toks[k].line,
                &format!("wall-clock read `{}::now()`", ident(k).unwrap_or_default()),
                "ambient time makes scheduling decisions irreproducible; \
                 thread timing through explicit model parameters",
            );
        }
        // (c) thread identity.
        if ident(k) == Some("thread") && op(k + 1) == Some("::") && ident(k + 2) == Some("current")
        {
            flag(
                toks[k].line,
                "thread-identity observation `thread::current`",
                "worker identity varies run to run; key decisions on lane \
                 indices, not thread ids",
            );
        }
        if ident(k) == Some("ThreadId") {
            flag(
                toks[k].line,
                "thread-identity type `ThreadId`",
                "worker identity varies run to run; key decisions on lane \
                 indices, not thread ids",
            );
        }
        k += 1;
    }

    for c in &f.calls {
        // (b) `.elapsed()` duration reads.
        if c.method && c.callee == "elapsed" {
            flag(
                c.line,
                "wall-clock read `.elapsed()`",
                "ambient time makes scheduling decisions irreproducible; \
                 thread timing through explicit model parameters",
            );
        }
        // (d) pointer-as-integer: `<ptr fn>(…) as usize` or `.addr()`.
        if c.method && c.callee == "addr" {
            flag(
                c.line,
                "pointer-address observation `.addr()`",
                "allocator addresses differ run to run; derive ordering keys \
                 from stable ids instead",
            );
        }
        if PTR_FNS.contains(&c.callee.as_str()) {
            // Find the call's `(`, skipping an optional turbofish.
            let mut j = c.tok + 1;
            let limit = (c.tok + 8).min(f.body.end);
            while j < limit && op(j) != Some("(") {
                j += 1;
            }
            if op(j) == Some("(") {
                let mut depth = 0i32;
                while j < f.body.end {
                    match op(j) {
                        Some("(") => depth += 1,
                        Some(")") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if ident(j + 1) == Some("as")
                    && ident(j + 2).is_some_and(|t| INT_CASTS.contains(&t))
                {
                    flag(
                        c.line,
                        &format!("pointer-as-integer cast `{}(…) as …`", c.callee),
                        "allocator addresses differ run to run; derive ordering \
                         keys from stable ids instead",
                    );
                }
            }
        }
        // (e) unordered float reductions over hash containers.
        if c.method && matches!(c.callee.as_str(), "sum" | "product" | "fold") {
            let start = statement_start(file, f.body.start, c.tok);
            let end = statement_end(file, c.tok, f.body.end);
            let mut saw_hash_local = false;
            let mut saw_float = false;
            for j in start..end {
                match &toks[j].kind {
                    TokenKind::Ident(s) if hash_locals.contains(s) => saw_hash_local = true,
                    TokenKind::Ident(s) if s == "f64" || s == "f32" => saw_float = true,
                    TokenKind::Float => saw_float = true,
                    _ => {}
                }
            }
            if saw_hash_local && saw_float {
                flag(
                    c.line,
                    &format!("unordered float reduction `.{}(…)`", c.callee),
                    "float addition/multiplication is not associative; reducing \
                     in hash order changes the result bitwise — sort first",
                );
            }
        }
    }
}

/// Token index of the start of the statement containing `at`.
fn statement_start(file: &ParsedFile, body_start: usize, at: usize) -> usize {
    let mut j = at;
    while j > body_start {
        if let TokenKind::Op(ref o) = file.tokens[j - 1].kind {
            if o == ";" || o == "{" || o == "}" {
                break;
            }
        }
        j -= 1;
    }
    j
}

/// Token index one past the end of the statement containing `at`.
fn statement_end(file: &ParsedFile, at: usize, body_end: usize) -> usize {
    let mut j = at;
    while j < body_end {
        if let TokenKind::Op(ref o) = file.tokens[j].kind {
            if o == ";" || o == "{" || o == "}" {
                break;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> Model {
        Model::from_sources(
            vec![("crates/core/src/t.rs".to_string(), src.to_string())],
            String::new(),
        )
    }

    #[test]
    fn unreachable_hazards_stay_silent() {
        let m = model(
            "pub fn execute() -> u32 { 1 }\n\
             fn island() { let m = std::collections::HashMap::new(); for v in &m { use_(v); } }\n",
        );
        assert!(run(&m).is_empty());
    }

    #[test]
    fn reachable_hash_iteration_fires() {
        let m = model(
            "pub fn execute() -> u32 { helper() }\n\
             fn helper() -> u32 {\n\
               let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();\n\
               let mut acc = 0;\n\
               for (_k, v) in &m { acc += v; }\n\
               acc\n\
             }\n",
        );
        let f = run(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "ES-A010");
        assert!(f[0].message.contains("`helper`"));
        assert!(f[0].message.contains("`execute`"));
    }

    #[test]
    fn arrival_curve_instant_variant_is_not_a_clock() {
        // `ArrivalCurve::Instant` (an enum variant in es-linksched) must
        // not trip the wall-clock rule — only `Instant::now()` does.
        let m = model("pub fn schedule() { let c = ArrivalCurve::Instant; use_(c); }\n");
        assert!(run(&m).is_empty());
    }

    #[test]
    fn ordered_float_max_fold_is_not_flagged() {
        // `fold(0.0, f64::max)` over an ordered Vec is order-insensitive
        // enough for the schedulers and must not fire the reduction rule
        // (no hash container involved).
        let m = model(
            "pub fn schedule(xs: &[f64]) -> f64 { xs.iter().copied().fold(0.0_f64, f64::max) }\n",
        );
        assert!(run(&m).is_empty());
    }
}
