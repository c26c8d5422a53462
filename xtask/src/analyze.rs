//! The `xtask analyze` workspace pass: orchestrates the token-level
//! lints (L1–L5), the syntax-aware passes (N1, N2, N4, N5, see
//! [`crate::passes`]), the optional runtime determinism audit
//! ([`crate::determinism`]), and the suppression file
//! ([`crate::report`]).
//!
//! Token-level lints (DESIGN.md §8):
//!
//! * **L1 / ES-A001** — no `HashMap`/`HashSet` in scheduler /
//!   link-scheduler sources (`crates/core`, `crates/linksched`,
//!   `crates/route`). Hash iteration order is randomized per process;
//!   any tie broken by it makes schedules irreproducible.
//! * **L2 / ES-A002** — no bare `==`/`!=` with an f64 literal operand
//!   anywhere outside `crates/linksched/src/time.rs` (the EPS
//!   helpers).
//! * **L3 / ES-A003** — every `ES-Exxx` diagnostic code that appears
//!   in `crates/core` sources must be documented in DESIGN.md's
//!   diagnostics table, and vice versa.
//! * **L4 / ES-A004** — no `Vec::new` / `.collect()` inside the loop
//!   bodies of the probe/rebuild functions in `crates/core/src/list.rs`,
//!   `bbsa.rs` and `repair.rs`, and of the processor-choice rules they
//!   share in `procsched.rs`.
//! * **L5 / ES-A007** — no per-iteration heap allocation (`Box::new`,
//!   `String::new`, `vec!`, `format!`, `.to_vec()`, `.to_string()`,
//!   `.to_owned()`) and no `BTreeMap`/`BTreeSet` access inside the
//!   loop bodies of the batch-probe hot path (`list.rs` probe walk,
//!   `slotted.rs` route/placement/rollback machinery — DESIGN.md §16).
//!
//! L4 and L5 also report (under their own codes) any listed target
//! function that no longer exists in its file, so a rename cannot
//! silently narrow their scope.
//!
//! Syntax-aware passes (DESIGN.md §12): N1 nondeterminism taint, N2
//! epoch discipline, N4 unsafe audit, N5 lock discipline. (N3 is
//! retired with its codes ES-A030/ES-A031; neither is reused.)
//!
//! Findings print as `CODE PASS file:line — message` (or as one
//! `es-analyze-v1` JSON document with `--json`) and the process exits
//! 1 if any non-suppressed findings were produced.

use crate::determinism;
use crate::lexer::{Token, TokenKind};
use crate::passes::Model;
use crate::report::{self, Finding};
use std::path::{Path, PathBuf};

/// Entry point for `xtask analyze`; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut json = false;
    let mut run_determinism = false;
    let mut root: Option<PathBuf> = None;
    let mut suppressions: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--determinism" => run_determinism = true,
            "--root" => {
                let Some(dir) = it.next() else {
                    eprintln!("--root requires a directory argument");
                    return 2;
                };
                root = Some(PathBuf::from(dir));
            }
            "--suppressions" => {
                let Some(p) = it.next() else {
                    eprintln!("--suppressions requires a file argument");
                    return 2;
                };
                suppressions = Some(PathBuf::from(p));
            }
            other => {
                eprintln!("unknown `analyze` option `{other}`");
                return 2;
            }
        }
    }
    let root = root.unwrap_or_else(detect_root);
    if !root.join("Cargo.toml").is_file() {
        eprintln!("no Cargo.toml under {} — wrong --root?", root.display());
        return 2;
    }

    let mut findings = analyze_workspace(&root);
    if run_determinism {
        eprintln!(
            "running determinism audit (schedulers, perturbed replay, and repair twice per seeded instance)..."
        );
        for d in determinism::audit() {
            findings.push(Finding {
                code: "ES-A005",
                pass: "DET",
                file: String::new(),
                line: 0,
                message: format!(
                    "{} nondeterministic on {}: {}",
                    d.scheduler, d.instance, d.detail
                ),
            });
        }
    }

    // Suppression file: explicit allows with mandatory justifications.
    let sup_path = suppressions.unwrap_or_else(|| root.join("analyze-suppressions.txt"));
    let sup_rel = sup_path
        .strip_prefix(&root)
        .unwrap_or(&sup_path)
        .to_string_lossy()
        .replace('\\', "/");
    let sup_text = std::fs::read_to_string(&sup_path).unwrap_or_default();
    let (mut entries, malformed) = report::parse_suppressions(&sup_text, &sup_rel);
    let (mut active, suppressed) = report::apply_suppressions(findings, &mut entries, &sup_rel);
    active.extend(malformed);
    active.sort_by(|a, b| (a.code, &a.file, a.line).cmp(&(b.code, &b.file, b.line)));

    if json {
        println!(
            "{}",
            report::render_report(&root.to_string_lossy(), &active, &suppressed)
        );
    } else {
        for f in &active {
            if f.file.is_empty() {
                println!("{} {}  {}", f.code, f.pass, f.message);
            } else {
                println!(
                    "{} {}  {}:{} — {}",
                    f.code, f.pass, f.file, f.line, f.message
                );
            }
        }
        if active.is_empty() {
            println!(
                "analyze: clean (L1-L5, N1, N2, N4, N5{} pass; {} suppressed)",
                if run_determinism { ", DET" } else { "" },
                suppressed.len()
            );
        }
    }
    if active.is_empty() {
        0
    } else {
        eprintln!(
            "analyze: {} finding(s) ({} suppressed)",
            active.len(),
            suppressed.len()
        );
        1
    }
}

/// All static findings for the workspace at `root` (L1–L5 and N1, N2,
/// N4, N5),
/// before suppression handling; sorted by (code, file, line).
pub fn analyze_workspace(root: &Path) -> Vec<Finding> {
    let files = rust_sources(root);
    let model = Model::load(root, &files);
    let mut findings = Vec::new();

    let mut core_code_sites: Vec<(String, u32, String)> = Vec::new(); // (code, line, file)
    for file in &model.files {
        let rel = file.rel.as_str();
        if in_hot_path(rel) {
            lint_l1(rel, &file.tokens, &mut findings);
        }
        if rel != "crates/linksched/src/time.rs" {
            lint_l2(rel, &file.tokens, &mut findings);
        }
        let l4_targets = probe_fns(rel);
        if !l4_targets.is_empty() {
            lint_missing_targets(rel, l4_targets, &file.tokens, L4, &mut findings);
            lint_l4(rel, l4_targets, &file.tokens, &mut findings);
        }
        let l5_targets = batch_probe_fns(rel);
        if !l5_targets.is_empty() {
            lint_missing_targets(rel, l5_targets, &file.tokens, L5, &mut findings);
            lint_l5(rel, l5_targets, &file.tokens, &mut findings);
        }
        if rel.starts_with("crates/core/src/") {
            for (code, line) in scan_codes(&file.src) {
                core_code_sites.push((code, line, rel.to_string()));
            }
        }
    }
    lint_l3(&model.design, &core_code_sites, &mut findings);

    findings.extend(model.run_passes());

    findings.sort_by(|a, b| (a.code, &a.file, a.line).cmp(&(b.code, &b.file, b.line)));
    findings
}

/// Finding code and pass id of the loop-body lints.
const L4: (&str, &str) = ("ES-A004", "L4");
const L5: (&str, &str) = ("ES-A007", "L5");

/// L1 scope: sources whose iteration order feeds scheduling decisions.
fn in_hot_path(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/linksched/src/")
        || rel.starts_with("crates/route/src/")
}

fn lint_l1(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for t in tokens {
        if let TokenKind::Ident(name) = &t.kind {
            if name == "HashMap" || name == "HashSet" {
                findings.push(Finding {
                    code: "ES-A001",
                    pass: "L1",
                    file: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "`{name}` in a scheduling hot path — hash iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or a sorted Vec"
                    ),
                });
            }
        }
    }
}

fn lint_l2(rel: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let TokenKind::Op(op) = &t.kind else { continue };
        if op != "==" && op != "!=" {
            continue;
        }
        let float_left = i > 0 && tokens[i - 1].kind == TokenKind::Float;
        let float_right = i + 1 < tokens.len() && tokens[i + 1].kind == TokenKind::Float;
        if float_left || float_right {
            findings.push(Finding {
                code: "ES-A002",
                pass: "L2",
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "bare `{op}` with an f64 literal — use the es_linksched::time \
                     EPS helpers (approx_eq / approx_le / ...) or an exact \
                     formulation that avoids float equality"
                ),
            });
        }
    }
}

/// L4 scope: the functions whose loops form the per-task probe/rebuild
/// hot paths — one entry per task × processor candidate (× in-edge).
fn probe_fns(rel: &str) -> &'static [&'static str] {
    match rel {
        "crates/core/src/list.rs" => &[
            "pick_by_probe",
            "pick_by_probe_serial",
            "pick_by_probe_overlay",
            "schedule_in_edges",
            "prepare_in_edges",
            "order_in_edges",
            "walk_in_edges",
        ],
        "crates/core/src/bbsa.rs" => &["pick_by_probe", "schedule_in_edges"],
        "crates/core/src/procsched.rs" => &["pick_hybrid", "keep_better", "ready_time"],
        "crates/core/src/repair.rs" => &["rebuild"],
        _ => &[],
    }
}

/// L5 scope: the batch-probe loop bodies of the arena/SoA hot path
/// (DESIGN.md §16) — the per-candidate probe walks in `list.rs` plus
/// the per-hop route/placement/rollback machinery in `slotted.rs`.
fn batch_probe_fns(rel: &str) -> &'static [&'static str] {
    match rel {
        "crates/core/src/list.rs" => &[
            "pick_by_probe_serial",
            "pick_by_probe_overlay",
            "prepare_in_edges",
            "walk_in_edges",
        ],
        "crates/core/src/slotted.rs" => &[
            "schedule_comm",
            "pick_route_into",
            "hop_bound",
            "place_on_route",
            "unschedule",
            "release_comms",
            "route_for",
        ],
        _ => &[],
    }
}

/// Scope check shared by the loop-body lints (L4, L5): every listed
/// target must be defined in its file. Without it, renaming or
/// deleting a hot-path function silently switches its lint off.
fn lint_missing_targets(
    rel: &str,
    targets: &[&str],
    tokens: &[Token],
    (code, pass): (&'static str, &'static str),
    findings: &mut Vec<Finding>,
) {
    for &target in targets {
        let defined = tokens.windows(2).any(|w| {
            matches!(&w[0].kind, TokenKind::Ident(f) if f == "fn")
                && matches!(&w[1].kind, TokenKind::Ident(n) if n == target)
        });
        if !defined {
            findings.push(Finding {
                code,
                pass,
                file: rel.to_string(),
                line: 0,
                message: format!(
                    "lint target `fn {target}` is not defined in this file — \
                     update the {pass} target list after a rename or removal"
                ),
            });
        }
    }
}

/// Shared walker for the loop-body lints (L4, L5). Tracks function and
/// loop extents by brace depth over the token stream: `fn <target>`
/// arms a function frame at its body `{`; `for` / `while` / `loop` arm
/// a loop frame at theirs; `on_ident(i, fn_name, token)` fires for
/// every identifier token while at least one loop frame is open inside
/// a target function.
fn scan_target_loop_idents(
    targets: &[&str],
    tokens: &[Token],
    mut on_ident: impl FnMut(usize, &str, &Token),
) {
    // Brace stack: true = this `{` opened a loop body.
    let mut braces: Vec<bool> = Vec::new();
    let mut loop_depth = 0usize;
    // (name, brace depth at body open) of the target fn we are inside.
    let mut active: Option<(String, usize)> = None;
    let mut pending_fn: Option<String> = None;
    let mut pending_loop = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        match &t.kind {
            TokenKind::Ident(id) if id == "fn" => {
                if let Some(Token {
                    kind: TokenKind::Ident(name),
                    ..
                }) = tokens.get(i + 1)
                {
                    pending_fn = Some(name.clone());
                    i += 2;
                    continue;
                }
            }
            TokenKind::Ident(id)
                if active.is_some() && (id == "for" || id == "while" || id == "loop") =>
            {
                pending_loop = true;
            }
            TokenKind::Op(op) if op == "{" => {
                braces.push(std::mem::take(&mut pending_loop));
                if *braces.last().expect("just pushed") {
                    loop_depth += 1;
                }
                if let Some(name) = pending_fn.take() {
                    if active.is_none() && targets.contains(&name.as_str()) {
                        active = Some((name, braces.len()));
                    }
                }
            }
            TokenKind::Op(op) if op == "}" => {
                if let Some(was_loop) = braces.pop() {
                    if was_loop {
                        loop_depth -= 1;
                    }
                }
                if active.as_ref().is_some_and(|&(_, d)| braces.len() < d) {
                    active = None;
                }
            }
            TokenKind::Ident(_) if loop_depth > 0 => {
                let name = active.as_ref().map_or("", |(n, _)| n.as_str());
                on_ident(i, name, t);
            }
            _ => {}
        }
        i += 1;
    }
}

/// `ident :: new` at token position `i`?
fn is_path_new(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i + 1), Some(Token { kind: TokenKind::Op(o), .. }) if o == "::")
        && matches!(tokens.get(i + 2), Some(Token { kind: TokenKind::Ident(n), .. }) if n == "new")
}

/// `ident !` at token position `i` (macro invocation)?
fn is_macro_bang(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i + 1), Some(Token { kind: TokenKind::Op(o), .. }) if o == "!")
}

/// L4: `Vec::new` / `.collect()` inside a loop body of a probe/rebuild
/// function allocates O(tasks × candidates) times per schedule.
fn lint_l4(rel: &str, targets: &[&str], tokens: &[Token], findings: &mut Vec<Finding>) {
    scan_target_loop_idents(targets, tokens, |i, name, t| {
        let TokenKind::Ident(id) = &t.kind else {
            return;
        };
        let what = if id == "collect" {
            "`.collect()`"
        } else if id == "Vec" && is_path_new(tokens, i) {
            "`Vec::new`"
        } else {
            return;
        };
        findings.push(Finding {
            code: L4.0,
            pass: L4.1,
            file: rel.to_string(),
            line: t.line,
            message: format!(
                "{what} inside a loop of `{name}` — this runs O(tasks × candidates) \
                 times; hoist the buffer out of the loop and reuse it \
                 (clear-don't-drop)"
            ),
        });
    });
}

/// L5: per-iteration heap allocation (`Box::new`, `String::new`,
/// `vec!` / `format!`, `.to_vec()` / `.to_string()` / `.to_owned()`)
/// or a `BTreeMap`/`BTreeSet` touch inside a loop body of the
/// batch-probe hot path (DESIGN.md §16). The arena/SoA layout exists
/// precisely so these loops stay allocation- and tree-walk-free; a
/// reintroduced map lookup or per-hop allocation silently costs the
/// bench multiplier long before a test fails.
fn lint_l5(rel: &str, targets: &[&str], tokens: &[Token], findings: &mut Vec<Finding>) {
    scan_target_loop_idents(targets, tokens, |i, name, t| {
        let TokenKind::Ident(id) = &t.kind else {
            return;
        };
        let what = if ((id == "Box" || id == "String") && is_path_new(tokens, i))
            || ((id == "vec" || id == "format") && is_macro_bang(tokens, i))
            || id == "to_vec"
            || id == "to_string"
            || id == "to_owned"
        {
            "heap allocation"
        } else if id == "BTreeMap" || id == "BTreeSet" {
            "tree-map access"
        } else {
            return;
        };
        findings.push(Finding {
            code: L5.0,
            pass: L5.1,
            file: rel.to_string(),
            line: t.line,
            message: format!(
                "{what} (`{id}`) inside a loop of `{name}` — the batch-probe hot \
                 path must stay allocation- and tree-walk-free; use the arena/SoA \
                 columns and hoisted scratch buffers (DESIGN.md §16)"
            ),
        });
    });
}

/// Extract `ES-Exxx` code occurrences (with their lines) from raw text.
fn scan_codes(src: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let b = line.as_bytes();
        let mut from = 0usize;
        while let Some(pos) = line[from..].find("ES-E") {
            let at = from + pos;
            let digits = &b[at + 4..];
            if digits.len() >= 3 && digits[..3].iter().all(u8::is_ascii_digit) {
                out.push((line[at..at + 7].to_string(), lineno as u32 + 1));
            }
            from = at + 4;
        }
    }
    out
}

/// L3: cross-check codes in core sources against DESIGN.md's table.
fn lint_l3(design: &str, sites: &[(String, u32, String)], findings: &mut Vec<Finding>) {
    let documented: Vec<String> = {
        let mut v: Vec<String> = scan_codes(design).into_iter().map(|(c, _)| c).collect();
        v.sort();
        v.dedup();
        v
    };

    let mut constructed: Vec<(String, u32, String)> = sites.to_vec();
    constructed.sort();
    let mut seen: Vec<String> = Vec::new();
    for (code, line, file) in &constructed {
        if seen.last() == Some(code) {
            continue;
        }
        seen.push(code.clone());
        if !documented.contains(code) {
            findings.push(Finding {
                code: "ES-A003",
                pass: "L3",
                file: file.clone(),
                line: *line,
                message: format!(
                    "diagnostic code {code} is constructed in core but missing \
                     from DESIGN.md's diagnostics table"
                ),
            });
        }
    }
    for code in &documented {
        if !seen.contains(code) {
            findings.push(Finding {
                code: "ES-A003",
                pass: "L3",
                file: "DESIGN.md".to_string(),
                line: 0,
                message: format!(
                    "diagnostic code {code} is documented but never constructed \
                     in crates/core — stale table row?"
                ),
            });
        }
    }
}

/// Every `.rs` file under the workspace except vendored stubs, build
/// artifacts, the known-bad fixture corpus, and VCS metadata; sorted
/// for deterministic reports.
pub fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(
                    name.as_ref(),
                    "vendor" | "target" | ".git" | ".github" | "fixtures"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Workspace root: parent of the xtask crate when built by cargo,
/// otherwise the current directory.
fn detect_root() -> PathBuf {
    if let Some(manifest) = std::env::var_os("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(parent) = p.parent() {
            return parent.to_path_buf();
        }
    }
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn l2_flags_float_literal_comparisons() {
        let toks = lex("if x == 0.0 { } if 1e-6 != y { } if a == b { }");
        let mut f = Vec::new();
        lint_l2("t.rs", &toks, &mut f);
        assert_eq!(
            f.len(),
            2,
            "{:?}",
            f.iter().map(|x| &x.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn l2_ignores_int_comparisons_and_strings() {
        let toks = lex(r#"if n == 0 { } let s = "x == 0.0"; // y == 1.0"#);
        let mut f = Vec::new();
        lint_l2("t.rs", &toks, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn l1_flags_hash_collections() {
        let toks = lex("use std::collections::HashMap; let s: HashSet<u32>;");
        let mut f = Vec::new();
        lint_l1("crates/core/src/x.rs", &toks, &mut f);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.code == "ES-A001"));
    }

    #[test]
    fn code_scanner_finds_codes_with_lines() {
        let src = "// ES-E001 here\nlet c = \"ES-E008\"; // and ES-E00 is not a code\n";
        let codes = scan_codes(src);
        assert_eq!(
            codes,
            vec![("ES-E001".to_string(), 1), ("ES-E008".to_string(), 2)]
        );
    }

    #[test]
    fn l4_flags_allocations_inside_probe_loops() {
        let src = "fn pick_by_probe(&mut self) {\n\
                   for p in procs {\n\
                   let v = Vec::new();\n\
                   let c: Vec<f64> = xs.iter().collect();\n\
                   }\n\
                   }";
        let toks = lex(src);
        let mut f = Vec::new();
        lint_l4(
            "crates/core/src/list.rs",
            probe_fns("crates/core/src/list.rs"),
            &toks,
            &mut f,
        );
        assert_eq!(
            f.len(),
            2,
            "{:?}",
            f.iter().map(|x| &x.message).collect::<Vec<_>>()
        );
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
    }

    #[test]
    fn l4_allows_hoisted_buffers_and_non_probe_fns() {
        // Allocations before/after the loop (the hoisted buffers) and
        // in non-target functions are fine; clear/extend/resize_with
        // inside the loop are the intended pattern.
        let src = "fn rebuild() {\n\
                   let mut buf: Vec<f64> = Vec::new();\n\
                   for t in tasks {\n\
                   buf.clear();\n\
                   buf.extend(xs);\n\
                   idx.resize_with(3, Default::default);\n\
                   }\n\
                   let out: Vec<f64> = buf.iter().copied().collect();\n\
                   }\n\
                   fn helper() { for x in ys { let v = Vec::new(); } }";
        let toks = lex(src);
        let mut f = Vec::new();
        lint_l4(
            "crates/core/src/repair.rs",
            probe_fns("crates/core/src/repair.rs"),
            &toks,
            &mut f,
        );
        assert!(
            f.is_empty(),
            "{:?}",
            f.iter().map(|x| &x.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn l4_is_scoped_to_probe_files() {
        assert!(probe_fns("crates/core/src/slotted.rs").is_empty());
        assert!(!probe_fns("crates/core/src/list.rs").is_empty());
    }

    #[test]
    fn l5_flags_allocations_and_tree_maps_in_batch_probe_loops() {
        let src = "fn prepare_in_edges(&mut self) {\n\
                   for pe in edges {\n\
                   let b = Box::new(pe);\n\
                   let s = format!(\"{pe:?}\");\n\
                   let v = route.to_vec();\n\
                   let hit = self.cache.get(&key);\n\
                   let m: BTreeMap<u64, f64> = BTreeMap::new();\n\
                   }\n\
                   }";
        let toks = lex(src);
        let mut f = Vec::new();
        lint_l5(
            "crates/core/src/list.rs",
            batch_probe_fns("crates/core/src/list.rs"),
            &toks,
            &mut f,
        );
        assert_eq!(
            f.len(),
            5,
            "{:?}",
            f.iter().map(|x| &x.message).collect::<Vec<_>>()
        );
        assert!(f.iter().all(|x| x.code == "ES-A007" && x.pass == "L5"));
        assert_eq!(f[0].line, 3);
        assert_eq!(f[1].line, 4);
        assert_eq!(f[2].line, 5);
        // Two hits on line 7: the type ascription and the constructor.
        assert_eq!(f[3].line, 7);
        assert_eq!(f[4].line, 7);
    }

    #[test]
    fn l5_allows_arena_columns_and_hoisted_scratch() {
        // The sanctioned batch-probe patterns: clear-don't-drop reuse,
        // slice copies into hoisted buffers, and arena indexing. Also:
        // allocations outside loops and in non-target functions stay
        // legal.
        let src = "fn place_on_route(&mut self) {\n\
                   let mut out: Vec<Hop> = Vec::new();\n\
                   for hop in route {\n\
                   out.clear();\n\
                   out.extend_from_slice(hops);\n\
                   let q = &mut self.queues[hop.link.index()];\n\
                   }\n\
                   let s = format!(\"done {out:?}\");\n\
                   }\n\
                   fn helper() { for x in ys { let v = x.to_vec(); } }";
        let toks = lex(src);
        let mut f = Vec::new();
        lint_l5(
            "crates/core/src/slotted.rs",
            batch_probe_fns("crates/core/src/slotted.rs"),
            &toks,
            &mut f,
        );
        assert!(
            f.is_empty(),
            "{:?}",
            f.iter().map(|x| &x.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn loop_lints_report_missing_targets() {
        // Only `place_on_route` of the slotted.rs targets exists here:
        // every other listed function is reported, once, at line 0.
        let toks = lex("fn place_on_route(&mut self) { for h in r { } }\n\
                        fn unrelated() {}");
        let targets = batch_probe_fns("crates/core/src/slotted.rs");
        let mut f = Vec::new();
        lint_missing_targets("crates/core/src/slotted.rs", targets, &toks, L5, &mut f);
        assert_eq!(f.len(), targets.len() - 1);
        assert!(f
            .iter()
            .all(|x| x.code == "ES-A007" && x.pass == "L5" && x.line == 0));
        assert!(f.iter().any(|x| x.message.contains("`fn route_for`")));
        assert!(!f.iter().any(|x| x.message.contains("`fn place_on_route`")));
        // A target named only in a call or a string is still missing.
        let toks = lex("fn other() { rebuild(); let s = \"fn pick_target\"; }");
        let mut f = Vec::new();
        lint_missing_targets(
            "crates/core/src/repair.rs",
            &["rebuild", "pick_target"],
            &toks,
            L4,
            &mut f,
        );
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.code == "ES-A004" && x.pass == "L4"));
    }

    #[test]
    fn l5_is_scoped_to_batch_probe_files() {
        assert!(batch_probe_fns("crates/core/src/repair.rs").is_empty());
        assert!(!batch_probe_fns("crates/core/src/slotted.rs").is_empty());
        assert!(!batch_probe_fns("crates/core/src/list.rs").is_empty());
    }
}
