//! Known-bad fixture corpus for the syntax-aware passes (DESIGN.md
//! §12): every bad snippet fires exactly its ES-A0xx code, every good
//! counterpart stays silent, and the `es-analyze-v1` JSON report round-trips
//! through the vendored parser. A final regression pins the real
//! workspace clean with an empty suppression file.

use std::fs;
use std::path::Path;
use xtask::passes::Model;
use xtask::report::{self, json};

/// Load a fixture file from `xtask/tests/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Build a model with one fixture placed at `rel` (inside the pass's
/// scope) and the given DESIGN.md text.
fn model_at(rel: &str, name: &str, design: &str) -> Model {
    Model::from_sources(vec![(rel.to_string(), fixture(name))], design.to_string())
}

fn codes(model: &Model) -> Vec<&'static str> {
    model.run_passes().into_iter().map(|f| f.code).collect()
}

#[test]
fn n1_bad_fires_es_a010() {
    let m = model_at("crates/core/src/fixture.rs", "n1_bad.rs", "");
    assert_eq!(codes(&m), vec!["ES-A010"]);
}

#[test]
fn n1_good_unreachable_hazard_is_silent() {
    let m = model_at("crates/core/src/fixture.rs", "n1_good.rs", "");
    assert_eq!(codes(&m), Vec::<&str>::new());
}

#[test]
fn n2_bad_fires_es_a020() {
    let m = model_at("crates/core/src/fixture.rs", "n2_bad.rs", "");
    assert_eq!(codes(&m), vec!["ES-A020"]);
}

#[test]
fn n2_good_is_silent() {
    let m = model_at("crates/core/src/fixture.rs", "n2_good.rs", "");
    assert_eq!(codes(&m), Vec::<&str>::new());
}

#[test]
fn n4_bad_fires_es_a040_and_es_a041() {
    let m = model_at("crates/runner/src/fixture.rs", "n4_bad.rs", "");
    assert_eq!(codes(&m), vec!["ES-A040", "ES-A041"]);
}

#[test]
fn n4_good_registered_site_is_silent() {
    let registry = fixture("n4_registry.md");
    let m = model_at("crates/runner/src/fixture.rs", "n4_good.rs", &registry);
    assert_eq!(codes(&m), Vec::<&str>::new());
}

#[test]
fn n4_stale_registry_row_fires_es_a042() {
    // The registry names a site, but the source has none.
    let registry = fixture("n4_registry.md");
    let m = Model::from_sources(
        vec![("crates/runner/src/fixture.rs".to_string(), String::new())],
        registry,
    );
    assert_eq!(codes(&m), vec!["ES-A042"]);
}

#[test]
fn n5_bad_fires_es_a050_and_es_a051() {
    let m = model_at("crates/runner/src/fixture.rs", "n5_bad.rs", "");
    assert_eq!(codes(&m), vec!["ES-A050", "ES-A051"]);
}

#[test]
fn n5_good_is_silent() {
    let m = model_at("crates/runner/src/fixture.rs", "n5_good.rs", "");
    assert_eq!(codes(&m), Vec::<&str>::new());
}

#[test]
fn json_report_round_trips() {
    // Findings from the N5 bad fixture, one of them suppressed.
    let m = model_at("crates/runner/src/fixture.rs", "n5_bad.rs", "");
    let findings = m.run_passes();
    assert_eq!(findings.len(), 2);
    let sup_text = "ES-A051 crates/runner/src/fixture.rs -- fixture round-trip entry\n";
    let (mut entries, malformed) = report::parse_suppressions(sup_text, "sup.txt");
    assert!(malformed.is_empty(), "{malformed:?}");
    let (active, suppressed) = report::apply_suppressions(findings, &mut entries, "sup.txt");
    assert_eq!((active.len(), suppressed.len()), (1, 1));

    let rendered = report::render_report("/ws", &active, &suppressed);
    let doc = json::parse(&rendered).expect("report is valid JSON");

    assert_eq!(
        doc.get("schema").and_then(json::Value::as_str),
        Some("es-analyze-v1")
    );
    let summary = doc.get("summary").expect("summary");
    assert_eq!(
        summary.get("active").and_then(json::Value::as_num),
        Some(1.0)
    );
    assert_eq!(
        summary.get("suppressed").and_then(json::Value::as_num),
        Some(1.0)
    );
    let findings = doc.get("findings").and_then(json::Value::as_arr).unwrap();
    assert_eq!(findings.len(), 2);
    assert_eq!(
        findings[0].get("code").and_then(json::Value::as_str),
        Some("ES-A050")
    );
    assert_eq!(
        findings[0].get("suppressed"),
        Some(&json::Value::Bool(false))
    );
    assert_eq!(
        findings[1].get("code").and_then(json::Value::as_str),
        Some("ES-A051")
    );
    assert_eq!(
        findings[1].get("suppressed"),
        Some(&json::Value::Bool(true))
    );
    assert_eq!(
        findings[1]
            .get("justification")
            .and_then(json::Value::as_str),
        Some("fixture round-trip entry")
    );
    // Every pass is described, firing or not.
    let passes = doc.get("passes").and_then(json::Value::as_arr).unwrap();
    assert_eq!(passes.len(), report::PASSES.len());
}

#[test]
fn workspace_is_clean_with_empty_suppressions() {
    // The merge-time invariant from ISSUE/DESIGN §12.4: the real
    // workspace passes L1–L5 + N1, N2, N4, N5 with zero suppression
    // entries.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf();
    let findings = xtask::analyze::analyze_workspace(&root);
    assert!(findings.is_empty(), "{findings:?}");
    let sup = fs::read_to_string(root.join("analyze-suppressions.txt")).unwrap_or_default();
    let (entries, malformed) = report::parse_suppressions(&sup, "analyze-suppressions.txt");
    assert!(
        entries.is_empty(),
        "suppression file must be empty at merge"
    );
    assert!(malformed.is_empty(), "{malformed:?}");
}
