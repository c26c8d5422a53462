//! Finding model, pass registry, suppression file, and the
//! `es-analyze-v1` machine-readable report (DESIGN.md §12.4).
//!
//! Every pass emits [`Finding`]s with a stable `ES-A0xx` code from the
//! [`PASSES`] registry. Findings can be suppressed only through the
//! explicit suppression file (`analyze-suppressions.txt` at the
//! workspace root) — each entry names the code, the file (optionally a
//! line), and a mandatory justification. Unused or malformed entries
//! are themselves findings (`ES-A006`), so the suppression file can
//! never rot silently.

use std::fmt::Write as _;

/// One analysis finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable finding code (`ES-A0xx`), from the [`PASSES`] registry.
    pub code: &'static str,
    /// Pass identifier (`L1`…`L5`, `N1`, `N2`, `N4`, `N5`, `DET`, `SUP`).
    pub pass: &'static str,
    /// Path relative to the workspace root (empty for runtime audits).
    pub file: String,
    /// 1-based line, 0 when not applicable.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// One row of the pass registry.
pub struct PassDesc {
    /// Pass identifier.
    pub id: &'static str,
    /// Finding codes the pass may emit.
    pub codes: &'static [&'static str],
    /// One-line description.
    pub title: &'static str,
}

/// The pass registry: ids, finding codes, and one-line invariants.
/// DESIGN.md §12.2 documents each in full.
pub const PASSES: &[PassDesc] = &[
    PassDesc {
        id: "L1",
        codes: &["ES-A001"],
        title: "no HashMap/HashSet in scheduler hot-path crates",
    },
    PassDesc {
        id: "L2",
        codes: &["ES-A002"],
        title: "no bare ==/!= against f64 literals outside the EPS layer",
    },
    PassDesc {
        id: "L3",
        codes: &["ES-A003"],
        title: "ES-Exxx diagnostic codes documented in DESIGN.md both ways",
    },
    PassDesc {
        id: "L4",
        codes: &["ES-A004"],
        title: "no per-candidate allocations in probe/repair loop bodies",
    },
    PassDesc {
        id: "L5",
        codes: &["ES-A007"],
        title: "no per-iteration heap allocation or BTree access in \
                batch-probe loop bodies",
    },
    PassDesc {
        id: "DET",
        codes: &["ES-A005"],
        title: "runtime determinism audit (double-run schedule diff)",
    },
    PassDesc {
        id: "SUP",
        codes: &["ES-A006"],
        title: "suppression-file hygiene (unused or malformed entries)",
    },
    PassDesc {
        id: "N1",
        codes: &["ES-A010"],
        title: "nondeterminism taint: no unordered state observed on paths \
                reachable from schedule/execute/repair entry points",
    },
    PassDesc {
        id: "N2",
        codes: &["ES-A020"],
        title: "epoch discipline: SlotQueue mutation sites pair with an \
                epoch bump / cache invalidation",
    },
    PassDesc {
        id: "N4",
        codes: &["ES-A040", "ES-A041", "ES-A042"],
        title: "unsafe audit: SAFETY comments on every unsafe site, \
                cross-checked against the DESIGN.md registry",
    },
    PassDesc {
        id: "N5",
        codes: &["ES-A050", "ES-A051"],
        title: "lock discipline: no lock held across dispatch/park, no \
                nested lock acquisition in es-runner and es-serve",
    },
];

/// One parsed suppression-file entry.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Finding code this entry suppresses.
    pub code: String,
    /// File path the finding must match.
    pub file: String,
    /// Optional line restriction.
    pub line: Option<u32>,
    /// Mandatory justification text.
    pub justification: String,
    /// 1-based line in the suppression file (for ES-A006 reporting).
    pub at_line: u32,
    /// Set once a finding matched this entry.
    pub used: bool,
}

/// Parse the suppression file. Format, one entry per line:
///
/// ```text
/// ES-A0xx <file>[:<line>] -- <justification>
/// ```
///
/// Blank lines and `#` comments are ignored. Malformed lines (missing
/// fields or empty justification) become `ES-A006` findings.
pub fn parse_suppressions(text: &str, sup_file: &str) -> (Vec<Suppression>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at_line = u32::try_from(idx).unwrap_or(u32::MAX - 1) + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let malformed = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                code: "ES-A006",
                pass: "SUP",
                file: sup_file.to_string(),
                line: at_line,
                message: format!("malformed suppression entry: {msg} (in `{line}`)"),
            });
        };
        let Some((head, justification)) = line.split_once("--") else {
            malformed("missing ` -- <justification>`", &mut findings);
            continue;
        };
        let justification = justification.trim();
        if justification.is_empty() {
            malformed("empty justification", &mut findings);
            continue;
        }
        let mut parts = head.split_whitespace();
        let (Some(code), Some(target)) = (parts.next(), parts.next()) else {
            malformed("expected `<CODE> <file>[:<line>]`", &mut findings);
            continue;
        };
        if !code.starts_with("ES-A") {
            malformed("code must be ES-A0xx", &mut findings);
            continue;
        }
        let (file, line_no) = match target.rsplit_once(':') {
            Some((f, l)) if l.chars().all(|c| c.is_ascii_digit()) && !l.is_empty() => {
                (f.to_string(), l.parse::<u32>().ok())
            }
            _ => (target.to_string(), None),
        };
        entries.push(Suppression {
            code: code.to_string(),
            file,
            line: line_no,
            justification: justification.to_string(),
            at_line,
            used: false,
        });
    }
    (entries, findings)
}

/// Split `findings` into (active, suppressed-with-justification) and
/// append `ES-A006` findings for entries that matched nothing.
pub fn apply_suppressions(
    findings: Vec<Finding>,
    entries: &mut [Suppression],
    sup_file: &str,
) -> (Vec<Finding>, Vec<(Finding, String)>) {
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = entries
            .iter_mut()
            .find(|e| e.code == f.code && e.file == f.file && e.line.is_none_or(|l| l == f.line));
        if let Some(e) = hit {
            e.used = true;
            suppressed.push((f, e.justification.clone()));
        } else {
            active.push(f);
        }
    }
    for e in entries.iter().filter(|e| !e.used) {
        active.push(Finding {
            code: "ES-A006",
            pass: "SUP",
            file: sup_file.to_string(),
            line: e.at_line,
            message: format!(
                "unused suppression entry `{} {}` — the finding it suppressed \
                 is gone; delete the entry",
                e.code, e.file
            ),
        });
    }
    (active, suppressed)
}

/// Render the full `es-analyze-v1` report as a JSON document.
pub fn render_report(root: &str, active: &[Finding], suppressed: &[(Finding, String)]) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"schema\":\"es-analyze-v1\",\"root\":{},",
        json_str(root)
    );
    s.push_str("\"passes\":[");
    for (i, p) in PASSES.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let codes = p
            .codes
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            s,
            "{{\"id\":{},\"codes\":[{}],\"title\":{}}}",
            json_str(p.id),
            codes,
            json_str(p.title)
        );
    }
    s.push_str("],\"findings\":[");
    let mut first = true;
    let mut emit = |s: &mut String, f: &Finding, sup: Option<&str>| {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "{{\"code\":{},\"pass\":{},\"file\":{},\"line\":{},\"message\":{},\
             \"suppressed\":{},\"justification\":{}}}",
            json_str(f.code),
            json_str(f.pass),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            sup.is_some(),
            sup.map_or_else(|| "null".to_string(), json_str),
        );
    };
    for f in active {
        emit(&mut s, f, None);
    }
    for (f, j) in suppressed {
        emit(&mut s, f, Some(j));
    }
    let _ = write!(
        s,
        "],\"summary\":{{\"active\":{},\"suppressed\":{},\"total\":{}}}}}",
        active.len(),
        suppressed.len(),
        active.len() + suppressed.len()
    );
    s
}

/// JSON-escape a string (used by the report writer and tests).
pub fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// A minimal JSON reader, enough to round-trip the `es-analyze-v1`
/// report in tests without a serde runtime. Not a general-purpose
/// parser: no surrogate-pair decoding, numbers as f64 only.
pub mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (f64 representation).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object member lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        /// String contents, if a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// Array elements, if an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
        /// Numeric value, if a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parse a JSON document; the whole input must be one value.
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0usize;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut members = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    skip_ws(b, i);
                    let Value::Str(key) = value(b, i)? else {
                        return Err(format!("object key must be a string at byte {i}"));
                    };
                    skip_ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return Err(format!("expected `:` at byte {i}"));
                    }
                    *i += 1;
                    members.push((key, value(b, i)?));
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {i}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let mut out = String::new();
                while *i < b.len() {
                    match b[*i] {
                        b'"' => {
                            *i += 1;
                            return Ok(Value::Str(out));
                        }
                        b'\\' => {
                            *i += 1;
                            match b.get(*i) {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b't') => out.push('\t'),
                                Some(b'r') => out.push('\r'),
                                Some(b'b') => out.push('\u{8}'),
                                Some(b'f') => out.push('\u{c}'),
                                Some(b'u') => {
                                    let hex = std::str::from_utf8(
                                        b.get(*i + 1..*i + 5).ok_or("truncated \\u escape")?,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    let cp =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    out.push(char::from_u32(cp).ok_or("invalid \\u codepoint")?);
                                    *i += 4;
                                }
                                _ => return Err(format!("bad escape at byte {i}")),
                            }
                            *i += 1;
                        }
                        _ => {
                            // Copy the full UTF-8 sequence.
                            let start = *i;
                            *i += 1;
                            while *i < b.len() && (b[*i] & 0xC0) == 0x80 {
                                *i += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
                Err("unterminated string".to_string())
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *i;
                *i += 1;
                while *i < b.len()
                    && (b[*i].is_ascii_digit() || matches!(b[*i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|e| e.to_string())
            }
            _ => Err(format!("unexpected byte at {i}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: &'static str, pass: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            code,
            pass,
            file: file.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn suppression_parse_and_match() {
        let text = "\
            # comment\n\
            \n\
            ES-A010 crates/core/src/list.rs:42 -- known benign, tracked in #7\n\
            ES-A020 crates/core/src/slotted.rs -- file-wide\n";
        let (mut entries, bad) = parse_suppressions(text, "sup.txt");
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].line, Some(42));
        assert_eq!(entries[1].line, None);

        let findings = vec![
            finding("ES-A010", "N1", "crates/core/src/list.rs", 42),
            finding("ES-A010", "N1", "crates/core/src/list.rs", 99), // different line
            finding("ES-A020", "N2", "crates/core/src/slotted.rs", 7),
        ];
        let (active, suppressed) = apply_suppressions(findings, &mut entries, "sup.txt");
        assert_eq!(suppressed.len(), 2);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].line, 99);
    }

    #[test]
    fn malformed_and_unused_entries_fire_es_a006() {
        let (entries, bad) = parse_suppressions("ES-A010 foo.rs\nES-A010 -- x\n", "sup.txt");
        assert!(entries.is_empty());
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|f| f.code == "ES-A006"));

        let (mut entries, bad) =
            parse_suppressions("ES-A010 crates/x.rs -- justified\n", "sup.txt");
        assert!(bad.is_empty());
        let (active, suppressed) = apply_suppressions(Vec::new(), &mut entries, "sup.txt");
        assert!(suppressed.is_empty());
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].code, "ES-A006");
        assert!(active[0].message.contains("unused"));
    }

    #[test]
    fn report_round_trips_through_the_json_reader() {
        let active = vec![finding("ES-A040", "N4", "crates/runner/src/lib.rs", 3)];
        let suppressed = vec![(
            finding("ES-A010", "N1", "a \"quoted\"\npath.rs", 1),
            "because".to_string(),
        )];
        let doc = render_report("/root/repo", &active, &suppressed);
        let v = json::parse(&doc).expect("report must be valid JSON");
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some("es-analyze-v1")
        );
        let findings = v.get("findings").and_then(json::Value::as_arr).unwrap();
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("code").and_then(json::Value::as_str),
            Some("ES-A040")
        );
        assert_eq!(
            findings[1].get("suppressed"),
            Some(&json::Value::Bool(true))
        );
        assert_eq!(
            findings[1].get("file").and_then(json::Value::as_str),
            Some("a \"quoted\"\npath.rs")
        );
        let summary = v.get("summary").unwrap();
        assert_eq!(
            summary.get("active").and_then(json::Value::as_num),
            Some(1.0)
        );
        assert_eq!(
            summary.get("total").and_then(json::Value::as_num),
            Some(2.0)
        );
        assert_eq!(
            v.get("passes")
                .and_then(json::Value::as_arr)
                .map(<[json::Value]>::len),
            Some(super::PASSES.len())
        );
    }

    #[test]
    fn json_reader_rejects_garbage() {
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,2").is_err());
        assert!(json::parse("{} trailing").is_err());
    }
}
