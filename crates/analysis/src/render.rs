//! Rendering reports as human text, machine JSON and SARIF 2.1.0.
//!
//! The JSON is pretty-printed by hand: the shapes are small and fixed,
//! and the snapshot tests pin them byte-for-byte. Every string goes
//! through the workspace's one escaper, [`troy_dfg::json::escape`].

use std::fmt::Write as _;

use troy_dfg::json::escape;

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::engine::AnalysisReport;

impl AnalysisReport {
    /// Plain-text rendering: one block per diagnostic plus a summary line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{}: {} ({} mode): {}",
            if self.is_blocking() { "FAIL" } else { "ok" },
            self.design,
            self.mode,
            self.summary()
        );
        out
    }

    /// Structured JSON rendering (the tool's own stable schema).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": {},", escape("troy-analysis"));
        let _ = writeln!(out, "  \"version\": {},", escape(env!("CARGO_PKG_VERSION")));
        let _ = writeln!(out, "  \"design\": {},", escape(&self.design));
        let _ = writeln!(out, "  \"mode\": {},", escape(&self.mode));
        let _ = writeln!(
            out,
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"notes\": {}, \"blocking\": {}}},",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            self.is_blocking()
        );
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&diagnostic_json(d, "    "));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// SARIF 2.1.0 rendering.
    ///
    /// Locations are logical (op copies and nodes inside the design), not
    /// physical files; each used rule is declared once in the driver's
    /// rule registry with its paper reference in the help text.
    #[must_use]
    pub fn to_sarif(&self) -> String {
        let used = self.used_codes();
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "  \"$schema\": {},",
            escape("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
        );
        let _ = writeln!(out, "  \"version\": {},", escape("2.1.0"));
        out.push_str("  \"runs\": [\n    {\n");
        out.push_str("      \"tool\": {\n        \"driver\": {\n");
        let _ = writeln!(out, "          \"name\": {},", escape("troy-analysis"));
        let _ = writeln!(
            out,
            "          \"version\": {},",
            escape(env!("CARGO_PKG_VERSION"))
        );
        let _ = writeln!(
            out,
            "          \"informationUri\": {},",
            escape("https://example.invalid/troyhls")
        );
        out.push_str("          \"rules\": [");
        for (i, code) in used.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&rule_json(*code, "            "));
        }
        if !used.is_empty() {
            out.push_str("\n          ");
        }
        out.push_str("]\n        }\n      },\n");
        out.push_str("      \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            let rule_index = used.iter().position(|c| *c == d.code).unwrap_or(0);
            out.push_str(&result_json(d, rule_index, &self.design, "        "));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }

    /// The distinct codes present in the report, in code order.
    fn used_codes(&self) -> Vec<Code> {
        let mut used: Vec<Code> = Vec::new();
        for d in &self.diagnostics {
            if !used.contains(&d.code) {
                used.push(d.code);
            }
        }
        used.sort();
        used
    }
}

/// One diagnostic as a JSON object (tool schema).
fn diagnostic_json(d: &Diagnostic, indent: &str) -> String {
    let mut out = format!("{indent}{{\n");
    let _ = writeln!(out, "{indent}  \"code\": {},", escape(d.code.as_str()));
    let _ = writeln!(out, "{indent}  \"name\": {},", escape(d.code.name()));
    let _ = writeln!(
        out,
        "{indent}  \"severity\": {},",
        escape(d.severity.as_str())
    );
    let _ = writeln!(out, "{indent}  \"message\": {},", escape(&d.message));
    if let Some(eq) = d.code.paper_ref() {
        let _ = writeln!(out, "{indent}  \"paperRef\": {},", escape(eq));
    }
    if !d.location.is_empty() {
        let mut fields: Vec<String> = Vec::new();
        if let Some(c) = d.location.copy {
            fields.push(format!("\"copy\": {}", escape(&c.to_string())));
        } else if let Some(n) = d.location.node {
            fields.push(format!("\"node\": {}", escape(&n.to_string())));
        }
        if let Some(cy) = d.location.cycle {
            fields.push(format!("\"cycle\": {cy}"));
        }
        if let Some(v) = d.location.vendor {
            fields.push(format!("\"vendor\": {}", escape(&v.to_string())));
        }
        if let Some(t) = d.location.ip_type {
            fields.push(format!("\"ipType\": {}", escape(t.name())));
        }
        let _ = writeln!(out, "{indent}  \"location\": {{{}}},", fields.join(", "));
    }
    let _ = write!(out, "{indent}  \"fixits\": [");
    for (i, f) in d.fixits.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let alts = f
            .alternatives
            .iter()
            .map(|v| escape(&v.to_string()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "{{\"description\": {}, \"alternatives\": [{alts}]}}",
            escape(&f.description)
        );
    }
    out.push_str("]\n");
    let _ = write!(out, "{indent}}}");
    out
}

/// One rule declaration for the SARIF driver registry.
fn rule_json(code: Code, indent: &str) -> String {
    let help = match code.paper_ref() {
        Some(eq) => format!("{} (paper {eq})", code.summary()),
        None => code.summary().to_string(),
    };
    let mut out = format!("{indent}{{\n");
    let _ = writeln!(out, "{indent}  \"id\": {},", escape(code.as_str()));
    let _ = writeln!(out, "{indent}  \"name\": {},", escape(code.name()));
    let _ = writeln!(
        out,
        "{indent}  \"shortDescription\": {{\"text\": {}}},",
        escape(code.summary())
    );
    let _ = writeln!(out, "{indent}  \"help\": {{\"text\": {}}},", escape(&help));
    let _ = writeln!(
        out,
        "{indent}  \"defaultConfiguration\": {{\"level\": {}}}",
        escape(sarif_level(code.severity()))
    );
    let _ = write!(out, "{indent}}}");
    out
}

/// One finding as a SARIF result object.
fn result_json(d: &Diagnostic, rule_index: usize, design: &str, indent: &str) -> String {
    // SARIF fixes require physical artifacts; fold fix-it text into the
    // message so suggestions survive in this format too.
    let mut text = d.message.clone();
    for f in &d.fixits {
        let _ = write!(text, "; help: {f}");
    }
    let location = d.location.logical_name();
    let mut out = format!("{indent}{{\n");
    let _ = writeln!(out, "{indent}  \"ruleId\": {},", escape(d.code.as_str()));
    let _ = writeln!(out, "{indent}  \"ruleIndex\": {rule_index},");
    let _ = writeln!(
        out,
        "{indent}  \"level\": {},",
        escape(sarif_level(d.severity))
    );
    let comma = if location.is_some() { "," } else { "" };
    let _ = writeln!(
        out,
        "{indent}  \"message\": {{\"text\": {}}}{comma}",
        escape(&text)
    );
    if let Some(name) = location {
        let fq = format!("{design}::{name}");
        let _ = writeln!(out, "{indent}  \"locations\": [");
        let _ = writeln!(out, "{indent}    {{\"logicalLocations\": [{{");
        let _ = writeln!(out, "{indent}      \"name\": {},", escape(&name));
        let _ = writeln!(
            out,
            "{indent}      \"fullyQualifiedName\": {},",
            escape(&fq)
        );
        let _ = writeln!(out, "{indent}      \"kind\": {}", escape("element"));
        let _ = writeln!(out, "{indent}    }}]}}");
        let _ = writeln!(out, "{indent}  ]");
    }
    let _ = write!(out, "{indent}}}");
    out
}

/// SARIF `level` values for our severities.
fn sarif_level(s: Severity) -> &'static str {
    match s {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint;
    use troy_dfg::benchmarks;
    use troyhls::{Catalog, Implementation, Mode, SynthesisProblem};

    fn report_with_errors() -> AnalysisReport {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .build()
            .unwrap();
        let imp = Implementation::new(p.dfg().len());
        lint(&p, Some(&imp))
    }

    #[test]
    fn text_render_carries_codes_and_summary() {
        let r = report_with_errors();
        let text = r.to_text();
        assert!(text.contains("error[TD001]"), "{text}");
        assert!(text.contains("FAIL: polynom"), "{text}");
    }

    #[test]
    fn json_render_is_balanced_and_typed() {
        let r = report_with_errors();
        let json = r.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"tool\": \"troy-analysis\""));
        assert!(json.contains("\"code\": \"TD001\""));
        assert!(json.contains("\"paperRef\": \"eq. (3)\""));
    }

    #[test]
    fn sarif_render_has_required_shape() {
        let r = report_with_errors();
        let sarif = r.to_sarif();
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("sarif-schema-2.1.0.json"));
        assert!(sarif.contains("\"ruleId\": \"TD001\""));
        assert!(sarif.contains("\"logicalLocations\""));
        assert_eq!(
            sarif.matches('{').count(),
            sarif.matches('}').count(),
            "{sarif}"
        );
        // Every result's ruleIndex must point at its own rule.
        assert!(sarif.contains("\"ruleIndex\": 0"));
    }

    #[test]
    fn clean_report_renders_ok_line_and_empty_arrays() {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(5)
            .build()
            .unwrap();
        let r = lint(&p, None);
        if r.is_clean() {
            assert!(r.to_text().starts_with("ok:"), "{}", r.to_text());
            assert!(r.to_json().contains("\"diagnostics\": []"));
            assert!(r.to_sarif().contains("\"results\": []"));
        }
    }
}
