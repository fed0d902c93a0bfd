//! Golden-diagnostic tests for the `coachlm-analyze` passes: the
//! interprocedural taint analysis (T1) and the fingerprint-coverage
//! check (F1), driven through fixture files with known violations, plus
//! parser-binding guards over real workspace sources (if the parser ever
//! stops seeing `Stage::run` impls or `fingerprint_into` bodies, the
//! analyses would go quiet without these).

use coachlm_lint::parse::FileSummary;
use coachlm_lint::rules::Finding;
use coachlm_lint::walk::FileClass;
use coachlm_lint::{analyze_source, analyze_sources};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture file readable")
}

fn analyze_fixture(name: &str, as_path: &str) -> Vec<Finding> {
    analyze_sources(&[(FileClass::classify(as_path), fixture(name))])
}

fn rule_lines(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

const PROD: &str = "crates/core/src/fixture.rs";

// --- T1: cross-function taint ---------------------------------------------

#[test]
fn t1_reports_map_iteration_chain_with_full_call_chain() {
    let f = analyze_fixture("t1_chain_fire.rs", PROD);
    // T1 flags the sink (line 9); the local rule flags the site (line 21).
    assert_eq!(rule_lines(&f), vec![("T1", 9), ("D3", 21)]);
    let t1 = &f[0];
    assert_eq!(
        t1.message,
        "`Reorder::process` is a production `Stage::process` path but reaches a hash-map \
         iteration order source: `.iter()` over hash map/set `buckets` at \
         crates/core/src/fixture.rs:21 \
         [call chain: Reorder::process -> collect_tags -> bucket_names]"
    );
}

#[test]
fn t1_reports_each_new_source_kind_once() {
    let f = analyze_fixture("t1_kinds_fire.rs", "crates/runtime/src/fixture.rs");
    assert!(f.iter().all(|f| f.rule == "T1"), "only T1 fires: {f:?}");
    // One finding per source kind reached from the sink, all anchored at
    // the sink — multiple walk paths to the same span dedup to one.
    let mut kinds: Vec<&str> = f
        .iter()
        .map(|f| {
            if f.message.contains("thread-identity") {
                "thread-id"
            } else if f.message.contains("pointer-address") {
                "ptr-int"
            } else if f.message.contains("atomic read-modify-write") {
                "atomic-rmw"
            } else {
                "other"
            }
        })
        .collect();
    kinds.sort_unstable();
    assert_eq!(kinds, vec!["atomic-rmw", "ptr-int", "thread-id"]);
    assert!(f.iter().all(|f| f.line == 9), "anchored at the sink: {f:?}");
    assert!(f.iter().all(|f| f
        .message
        .contains("[call chain: output_digest -> seed_salt]")));
}

#[test]
fn t1_cross_file_chain_is_reported() {
    let caller = r#"
pub struct Shuffle;
impl Stage for Shuffle {
    fn process(&self, item: &mut StageItem, _ctx: &mut StageCtx<'_>) -> StageOutcome {
        StageOutcome::count(shared_entropy_helper())
    }
}
"#;
    let callee = r#"
pub fn shared_entropy_helper() -> u64 {
    let mut rng = thread_rng();
    rng.next_u64()
}
"#;
    let f = analyze_sources(&[
        (
            FileClass::classify("crates/core/src/caller.rs"),
            caller.to_string(),
        ),
        (
            FileClass::classify("crates/expert/src/callee.rs"),
            callee.to_string(),
        ),
    ]);
    // D2 fires at the source line; T1 at the sink, naming both files.
    assert_eq!(rule_lines(&f), vec![("T1", 4), ("D2", 3)]);
    assert!(f[0].message.contains("OS-entropy source"));
    assert!(f[0].message.contains(
        "at crates/expert/src/callee.rs:3 [call chain: Shuffle::process -> shared_entropy_helper]"
    ));
}

#[test]
fn t1_allowed_source_does_not_seed_taint() {
    let f = analyze_fixture("t1_allowed.rs", PROD);
    assert!(f.is_empty(), "allowed source must not taint: {f:?}");
}

// --- F1: fingerprint coverage ---------------------------------------------

#[test]
fn f1_reports_unhashed_field_of_fingerprinted_struct() {
    let f = analyze_fixture("f1_fire.rs", "crates/runtime/src/fixture.rs");
    assert_eq!(rule_lines(&f), vec![("F1", 6)]);
    assert_eq!(
        f[0].message,
        "field `burst_budget` of fingerprinted type `ShardPolicy` is not folded into \
         `ShardPolicy::fingerprint_into` — hash it, or justify the exclusion with \
         `// lint: allow(F1, reason = \"…\")` on the field"
    );
}

#[test]
fn f1_allowed_exclusion_and_enum_bindings_are_clean() {
    let f = analyze_fixture("f1_allowed.rs", "crates/runtime/src/fixture.rs");
    assert!(f.is_empty(), "justified exclusions are clean: {f:?}");
}

#[test]
fn f1_unfingerprinted_struct_is_ignored() {
    let src = "pub struct Plain { a: u32, b: u32 }\n";
    let f = analyze_sources(&[(FileClass::classify(PROD), src.to_string())]);
    assert!(f.is_empty());
}

// --- negative -------------------------------------------------------------

#[test]
fn clean_fixture_stays_clean_through_all_analyses() {
    let f = analyze_fixture("analyze_clean.rs", PROD);
    assert!(f.is_empty(), "clean fixture must stay clean: {f:?}");
}

#[test]
fn test_scoped_code_never_feeds_the_graph() {
    // The same tainted chain under #[cfg(test)] must not produce T1.
    let src = r#"
#[cfg(test)]
mod tests {
    pub fn output_digest(xs: &[u64]) -> u64 {
        let addr = xs.as_ptr() as usize;
        addr as u64
    }
}
"#;
    let f = analyze_sources(&[(FileClass::classify(PROD), src.to_string())]);
    assert!(f.is_empty(), "test scopes are exempt: {f:?}");
}

// --- parser binding guards over real workspace sources --------------------

fn workspace_summary(rel: &str) -> FileSummary {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let src = std::fs::read_to_string(root.join(rel)).expect("workspace file readable");
    analyze_source(&FileClass::classify(rel), &src).summary
}

#[test]
fn parser_sees_breaker_policy_fields_and_fingerprint_body() {
    let s = workspace_summary("crates/runtime/src/breaker.rs");
    let ty = s
        .types
        .iter()
        .find(|t| t.name == "BreakerPolicy")
        .expect("BreakerPolicy parsed");
    let names: Vec<&str> = ty.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "window",
            "trip_ratio",
            "min_failures",
            "cooldown_epochs",
            "probes"
        ]
    );
    let fp = s
        .fns
        .iter()
        .find(|f| f.name == "fingerprint_into" && f.self_ty.as_deref() == Some("BreakerPolicy"))
        .expect("BreakerPolicy::fingerprint_into parsed");
    for field in &names {
        assert!(
            fp.mentions.iter().any(|m| m == field),
            "`{field}` mentioned in the hash body"
        );
    }
    assert!(s.parse_errors.is_empty(), "{:?}", s.parse_errors);
}

#[test]
fn parser_sees_stage_process_sinks_in_strategies() {
    let s = workspace_summary("crates/core/src/strategies.rs");
    let sinks: Vec<_> = s
        .fns
        .iter()
        .filter(|f| f.name == "process" && f.trait_name.as_deref() == Some("Stage") && !f.is_test)
        .collect();
    assert!(
        sinks.len() >= 4,
        "strategies.rs has several Stage::process impls, found {}",
        sinks.len()
    );
    assert!(
        sinks.iter().any(|r| !r.calls.is_empty()),
        "process bodies record call sites"
    );
}

#[test]
fn parser_sees_executor_fingerprint_and_feed_enum() {
    let s = workspace_summary("crates/runtime/src/stream.rs");
    let feed = s
        .types
        .iter()
        .find(|t| t.name == "Feed")
        .expect("Feed enum parsed");
    let names: Vec<&str> = feed.fields.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["rate_per_sec", "drain_per_sec", "backlog_capacity"]
    );
}
