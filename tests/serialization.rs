//! Serialization and persistence across the facade API.

use coachlm::data::category::Category;
use coachlm::data::generator::{generate, GeneratorConfig};
use coachlm::data::pair::{Dataset, InstructionPair};

#[test]
fn generated_dataset_round_trips_native_json() {
    let (d, _) = generate(&GeneratorConfig::small(300, 1));
    let json = d.to_json().unwrap();
    let back = Dataset::from_json(&json).unwrap();
    assert_eq!(d, back);
}

#[test]
fn alpaca_format_round_trip_preserves_text() {
    let (d, _) = generate(&GeneratorConfig::small(200, 2));
    let mut buf = Vec::new();
    d.write_alpaca_json(&mut buf).unwrap();
    let back = Dataset::read_alpaca_json("x", &buf[..]).unwrap();
    assert_eq!(back.len(), d.len());
    for (a, b) in d.iter().zip(back.iter()) {
        assert_eq!(a.instruction, b.instruction);
        assert_eq!(a.response, b.response);
    }
}

#[test]
fn unicode_and_control_characters_survive_json() {
    let mut d = Dataset::new("unicode");
    d.pairs.push(InstructionPair::new(
        0,
        "Explique le cycle de l'eau — 日本語もOK ✓",
        "Réponse avec \"quotes\", newlines\net tabulations\t!",
        Category(0),
    ));
    let json = d.to_json().unwrap();
    assert_eq!(Dataset::from_json(&json).unwrap(), d);
    let mut buf = Vec::new();
    d.write_alpaca_json(&mut buf).unwrap();
    let back = Dataset::read_alpaca_json("u", &buf[..]).unwrap();
    assert_eq!(back.pairs[0].response, d.pairs[0].response);
}

#[test]
fn adapter_serializes_and_restores() {
    use coachlm::lm::adapter::{Adapter, AdapterConfig};
    let mut a = Adapter::new(AdapterConfig::default());
    a.observe(
        "fix teh report becuase thier numbers look wrong in alot of places",
        "fix the report because their numbers look wrong in a lot of places now",
        "short answer",
        "Short answer. This is because the details matter. For example, check the totals.",
    );
    a.finalize();
    let json = serde_json::to_string(&a).unwrap();
    let back: Adapter = serde_json::from_str(&json).unwrap();
    assert_eq!(back.rule_pairs, a.rule_pairs);
    assert_eq!(
        back.response_rules.phrase_rule_count(),
        a.response_rules.phrase_rule_count()
    );
    assert!((back.elicitation() - a.elicitation()).abs() < 1e-12);
}

#[test]
fn test_sets_serialize_to_json() {
    use coachlm::data::testsets::{TestSet, TestSetKind};
    let ts = TestSet::build(TestSetKind::Vicuna80, 1);
    let json = serde_json::to_string(&ts).unwrap();
    assert!(json.contains("Vicuna80"));
    assert!(json.contains("reference"));
}

#[test]
fn failure_record_round_trips() {
    use coachlm::runtime::{FailureKind, FailureRecord};
    for kind in [FailureKind::RetriesExhausted, FailureKind::Fatal] {
        let rec = FailureRecord {
            stage: "coach-revise".into(),
            attempts: 3,
            error: "injected: transient — ünïcode \"quoted\"".into(),
            kind,
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: FailureRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }
}

#[test]
fn quarantine_round_trips_from_a_real_faulted_run() {
    use coachlm::core::baselines::CleanStage;
    use coachlm::runtime::{Executor, ExecutorConfig, FaultPlan, Quarantine, RetryPolicy, Stage};
    let (d, _) = generate(&GeneratorConfig::small(200, 8));
    let stages: Vec<Box<dyn Stage>> = vec![Box::new(CleanStage)];
    let out = Executor::new(
        ExecutorConfig::new(1)
            .threads(4)
            .fault_plan(FaultPlan::new(5).transient(0.3).permanent(0.1))
            .retry_policy(RetryPolicy::new(2, std::time::Duration::from_millis(1))),
    )
    .run(&stages, &d.pairs);
    let q = out.quarantine("clean-quarantine");
    assert!(
        !q.is_empty(),
        "the plan's rates guarantee quarantined pairs"
    );
    let json = serde_json::to_string_pretty(&q).unwrap();
    let back: Quarantine = serde_json::from_str(&json).unwrap();
    assert_eq!(back, q);
    // The remediation dataset view survives too.
    assert_eq!(back.dataset().len(), q.len());
}

#[test]
fn extended_stage_report_round_trips() {
    use coachlm::runtime::StageReport;
    use std::time::Duration;
    let mut report = StageReport {
        stage: "expert-annotate".into(),
        items_in: 500,
        items_out: 420,
        quarantined: 60,
        retries: 131,
        faults_injected: 191,
        timeouts: 17,
        degraded: 44,
        cpu_time: Duration::from_nanos(987_654_321_987),
        backoff_time: Duration::from_millis(1_310),
        latency_time: Duration::from_millis(8_400),
        ..StageReport::default()
    };
    report.counters.insert("revise:qa".into(), 77);
    let json = serde_json::to_string(&report).unwrap();
    let back: StageReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.items_dropped(), 20);
    // The three time channels are disjoint; total_time sums them.
    assert_eq!(
        back.total_time(),
        back.cpu_time + back.backoff_time + back.latency_time
    );
}

#[test]
fn breaker_events_round_trip() {
    use coachlm::runtime::{BreakerEvent, BreakerState};
    let events = vec![
        BreakerEvent {
            stage: "coach-revise".into(),
            epoch: 3,
            from: BreakerState::Closed,
            to: BreakerState::Open,
        },
        BreakerEvent {
            stage: "coach-revise".into(),
            epoch: 4,
            from: BreakerState::Open,
            to: BreakerState::HalfOpen,
        },
    ];
    let json = serde_json::to_string(&events).unwrap();
    let back: Vec<BreakerEvent> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, events);
}
