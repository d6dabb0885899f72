//! Workspace integration tests for the keylogging exploit.

use emsc_core::chain::{Chain, Setup};
use emsc_core::keylog_run::KeylogScenario;
use emsc_core::laptop::Laptop;

#[test]
fn keystrokes_are_detected_through_the_wall() {
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::ThroughWall);
    let scenario = KeylogScenario::standard(chain);
    let outcome = scenario.run("open sesame", 31).expect("capture detects");
    assert!(
        outcome.chars.tpr() > 0.85,
        "through-wall TPR {} (missed {})",
        outcome.chars.tpr(),
        outcome.chars.missed
    );
}

#[test]
fn detection_is_better_near_field_than_through_wall() {
    let laptop = Laptop::dell_precision();
    let text = "comparison of distances here";
    let near = KeylogScenario::standard(Chain::new(&laptop, Setup::NearField))
        .run(text, 13)
        .expect("capture detects");
    let wall = KeylogScenario::standard(Chain::new(&laptop, Setup::ThroughWall))
        .run(text, 13)
        .expect("capture detects");
    assert!(
        near.chars.tpr() >= wall.chars.tpr() - 1e-9,
        "near {} vs wall {}",
        near.chars.tpr(),
        wall.chars.tpr()
    );
}

#[test]
fn word_structure_is_recoverable() {
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = KeylogScenario::standard(chain);
    let text = "four small words here";
    let outcome = scenario.run(text, 55).expect("capture detects");
    // Word count within ±1 and most lengths correct.
    let diff = (outcome.words.predicted as i64 - outcome.words.actual as i64).unsigned_abs();
    assert!(diff <= 1, "predicted {} of {} words", outcome.words.predicted, outcome.words.actual);
    assert!(outcome.words.recall() > 0.7, "recall {}", outcome.words.recall());
}

#[test]
fn burst_durations_reflect_keystroke_handling() {
    // Detected burst durations must sit in the keystroke-handling
    // range (tens of ms), not at the interrupt scale.
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = KeylogScenario::standard(chain);
    let outcome = scenario.run("abcdef", 3).expect("capture detects");
    for b in &outcome.detection.bursts {
        assert!((0.03..0.25).contains(&b.duration_s), "burst duration {}", b.duration_s);
    }
}

#[test]
fn detection_is_robust_across_typist_skill_levels() {
    use emsc_keylog::typist::{Typist, TypistConfig};
    let laptop = Laptop::dell_precision();
    let text = "skill level sweep";
    for (label, cfg) in [
        ("professional", TypistConfig::professional()),
        ("average", TypistConfig::average()),
        ("hunt-and-peck", TypistConfig::hunt_and_peck()),
    ] {
        let chain = Chain::new(&laptop, Setup::NearField);
        let mut scenario = KeylogScenario::standard(chain);
        scenario.typist = Typist::new(cfg);
        let outcome = scenario.run(text, 23).expect("capture detects");
        assert!(
            outcome.chars.tpr() > 0.85,
            "{label}: TPR {} (missed {})",
            outcome.chars.tpr(),
            outcome.chars.missed
        );
    }
}
