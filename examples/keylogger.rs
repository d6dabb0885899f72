//! Keystroke logging from across the room (§V).
//!
//! ```text
//! cargo run --release -p emsc-examples --example keylogger
//! ```
//!
//! A victim types a sentence into a browser on an otherwise idle
//! laptop; every keypress briefly wakes the processor, flaring the
//! VRM's emanation. The attacker's detector counts the keystrokes,
//! times them, and groups them into words — the Fig. 11 demonstration.

use emsc_core::chain::{Chain, Setup};
use emsc_core::keylog_run::KeylogScenario;
use emsc_core::laptop::Laptop;
use emsc_keylog::identify::search_space_reduction;
use emsc_keylog::typist::Typist;

fn main() {
    let sentence = "can you hear me";
    let laptop = Laptop::dell_precision();
    println!("victim    : {} ({})", laptop.model, laptop.os.name());
    println!("receiver  : loop antenna at 2 m");
    println!("typing    : {sentence:?}");

    let chain = Chain::new(&laptop, Setup::LineOfSight(2.0));
    let scenario = KeylogScenario::standard(chain);
    let outcome = scenario.run(sentence, 0xBEE5).expect("the capture must be detectable");

    println!();
    println!("ground truth: {} keystrokes", outcome.keystrokes.len());
    println!(
        "detected    : {} bursts ({} rejected by the 30 ms filter)",
        outcome.detection.bursts.len(),
        outcome.detection.rejected.len()
    );
    println!(
        "chars       : TPR {:.0} %, FPR {:.1} %",
        outcome.chars.tpr() * 100.0,
        outcome.chars.fpr() * 100.0
    );
    println!(
        "words       : {} predicted of {} (precision {:.0} %, recall {:.0} %)",
        outcome.words.predicted,
        outcome.words.actual,
        outcome.words.precision() * 100.0,
        outcome.words.recall() * 100.0
    );

    // §V-B: inter-key timing shrinks the key-identification search
    // space even before any content analysis.
    let detected: Vec<f64> = outcome.detection.bursts.iter().map(|b| b.start_s).collect();
    let reduction = search_space_reduction(&Typist::default(), &detected, 0.2);
    println!(
        "timing      : inter-key intervals reveal {:.1} bits of key-guessing work ({:.2} bits/keystroke)",
        reduction.total_bits,
        reduction.total_bits / reduction.per_interval_bits.len().max(1) as f64
    );

    // Timeline: keystroke presses vs. detected bursts.
    println!();
    println!("timeline (| = true keypress, * = detected burst):");
    let end = outcome.keystrokes.last().map(|k| k.release_s + 0.5).unwrap_or(1.0);
    let cols = 96;
    let mut truth_line = vec![' '; cols];
    let mut det_line = vec![' '; cols];
    for k in &outcome.keystrokes {
        let c = ((k.press_s / end) * cols as f64) as usize;
        truth_line[c.min(cols - 1)] = '|';
    }
    for b in &outcome.detection.bursts {
        let c = ((b.start_s / end) * cols as f64) as usize;
        det_line[c.min(cols - 1)] = '*';
    }
    println!("  typed   {}", truth_line.iter().collect::<String>());
    println!("  heard   {}", det_line.iter().collect::<String>());
}
