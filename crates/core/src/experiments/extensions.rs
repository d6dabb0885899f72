//! Extension experiments — attacks the paper describes but does not
//! evaluate (§III attack model (ii)).

use emsc_fingerprint::classify::{leave_one_out, Confusion, LabeledVisit};
use emsc_keylog::identify::search_space_reduction;
use emsc_keylog::typist::Typist;

use crate::chain::{Chain, Setup};
use crate::fingerprint_run::FingerprintScenario;
use crate::keylog_run::KeylogScenario;
use crate::laptop::Laptop;

/// Website-fingerprinting result (extension experiment E1).
#[derive(Debug, Clone)]
pub struct FingerprintResult {
    /// Leave-one-out confusion matrix.
    pub confusion: Confusion,
    /// Overall accuracy.
    pub accuracy: f64,
    /// Chance level.
    pub chance: f64,
    /// Visits per site observed.
    pub visits_per_site: usize,
}

impl FingerprintResult {
    /// Renders the result.
    pub fn render(&self) -> String {
        format!(
            "E1 — website fingerprinting at 2 m: accuracy {:.0} % (chance {:.0} %), {} visits/site\n{}",
            self.accuracy * 100.0,
            self.chance * 100.0,
            self.visits_per_site,
            self.confusion.render()
        )
    }
}

/// Runs the website-fingerprinting extension: the bundled site
/// library observed from 2 m on the Dell Precision.
pub fn fingerprint_accuracy(visits_per_site: usize, seed: u64) -> FingerprintResult {
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::LineOfSight(2.0));
    let scenario = FingerprintScenario::standard(chain, emsc_fingerprint::site_library());
    let outcome =
        scenario.run(visits_per_site, seed).expect("simulated captures are always detectable");
    let labelled: Vec<LabeledVisit> = outcome
        .visits
        .iter()
        .filter_map(|v| {
            v.features.map(|features| LabeledVisit { label: v.label.clone(), features })
        })
        .collect();
    let k = visits_per_site.saturating_sub(1).clamp(1, 3);
    let confusion = leave_one_out(&labelled, k);
    FingerprintResult {
        accuracy: confusion.accuracy(),
        chance: outcome.chance,
        confusion,
        visits_per_site,
    }
}

/// Timing-analysis result (extension experiment E2): how many bits of
/// key-guessing work the detected inter-key intervals reveal.
#[derive(Debug, Clone)]
pub struct TimingResult {
    /// Keystrokes detected.
    pub keystrokes: usize,
    /// Total entropy gain over the sequence, bits.
    pub total_bits: f64,
    /// Mean gain per interval, bits.
    pub bits_per_interval: f64,
}

impl TimingResult {
    /// Renders the result.
    pub fn render(&self) -> String {
        format!(
            "E2 — keystroke-timing analysis: {} keystrokes ⇒ {:.1} bits of guessing work revealed ({:.2} bits/interval)",
            self.keystrokes, self.total_bits, self.bits_per_interval
        )
    }
}

/// Runs the timing-analysis extension over a detected keystroke
/// stream (the §V-B search-space reduction).
pub fn timing_analysis(text: &str, seed: u64) -> TimingResult {
    let laptop = Laptop::dell_precision();
    let chain = Chain::new(&laptop, Setup::NearField);
    let scenario = KeylogScenario::standard(chain);
    let outcome = scenario.run(text, seed).expect("simulated captures are always detectable");
    let times: Vec<f64> = outcome.detection.bursts.iter().map(|b| b.start_s).collect();
    let r = search_space_reduction(&Typist::default(), &times, 0.2);
    TimingResult {
        keystrokes: times.len(),
        total_bits: r.total_bits,
        bits_per_interval: r.total_bits / r.per_interval_bits.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprinting_beats_chance() {
        let r = fingerprint_accuracy(2, 5);
        assert!(r.accuracy > 1.5 * r.chance, "accuracy {} chance {}", r.accuracy, r.chance);
        assert!(r.render().contains("E1"));
    }

    #[test]
    fn timing_analysis_reveals_entropy() {
        let r = timing_analysis("secret passphrase", 5);
        assert!(r.keystrokes >= 15, "keystrokes {}", r.keystrokes);
        assert!(r.total_bits > 5.0, "gain {}", r.total_bits);
        assert!(r.render().contains("bits"));
    }
}
