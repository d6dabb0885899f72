//! Website fingerprinting via the PMU EM side channel (the §III
//! attack-model extension the paper describes but does not evaluate).
//!
//! ```text
//! cargo run --release -p emsc-examples --example fingerprinting
//! ```
//!
//! The attacker watches the victim browse from 2 m away, times the
//! processor-activity bursts of each page load, and classifies which
//! site was visited with a k-NN over the burst features.

use emsc_core::chain::{Chain, Setup};
use emsc_core::fingerprint_run::FingerprintScenario;
use emsc_core::laptop::Laptop;
use emsc_fingerprint::workload::site_library;

fn main() {
    let laptop = Laptop::dell_precision();
    println!("victim    : {} browsing", laptop.model);
    println!("receiver  : loop antenna at 2 m");

    let sites = site_library();
    println!("site library ({}):", sites.len());
    for s in &sites {
        println!(
            "  {:<12} {} bursts, {:.2} s active over {:.2} s",
            s.name,
            s.bursts.len(),
            s.total_active_s(),
            s.load_time_s()
        );
    }

    let chain = Chain::new(&laptop, Setup::LineOfSight(2.0));
    let scenario = FingerprintScenario::standard(chain, sites);
    let visits_per_site = 4;
    println!("\nobserving {} visits per site...", visits_per_site);
    let outcome = scenario.run(visits_per_site, 0xF16E).expect("the captures must be detectable");

    println!(
        "leave-one-out accuracy: {:.0} % (chance {:.0} %)",
        outcome.accuracy * 100.0,
        outcome.chance * 100.0
    );
    for v in outcome.visits.iter().take(5) {
        if let Some(f) = v.features {
            println!(
                "  e.g. {:<12} → {} bursts, {:.2} s active, {:.2} s span",
                v.label, v.bursts, f.values[0], f.values[1]
            );
        }
    }
}
