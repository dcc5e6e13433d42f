//! Seed stability of the `attacks` campaign's security verdicts.
//!
//! A cell's `nrh_breached` verdict should follow from the pattern, the
//! mitigation and the threshold, not from the seed of the pattern's filler
//! streams.  The quick matrix is re-run with each cell's seed XORed with 0,
//! 1 and 2; every cell must reach the same verdict under all three.

use campaign::exec::execute;
use campaign::{find_campaign, Profile, ScenarioSpec};

#[test]
fn nrh_breached_verdicts_are_stable_across_seeds() {
    let campaign = find_campaign("attacks", &Profile::quick()).expect("registered");
    let mut flips = Vec::new();
    let mut breached = 0;
    for scenario in &campaign.scenarios {
        let verdict = |salt: u64| {
            let mut spec = scenario.spec.clone();
            let ScenarioSpec::Attack { seed, .. } = &mut spec else {
                panic!("{} is not an attack cell", scenario.name);
            };
            *seed ^= salt;
            execute(&spec).get("nrh_breached").cloned()
        };
        let verdicts = [0, 1, 2].map(verdict);
        if verdicts.iter().any(|v| *v != verdicts[0]) {
            flips.push(format!("{}: {verdicts:?}", scenario.name));
        }
        breached += usize::from(verdicts[0] == Some(true.into()));
    }
    assert!(
        flips.is_empty(),
        "nrh_breached changes with the seed in {} of {} cells:\n{}",
        flips.len(),
        campaign.scenarios.len(),
        flips.join("\n")
    );
    // Both verdicts occur, so the comparison is not vacuous.
    assert!(
        0 < breached && breached < campaign.scenarios.len(),
        "{breached} of {} cells breached",
        campaign.scenarios.len()
    );
}
