//! Differential gate for [`MultiAgentRunner`]: the event rule, which jumps
//! between controller and agent wake-ups, raced against the tick rule,
//! which visits every tick and consults no wake-up.  Every observable —
//! the stop tick, each agent's per-access history, the controller and
//! device statistics and the RFM log — must be identical.

use prac_core::config::MitigationPolicy;
use prac_core::security::CounterResetPolicy;
use prac_core::timing::DramTimingSummary;
use prac_core::tprac::TpracConfig;
use workloads::attack::attack_registry;

use crate::adversary::drive;
use crate::agents::{MultiAgentRunner, SerializedAccessAgent, StepRule};
use crate::covert::ActivitySender;
use crate::setup::AttackSetup;

/// Everything a run leaves behind that the two rules must agree on.
fn observables<T>(
    runner: &MultiAgentRunner,
    observed: T,
) -> (
    T,
    u64,
    memctrl::stats::ControllerStats,
    dram_sim::stats::DramStats,
    Vec<(u64, memctrl::rfm::RfmKind)>,
) {
    (
        observed,
        runner.now(),
        *runner.controller().stats(),
        *runner.controller().device().stats(),
        runner.controller().rfm_log().to_vec(),
    )
}

/// Runs `scenario` on a fresh controller under both rules and requires
/// identical observables.  `scenario` builds its agents, runs them and
/// returns what the agents recorded.  Returns the number of RFMs issued,
/// so callers can check the race exercised the mitigation path.
fn race<T: PartialEq + std::fmt::Debug>(
    setup: &AttackSetup,
    scenario: impl Fn(&mut MultiAgentRunner) -> T,
) -> usize {
    let run = |rule| {
        let mut runner = MultiAgentRunner::with_rule(setup.build_controller(), rule);
        let observed = scenario(&mut runner);
        observables(&runner, observed)
    };
    let event = run(StepRule::Event);
    let tick = run(StepRule::Tick);
    assert_eq!(event, tick, "event rule diverged from the tick oracle");
    event.4.len()
}

/// The mitigation policies the sweep crosses with the attack registry.
fn policies(nrh: u32) -> Vec<MitigationPolicy> {
    let tprac = TpracConfig::solve_for_threshold(
        nrh,
        &DramTimingSummary::ddr5_8000b(),
        CounterResetPolicy::ResetEveryTrefw,
    )
    .expect("TPRAC window solvable");
    vec![
        MitigationPolicy::Disabled,
        MitigationPolicy::AboOnly,
        MitigationPolicy::AboPlusAcbRfm,
        MitigationPolicy::Tprac(tprac),
        MitigationPolicy::PeriodicRfm { every_trefi: 2 },
        MitigationPolicy::Para {
            one_in: 128,
            seed: 0x5EED,
        },
    ]
}

/// Races every registered attack pattern against every policy, with and
/// without periodic refresh, under each seed.
fn sweep(nrh: u32, seeds: &[u64], budget: impl Fn(u64) -> u64) {
    for policy in policies(nrh) {
        for refresh in [false, true] {
            let setup = AttackSetup::new(nrh)
                .with_policy(policy.clone())
                .with_refresh(refresh);
            for descriptor in attack_registry() {
                let accesses = budget(descriptor.kind.accesses_to_breach(nrh));
                for &seed in seeds {
                    let run = |rule| {
                        let (outcome, runner) = drive(
                            &descriptor.kind,
                            &setup,
                            accesses,
                            accesses * 4_000,
                            seed,
                            rule,
                        );
                        observables(&runner, outcome)
                    };
                    assert_eq!(
                        run(StepRule::Event),
                        run(StepRule::Tick),
                        "{} vs {} (refresh {refresh}, seed {seed:#x})",
                        descriptor.slug,
                        policy.label(),
                    );
                }
            }
        }
    }
}

#[test]
fn rules_agree_on_a_short_attack_sweep() {
    sweep(256, &[7], |breach| breach / 4);
}

#[test]
#[ignore = "broad sweep; run with --include-ignored in release"]
fn rules_agree_across_attacks_policies_refresh_and_seeds() {
    sweep(256, &[0, 0x00A7_7ACC], |breach| breach * 5 / 4);
}

#[test]
fn rules_agree_when_the_deadline_cuts_a_run() {
    let setup = AttackSetup::new(256).with_refresh(true);
    for descriptor in attack_registry() {
        for max_ticks in [1, 777, 50_021] {
            let run = |rule| {
                let (outcome, runner) = drive(&descriptor.kind, &setup, 10_000, max_ticks, 3, rule);
                observables(&runner, outcome)
            };
            let event = run(StepRule::Event);
            assert_eq!(
                event,
                run(StepRule::Tick),
                "{} capped at {max_ticks}",
                descriptor.slug
            );
            assert_eq!(event.1, max_ticks, "a capped run stops at the deadline");
        }
    }
}

#[test]
fn rules_agree_on_think_time_and_delayed_starts() {
    let mut rfms = 0;
    for policy in policies(128) {
        let setup = AttackSetup::new(128).with_policy(policy).with_refresh(true);
        rfms += race(&setup, |runner| {
            let rows = (0..2)
                .map(|row| setup.row_address(runner.controller(), 0, 40 + row, 0))
                .collect();
            let mut agent = SerializedAccessAgent::new(rows, 400)
                .with_think_time(1_333)
                .starting_at(9_001);
            let stopped = runner.run(&mut [&mut agent], 5_000_000);
            // A second run on the same runner resumes from the stop tick.
            let row = setup.row_address(runner.controller(), 0, 40, 8);
            let mut probe = SerializedAccessAgent::new(vec![row], 80).with_think_time(800);
            let resumed = runner.run(&mut [&mut probe], 5_000_000);
            (stopped, agent.history, resumed, probe.history)
        });
    }
    assert!(rfms > 0, "no policy issued an RFM");
}

#[test]
fn rules_agree_for_two_agents_in_different_banks() {
    let mut rfms = 0;
    for policy in policies(128) {
        let setup = AttackSetup::new(128).with_policy(policy).with_refresh(true);
        rfms += race(&setup, |runner| {
            let spy_rows = (0..8)
                .map(|row| setup.row_address(runner.controller(), 2, 500 + row, 0))
                .collect();
            let trojan_row = setup.row_address(runner.controller(), 0, 99, 0);
            let mut spy = SerializedAccessAgent::new(spy_rows, 400).with_think_time(57);
            let mut trojan = SerializedAccessAgent::new(vec![trojan_row], 250).starting_at(20_000);
            runner.run(&mut [&mut spy, &mut trojan], 10_000_000);
            (spy.history, trojan.history)
        });
    }
    assert!(rfms > 0, "no policy issued an RFM");
}

#[test]
fn rules_agree_on_the_activity_covert_channel() {
    let nbo = 64;
    let setup = AttackSetup::new(nbo);
    let bits = vec![
        true, false, false, true, true, false, true, false, false, true,
    ];
    let window_ticks = u64::from(nbo) * 4 * 108 * 13 / 10 + 1_400;
    for refresh in [false, true] {
        let setup = setup.clone().with_refresh(refresh);
        let rfms = race(&setup, |runner| {
            let sender_row = setup.row_address(runner.controller(), 0, 99, 0);
            let receiver_rows = (0..64)
                .map(|row| setup.row_address(runner.controller(), 2, 5_000 + row, 0))
                .collect();
            let mut sender = ActivitySender::new(sender_row, bits.clone(), nbo, window_ticks);
            let mut receiver = SerializedAccessAgent::new(receiver_rows, u64::MAX);
            let total_ticks = window_ticks * (bits.len() as u64 + 1);
            runner.run(&mut [&mut sender, &mut receiver], total_ticks);
            receiver.history
        });
        // Each '1' bit raises one Alert answered by one RFM.
        assert_eq!(rfms, bits.iter().filter(|&&bit| bit).count());
    }
}
