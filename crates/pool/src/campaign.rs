//! Compiling [`Scenario`]s into the pool's fault schedule.
//!
//! A [`Scenario`] speaks in
//! simulated *time* — "at 2 ms the attacker switches on injection
//! locking" — while the pool's [`FaultInjection`] schedule speaks in
//! healthy *bytes produced per shard*. This module is the bridge:
//! [`onset_bytes`] converts a scenario onset into the byte offset at
//! which a shard running the given conditioning reaches that simulated
//! time, and [`compile_campaign`] maps every scenario phase onto every
//! target shard as a [`ShardFault::Env`] injection.
//!
//! The conversion is exact: one output bit consumes
//! `r` = [`Conditioning::raw_bits_per_output`] raw samples of `tA`
//! each, so one byte spans `8 · r · tA` of simulated time.

use trng_fpga_sim::scenario::Scenario;
use trng_fpga_sim::time::Ps;
use trng_model::params::DesignParams;

use crate::shard::{Conditioning, FaultInjection, ShardFault};

/// Healthy bytes a shard has produced by simulated time `onset`.
///
/// Each raw sample takes one accumulation interval `tA`, and one output
/// byte consumes `8 · r` raw samples where `r` is the conditioning's
/// [`raw_bits_per_output`](Conditioning::raw_bits_per_output) at the
/// design's native rate `np`. Fractional bytes round *down*: the fault
/// fires at the first whole byte at-or-after the onset, never before it.
///
/// # Examples
///
/// ```
/// use trng_fpga_sim::time::Ps;
/// use trng_model::params::DesignParams;
/// use trng_pool::{onset_bytes, Conditioning};
///
/// let design = DesignParams::paper_k1(); // tA = 10 ns, np = 7
/// // One DesignXor byte spans 8 * 7 * 10 ns = 560 ns.
/// assert_eq!(onset_bytes(Ps::from_ns(560.0), Conditioning::DesignXor, &design), 1);
/// assert_eq!(onset_bytes(Ps::from_ms(2.0), Conditioning::Raw, &design), 25_000);
/// ```
pub fn onset_bytes(onset: Ps, conditioning: Conditioning, design: &DesignParams) -> u64 {
    let rate = conditioning.raw_bits_per_output(design.np);
    let byte_span_ps = 8.0 * f64::from(rate) * design.t_a_ps();
    (onset.as_ps() / byte_span_ps).floor() as u64
}

/// Compiles a scenario into the pool's fault schedule.
///
/// Every phase of `scenario` becomes one [`ShardFault::Env`] injection
/// per shard in `targets`, fired once that shard has produced the
/// phase's [`onset_bytes`]. Later phases escalate: the shard layer
/// applies a ripe environment fault even while an earlier one is still
/// active, so multi-phase campaigns (e.g. an amplitude ramp) play out
/// in order.
///
/// `transient` is forwarded to every injection: `true` models a
/// disturbance that is gone by the time a quarantined shard re-runs its
/// admission test, `false` a persistent condition that retires it.
pub fn compile_campaign(
    scenario: &Scenario,
    conditioning: Conditioning,
    design: &DesignParams,
    targets: &[usize],
    transient: bool,
) -> Vec<FaultInjection> {
    scenario
        .phases
        .iter()
        .flat_map(|phase| {
            targets.iter().map(move |&shard| FaultInjection {
                shard,
                after_bytes: onset_bytes(phase.onset, conditioning, design),
                fault: ShardFault::Env(phase.env.clone()),
                transient,
            })
        })
        .collect()
}

/// Compiles a common-mode scenario against *every* shard of a pool.
///
/// Shorthand for [`compile_campaign`] with `targets = 0..shards` — the
/// shape a shared environmental disturbance (e.g.
/// [`Scenario::shared_supply_tone`]) actually has: one supply rail, one
/// tone, every oscillator on the die modulated in phase. This is the
/// schedule the cross-shard [`CoherenceDetector`](crate::coherence)
/// exists to catch.
pub fn compile_common_mode(
    scenario: &Scenario,
    conditioning: Conditioning,
    design: &DesignParams,
    shards: usize,
    transient: bool,
) -> Vec<FaultInjection> {
    let targets: Vec<usize> = (0..shards).collect();
    compile_campaign(scenario, conditioning, design, &targets, transient)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onset_conversion_matches_the_conditioning_rate() {
        let design = DesignParams::paper_k1(); // tA = 10 ns, np = 7
        let onset = Ps::from_ms(2.0);
        assert_eq!(onset_bytes(onset, Conditioning::DesignXor, &design), 3571);
        assert_eq!(onset_bytes(onset, Conditioning::Xor(7), &design), 3571);
        assert_eq!(onset_bytes(onset, Conditioning::Xor(1), &design), 25_000);
        assert_eq!(onset_bytes(onset, Conditioning::Raw, &design), 25_000);
        let toeplitz = Conditioning::Toeplitz { ratio: 5, seed: 1 };
        assert_eq!(onset_bytes(onset, toeplitz, &design), 5000);
    }

    #[test]
    fn onset_rounds_down_so_faults_never_fire_early() {
        let design = DesignParams::paper_k1();
        // 1.5 DesignXor bytes of simulated time: the fault must wait
        // for the first whole byte, i.e. fire after byte 1.
        let onset = Ps::from_ns(560.0 * 1.5);
        assert_eq!(onset_bytes(onset, Conditioning::DesignXor, &design), 1);
        assert_eq!(onset_bytes(Ps::ZERO, Conditioning::Raw, &design), 0);
    }

    #[test]
    fn campaign_compiles_each_phase_for_each_target() {
        let design = DesignParams::paper_k1();
        let scenario = Scenario::supply_ramp(Ps::from_ms(1.0), 5e6, 0.04, 3, Ps::from_ms(0.5));
        let faults = compile_campaign(&scenario, Conditioning::Raw, &design, &[0, 2], true);
        assert_eq!(faults.len(), 6, "3 phases x 2 targets");
        // Phase onsets map to escalating byte offsets per target.
        let for_shard = |id: usize| {
            faults
                .iter()
                .filter(|f| f.shard == id)
                .map(|f| f.after_bytes)
                .collect::<Vec<_>>()
        };
        assert_eq!(for_shard(0), [12_500, 18_750, 25_000]);
        assert_eq!(for_shard(0), for_shard(2));
        assert!(faults.iter().all(|f| f.transient));
        assert!(faults.iter().all(|f| matches!(f.fault, ShardFault::Env(_))));
        // The compiled environments carry the escalating amplitudes.
        let amplitude = |f: &FaultInjection| match &f.fault {
            ShardFault::Env(env) => env.global.as_ref().expect("tone").tones[0].amplitude_rel,
            _ => unreachable!(),
        };
        let shard0: Vec<_> = faults.iter().filter(|f| f.shard == 0).collect();
        assert!(amplitude(shard0[0]) < amplitude(shard0[2]));
    }

    #[test]
    fn common_mode_targets_every_shard_identically() {
        let design = DesignParams::paper_k1();
        let scenario = Scenario::shared_supply_tone(Ps::from_us(300.0), 5e6, 0.004);
        let faults = compile_common_mode(&scenario, Conditioning::DesignXor, &design, 3, false);
        assert_eq!(faults.len(), 3, "one phase x 3 shards");
        let shards: Vec<usize> = faults.iter().map(|f| f.shard).collect();
        assert_eq!(shards, [0, 1, 2]);
        // The common mode is exactly that: same onset, same fault, on
        // every shard.
        assert!(faults
            .iter()
            .all(|f| f.after_bytes == faults[0].after_bytes));
        let fault_dbg = |f: &FaultInjection| format!("{:?}", f.fault);
        assert!(faults.iter().all(|f| fault_dbg(f) == fault_dbg(&faults[0])));
        let manual = compile_campaign(
            &scenario,
            Conditioning::DesignXor,
            &design,
            &[0, 1, 2],
            false,
        );
        assert_eq!(format!("{faults:?}"), format!("{manual:?}"));
    }
}
