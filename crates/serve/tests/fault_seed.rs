//! `BEFF_FAULT_SEED` picks a command's default fault seed and nothing
//! else. Alone in its file because the variable is process-global.

use beff_faults::{FaultSpec, ENV_SEED};
use beff_serve::{JobSpec, Server};
use beff_sim::Workers;

#[test]
fn fault_seed_variable_leaves_a_spec_seed_alone() -> Result<(), Box<dyn std::error::Error>> {
    // stragglers are drawn from the plan's seed, which the report names
    let wire = r#"{"machine":"t3e","procs":4,"seed":3,
        "fault":{"seed":11,"severity":0.5,"degrade":true,"stragglers":1}}"#;
    let spec = JobSpec::from_json(&beff_json::parse(wire)?)?;
    let server = Server::new(Workers::new(1));
    std::env::remove_var(ENV_SEED);
    let unset = server.recompute(&spec)?;
    std::env::set_var(ENV_SEED, "0x5EED");
    let (set, none_seed) = (server.recompute(&spec), FaultSpec::none(5).seed);
    std::env::remove_var(ENV_SEED);
    assert!(unset.contains("\"fault_seed\":11"), "{unset}");
    assert!(set? == unset, "the variable must not reach a served spec's plan");
    assert_eq!(none_seed, 5, "FaultSpec::none keeps the seed it is given");
    Ok(())
}
