//! Pins the exact bytes of the named plans' reports.
//!
//! Each digest is the SHA-256 of `run_campaign(&plan)?.to_json()`, which is
//! the `nvpim-cli run` stdout without its final newline. Refactors of the
//! engine, the estimator or the report encoder must keep these bytes. A
//! change that alters report bytes on purpose updates the digests here and
//! says why in `CHANGES.md`.

use nvpim_sweep::digest::{sha256, to_hex};
use nvpim_sweep::{run_campaign, EstimatorMode, ProtectionConfig, SweepPlan};

fn report_digest(plan: &SweepPlan) -> String {
    let report = run_campaign(plan).expect("named plans run");
    to_hex(&sha256(report.to_json().as_bytes()))
}

#[test]
fn named_plan_reports_keep_their_bytes() {
    let mut stratified_quick = SweepPlan::quick();
    stratified_quick.estimator = EstimatorMode::Stratified;
    // Error campaigns with stuck-at defects on every registered scheme:
    // the store path (gate outputs, presets and write-backs pinned by the
    // defect map) on all five schemes.
    let mut stuck_registry_quick = SweepPlan::quick();
    stuck_registry_quick.protections = ProtectionConfig::registry_sweep();
    stuck_registry_quick.stuck_at_rate = 1e-3;
    let cases = [
        (
            "quick",
            SweepPlan::quick(),
            "e9cd61752f73964daf5ba2353c9e786896cf2a4ee443d6942a3bcdbe5b256bab",
        ),
        (
            "paper_scale",
            SweepPlan::paper_scale(),
            "95a889d4a95d7cd48ab46a3d2460ddb7d6146f02f9d22dbff56d4da60c936e32",
        ),
        (
            "accuracy_quick",
            SweepPlan::accuracy_quick(),
            "210ea9181a6f37d506ce1817c50195a439cd5903938e1afcf64f5b579174aced",
        ),
        (
            "quick, stratified",
            stratified_quick,
            "7413383d6bd1a456badc10d98a932ccbc5d5e1d229a31fcb3f83ec82566ad132",
        ),
        (
            "quick, every scheme, stuck-at 1e-3",
            stuck_registry_quick,
            "70ca8e9b3d7ba97b0d2f42e8e4c85d5872160295bbc53827be555c347ad830f1",
        ),
    ];
    for (name, plan, want) in cases {
        assert_eq!(
            report_digest(&plan),
            want,
            "report bytes of `{name}` changed"
        );
    }
}
