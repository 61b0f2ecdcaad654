//! The tier-1 gate: the committed workspace must pass every lint with zero
//! unwaived findings. This is the same pass `cargo run -p nimbus-lint` and
//! the CI `lint` job perform; running it under `cargo test` means a clock-
//! or panic-invariant regression fails the ordinary test suite, not just a
//! separately invoked binary.

use nimbus_lint::config;

#[test]
fn workspace_has_zero_unwaived_findings() {
    let root = config::find_root();
    let report = nimbus_lint::run(&root).expect("workspace scan succeeds");
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    assert!(
        report.is_clean(),
        "unwaived lint findings:\n{}",
        report.render_table()
    );
}

#[test]
fn every_waiver_in_the_workspace_carries_a_reason() {
    let root = config::find_root();
    let report = nimbus_lint::run(&root).expect("workspace scan succeeds");
    for d in &report.diagnostics {
        if let Some(reason) = &d.waived {
            assert!(
                !reason.trim().is_empty(),
                "waived finding without a reason at {}",
                d.span()
            );
        }
    }
}
