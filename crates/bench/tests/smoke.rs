//! The `scorpio_load` smoke probe end to end: the binary hosts its own
//! server, drives every kernel and the error and live-observability
//! checks, and must exit 0 with every check reported.

use std::process::Command;

use scorpio_serve::kernels::KERNEL_NAMES;

#[test]
fn scorpio_load_smoke_passes_every_check() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scorpio_load_smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_scorpio_load"))
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run scorpio_load");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "scorpio_load failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let checks = KERNEL_NAMES
        .iter()
        .copied()
        .chain(["errors", "metrics", "windows", "trace"]);
    for check in checks {
        let prefix = format!("smoke {check}: ok");
        assert!(
            stdout.lines().any(|l| l.starts_with(&prefix)),
            "no `{prefix}` line in:\n{stdout}"
        );
    }
    assert!(stdout.contains("smoke: all checks passed"), "{stdout}");
}
