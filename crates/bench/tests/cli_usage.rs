//! `--help` and unknown flags end a bin at once: `scorpio_serve` must
//! not bind its address and block, `scorpio_audit` must not run the
//! battery, `scorpio_load` must not run its smoke test, and the
//! artifact writers (`fig7_sweep`, `bench_jpeg`, `bench_obs`) must not
//! start a sweep.

use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Every bin that checks its flags: (path, name).
const BINS: [(&str, &str); 6] = [
    (env!("CARGO_BIN_EXE_scorpio_serve"), "scorpio_serve"),
    (env!("CARGO_BIN_EXE_scorpio_audit"), "scorpio_audit"),
    (env!("CARGO_BIN_EXE_scorpio_load"), "scorpio_load"),
    (env!("CARGO_BIN_EXE_fig7_sweep"), "fig7_sweep"),
    (env!("CARGO_BIN_EXE_bench_jpeg"), "bench_jpeg"),
    (env!("CARGO_BIN_EXE_bench_obs"), "bench_obs"),
];

/// Runs `bin` with `args` and returns its exit status and stdout,
/// killing it (and failing) if it has not exited within 10 s.
fn run(bin: &str, args: &[&str]) -> (ExitStatus, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bin");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll bin").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{bin} {args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect bin output");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn help_prints_the_synopsis_and_exits_zero() {
    for (bin, name) in BINS {
        for flag in ["--help", "-h"] {
            let (status, stdout) = run(bin, &[flag]);
            assert_eq!(status.code(), Some(0), "{name} {flag}");
            assert!(
                stdout.contains(&format!("usage: {name}")),
                "{name} {flag}: {stdout}"
            );
        }
    }
}

#[test]
fn unknown_flags_exit_two() {
    for (bin, _) in BINS {
        for args in [&["--frobnicate"][..], &["--out-dir", "out", "--bogus=1"]] {
            let (status, _) = run(bin, args);
            assert_eq!(status.code(), Some(2), "{bin} {args:?}");
        }
    }
}
