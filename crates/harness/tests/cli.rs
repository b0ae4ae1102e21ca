//! Command-line contract of the `uu-harness` binary.

use std::process::Command;

/// `--bench` restricts a report command to one application. Without
/// `--out` that partial report would overwrite the full one in
/// `results/`, so the command must refuse (exit 2) before writing.
#[test]
fn bench_filter_without_out_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("uu-cli-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for cmd in ["table1", "fig7", "all", "study"] {
        let out = Command::new(env!("CARGO_BIN_EXE_uu-harness"))
            .args([cmd, "--fast", "--bench", "mandelbrot"])
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--out"), "{cmd}: message must name --out: {stderr}");
        assert!(!dir.join("results").exists(), "{cmd} created results/");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
