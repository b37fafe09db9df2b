//! Command-line surface of the `repro` binary: names it does not know
//! are refused up front, before any sweep runs.

use std::process::Command;

#[test]
fn retired_subcommands_are_rejected_as_unknown_experiments() {
    let dir = std::env::temp_dir().join(format!("colt-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["serve", "serve-bench", "chaos-serve", "no-such-experiment"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .arg(name)
            .env_remove("COLT_JOBS")
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "'repro {name}' must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment(s): {name}")),
            "'repro {name}' must name the unknown experiment: {stderr}"
        );
        assert!(
            stderr.contains("valid experiments: table1 ") && stderr.contains(" all"),
            "'repro {name}' must print the valid-experiment list: {stderr}"
        );
        assert!(out.stdout.is_empty(), "'repro {name}' must not run anything");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
