//! Smoke test: every example program must keep building, and the
//! streaming firehose example must run to completion.
//!
//! `cargo test` builds examples as part of its default target selection,
//! but only when invoked straight from the root package; this test pins
//! the guarantee down explicitly (and from any member directory) so an
//! example rotting out of the API can never slip through a green run.

use std::path::Path;
use std::process::Command;

const EXAMPLES: [&str; 8] = [
    "durable_restart",
    "first_story_detection",
    "param_tuning",
    "quickstart",
    "save_restore",
    "serve",
    "sharded_scaling",
    "streaming_firehose",
];

#[test]
fn all_examples_build() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    for example in EXAMPLES {
        let source = Path::new(manifest_dir)
            .join("examples")
            .join(format!("{example}.rs"));
        assert!(source.is_file(), "example source {source:?} is missing");
    }

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .args(["build", "--examples"])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to invoke cargo");
    assert!(
        output.status.success(),
        "`cargo build --examples` failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The firehose example asserts its own invariants (the sliding window
/// keeps exactly its worth of tweets live, the newest tweet is found, the
/// oldest is retired); a non-zero exit or a missing summary line fails
/// here.
#[test]
fn streaming_firehose_retires_its_window() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .args(["run", "--quiet", "--example", "streaming_firehose"])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to invoke cargo");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "streaming_firehose failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("newest tweet #"),
        "no newest-tweet line:\n{stdout}"
    );
    assert!(
        stdout.contains("oldest tweet #0 retired"),
        "no retirement line:\n{stdout}"
    );
}
