//! Bakes the build half of the host fingerprint into the binary: the
//! compiler version, the git revision (when built inside a git checkout)
//! and the cargo profile.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        output_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let rev = output_of(Command::new("git").args(["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "none".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".into());
    println!("cargo:rustc-env=SAAVBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SAAVBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=SAAVBENCH_PROFILE={profile} (opt-level {opt})");
    println!("cargo:rerun-if-changed=build.rs");
    // Cargo reruns a build script on every build while a file it watches
    // is missing, which would rebuild the benchmark before each run in a
    // checkout without `.git`.
    if Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
