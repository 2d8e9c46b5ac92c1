//! Stamps the host fingerprint's build-time fields: the toolchain that
//! compiled the benchmark and, when built from a git checkout, the commit.

use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned()).filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    // Only the repository's own history counts: a checkout without `.git`
    // must not pick up the commit of some enclosing directory.
    let commit = std::path::Path::new("../.git")
        .exists()
        .then(|| run("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=BENCH_COMMIT={commit}");
    for path in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
    println!("cargo:rerun-if-changed=build.rs");
}
