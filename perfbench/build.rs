//! Records the compiler version and, when built inside a git checkout,
//! the commit, so every result line carries its provenance.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let rev = first_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
}
