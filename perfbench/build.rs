//! Records the toolchain and build profile for the host facts that
//! stamp every benchmark output.

// Cargo hands build scripts their settings through the environment.
#![allow(clippy::disallowed_methods)]

fn main() {
    // lint: allow(nondeterminism) — cargo passes the toolchain to build scripts by environment
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    for (var, key) in [
        ("PROFILE", "PERFBENCH_PROFILE"),
        ("OPT_LEVEL", "PERFBENCH_OPT_LEVEL"),
    ] {
        // lint: allow(nondeterminism) — cargo passes the profile to build scripts by environment
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
