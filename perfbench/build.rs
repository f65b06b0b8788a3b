//! Records the compiler version and the `target-cpu` the benchmark was built
//! with, for the host signature every result carries.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags: Vec<&str> = flags.split('\x1f').collect();
    let target_cpu = flags
        .iter()
        .enumerate()
        .find_map(|(i, f)| {
            f.strip_prefix("target-cpu=")
                .or_else(|| f.strip_prefix("-Ctarget-cpu="))
                .or_else(|| {
                    (*f == "-C")
                        .then(|| flags.get(i + 1).and_then(|n| n.strip_prefix("target-cpu=")))
                        .flatten()
                })
        })
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
