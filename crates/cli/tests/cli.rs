//! End-to-end tests of the `fpm-mine` binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpm-mine"))
}

fn write_dat(content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fpm_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.dat", content.len()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

#[test]
fn mines_a_dat_file() {
    let path = write_dat("1 2 3\n1 2\n1 2 3\n2 3\n");
    let out = bin()
        .args(["--input", path.to_str().unwrap(), "--minsup", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 2 (3)"), "{stdout}");
    assert!(stdout.contains("2 3 (3)"), "{stdout}");
    assert_eq!(stdout.lines().count(), 7);
}

#[test]
fn kernels_agree_via_cli() {
    let path = write_dat("1 2 3\n1 2\n1 2 3\n2 3\n1 3\n");
    let mut outputs = Vec::new();
    for kernel in ["lcm", "eclat", "fpgrowth", "apriori", "hmine"] {
        let mut cmd = bin();
        cmd.args(["--input", path.to_str().unwrap(), "--minsup", "2", "--kernel", kernel]);
        if !matches!(kernel, "apriori" | "hmine") {
            cmd.args(["--variant", "all"]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{kernel}");
        outputs.push(String::from_utf8(out.stdout).unwrap());
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn dataset_generation_and_count_only() {
    let out = bin()
        .args([
            "--dataset", "ds1", "--scale", "smoke", "--kernel", "eclat", "--variant", "simd",
            "--count-only",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("frequent itemsets"), "{stderr}");
}

#[test]
fn advise_mode_picks_a_variant() {
    let out = bin()
        .args([
            "--dataset", "ds4", "--scale", "smoke", "--kernel", "lcm", "--advise", "--count-only",
            "--profile",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("advisor picked"), "{stderr}");
    assert!(stderr.contains("profile:"), "{stderr}");
}

#[test]
fn threads_flag_matches_serial_output() {
    let path = write_dat("1 2 3\n1 2\n1 2 3\n2 3\n1 3\n");
    for kernel in ["lcm", "eclat", "fpgrowth"] {
        let serial = bin()
            .args(["--input", path.to_str().unwrap(), "--minsup", "2", "--kernel", kernel])
            .output()
            .unwrap();
        assert!(serial.status.success(), "{kernel}");
        for threads in ["0", "1", "3"] {
            let parallel = bin()
                .args([
                    "--input", path.to_str().unwrap(), "--minsup", "2", "--kernel", kernel,
                    "--threads", threads,
                ])
                .output()
                .unwrap();
            assert!(parallel.status.success(), "{kernel} --threads {threads}");
            assert_eq!(
                String::from_utf8_lossy(&parallel.stdout),
                String::from_utf8_lossy(&serial.stdout),
                "{kernel} --threads {threads}"
            );
        }
    }
}

#[test]
fn threads_flag_rejected_for_level_wise_kernels() {
    let path = write_dat("1 2\n1 2\n");
    let out = bin()
        .args([
            "--input", path.to_str().unwrap(), "--minsup", "1", "--kernel", "apriori",
            "--threads", "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not supported"));
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = bin().args(["--kernel", "lcm"]).output().unwrap(); // no input
    assert!(!out.status.success());
    let path = write_dat("1 2\n");
    let out = bin()
        .args(["--input", path.to_str().unwrap(), "--minsup", "1", "--variant", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no variant"));
    // An unparsable --minsup is a usage error, not the default support.
    let dir = std::env::temp_dir().join("fpm_cli_tests/bad-minsup-store");
    let dir = dir.to_str().unwrap();
    for args in [
        &["--dataset", "ds3", "--scale", "smoke", "--minsup", "abc", "--count-only"][..],
        &["rules", "--dataset", "ds3", "--scale", "smoke", "--minsup", "abc"],
        &["store", "build", "--dir", dir, "--dataset", "ds3", "--minsup", "abc"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn closed_and_maximal_kinds() {
    let path = write_dat("1 2 3\n1 2\n1 2 3\n2 3\n");
    let closed = bin()
        .args(["--input", path.to_str().unwrap(), "--minsup", "2", "--kind", "closed"])
        .output()
        .unwrap();
    assert!(closed.status.success());
    let closed_out = String::from_utf8(closed.stdout).unwrap();
    // {1} (sup 3) is absorbed by {1,2} (sup 3): not closed
    assert!(!closed_out.lines().any(|l| l == "1 (3)"), "{closed_out}");
    assert!(closed_out.contains("1 2 (3)"));
    let maximal = bin()
        .args(["--input", path.to_str().unwrap(), "--minsup", "2", "--kind", "maximal"])
        .output()
        .unwrap();
    let max_out = String::from_utf8(maximal.stdout).unwrap();
    assert_eq!(max_out.trim(), "1 2 3 (2)");
}

#[test]
fn out_file_roundtrip() {
    let path = write_dat("1 2\n1 2\n3\n");
    let out_path = std::env::temp_dir().join("fpm_cli_tests/out.txt");
    let out = bin()
        .args([
            "--input", path.to_str().unwrap(), "--minsup", "2",
            "--out", out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let written = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(written, "1 (2)\n1 2 (2)\n2 (2)\n");
}

#[test]
fn store_append_takes_any_item_id() {
    let dir = std::env::temp_dir().join(format!("fpm_cli_store_append_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let build = bin()
        .args(["store", "build", "--dir", dir_arg, "--dataset", "ds3", "--scale", "smoke"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&build.stderr);
    assert!(build.status.success(), "{stderr}");
    assert!(stderr.contains("lcm: 119 patterns"), "{stderr}");
    let append = bin()
        .args([
            "store", "append", "--dir", dir_arg, "--name", "named-ds3-smoke", "--tx", "4294967295",
        ])
        .output()
        .unwrap();
    assert!(append.status.success(), "{}", String::from_utf8_lossy(&append.stderr));
    let verify = bin().args(["store", "verify", "--dir", dir_arg]).output().unwrap();
    assert!(verify.status.success(), "{}", String::from_utf8_lossy(&verify.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}
