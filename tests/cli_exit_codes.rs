//! The CLI exit-code contract (satellite of the robustness PR):
//!
//! | code | meaning                                             |
//! |------|-----------------------------------------------------|
//! | 0    | fully clean — every function at its requested mode  |
//! | 1    | degraded, but within the error budget               |
//! | 2    | degradation budget exceeded                         |
//! | 3    | internal error (bad file, rewrite failure, ...)     |
//! | 64   | usage error                                         |
//!
//! The fault seeds below were chosen empirically: `switch_demo` on
//! x86-64 with `--fault-seed 1` (standard intensity) degrades one of
//! its two functions, which exceeds the default 25% budget but fits a
//! budget of 1.0.

use incremental_cfg_patching::obj::{Binary, Relocation};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn icfgp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_icfgp"))
}

/// A scratch path no other call in this process shares: tests run in
/// parallel, and each deletes its files when it finishes.
fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("icfgp-exit-{}-{n}-{name}", std::process::id()))
}

fn gen_switch_demo() -> PathBuf {
    let raw = tmp("sd.json");
    let out = icfgp()
        .args(["gen", "--workload", "switch_demo", "--arch", "x86-64", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    raw
}

#[test]
fn clean_rewrite_exits_zero() {
    let raw = gen_switch_demo();
    let rw = tmp("clean.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn degraded_within_budget_exits_one() {
    let raw = gen_switch_demo();
    let rw = tmp("degraded.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("degraded"), "{text}");
    // Degraded output still verifies with zero errors.
    assert!(text.contains("verify     : 0 error(s)"), "{text}");
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn budget_exceeded_exits_two() {
    let raw = gen_switch_demo();
    let rw = tmp("exceeded.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        // Default budget: 25% below a dir floor; one degraded function
        // out of two blows it.
        .args(["--mode", "jt", "--fault-seed", "1", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("BUDGET EXCEEDED"));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn verify_honours_the_same_contract() {
    let raw = gen_switch_demo();
    let clean = icfgp()
        .args(["verify"])
        .arg(&raw)
        .args(["--mode", "jt"])
        .output()
        .expect("verify runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    let degraded = icfgp()
        .args(["verify"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0"])
        .output()
        .expect("verify runs");
    assert_eq!(
        degraded.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&degraded.stderr)
    );
    let _ = std::fs::remove_file(&raw);
}

#[test]
fn internal_error_exits_three() {
    let out = icfgp()
        .args(["verify", "/nonexistent/icfgp-exit-code-test.json"])
        .output()
        .expect("verify runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

/// Malformed containers are internal errors (3) for every command that
/// loads one, however deep they nest: the JSON reader bounds nesting
/// at 128 levels instead of recursing until the stack overflows. A
/// container that parses but lists its symbols out of address order is
/// refused at load too, since every symbol lookup binary-searches them,
/// and so is one whose sections overlap or whose relocation slot no
/// section maps: no loader could place it, and `run` must not panic.
/// So is one whose function symbol runs past its code, or past the end
/// of the address space.
#[test]
fn malformed_containers_exit_three() {
    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    let raw = gen_switch_demo();
    let mut swapped: Binary = serde_json::from_slice(&std::fs::read(&raw).unwrap()).unwrap();
    let _ = std::fs::remove_file(&raw);
    let mut stray_reloc = swapped.clone();
    let mut overlapping = swapped.clone();
    let main_sized = |size: u64| {
        let mut b = swapped.clone();
        b.symbols_mut().iter_mut().find(|s| s.name == "main").expect("main").size = size;
        serde_json::to_string(&b).unwrap()
    };
    let (huge_main, long_main) = (main_sized(0xffff_ffff_ffff), main_sized(0x10_0000));
    // `dispatch` and `main`, its two function symbols.
    swapped.symbols_mut().swap(0, 1);
    // A RELATIVE relocation whose slot no section maps.
    stray_reloc
        .relocations
        .push(Relocation::relative(0xdead_0000, 0x1000));
    // `.rodata` moved onto `.text`.
    let text = overlapping.section(".text").expect("text").addr();
    overlapping
        .section_mut(".rodata")
        .expect("rodata")
        .set_addr(text);
    let cases = [
        // Not an object: refused at its first byte, before any nesting.
        ("deep.json", deep.clone(), Some("expected object")),
        // Under an unknown key, whose value is read and validated.
        ("deep-key.json", format!(r#"{{"pad":{deep}}}"#), Some("nesting depth exceeds 128")),
        ("truncated.json", r#"{"arch":"X64","kind":"#.to_string(), None),
        ("surrogate.json", r#"{"arch":"\ud800\u0041"}"#.to_string(), Some("unpaired surrogate")),
        ("swapped.json", serde_json::to_string(&swapped).unwrap(), Some("symbol order")),
        (
            "stray-reloc.json",
            serde_json::to_string(&stray_reloc).unwrap(),
            Some("relocation slot 0xdead0000"),
        ),
        (
            "overlap.json",
            serde_json::to_string(&overlapping).unwrap(),
            Some("overlap"),
        ),
        // `main` sized past the address space, and past `.text`.
        ("huge-main.json", huge_main, Some("function symbol main")),
        ("long-main.json", long_main, Some("function symbol main")),
    ];
    for (name, text, needle) in cases {
        let path = tmp(name);
        std::fs::write(&path, &text).unwrap();
        for cmd in ["rewrite", "verify", "audit", "run"] {
            let mut c = icfgp();
            c.arg(cmd).arg(&path);
            if cmd == "rewrite" {
                c.args(["-o"]).arg(tmp("never-written.json"));
            }
            let out = c.output().expect("runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(3), "{cmd} {name}: {stderr}");
            if let Some(needle) = needle {
                assert!(stderr.contains(needle), "{cmd} {name}: {stderr}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn usage_error_exits_sixty_four() {
    let out = icfgp().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let noargs = icfgp().output().expect("runs");
    assert_eq!(noargs.status.code(), Some(64));
}

#[test]
fn fleet_with_no_files_is_a_usage_error() {
    let dir = tmp("fleet-empty-store");
    let out = icfgp()
        .args(["fleet", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("fleet runs");
    assert_eq!(out.status.code(), Some(64), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fleet"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_rewrites_batch_and_reports_sharing() {
    let mut variants = Vec::new();
    for v in 0..2u64 {
        let raw = tmp(&format!("fleet{v}.json"));
        let out = icfgp()
            .args(["gen", "--workload", "small", "--arch", "x86-64", "--seed", "11"])
            .args(["--perturb", &v.to_string(), "-o"])
            .arg(&raw)
            .output()
            .expect("gen runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        variants.push(raw);
    }
    let dir = tmp("fleet-store");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = icfgp();
    cmd.arg("fleet");
    for v in &variants {
        cmd.arg(v);
    }
    let out = cmd
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("fleet runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("fleet: 2 binaries"), "{stdout}");
    assert!(stdout.contains("shared:"), "{stdout}");
    for v in &variants {
        let rw = PathBuf::from(format!("{}.rw", v.display()));
        assert!(rw.exists(), "fleet must write {}", rw.display());
        let _ = std::fs::remove_file(&rw);
        let _ = std::fs::remove_file(v);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_smoke_reports_no_failures() {
    let out = icfgp()
        .args([
            "chaos",
            "--seeds",
            "2",
            "--workloads",
            "switch_demo",
            "--arch",
            "x86-64",
            "--mode",
            "jt",
        ])
        .output()
        .expect("chaos runs");
    // 0 or 1 acceptable (clean / degraded-or-budget); 2 means a ladder
    // failure or emulation divergence — a real robustness bug.
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 failed"), "{text}");
}

#[test]
fn chaos_reruns_over_one_scratch_dir_pass() {
    // Each case empties its scratch subdirectories first, so a second
    // campaign over the same --cache-dir starts as cold as the first.
    for (axis, seeds) in [("--kill-resume", "2"), ("--net", "1")] {
        let dir = tmp("chaos-rerun");
        for run in 1..=2 {
            let out = icfgp()
                .args(["chaos", axis, "--workloads", "small", "--arch", "x86-64"])
                .args(["--mode", "jt", "--seeds", seeds, "--cache-dir"])
                .arg(&dir)
                .output()
                .expect("chaos runs");
            assert_eq!(
                out.status.code(),
                Some(0),
                "{axis} run {run}: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_rejects_vacuous_and_conflicting_sweeps() {
    // Zero seeds would sweep no cases and still print a clean verdict.
    let none = icfgp().args(["chaos", "--seeds", "0"]).output().expect("chaos runs");
    assert_eq!(none.status.code(), Some(64), "{}", String::from_utf8_lossy(&none.stderr));
    assert!(none.stdout.is_empty(), "{}", String::from_utf8_lossy(&none.stdout));
    assert!(String::from_utf8_lossy(&none.stderr).contains("--seeds"));

    // A campaign sweeps one fault axis; two is a usage error.
    let both = icfgp()
        .args(["chaos", "--kill-resume", "--net", "--seeds", "1"])
        .output()
        .expect("chaos runs");
    assert_eq!(both.status.code(), Some(64), "{}", String::from_utf8_lossy(&both.stderr));
    assert!(both.stdout.is_empty(), "{}", String::from_utf8_lossy(&both.stdout));
    assert!(String::from_utf8_lossy(&both.stderr).contains("--kill-resume"));
}

#[test]
fn invalid_icfgp_threads_is_a_usage_error() {
    for bad in ["0", "banana", "-3", "1.5"] {
        let out = icfgp()
            .env("ICFGP_THREADS", bad)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "ICFGP_THREADS={bad} must be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("ICFGP_THREADS"),
            "error must name the variable"
        );
    }
    // Valid and empty values still work (empty = no override).
    for ok in ["1", "16", "999", ""] {
        let out = icfgp()
            .env("ICFGP_THREADS", ok)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(0), "ICFGP_THREADS={ok:?} must be accepted");
    }
}

#[test]
fn invalid_millisecond_env_vars_are_usage_errors() {
    // ICFGP_FUNC_TIMEOUT_MS follows the same contract as
    // ICFGP_THREADS: explicit garbage refuses to start with exit 64
    // and an error naming the variable; valid values and empty
    // (= unset) are accepted.
    let var = "ICFGP_FUNC_TIMEOUT_MS";
    for bad in ["banana", "-5", "1.5", "10ms"] {
        let out = icfgp()
            .env(var, bad)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "{var}={bad} must be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(var),
            "error must name {var}"
        );
    }
    for ok in ["0", "50", "2000", "", "  "] {
        let out = icfgp()
            .env(var, ok)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(0), "{var}={ok:?} must be accepted");
    }
}

#[test]
fn garbage_store_urls_are_usage_errors() {
    // A malformed --store-url/ICFGP_STORE_URL refuses to start with
    // exit 64 and a usage hint, rather than degrading against nothing.
    let bad = [
        "http://host:9000",           // wrong scheme
        "icfgp://",                   // missing host and port
        "icfgp://host",               // missing port
        "icfgp://host:",              // empty port
        "icfgp://host:0",             // port out of range
        "icfgp://host:70000",         // port out of range
        "icfgp://host:banana",        // unparsable port
        "icfgp://ho st:9000",         // unparsable host
        "icfgp://:9000",              // empty host
        "host:9000",                  // no scheme at all
    ];
    for url in bad {
        let out = icfgp()
            .args(["rewrite", "x.json", "--store-url", url, "-o", "y.json"])
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "--store-url {url} must be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(err.contains("usage"), "error must include a usage hint: {err}");

        // Same contract through the environment variable.
        let out = icfgp()
            .env("ICFGP_STORE_URL", url)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(64),
            "ICFGP_STORE_URL={url} must be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Well-formed URLs are accepted at startup (connection failures
    // later degrade, they don't refuse).
    for ok in ["icfgp://127.0.0.1:9000", "icfgp://[::1]:81", "icfgp://cache.example.com:65535"] {
        let out = icfgp()
            .env("ICFGP_STORE_URL", ok)
            .arg("list-workloads")
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "ICFGP_STORE_URL={ok} must be accepted: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A cache has one store: a store URL and a cache dir together are a
/// usage error for every command that rewrites through a cache,
/// whether each comes from its flag or its environment variable.
#[test]
fn a_store_url_with_a_cache_dir_is_a_usage_error() {
    let raw = gen_switch_demo();
    let dir = tmp("two-stores");
    let out = tmp("two-stores.json");
    let (url, dir_s) = ("icfgp://127.0.0.1:9", dir.to_str().expect("utf-8 temp path"));
    let cases = [
        ("flag with flag", vec![], vec!["--store-url", url, "--cache-dir", dir_s]),
        ("env url with flag", vec![("ICFGP_STORE_URL", url)], vec!["--cache-dir", dir_s]),
        ("env dir with flag", vec![("ICFGP_CACHE_DIR", dir_s)], vec!["--store-url", url]),
    ];
    for cmd in ["rewrite", "verify", "fleet", "audit"] {
        for (how, env, flags) in &cases {
            let mut c = icfgp();
            c.arg(cmd).arg(&raw).args(["--mode", "jt"]).args(flags).envs(env.iter().copied());
            if cmd == "rewrite" {
                c.arg("-o").arg(&out);
            }
            let o = c.output().expect("runs");
            let stderr = String::from_utf8_lossy(&o.stderr);
            assert_eq!(o.status.code(), Some(64), "{cmd} ({how}): {stderr}");
            assert!(
                stderr.contains("--store-url") && stderr.contains("--cache-dir"),
                "{cmd} ({how}): {stderr}"
            );
        }
    }
    assert!(!out.exists() && !dir.exists(), "a refused run writes nothing");
    let _ = std::fs::remove_file(&raw);
}

#[test]
fn dead_server_rewrite_still_exits_zero() {
    // A --store-url pointing at a dead server must only cost cache
    // misses: same exit code and same output bytes as a storeless run.
    let raw = gen_switch_demo();
    let rw = tmp("dead-srv.json");
    let rw2 = tmp("dead-srv2.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // Port 9 (discard) on localhost: nothing is listening in CI.
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--store-url", "icfgp://127.0.0.1:9", "-o"])
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "a dead server must not change output bytes"
    );
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
}

/// Rewrite `raw` with the firefox-like run's ladder options (4 rounds
/// under `--fault-seed 1`) over the store `dir`.
fn rewrite_over_store(raw: &PathBuf, mode: &str, dir: &PathBuf, out: &PathBuf) -> std::process::Output {
    icfgp()
        .args(["rewrite"])
        .arg(raw)
        .args(["--mode", mode, "--fault-seed", "1", "--budget", "1.0", "--cache-dir"])
        .arg(dir)
        .arg("-o")
        .arg(out)
        .output()
        .expect("rewrite runs")
}

#[test]
fn resume_contract_rerun_over_the_store_is_byte_identical() {
    let raw = tmp("ff.json");
    let out = icfgp()
        .args(["gen", "--workload", "firefox", "-o"])
        .arg(&raw)
        .output()
        .expect("gen runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let rw = tmp("resume-rw.json");
    let rw2 = tmp("resume-rw2.json");
    let dir = tmp("resume-store");
    let _ = std::fs::remove_dir_all(&dir);

    // A rerun over the same store is the resume: it replays every
    // stored demotion round (`--fault-seed` leaves the user's store
    // undamaged) and produces byte-identical output under the same
    // exit contract.
    let first = rewrite_over_store(&raw, "func-ptr", &dir, &rw);
    assert_eq!(first.status.code(), Some(1), "{}", String::from_utf8_lossy(&first.stderr));
    let first_out = String::from_utf8_lossy(&first.stdout);
    assert!(first_out.contains("ladder     : 4 round(s)"), "{first_out}");
    assert!(!first_out.contains("resumed"), "a cold store replays nothing: {first_out}");
    let rerun = rewrite_over_store(&raw, "func-ptr", &dir, &rw2);
    assert_eq!(rerun.status.code(), Some(1), "{}", String::from_utf8_lossy(&rerun.stderr));
    let rerun_out = String::from_utf8_lossy(&rerun.stdout);
    assert!(rerun_out.contains("ladder     : 4 round(s)"), "{rerun_out}");
    assert!(rerun_out.contains("resumed    : 3 stored round(s) replayed, 1 executed"), "{rerun_out}");
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "a rerun must not change output bytes"
    );

    // A rerun under a different configuration looks up other keys and
    // replays nothing.
    let other = rewrite_over_store(&raw, "dir", &dir, &rw2);
    assert!(other.status.code().is_some_and(|c| c < 3), "{}", String::from_utf8_lossy(&other.stderr));
    let other_out = String::from_utf8_lossy(&other.stdout);
    assert!(!other_out.contains("resumed"), "{other_out}");

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unknown value for `--mode`, `--unwind`, `--points` or `--arch`
/// is a usage error naming the accepted values, on every subcommand
/// that takes the flag — never a silent default.
#[test]
fn unknown_option_values_are_usage_errors() {
    let raw = gen_switch_demo();
    let rw = tmp("badval.json");
    let modes = "dir|jt|func-ptr";
    let arches = "x86-64|ppc64le|aarch64";
    let file = raw.to_str().unwrap();
    let out = rw.to_str().unwrap();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["rewrite", file, "--mode", "funcptr", "-o", out], modes),
        (vec!["rewrite", file, "--unwind", "dwarf", "-o", out], "ra|emulate|none"),
        (vec!["rewrite", file, "--points", "all", "-o", out], "blocks|entries|none"),
        (vec!["verify", file, "--mode", "funcptr"], modes),
        (vec!["verify", file, "--points", "all"], "blocks|entries|none"),
        (vec!["audit", file, "--mode", "funcptr"], modes),
        (vec!["fleet", file, "--mode", "funcptr"], modes),
        (vec!["chaos", "--mode", "funcptr", "--seeds", "1"], modes),
        (vec!["chaos", "--arch", "arm64", "--seeds", "1"], arches),
        (vec!["gen", "--workload", "small", "--arch", "arm64", "-o", out], arches),
    ];
    for (args, accepted) in cases {
        let run = icfgp().args(&args).output().expect("icfgp runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(64), "{args:?}: {stderr}");
        assert!(stderr.contains(accepted), "{args:?} must name {accepted}: {stderr}");
    }
    assert!(!rw.exists(), "a usage error writes no output");
    let fleet_out = PathBuf::from(format!("{file}.rw"));
    assert!(!fleet_out.exists(), "a usage error writes no fleet output");
    let _ = std::fs::remove_file(&raw);
}

/// Each command accepts one list of flags: a flag not on it, or a
/// number that does not parse, is a usage error naming the flag,
/// caught before anything is loaded or written. The benchmark's own
/// request keeps exiting 0.
#[test]
fn unknown_flags_and_bad_numbers_are_usage_errors() {
    let raw = gen_switch_demo();
    let rw = tmp("badflag.json");
    let dir = tmp("badflag-store");
    let (file, out, store) = (raw.to_str().unwrap(), rw.to_str().unwrap(), dir.to_str().unwrap());
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["rewrite", file, "--mode", "jt", "--cache-dri", store, "-o", out], "--cache-dri"),
        (vec!["verify", file, "--stats"], "--stats"),
        (vec!["audit", file, "--quiet"], "--quiet"),
        (vec!["fleet", file, "--json"], "--json"),
        (vec!["chaos", "--seeds", "1", "--store-url", "icfgp://127.0.0.1:9"], "--store-url"),
        (vec!["analyze", file, "-v"], "-v"),
        (vec!["run", file, "--fuel-limit", "5"], "--fuel-limit"),
        (vec!["gen", "--workload", "small", "--seed", "banana", "-o", out], "--seed"),
        (vec!["gen", "--workload", "small", "--perturb", "x", "-o", out], "--perturb"),
        (vec!["run", file, "--fuel", "lots"], "--fuel"),
        (vec!["run", file, "--bias", "zz"], "--bias"),
        (vec!["rewrite", file, "--fault-seed", "q", "-o", out], "--fault-seed"),
        (vec!["rewrite", file, "--budget", "most", "-o", out], "--budget"),
        (vec!["rewrite", file, "--func-timeout-ms", "soon", "-o", out], "--func-timeout-ms"),
        (vec!["chaos", "--seeds", "many"], "--seeds"),
        (vec!["cache", "corrupt", "--cache-dir", store, "--kind", "truncate", "--seed", "x"], "--seed"),
    ];
    for (args, flag) in cases {
        let run = icfgp().args(&args).output().expect("icfgp runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(64), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
    }
    assert!(!rw.exists(), "a usage error writes no output");
    assert!(!dir.exists(), "a misspelt store flag opens no store");
    let bench = icfgp()
        .args(["rewrite", file, "--mode", "func-ptr", "-o", out, "--quiet", "--cache-dir", store])
        .output()
        .expect("rewrite runs");
    assert_eq!(bench.status.code(), Some(0), "{}", String::from_utf8_lossy(&bench.stderr));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn func_timeout_budget_degrades_not_hangs() {
    // A watchdog budget small enough to trip on injected stalls still
    // produces a verified rewrite: the stalled function degrades with
    // a typed Budget failure instead of hanging the run.
    let raw = gen_switch_demo();
    let rw = tmp("watchdog-rw.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--func-timeout-ms", "60000", "--budget", "1.0", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    // A generous wall-clock budget never trips on a clean workload.
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn audit_contract_clean_findings_usage() {
    let raw = gen_switch_demo();

    // Clean workload: every function proven, exit 0.
    let clean = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--mode", "jt"])
        .output()
        .expect("audit runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    let text = String::from_utf8_lossy(&clean.stdout);
    assert!(text.contains("proven"), "{text}");

    // The same fault seed that degrades the rewrite produces findings:
    // exit 1 and at least one ICFGP-A lint on stdout.
    let findings = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1"])
        .output()
        .expect("audit runs");
    assert_eq!(findings.status.code(), Some(1), "{}", String::from_utf8_lossy(&findings.stderr));
    assert!(String::from_utf8_lossy(&findings.stdout).contains("ICFGP-A"));

    // Usage errors: missing FILE and unknown --format are both 64.
    let nofile = icfgp().arg("audit").output().expect("runs");
    assert_eq!(nofile.status.code(), Some(64));
    let badfmt = icfgp()
        .args(["audit"])
        .arg(&raw)
        .args(["--format", "yaml"])
        .output()
        .expect("runs");
    assert_eq!(badfmt.status.code(), Some(64));
    assert!(String::from_utf8_lossy(&badfmt.stderr).contains("--format"));

    // A missing file is an internal error (3), not a usage error.
    let gone = icfgp()
        .args(["audit", "/nonexistent/icfgp-audit-test.json"])
        .output()
        .expect("runs");
    assert_eq!(gone.status.code(), Some(3));

    let _ = std::fs::remove_file(&raw);
}

#[test]
fn audit_gate_converges_faster_and_is_reported() {
    let raw = gen_switch_demo();
    let rw = tmp("gated.json");
    // Same seed as `degraded_within_budget_exits_one`: degraded but
    // within a 1.0 budget, so the gated run still exits 1 — and the
    // disposition summary now carries the gate line.
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0", "--audit-gate", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("audit gate"), "{text}");
    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn cache_compact_shrinks_a_cleared_quarantine() {
    let raw = gen_switch_demo();
    let rw = tmp("compact-rw.json");
    let dir = tmp("compact-store");
    let _ = std::fs::remove_dir_all(&dir);

    // Two rewrites append two generations of segments; corrupt in
    // between so compaction has quarantine leftovers to sweep.
    for _ in 0..2 {
        let out = icfgp()
            .args(["rewrite"])
            .arg(&raw)
            .args(["--mode", "jt", "--cache-dir"])
            .arg(&dir)
            .arg("-o")
            .arg(&rw)
            .output()
            .expect("rewrite runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let out = icfgp()
        .args(["cache", "compact", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache compact runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kept"), "{text}");

    // The compacted store still verifies clean and still serves hits.
    let verify = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(verify.status.code(), Some(0), "{}", String::from_utf8_lossy(&verify.stdout));
    let rw2 = tmp("compact-rw2.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .arg("-o")
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "compaction must not change rewrite output"
    );

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_preserves_exit_codes_with_empty_stdout() {
    let raw = gen_switch_demo();
    let rw = tmp("quiet-rw.json");

    // Clean: exit 0, nothing on stdout.
    let clean = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--quiet", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));
    assert!(clean.stdout.is_empty(), "{}", String::from_utf8_lossy(&clean.stdout));

    // Degraded within budget: still exit 1 under the short flag, and
    // --stats output is suppressed too.
    let degraded = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--budget", "1.0", "--stats", "-q", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(degraded.status.code(), Some(1), "{}", String::from_utf8_lossy(&degraded.stderr));
    assert!(degraded.stdout.is_empty(), "{}", String::from_utf8_lossy(&degraded.stdout));

    // Budget exceeded: exit 2, still silent.
    let exceeded = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--fault-seed", "1", "--quiet", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(exceeded.status.code(), Some(2), "{}", String::from_utf8_lossy(&exceeded.stderr));
    assert!(exceeded.stdout.is_empty());

    // Internal errors keep stderr even when quiet.
    let gone = icfgp()
        .args(["rewrite", "/nonexistent/icfgp-quiet.json", "--quiet", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(gone.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&gone.stderr).contains("error"));

    // Quiet fleet: exit 0 with empty stdout.
    let dir = tmp("quiet-fleet-store");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = icfgp()
        .arg("fleet")
        .arg(&raw)
        .args(["--mode", "jt", "--quiet", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("fleet runs");
    assert_eq!(fleet.status.code(), Some(0), "{}", String::from_utf8_lossy(&fleet.stderr));
    assert!(fleet.stdout.is_empty(), "{}", String::from_utf8_lossy(&fleet.stdout));
    let _ = std::fs::remove_file(PathBuf::from(format!("{}.rw", raw.display())));
    let _ = std::fs::remove_dir_all(&dir);

    // Quiet chaos: the exit code still reports the campaign verdict.
    let chaos = icfgp()
        .args([
            "chaos", "--seeds", "1", "--workloads", "switch_demo", "--arch", "x86-64",
            "--mode", "jt", "--quiet",
        ])
        .output()
        .expect("chaos runs");
    assert!(
        matches!(chaos.status.code(), Some(0 | 1)),
        "exit {:?}: {}",
        chaos.status.code(),
        String::from_utf8_lossy(&chaos.stderr)
    );
    assert!(chaos.stdout.is_empty(), "{}", String::from_utf8_lossy(&chaos.stdout));

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
}

#[test]
fn trace_flag_records_and_summarize_validates() {
    let raw = gen_switch_demo();
    let rw = tmp("trace-rw.json");
    let rw2 = tmp("trace-rw2.json");
    let stream = tmp("trace.jsonl");

    // --trace writes schema-valid JSONL and changes neither the exit
    // code nor the output bytes.
    let plain = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "-o"])
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(plain.status.code(), Some(0), "{}", String::from_utf8_lossy(&plain.stderr));
    let traced = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--trace"])
        .arg(&stream)
        .arg("-o")
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(traced.status.code(), Some(0), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "tracing must not change output bytes"
    );
    let text = std::fs::read_to_string(&stream).expect("trace written");
    assert!(!text.is_empty());
    for line in text.lines() {
        serde_json::from_str::<serde::Value>(line).expect("every line is JSON");
    }

    // summarize: exit 0 on a consistent stream, report on stdout.
    let sum = icfgp()
        .args(["trace", "summarize"])
        .arg(&stream)
        .output()
        .expect("summarize runs");
    assert_eq!(sum.status.code(), Some(0), "{}", String::from_utf8_lossy(&sum.stderr));
    let out = String::from_utf8_lossy(&sum.stdout);
    assert!(out.contains("conservation: ok"), "{out}");
    assert!(out.contains("spans:"), "{out}");

    // diff of a stream against itself: all deltas zero, exit 0.
    let diff = icfgp()
        .args(["trace", "diff"])
        .arg(&stream)
        .arg(&stream)
        .output()
        .expect("diff runs");
    assert_eq!(diff.status.code(), Some(0), "{}", String::from_utf8_lossy(&diff.stderr));

    // Unreadable file and unknown subcommand are internal errors (3).
    let gone = icfgp()
        .args(["trace", "summarize", "/nonexistent/icfgp-trace.jsonl"])
        .output()
        .expect("summarize runs");
    assert_eq!(gone.status.code(), Some(3));
    let unknown = icfgp().args(["trace", "frobnicate"]).output().expect("runs");
    assert_eq!(unknown.status.code(), Some(3));

    // A schema-invalid stream is rejected with the offending line.
    let bad = tmp("trace-bad.jsonl");
    std::fs::write(&bad, "{\"not-an-event\":1}\n").unwrap();
    let rejected = icfgp()
        .args(["trace", "summarize"])
        .arg(&bad)
        .output()
        .expect("summarize runs");
    assert_eq!(rejected.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains(":1"), "names the line");

    // ICFGP_TRACE is the environment spelling of --trace.
    let via_env = tmp("trace-env.jsonl");
    let out = icfgp()
        .env("ICFGP_TRACE", &via_env)
        .args(["verify"])
        .arg(&raw)
        .args(["--mode", "jt"])
        .output()
        .expect("verify runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(via_env.exists(), "ICFGP_TRACE must write the stream");

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_file(&stream);
    let _ = std::fs::remove_file(&bad);
    let _ = std::fs::remove_file(&via_env);
}

#[test]
fn cache_verify_contract_clean_then_damaged() {
    let raw = gen_switch_demo();
    let rw = tmp("cache-rw.json");
    let dir = tmp("cache-store");
    let _ = std::fs::remove_dir_all(&dir);

    // Populate the store with a rewrite, then verify: clean, exit 0.
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .arg("-o")
        .arg(&rw)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let clean = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stdout));
    assert!(String::from_utf8_lossy(&clean.stdout).contains("store is clean"));

    // Damage it: verify reports the corruption with exit 1 ...
    let corrupt = icfgp()
        .args(["cache", "corrupt", "--cache-dir"])
        .arg(&dir)
        .args(["--kind", "bit-flip", "--seed", "7"])
        .output()
        .expect("cache corrupt runs");
    assert_eq!(corrupt.status.code(), Some(0), "{}", String::from_utf8_lossy(&corrupt.stderr));
    let damaged = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(damaged.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&damaged.stdout).contains("damaged"));

    // ... but a rewrite through the damaged store still exits 0 and
    // produces the same bytes (quarantine + recompute, not failure).
    let rw2 = tmp("cache-rw2.json");
    let out = icfgp()
        .args(["rewrite"])
        .arg(&raw)
        .args(["--mode", "jt", "--cache-dir"])
        .arg(&dir)
        .arg("-o")
        .arg(&rw2)
        .output()
        .expect("rewrite runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&rw).unwrap(),
        std::fs::read(&rw2).unwrap(),
        "corrupt store must not change output bytes"
    );

    // `cache clear` empties the directory; a fresh verify is clean.
    let clear = icfgp()
        .args(["cache", "clear", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache clear runs");
    assert_eq!(clear.status.code(), Some(0));
    let empty = icfgp()
        .args(["cache", "verify", "--cache-dir"])
        .arg(&dir)
        .output()
        .expect("cache verify runs");
    assert_eq!(empty.status.code(), Some(0), "{}", String::from_utf8_lossy(&empty.stdout));

    let _ = std::fs::remove_file(&raw);
    let _ = std::fs::remove_file(&rw);
    let _ = std::fs::remove_file(&rw2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stdout whose reader is gone ends the command inside the contract:
/// exit 3 with one `error:` line, never a panic. `gen` has written its
/// file by the time its summary line fails.
#[test]
fn closed_stdout_exits_three() {
    let store = tmp("closed-stdout-store");
    let out = tmp("closed-stdout.json");
    let runs: [Vec<std::ffi::OsString>; 3] = [
        vec!["list-workloads".into()],
        vec!["cache".into(), "stats".into(), "--cache-dir".into(), store.clone().into()],
        vec!["gen".into(), "--workload".into(), "small".into(), "-o".into(), out.clone().into()],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let run = icfgp().args(&args).stdout(writer).output().expect("icfgp runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().filter(|l| l.starts_with("error:")).count(), 1, "{stderr}");
    }
    assert!(out.exists(), "gen writes its output before reporting it");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&store);
}
