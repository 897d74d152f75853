//! The store's record codec (the positional binary form of the
//! vendored `serde`'s `to_bin`/`from_bin`) over real payloads:
//!
//! 1. **Canonical round trip** — on libxul-, driverlib- and gcc-like
//!    inputs for every architecture, each record a store persists
//!    (every stage, audit and ladder rounds included) decodes and
//!    re-encodes to identical bytes.
//! 2. **Hostile bytes** — seeded bit flips, truncations, inflated
//!    length prefixes and appended bytes over every stage's payloads
//!    make the decoder return an error or a value, never panic; and a
//!    value it does return re-encodes to exactly the mutated bytes.

use incremental_cfg_patching::cfg::{analyze, AnalysisConfig, InjectedFault};
use incremental_cfg_patching::core::cache::recode_payload;
use incremental_cfg_patching::core::{
    CacheStore, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Stage,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::obj::Binary;
use incremental_cfg_patching::verify::rewrite_with_ladder_cached;
use incremental_cfg_patching::workloads::{driverlib_like, firefox_like, generate, spec_params};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Segment header: magic, format version, key epoch.
const HEADER_LEN: usize = 20;
/// Record frame before the payload: tag, key, length, checksum.
const FRAME_LEN: usize = 21;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("icfgp-codec-{tag}-{}", std::process::id()))
}

fn inputs(arch: Arch) -> Vec<(&'static str, Binary)> {
    let mut gcc = spec_params("602.gcc_s", arch, false);
    gcc.filler_funcs = 12;
    vec![
        ("libxul", firefox_like(arch, 1).binary),
        ("driverlib", driverlib_like(arch, 120, 12).0.binary),
        ("gcc", generate(&gcc).binary),
    ]
}

/// Fill a store at `dir` with an audit-gated ladder run over `binary`,
/// so every per-function stage and the audit persist records, and —
/// when `binary` has a jump table — an ungated run whose
/// under-approximated table forces demotion rounds, so ladder rounds
/// persist too. Returns whether it did the latter.
fn populate(dir: &Path, binary: &Binary) -> bool {
    let _ = std::fs::remove_dir_all(dir);
    let cache = RewriteCache::with_store(Arc::new(CacheStore::open(dir)));
    let mut gated = RewriteConfig::new(RewriteMode::FuncPtr);
    gated.audit_gate = true;
    let jump_addr = analyze(binary, &AnalysisConfig::default())
        .funcs
        .values()
        .find_map(|f| f.jump_tables.first().map(|jt| jt.jump_addr));
    let demoting = jump_addr.map(|jump_addr| {
        let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
        config.analysis.inject = vec![InjectedFault::UnderApproximateTable { jump_addr, drop: 1 }];
        config.degradation.max_below_floor = 1.0;
        config
    });
    for config in std::iter::once(gated).chain(demoting) {
        rewrite_with_ladder_cached(
            binary,
            &config,
            &Instrumentation::empty(Points::EveryBlock),
            &cache,
        )
        .expect("populate run");
    }
    // The ladder flushes after every round; this catches any remainder.
    cache.flush_store();
    jump_addr.is_some()
}

/// Every `(stage, payload)` in the store's segment files, read straight
/// from the frame layout.
fn records(dir: &Path) -> Vec<(Stage, Vec<u8>)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let data = std::fs::read(&path).unwrap();
        let mut at = HEADER_LEN;
        while at < data.len() {
            // Tag 4 belonged to the retired emit stage.
            let stage = match data[at] {
                1 => Stage::Func,
                2 => Stage::Liveness,
                3 => Stage::Fragment,
                5 => Stage::Audit,
                6 => Stage::Ladder,
                // The end frame closes the segment.
                0xFF => break,
                tag => panic!("{}: unknown stage tag {tag}", path.display()),
            };
            let len = u32::from_le_bytes(data[at + 9..at + 13].try_into().unwrap()) as usize;
            out.push((stage, data[at + FRAME_LEN..at + FRAME_LEN + len].to_vec()));
            at += FRAME_LEN + len;
        }
    }
    out
}

#[test]
fn every_stored_payload_re_encodes_identically() {
    for arch in [Arch::X64, Arch::Aarch64, Arch::Ppc64le] {
        for (name, binary) in inputs(arch) {
            let dir = tmp_dir(&format!("roundtrip-{name}-{arch:?}"));
            let demoted = populate(&dir, &binary);
            let recs = records(&dir);
            // The driverlib-like input has no jump table, so nothing
            // on it demotes and it stores no ladder round.
            for stage in Stage::ALL.into_iter().filter(|&s| demoted || s != Stage::Ladder) {
                assert!(
                    recs.iter().any(|(s, _)| *s == stage),
                    "{name}/{arch:?}: no {} record persisted",
                    stage.name()
                );
            }
            for (stage, payload) in &recs {
                let again = recode_payload(*stage, payload)
                    .unwrap_or_else(|e| panic!("{name}/{arch:?} {}: {e}", stage.name()));
                assert!(
                    again == *payload,
                    "{name}/{arch:?} {}: re-encoding differs",
                    stage.name()
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// xorshift64: a seeded, dependency-free mutation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One seeded mutation of `payload`.
fn mutate(payload: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    match rng.below(4) {
        0 => {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        2 => {
            // Inflate the LEB128 value at a random offset: continuation
            // bits on its bytes, then a huge final group.
            let at = rng.below(bytes.len());
            let end = (at + 1 + rng.below(4)).min(bytes.len());
            for b in &mut bytes[at..end] {
                *b |= 0x80;
            }
            bytes.insert(end, 0x7f);
        }
        _ => {
            for _ in 0..=rng.below(3) {
                bytes.push(rng.next() as u8);
            }
        }
    }
    bytes
}

#[test]
fn hostile_payloads_are_errors_or_values_never_panics() {
    let mut rng = Rng(0x5EED_C0DE_C0DE_5EED);
    for arch in [Arch::X64, Arch::Aarch64, Arch::Ppc64le] {
        let dir = tmp_dir(&format!("hostile-{arch:?}"));
        let (_, binary) = inputs(arch).swap_remove(0);
        assert!(populate(&dir, &binary), "the libxul-like input has jump tables");
        let recs = records(&dir);
        let mut rejected = [0usize; Stage::ALL.len()];
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let mine: Vec<&Vec<u8>> = recs
                .iter()
                .filter(|(s, _)| *s == stage)
                .map(|(_, p)| p)
                .collect();
            assert!(!mine.is_empty(), "{arch:?}: no {} record", stage.name());
            for _ in 0..400 {
                let bad = mutate(mine[rng.below(mine.len())], &mut rng);
                let caught = std::panic::catch_unwind(|| recode_payload(stage, &bad));
                match caught
                    .unwrap_or_else(|_| panic!("{arch:?} {}: decoder panicked", stage.name()))
                {
                    Ok(again) => assert!(
                        again == bad,
                        "{arch:?} {}: accepted bytes must re-encode identically",
                        stage.name()
                    ),
                    Err(_) => rejected[i] += 1,
                }
            }
        }
        // Truncations and appended bytes can never decode, so every
        // stage rejects a good share of its mutations.
        assert!(
            rejected.iter().all(|&n| n >= 100),
            "{arch:?}: rejections {rejected:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
