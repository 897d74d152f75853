//! The binary container's JSON codec:
//!
//! - golden length + FNV-1a/64 digests pin the serialised benchmark
//!   inputs and outputs byte for byte (the benchmark compares CLI output
//!   with its own serialisation, and stored binaries must stay readable);
//! - the same digests pin ppc64le and aarch64 ladder outputs placed
//!   beyond the short branch's reach, so the RISC long forms (far
//!   branches and calls, far emulated calls, counter payloads, table
//!   bases and function-pointer immediates) are checked byte for byte;
//! - over every `icfgp gen` workload and arch, a binary reads back equal
//!   from its compact and pretty text, and printing the same text as a
//!   free-form `Value` gives the same bytes;
//! - a seeded mutation campaign over a serialised binary: no input
//!   panics the reader, reordered and duplicated keys decode to the
//!   original, and whatever is accepted re-serialises to a fixpoint.

use incremental_cfg_patching::core::{
    Instrumentation, Points, RewriteConfig, RewriteMode, UnwindStrategy,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::obj::Binary;
use incremental_cfg_patching::verify::{rewrite_with_ladder, LadderOutcome};
use incremental_cfg_patching::workloads::{
    docker_like, driverlib_like, firefox_like, generate, spec_params, switch_demo, GenParams,
    SPEC_NAMES,
};
use proptest::prelude::*;
use serde::Value;
use std::sync::OnceLock;

/// FNV-1a/64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn libxul() -> &'static Binary {
    static BIN: OnceLock<Binary> = OnceLock::new();
    BIN.get_or_init(|| firefox_like(Arch::X64, 8).binary)
}

/// The benchmark's request: `--mode func-ptr`, every block instrumented.
fn libxul_ladder() -> &'static LadderOutcome {
    static OUT: OnceLock<LadderOutcome> = OnceLock::new();
    OUT.get_or_init(|| {
        rewrite_with_ladder(
            libxul(),
            &RewriteConfig::new(RewriteMode::FuncPtr),
            &Instrumentation::empty(Points::EveryBlock),
        )
        .expect("libxul rewrites")
    })
}

fn assert_golden(what: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a(bytes)),
        (len, digest),
        "{what}: serialised bytes changed (got len {} digest {:#018x})",
        bytes.len(),
        fnv1a(bytes)
    );
}

#[test]
fn golden_libxul_input() {
    let bytes = serde_json::to_vec(libxul()).unwrap();
    assert_golden("firefox_like(X64, 8)", &bytes, 1_589_119, 0xec11_6ff1_7e05_3e4c);
}

#[test]
fn golden_driverlib_input() {
    let bin = driverlib_like(Arch::X64, 12_644, 702).0.binary;
    let bytes = serde_json::to_vec(&bin).unwrap();
    assert_golden("driverlib_like(X64, 12644, 702)", &bytes, 3_623_840, 0x0c98_7902_c0b9_5dc6);
}

#[test]
fn golden_fleet_base_input() {
    let mut p = spec_params("602.gcc_s", Arch::X64, false);
    p.filler_funcs = 400;
    p.perturb = 0;
    let bytes = serde_json::to_vec(&generate(&p).binary).unwrap();
    assert_golden("gcc, 400 fillers, perturb 0", &bytes, 307_378, 0xaeac_b947_5d84_f78a);
}

#[test]
fn golden_libxul_rewritten_output() {
    let bytes = serde_json::to_vec(&libxul_ladder().outcome.binary).unwrap();
    assert_golden("ladder output for libxul", &bytes, 3_064_400, 0xeb34_7c7a_2b43_5b0b);
}

/// The benchmark's largest input through the same request: 12,644
/// small functions, where per-function fixed costs dominate.
#[test]
fn golden_driverlib_rewritten_output() {
    let bin = driverlib_like(Arch::X64, 12_644, 702).0.binary;
    let ladder = rewrite_with_ladder(
        &bin,
        &RewriteConfig::new(RewriteMode::FuncPtr),
        &Instrumentation::empty(Points::EveryBlock),
    )
    .expect("driverlib rewrites");
    let bytes = serde_json::to_vec(&ladder.outcome.binary).unwrap();
    assert_golden("ladder output for driverlib", &bytes, 5_612_502, 0x4906_e9dd_0f52_f7d7);
}

#[test]
fn golden_verify_report_pretty() {
    let text = serde_json::to_string_pretty(&libxul_ladder().verify).unwrap();
    assert_golden("libxul VerifyReport, pretty", text.as_bytes(), 7_731, 0x77c2_0617_4065_56ed);
}

/// A RISC ladder output with `.instr` placed `short_branch_reach() +
/// 32 MiB` past the image, so every branch back into original code
/// needs the long form: func-ptr mode, a counter in every block.
fn far_risc_output(bin: &Binary, unwind: UnwindStrategy) -> Vec<u8> {
    let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
    config.unwind = unwind;
    config.instr_gap = (bin.arch.short_branch_reach() + (32 << 20)) as u64;
    let ladder =
        rewrite_with_ladder(bin, &config, &Instrumentation::counters(Points::EveryBlock))
            .expect("far RISC rewrite");
    serde_json::to_vec(&ladder.outcome.binary).unwrap()
}

/// Call emulation emits far emulated calls, counter payloads, table
/// bases and fp immediates; RA translation keeps calls as calls, so a
/// call into an unrelocated function takes the far branch-and-link.
#[test]
fn golden_risc_far_outputs() {
    use UnwindStrategy::{CallEmulation, RaTranslation};
    let cases: [(Arch, UnwindStrategy, usize, u64); 4] = [
        (Arch::Ppc64le, CallEmulation, 636_670, 0xe652_31ef_1a17_d7f8),
        (Arch::Ppc64le, RaTranslation, 637_691, 0x9c36_a613_45e5_f066),
        (Arch::Aarch64, CallEmulation, 619_825, 0x2aa3_ccc3_ee89_52c6),
        (Arch::Aarch64, RaTranslation, 620_507, 0x00c4_2492_18eb_b3de),
    ];
    for (arch, unwind, len, digest) in cases {
        let bytes = far_risc_output(&firefox_like(arch, 1).binary, unwind);
        assert_golden(&format!("firefox_like({arch}, 1), {unwind:?}"), &bytes, len, digest);
    }
}

/// A small PIE and non-PIE input per RISC arch through the same far
/// request.
#[test]
fn golden_risc_far_small_outputs() {
    let cases: [(Arch, bool, usize, u64); 4] = [
        (Arch::Ppc64le, true, 20_151, 0xb6ba_0337_6e7c_1167),
        (Arch::Ppc64le, false, 17_172, 0x79f3_5e2c_0ad4_a48d),
        (Arch::Aarch64, true, 17_550, 0x98a7_78cd_9a70_afcc),
        (Arch::Aarch64, false, 16_875, 0x5289_2e1a_3709_e440),
    ];
    for (arch, pie, len, digest) in cases {
        let mut p = GenParams::small("far", arch, 7);
        p.pie = pie;
        let bytes = far_risc_output(&generate(&p).binary, UnwindStrategy::CallEmulation);
        assert_golden(&format!("small({arch}, 7), pie {pie}"), &bytes, len, digest);
    }
}

// ------------------------------------------------------------ round trips

/// The `icfgp gen` workloads, as the CLI builds them.
fn gen_workload(which: usize, arch: Arch, seed: u64, pie: bool) -> Binary {
    match which {
        0 => {
            let mut p = GenParams::small("prop", arch, seed);
            p.pie = pie;
            generate(&p).binary
        }
        1 => firefox_like(arch, 1).binary,
        2 => docker_like(arch, seed, 100).binary,
        3 => driverlib_like(arch, 400, 30).0.binary,
        4 => switch_demo(arch, pie).binary,
        _ => {
            let mut p = spec_params(SPEC_NAMES[seed as usize % SPEC_NAMES.len()], arch, pie);
            p.perturb = seed % 3;
            generate(&p).binary
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn binaries_round_trip_and_print_like_values(
        which in 0usize..6,
        arch in prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)],
        seed in 0u64..1_000,
        pie in any::<bool>(),
    ) {
        let bin = gen_workload(which, arch, seed, pie);
        let compact = serde_json::to_vec(&bin).unwrap();
        prop_assert_eq!(&serde_json::from_slice::<Binary>(&compact).unwrap(), &bin);
        let doc: Value = serde_json::from_slice(&compact).unwrap();
        prop_assert_eq!(&serde_json::to_vec(&doc).unwrap(), &compact);

        let pretty = serde_json::to_string_pretty(&bin).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Binary>(&pretty).unwrap(), &bin);
        let doc: Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&serde_json::to_string_pretty(&doc).unwrap(), &pretty);
        // Both layouts hold the same document.
        prop_assert_eq!(&serde_json::to_vec(&doc).unwrap(), &compact);
    }
}

// ------------------------------------------------------ mutation campaign

/// A deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The members of the `n`-th object of `v` in pre-order, if it has
/// that many objects; `n` counts down past the ones visited.
fn nth_object<'v>(v: &'v mut Value, n: &mut usize) -> Option<&'v mut Vec<(String, Value)>> {
    match v {
        Value::Obj(fields) => {
            if *n == 0 {
                return Some(fields);
            }
            *n -= 1;
            fields.iter_mut().find_map(|(_, child)| nth_object(child, n))
        }
        Value::Arr(items) => items.iter_mut().find_map(|child| nth_object(child, n)),
        _ => None,
    }
}

/// Rewrite one random non-empty object of `doc` with `edit`.
fn edit_object(
    doc: &Value,
    rng: &mut Rng,
    edit: impl FnOnce(&mut Vec<(String, Value)>, &mut Rng),
) -> Vec<u8> {
    let mut doc = doc.clone();
    loop {
        let mut n = rng.below(64);
        if let Some(fields) = nth_object(&mut doc, &mut n) {
            if !fields.is_empty() {
                edit(fields, rng);
                return serde_json::to_vec(&doc).unwrap();
            }
        }
    }
}

/// Tokens spliced into the text at random offsets.
const SPLICES: &[&str] = &[
    "null",
    "true",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"x\"",
    "-0",
    "1e999",
    "\"\\ud800\"",
    "18446744073709551616",
    "-9223372036854775809",
    "256",
    "\"\\u0041\"",
    " ",
    "\\",
];

/// Whatever `bytes` decodes to must re-serialise to a fixpoint; returns
/// the decoded binary, if any.
fn check_fixpoint(bytes: &[u8]) -> Option<Binary> {
    if let Ok(doc) = serde_json::from_slice::<Value>(bytes) {
        // The text is the fixpoint: `-0` reads as `Int(0)` but prints
        // as `0`, which reads as `UInt(0)`.
        let text = serde_json::to_vec(&doc).unwrap();
        match serde_json::from_slice::<Value>(&text) {
            Ok(again) => assert_eq!(serde_json::to_vec(&again).unwrap(), text),
            // `1e999` reads as infinity, which `{:?}` prints as `inf`.
            Err(e) => assert!(text.windows(3).any(|w| w == b"inf"), "{e}"),
        }
    }
    let bin = serde_json::from_slice::<Binary>(bytes).ok()?;
    let text = serde_json::to_vec(&bin).unwrap();
    let again: Binary = serde_json::from_slice(&text).expect("re-serialised binary reads back");
    assert_eq!(again, bin);
    assert_eq!(serde_json::to_vec(&again).unwrap(), text);
    Some(bin)
}

#[test]
fn mutated_containers_never_panic_and_decode_to_a_fixpoint() {
    let bin = generate(&GenParams::small("mutate", Arch::X64, 5)).binary;
    let good = serde_json::to_vec(&bin).unwrap();
    let doc: Value = serde_json::from_slice(&good).unwrap();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut accepted = 0;
    for round in 0..1_200 {
        let mut bytes = good.clone();
        let at = rng.below(bytes.len());
        match round % 8 {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << rng.below(8),
            2 => {
                let token = SPLICES[rng.below(SPLICES.len())];
                bytes.splice(at..at, token.bytes());
            }
            3 => {
                // Inflate the number that starts here, if any.
                if bytes[at].is_ascii_digit() {
                    let digits = ["0", "9", "99999999999999999999", ".5", "e3", "-"][rng.below(6)];
                    bytes.splice(at..at, digits.bytes());
                }
            }
            4 => {
                // Nest an unknown member deep enough to trip the limit
                // (or not: 120 levels are fine).
                let depth = [120, 129, 5_000][rng.below(3)];
                let pad = format!(r#""pad":{}{}"#, "[".repeat(depth), "]".repeat(depth));
                let mut doc_text = format!("{{{pad},").into_bytes();
                doc_text.extend_from_slice(&good[1..]);
                bytes = doc_text;
                let ok = check_fixpoint(&bytes);
                assert_eq!(ok.as_ref(), (depth < 128).then_some(&bin), "depth {depth}");
                continue;
            }
            5 => {
                // Reorder one object's members: the same binary.
                bytes = edit_object(&doc, &mut rng, |fields, rng| {
                    let by = rng.below(fields.len());
                    fields.rotate_left(by);
                });
                assert_eq!(check_fixpoint(&bytes).as_ref(), Some(&bin), "reordered keys");
                continue;
            }
            6 => {
                // Repeat a member after the original: the first wins.
                bytes = edit_object(&doc, &mut rng, |fields, rng| {
                    let (key, _) = fields[rng.below(fields.len())].clone();
                    let (_, other) = fields[rng.below(fields.len())].clone();
                    fields.push((key, other));
                });
                assert_eq!(check_fixpoint(&bytes).as_ref(), Some(&bin), "duplicated keys");
                continue;
            }
            _ => {
                // Drop a member: only an `Option` field may go missing.
                bytes = edit_object(&doc, &mut rng, |fields, rng| {
                    fields.remove(rng.below(fields.len()));
                });
            }
        }
        accepted += usize::from(check_fixpoint(&bytes).is_some());
    }
    // Some byte-level mutations land in whitespace-free but harmless
    // places (a digit flipped inside section data); most are refused.
    assert!(accepted > 0 && accepted < 900, "accepted {accepted} of 1200");
}
