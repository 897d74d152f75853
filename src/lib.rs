#![warn(missing_docs)]
//! Umbrella crate for the Incremental CFG Patching reproduction
//! (Meng & Liu, ASPLOS '21).
//!
//! Re-exports the public API of every workspace crate so examples and
//! downstream users can depend on a single crate:
//!
//! * [`isa`] — the three architecture models (x86-64, ppc64le, aarch64).
//! * [`obj`] — the binary container (sections, symbols, relocations,
//!   unwind tables, Go-style function tables).
//! * [`asm`] — the assembler used to build synthetic binaries.
//! * [`cfg`](mod@cfg) — disassembly, CFG construction and the binary analyses
//!   (jump tables, function pointers, liveness, tail-call heuristics).
//! * [`emu`] — the deterministic emulator and cycle cost model used as
//!   the evaluation substrate.
//! * [`core`] — the paper's contribution: trampoline placement analysis,
//!   the `dir`/`jt`/`func-ptr` rewriting modes, jump-table cloning,
//!   function-pointer rewriting and runtime RA translation.
//! * [`baselines`] — SRBI, instruction patching, IR lowering and
//!   BOLT-like rewriters for comparison.
//! * [`workloads`] — seeded synthetic workloads (SPEC-2017-like suite,
//!   firefox-like, Go/docker-like, driver-library binaries).
//! * [`verify`] — the static translation-validation pass: patch
//!   integrity, trampoline soundness, CFL completeness and runtime-map
//!   well-formedness checks over a rewrite outcome.
//! * [`audit`] — the whole-binary static soundness auditor: lint codes
//!   over indirect-control-flow evidence, SARIF output, and the
//!   verdict lattice that drives predictive mode gating.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub mod chaos;

pub use icfgp_asm as asm;
pub use icfgp_audit as audit;
pub use icfgp_baselines as baselines;
pub use icfgp_cfg as cfg;
pub use icfgp_core as core;
pub use icfgp_emu as emu;
pub use icfgp_isa as isa;
pub use icfgp_obj as obj;
pub use icfgp_verify as verify;
pub use icfgp_workloads as workloads;
