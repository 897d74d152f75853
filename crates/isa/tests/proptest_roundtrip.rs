//! Property tests: every encodable instruction round-trips through the
//! decoder, and decoding never panics on arbitrary bytes.

use icfgp_isa::{decode, encode, Addr, AluOp, Arch, Cond, Inst, Reg, SysOp, Width};
use proptest::prelude::*;

fn arb_reg(max: u8) -> impl Strategy<Value = Reg> {
    (0..max).prop_map(Reg)
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::W1), Just(Width::W2), Just(Width::W4), Just(Width::W8)]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (0u8..10).prop_map(|c| Cond::from_code(c).unwrap())
}

fn arb_aluop() -> impl Strategy<Value = AluOp> {
    (0u8..8).prop_map(|c| AluOp::from_code(c).unwrap())
}

fn arb_sysop() -> impl Strategy<Value = SysOp> {
    (0u8..4).prop_map(|c| SysOp::from_code(c).unwrap())
}

fn arb_arch() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::X64), Just(Arch::Ppc64le), Just(Arch::Aarch64)]
}

/// Instructions that exist on every architecture, with operand values
/// kept within the tightest (RISC) encoding limits.
fn arb_common_inst(gprs: u8) -> impl Strategy<Value = Inst> {
    let r = move || arb_reg(gprs);
    prop_oneof![
        Just(Inst::Halt),
        Just(Inst::Nop),
        Just(Inst::Trap),
        Just(Inst::Ret),
        (r(), -32768i64..32768).prop_map(|(dst, imm)| Inst::MovImm { dst, imm }),
        (r(), r()).prop_map(|(dst, src)| Inst::MovReg { dst, src }),
        (arb_aluop(), r(), r(), r()).prop_map(|(op, dst, a, b)| Inst::Alu { op, dst, a, b }),
        (arb_aluop(), r(), r(), -2048i32..2048)
            .prop_map(|(op, dst, src, imm)| Inst::AluImm { op, dst, src, imm }),
        (r(), r()).prop_map(|(a, b)| Inst::Cmp { a, b }),
        (r(), -32768i32..32768).prop_map(|(a, imm)| Inst::CmpImm { a, imm }),
        (r(), r(), -1024i64..1024, arb_width(), any::<bool>()).prop_map(
            |(dst, base, disp, width, sign)| Inst::Load {
                dst,
                addr: Addr::base_disp(base, disp),
                width,
                sign,
            }
        ),
        (r(), r(), r(), 0u8..4, arb_width(), any::<bool>()).prop_map(
            |(dst, base, index, slog, width, sign)| Inst::Load {
                dst,
                addr: Addr::base_index(base, index, 1 << slog),
                width,
                sign,
            }
        ),
        (r(), r(), -1024i64..1024, arb_width()).prop_map(|(src, base, disp, width)| {
            Inst::Store { src, addr: Addr::base_disp(base, disp), width }
        }),
        (-(1i64 << 22)..(1i64 << 22)).prop_map(|w| Inst::Jump { offset: w * 4 }),
        (-(1i64 << 22)..(1i64 << 22)).prop_map(|w| Inst::Call { offset: w * 4 }),
        (arb_cond(), -(1i64 << 17)..(1i64 << 17))
            .prop_map(|(cond, w)| Inst::JumpCond { cond, offset: w * 4 }),
        (arb_sysop(), r()).prop_map(|(op, arg)| Inst::Sys { op, arg }),
    ]
}

/// Instructions shared by both RISC models but absent on x64.
fn arb_risc_common_inst() -> impl Strategy<Value = Inst> {
    let r = || arb_reg(32);
    prop_oneof![
        (r(), any::<u16>()).prop_map(|(dst, imm)| Inst::OrShl16 { dst, imm }),
        r().prop_map(|dst| Inst::MoveFromLr { dst }),
        r().prop_map(|src| Inst::MoveToLr { src }),
    ]
}

proptest! {
    #[test]
    fn common_insts_roundtrip_on_every_arch(inst in arb_common_inst(16), arch in arb_arch()) {
        let bytes = encode(&inst, arch).expect("common instruction must encode");
        let (decoded, len) = decode(&bytes, arch).expect("must decode");
        prop_assert_eq!(&decoded, &inst);
        prop_assert_eq!(len, bytes.len());
        if arch.is_fixed_width() {
            prop_assert_eq!(len, 4);
        } else {
            prop_assert!(len <= arch.max_inst_len());
        }
    }

    #[test]
    fn risc_common_insts_roundtrip(inst in arb_risc_common_inst(),
                                   arch in prop_oneof![Just(Arch::Ppc64le), Just(Arch::Aarch64)]) {
        let bytes = encode(&inst, arch).expect("RISC-common instruction must encode");
        let (decoded, len) = decode(&bytes, arch).expect("must decode");
        prop_assert_eq!(decoded, inst);
        prop_assert_eq!(len, 4);
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..16),
                           arch in arb_arch()) {
        let _ = decode(&bytes, arch);
    }

    #[test]
    fn x64_wide_operands_roundtrip(dst in arb_reg(16), imm in any::<i64>()) {
        let inst = Inst::MovImm { dst, imm };
        let bytes = encode(&inst, Arch::X64).unwrap();
        let (decoded, _) = decode(&bytes, Arch::X64).unwrap();
        prop_assert_eq!(decoded, inst);
    }

    #[test]
    fn x64_pc_rel_roundtrip(dst in arb_reg(16), disp in any::<i32>(), width in arb_width()) {
        let inst = Inst::Load { dst, addr: Addr::pc_rel(i64::from(disp)), width, sign: false };
        let bytes = encode(&inst, Arch::X64).unwrap();
        let (decoded, _) = decode(&bytes, Arch::X64).unwrap();
        prop_assert_eq!(decoded, inst);
    }

    #[test]
    fn risc_branch_reach_boundary(words in -(1i64 << 26)..(1i64 << 26)) {
        let offset = words * 4;
        let inst = Inst::Jump { offset };
        let ppc_ok = encode(&inst, Arch::Ppc64le).is_ok();
        let a64_ok = encode(&inst, Arch::Aarch64).is_ok();
        prop_assert_eq!(ppc_ok, (-(1i64 << 23)..(1i64 << 23)).contains(&words));
        prop_assert_eq!(a64_ok, (-(1i64 << 25)..(1i64 << 25)).contains(&words));
    }

    #[test]
    fn decoded_inst_reencodes_identically(inst in arb_common_inst(16), arch in arb_arch()) {
        // decode(encode(i)) re-encodes to the same bytes: the encoder is
        // deterministic and form selection is canonical.
        let bytes = encode(&inst, arch).unwrap();
        let (decoded, _) = decode(&bytes, arch).unwrap();
        let bytes2 = encode(&decoded, arch).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }
}
