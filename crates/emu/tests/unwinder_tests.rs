//! Deeper unwinder tests: multi-frame unwinding, nested catch scopes,
//! rethrow, and the frdwarf-style compiled-unwinding cost option.

use icfgp_asm::{epilogue, prologue, BinaryBuilder, FuncDef, Item, UnwindSpec};
use icfgp_emu::{run, CostModel, CrashReason, LoadOptions, Outcome};
use icfgp_isa::{AluOp, Arch, Inst, Reg, SysOp};
use icfgp_obj::{Binary, Language};

fn out(r: u8) -> Item {
    Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(r) })
}

fn movi(r: u8, v: i64) -> Item {
    Item::I(Inst::MovImm { dst: Reg(r), imm: v })
}

/// main → outer_catch → middle (no handler) → thrower: the exception
/// skips the handler-less frame.
fn deep_throw_binary(arch: Arch) -> Binary {
    let mut b = BinaryBuilder::new(arch);
    let mut main = prologue(arch, 32, false);
    main.push(Item::CallF("outer".into()));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::Cpp, main));

    let mut o = prologue(arch, 32, false);
    o.push(Item::Label("try_s".into()));
    o.push(Item::CallF("middle".into()));
    o.push(Item::Label("try_e".into()));
    o.push(movi(8, -1)); // not taken
    o.extend(epilogue(arch, 32, false));
    o.push(Item::Label("landing".into()));
    o.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(8), src: Reg(8), imm: 100 }));
    o.extend(epilogue(arch, 32, false));
    b.add_function(FuncDef::new("outer", Language::Cpp, o).with_unwind(UnwindSpec {
        frame_size: 32,
        ra: None,
        call_sites: vec![("try_s".into(), "try_e".into(), "landing".into())],
    }));

    let mut m = prologue(arch, 64, false);
    m.push(Item::CallF("thrower".into()));
    m.extend(epilogue(arch, 64, false));
    b.add_function(
        FuncDef::new("middle", Language::Cpp, m)
            .with_unwind(UnwindSpec { frame_size: 64, ra: None, call_sites: vec![] }),
    );

    let mut t = prologue(arch, 48, false);
    t.push(movi(9, 7));
    t.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
    t.extend(epilogue(arch, 48, false));
    b.add_function(
        FuncDef::new("thrower", Language::Cpp, t)
            .with_unwind(UnwindSpec { frame_size: 48, ra: None, call_sites: vec![] }),
    );
    b.set_entry("main");
    b.build().unwrap()
}

#[test]
fn exception_skips_handlerless_frames() {
    for arch in Arch::ALL {
        let bin = deep_throw_binary(arch);
        match run(&bin, &LoadOptions::default()) {
            Outcome::Halted(s) => {
                assert_eq!(s.output, vec![107], "{arch}: 7 + 100");
                assert!(s.unwind_steps >= 3, "{arch}: walked thrower+middle+outer");
            }
            o => panic!("{arch}: {o:?}"),
        }
    }
}

#[test]
fn compiled_unwinding_is_cheaper_and_equivalent() {
    let bin = deep_throw_binary(Arch::X64);
    let dwarf = match run(&bin, &LoadOptions::default()) {
        Outcome::Halted(s) => s,
        o => panic!("{o:?}"),
    };
    let cost = CostModel { compiled_unwinding: true, ..CostModel::default() };
    let opts = LoadOptions { cost, ..LoadOptions::default() };
    match run(&bin, &opts) {
        Outcome::Halted(s) => {
            assert_eq!(s.output, dwarf.output, "semantics unchanged");
            assert!(
                s.cycles < dwarf.cycles,
                "compiled unwinding is cheaper: {} vs {}",
                s.cycles,
                dwarf.cycles
            );
            assert_eq!(s.unwind_steps, dwarf.unwind_steps);
        }
        o => panic!("{o:?}"),
    }
}

/// A catch handler that rethrows: the second throw unwinds to the next
/// outer handler.
#[test]
fn rethrow_reaches_outer_handler() {
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    let mut main = prologue(arch, 32, false);
    main.push(Item::Label("m_try_s".into()));
    main.push(Item::CallF("inner_catch".into()));
    main.push(Item::Label("m_try_e".into()));
    main.push(movi(8, -1));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    main.push(Item::Label("m_landing".into()));
    main.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(8), src: Reg(8), imm: 1000 }));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::Cpp, main).with_unwind(UnwindSpec {
        frame_size: 32,
        ra: None,
        call_sites: vec![("m_try_s".into(), "m_try_e".into(), "m_landing".into())],
    }));

    let mut ic = prologue(arch, 32, false);
    ic.push(Item::Label("try_s".into()));
    ic.push(Item::CallF("thrower".into()));
    ic.push(Item::Label("try_e".into()));
    ic.extend(epilogue(arch, 32, false));
    ic.push(Item::Label("landing".into()));
    // Catch, increment, rethrow.
    ic.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(8), src: Reg(8), imm: 1 }));
    ic.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(8) }));
    b.add_function(FuncDef::new("inner_catch", Language::Cpp, ic).with_unwind(UnwindSpec {
        frame_size: 32,
        ra: None,
        call_sites: vec![("try_s".into(), "try_e".into(), "landing".into())],
    }));

    let mut t = prologue(arch, 16, false);
    t.push(movi(9, 5));
    t.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
    t.extend(epilogue(arch, 16, false));
    b.add_function(
        FuncDef::new("thrower", Language::Cpp, t)
            .with_unwind(UnwindSpec { frame_size: 16, ra: None, call_sites: vec![] }),
    );
    b.set_entry("main");
    let bin = b.build().unwrap();
    match run(&bin, &LoadOptions::default()) {
        Outcome::Halted(s) => {
            assert_eq!(s.output, vec![5 + 1 + 1000]);
            assert_eq!(s.throws, 2);
        }
        o => panic!("{o:?}"),
    }
}

/// A throw inside the *handler's own try range* must not re-enter the
/// same handler: the generator never emits throws inside call-site
/// ranges, and the unwinder attributes the throw frame by its own PC.
#[test]
fn throw_outside_callsite_ranges_unwinds_past() {
    let arch = Arch::Aarch64;
    let mut b = BinaryBuilder::new(arch);
    let mut main = prologue(arch, 32, false);
    main.push(Item::CallF("f".into()));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    b.add_function(
        FuncDef::new("main", Language::Cpp, main)
            .with_unwind(UnwindSpec { frame_size: 32, ra: None, call_sites: vec![] }),
    );
    // f has a handler covering an *empty* range; its own throw is not
    // inside it, so the exception escapes f and is uncaught.
    let mut f = prologue(arch, 32, false);
    f.push(Item::Label("s".into()));
    f.push(Item::Label("e".into()));
    f.push(movi(9, 3));
    f.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
    f.extend(epilogue(arch, 32, false));
    f.push(Item::Label("lp".into()));
    f.extend(epilogue(arch, 32, false));
    b.add_function(FuncDef::new("f", Language::Cpp, f).with_unwind(UnwindSpec {
        frame_size: 32,
        ra: None,
        call_sites: vec![("s".into(), "e".into(), "lp".into())],
    }));
    b.set_entry("main");
    let bin = b.build().unwrap();
    match run(&bin, &LoadOptions::default()) {
        Outcome::Crashed { reason: CrashReason::UncaughtException, .. } => {}
        o => panic!("expected uncaught, got {o:?}"),
    }
}
