//! End-to-end rewriting tests: build a binary, rewrite it in every
//! mode, run both under the emulator, and require identical output —
//! with `.text` poisoned so any missed control flow crashes loudly
//! (the paper's §8 strong test).

use icfgp_asm::patterns::{emit_indirect_call, emit_switch, switch_table_item, SwitchHardness, SwitchSpec};
use icfgp_asm::{epilogue, prologue, BinaryBuilder, DataItem, EntryKind, FuncDef, Item, RefTarget, UnwindSpec};
use icfgp_core::{
    Instrumentation, Points, RewriteConfig, RewriteMode, Rewriter, TrampolineKind, UnwindStrategy,
};
use icfgp_emu::{run, CrashReason, LoadOptions, Outcome};
use icfgp_isa::{AluOp, Arch, Cond, Inst, Reg, SysOp};
use icfgp_obj::{Binary, Language};

fn movi(r: u8, v: i64) -> Item {
    Item::I(Inst::MovImm { dst: Reg(r), imm: v })
}
fn out(r: u8) -> Item {
    Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(r) })
}

fn run_original(bin: &Binary) -> Vec<i64> {
    match run(bin, &LoadOptions::default()) {
        Outcome::Halted(stats) => stats.output,
        other => panic!("original binary must run: {other:?}"),
    }
}

fn run_rewritten(bin: &Binary) -> Result<Vec<i64>, Outcome> {
    let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
    match run(bin, &opts) {
        Outcome::Halted(stats) => Ok(stats.output),
        other => Err(other),
    }
}

fn assert_equiv(bin: &Binary, mode: RewriteMode, label: &str) -> icfgp_core::RewriteOutcome {
    let expected = run_original(bin);
    let rewriter = Rewriter::new(RewriteConfig::new(mode));
    let outcome = rewriter
        .rewrite(bin, &Instrumentation::empty(Points::EveryBlock))
        .unwrap_or_else(|e| panic!("{label}/{mode}: rewrite failed: {e}"));
    match run_rewritten(&outcome.binary) {
        Ok(got) => assert_eq!(got, expected, "{label}/{mode}: output diverged"),
        Err(o) => panic!("{label}/{mode}: rewritten binary failed: {o:?}"),
    }
    outcome
}

/// A multi-function program: loops, calls, comparisons.
fn calls_program(arch: Arch, pie: bool) -> Binary {
    let mut b = BinaryBuilder::new(arch);
    b.pie(pie);
    let mut main = prologue(arch, 32, false);
    main.push(movi(8, 5));
    main.push(Item::CallF("work".into()));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::C, main));
    // work(n): sum of doubled values 1..=n via a loop and a callee.
    let mut work = prologue(arch, 32, false);
    work.push(Item::I(Inst::MovReg { dst: Reg(9), src: Reg(8) })); // n
    work.push(movi(8, 0)); // acc
    work.push(Item::Label("loop".into()));
    work.push(Item::I(Inst::CmpImm { a: Reg(9), imm: 0 }));
    work.push(Item::JccL(Cond::Le, "done".into()));
    // Spill across the call per the workload ABI.
    work.push(Item::I(Inst::Store {
        src: Reg(9),
        addr: icfgp_isa::Addr::base_disp(arch.sp(), 8),
        width: icfgp_isa::Width::W8,
    }));
    work.push(Item::I(Inst::Store {
        src: Reg(8),
        addr: icfgp_isa::Addr::base_disp(arch.sp(), 16),
        width: icfgp_isa::Width::W8,
    }));
    work.push(Item::I(Inst::MovReg { dst: Reg(8), src: Reg(9) }));
    work.push(Item::CallF("double".into()));
    work.push(Item::I(Inst::MovReg { dst: Reg(10), src: Reg(8) }));
    work.push(Item::I(Inst::Load {
        dst: Reg(9),
        addr: icfgp_isa::Addr::base_disp(arch.sp(), 8),
        width: icfgp_isa::Width::W8,
        sign: false,
    }));
    work.push(Item::I(Inst::Load {
        dst: Reg(8),
        addr: icfgp_isa::Addr::base_disp(arch.sp(), 16),
        width: icfgp_isa::Width::W8,
        sign: false,
    }));
    work.push(Item::I(Inst::Alu { op: AluOp::Add, dst: Reg(8), a: Reg(8), b: Reg(10) }));
    work.push(Item::I(Inst::AluImm { op: AluOp::Sub, dst: Reg(9), src: Reg(9), imm: 1 }));
    work.push(Item::JmpL("loop".into()));
    work.push(Item::Label("done".into()));
    work.extend(epilogue(arch, 32, false));
    b.add_function(FuncDef::new("work", Language::C, work));
    let mut dbl = vec![Item::I(Inst::Alu { op: AluOp::Add, dst: Reg(8), a: Reg(8), b: Reg(8) })];
    dbl.extend(epilogue(arch, 0, true));
    b.add_function(FuncDef::new("double", Language::C, dbl));
    b.set_entry("main");
    b.build().unwrap()
}

#[test]
fn calls_and_loops_all_arches_all_modes() {
    for arch in Arch::ALL {
        for pie in [false, true] {
            let bin = calls_program(arch, pie);
            for mode in [RewriteMode::Dir, RewriteMode::Jt, RewriteMode::FuncPtr] {
                let outcome = assert_equiv(&bin, mode, &format!("calls({arch},pie={pie})"));
                assert!(outcome.report.coverage >= 1.0);
                assert!(outcome.report.ra_map_entries >= 2, "two call sites recorded");
            }
        }
    }
}

/// Switch program exercising jump tables per architecture idiom.
fn switch_program(arch: Arch, pie: bool, hardness: SwitchHardness) -> Binary {
    let (width, kind, inline) = match arch {
        Arch::X64 => (8, EntryKind::Absolute, false),
        Arch::Ppc64le => (8, EntryKind::Absolute, true),
        Arch::Aarch64 => (1, EntryKind::RelativeScaled, true),
    };
    let (width, kind) = if pie && kind == EntryKind::Absolute && !inline {
        (8, EntryKind::Absolute)
    } else {
        (width, kind)
    };
    let mut b = BinaryBuilder::new(arch);
    b.pie(pie);
    // dispatch(i): out(i * 10 + case_id)
    let mut items = prologue(arch, 32, true);
    let spec = SwitchSpec {
        idx_reg: Reg(8),
        table_name: "jt0".into(),
        case_labels: (0..5).map(|i| format!("case{i}")).collect(),
        default_label: "default".into(),
        entry_width: width,
        kind,
        inline,
        hardness,
        spill_slot: 8,
        scratch: (Reg(9), Reg(10)),
        mem_indirect: false,
    };
    emit_switch(&mut items, arch, &spec);
    for i in 0..5 {
        items.push(Item::Label(format!("case{i}")));
        items.push(movi(8, 100 + i));
        items.push(out(8));
        items.push(Item::JmpL("end".into()));
    }
    items.push(Item::Label("default".into()));
    items.push(movi(8, -1));
    items.push(out(8));
    items.push(Item::Label("end".into()));
    items.extend(epilogue(arch, 32, true));
    b.add_function(FuncDef::new("dispatch", Language::C, items));
    if !inline {
        b.push_rodata(Some("jt0"), switch_table_item("dispatch", &spec));
        b.push_rodata(Some("jt0_end"), DataItem::Zeros(16));
    }
    // main: call dispatch for i in 0..7 (two out-of-range).
    let mut main = prologue(arch, 32, false);
    main.push(movi(9, 0));
    main.push(Item::Label("loop".into()));
    main.push(Item::I(Inst::Store {
        src: Reg(9),
        addr: icfgp_isa::Addr::base_disp(arch.sp(), 8),
        width: icfgp_isa::Width::W8,
    }));
    main.push(Item::I(Inst::MovReg { dst: Reg(8), src: Reg(9) }));
    main.push(Item::CallF("dispatch".into()));
    main.push(Item::I(Inst::Load {
        dst: Reg(9),
        addr: icfgp_isa::Addr::base_disp(arch.sp(), 8),
        width: icfgp_isa::Width::W8,
        sign: false,
    }));
    main.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(9), src: Reg(9), imm: 1 }));
    main.push(Item::I(Inst::CmpImm { a: Reg(9), imm: 7 }));
    main.push(Item::JccL(Cond::Lt, "loop".into()));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::C, main));
    b.set_entry("main");
    b.build().unwrap()
}

#[test]
fn switches_all_arches_all_modes() {
    for arch in Arch::ALL {
        let bin = switch_program(arch, false, SwitchHardness::Easy);
        for mode in [RewriteMode::Dir, RewriteMode::Jt, RewriteMode::FuncPtr] {
            let outcome = assert_equiv(&bin, mode, &format!("switch({arch})"));
            if mode == RewriteMode::Dir {
                assert_eq!(outcome.report.cloned_tables, 0, "{arch}: dir does not clone");
            } else {
                assert_eq!(outcome.report.cloned_tables, 1, "{arch}: table cloned");
            }
        }
    }
}

#[test]
fn pie_switches_rewrite_at_nonzero_bias() {
    for arch in Arch::ALL {
        let bin = switch_program(arch, true, SwitchHardness::Easy);
        let expected = run_original(&bin);
        let outcome = Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
            .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
            .unwrap();
        let opts = LoadOptions {
            preload_runtime: true,
            bias: 0x7f_0000,
            ..LoadOptions::default()
        };
        match run(&outcome.binary, &opts) {
            Outcome::Halted(stats) => assert_eq!(stats.output, expected, "{arch}"),
            other => panic!("{arch}: {other:?}"),
        }
    }
}

#[test]
fn exceptions_work_only_with_ra_translation() {
    for arch in Arch::ALL {
        let mut b = BinaryBuilder::new(arch);
        let mut main = prologue(arch, 32, false);
        main.push(Item::CallF("catcher".into()));
        main.push(out(8));
        main.push(Item::I(Inst::Halt));
        b.add_function(FuncDef::new("main", Language::Cpp, main));
        let mut c = prologue(arch, 32, false);
        c.push(Item::Label("try_s".into()));
        c.push(Item::CallF("thrower".into()));
        c.push(Item::Label("try_e".into()));
        c.push(movi(8, 0));
        c.extend(epilogue(arch, 32, false));
        c.push(Item::Label("landing".into()));
        c.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(8), src: Reg(8), imm: 1 }));
        c.extend(epilogue(arch, 32, false));
        b.add_function(FuncDef::new("catcher", Language::Cpp, c).with_unwind(UnwindSpec {
            frame_size: 32,
            ra: None,
            call_sites: vec![("try_s".into(), "try_e".into(), "landing".into())],
        }));
        let mut t = prologue(arch, 48, false);
        t.push(movi(9, 41));
        t.push(Item::I(Inst::Sys { op: SysOp::Throw, arg: Reg(9) }));
        t.extend(epilogue(arch, 48, false));
        b.add_function(
            FuncDef::new("thrower", Language::Cpp, t)
                .with_unwind(UnwindSpec { frame_size: 48, ra: None, call_sites: vec![] }),
        );
        b.set_entry("main");
        let bin = b.build().unwrap();
        assert_eq!(run_original(&bin), vec![42]);

        // With RA translation (the paper's design): works.
        assert_equiv(&bin, RewriteMode::Jt, &format!("exceptions({arch})"));

        // Without any unwinding support: the unwinder cannot step
        // through `.instr` return addresses.
        let mut cfg = RewriteConfig::new(RewriteMode::Jt);
        cfg.unwind = UnwindStrategy::None;
        let outcome = Rewriter::new(cfg).rewrite(&bin, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        match run_rewritten(&outcome.binary) {
            Err(Outcome::Crashed { reason: CrashReason::UnwindFailure { .. }, .. }) => {}
            other => panic!("{arch}: expected unwind failure, got {other:?}"),
        }

        // With call emulation (the SRBI approach): also works, slower.
        let mut cfg = RewriteConfig::new(RewriteMode::Dir);
        cfg.unwind = UnwindStrategy::CallEmulation;
        let outcome = Rewriter::new(cfg).rewrite(&bin, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        match run_rewritten(&outcome.binary) {
            Ok(got) => assert_eq!(got, vec![42], "{arch}: call emulation preserves unwinding"),
            Err(o) => panic!("{arch}: call emulation failed: {o:?}"),
        }
    }
}

#[test]
fn function_pointers_and_fp_mode() {
    for arch in Arch::ALL {
        for pie in [false, true] {
            let mut b = BinaryBuilder::new(arch);
            b.pie(pie);
            let mut main = prologue(arch, 32, false);
            // Call through fp slot twice.
            emit_indirect_call(&mut main, arch, "fp", (Reg(9), Reg(10)));
            main.push(out(8));
            emit_indirect_call(&mut main, arch, "fp", (Reg(9), Reg(10)));
            main.push(out(8));
            main.push(Item::I(Inst::Halt));
            b.add_function(FuncDef::new("main", Language::C, main));
            let mut t = vec![movi(8, 77)];
            t.extend(epilogue(arch, 0, true));
            b.add_function(FuncDef::new("target", Language::C, t));
            b.push_data(
                Some("fp"),
                DataItem::Addr { target: RefTarget::Func("target".into()), delta: 0 },
            );
            b.set_entry("main");
            let bin = b.build().unwrap();
            let outcome =
                assert_equiv(&bin, RewriteMode::FuncPtr, &format!("fp({arch},pie={pie})"));
            assert_eq!(outcome.report.fp_slots_rewritten, 1, "{arch} pie={pie}");
            // In func-ptr mode the slot now points into .instr.
            let slot = outcome.binary.symbols().iter().find(|s| s.name == "fp").unwrap().addr;
            let v = outcome.binary.read_u64(slot).unwrap();
            let instr = outcome.binary.section(".instr").unwrap();
            assert!(instr.contains(v), "{arch} pie={pie}: slot retargeted into .instr");
        }
    }
}

#[test]
fn goexit_plus_one_correct_in_fp_mode() {
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    b.pie(true);
    let mut main = prologue(arch, 32, false);
    // Load &goexit from the relocated slot, add 1, store into vtab,
    // call through vtab.
    main.push(Item::LoadFrom {
        dst: Reg(9),
        target: RefTarget::Data("fp".into()),
        offset: 0,
        width: icfgp_isa::Width::W8,
        sign: false,
        tmp: Reg(10),
    });
    main.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(9), src: Reg(9), imm: 1 }));
    main.push(Item::StoreTo {
        src: Reg(9),
        target: RefTarget::Data("vtab".into()),
        offset: 0,
        width: icfgp_isa::Width::W8,
        tmp: Reg(10),
    });
    main.push(Item::LoadFrom {
        dst: Reg(11),
        target: RefTarget::Data("vtab".into()),
        offset: 0,
        width: icfgp_isa::Width::W8,
        sign: false,
        tmp: Reg(10),
    });
    main.push(Item::I(Inst::CallReg { src: Reg(11) }));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::Go, main));
    // goexit: 1-byte nop at entry (skipped by the +1), then body.
    let mut g = vec![Item::I(Inst::Nop), movi(8, 55)];
    g.extend(epilogue(arch, 0, true));
    b.add_function(FuncDef::new("goexit", Language::Go, g));
    b.push_data(Some("fp"), DataItem::Addr { target: RefTarget::Func("goexit".into()), delta: 0 });
    b.push_data(Some("vtab"), DataItem::Zeros(8));
    b.set_entry("main");
    let bin = b.build().unwrap();
    assert_eq!(run_original(&bin), vec![55]);
    assert_equiv(&bin, RewriteMode::FuncPtr, "goexit+1");

    // Without arithmetic tracking the slot is rewritten to the plain
    // relocated entry; +1 then lands mid-instrumentation (the Listing 1
    // failure) — with poisoned text and block payloads this crashes or
    // diverges.
    let mut cfg = RewriteConfig::new(RewriteMode::FuncPtr);
    cfg.analysis.funcptr_arith_tracking = false;
    let outcome = Rewriter::new(cfg)
        .rewrite(&bin, &Instrumentation::counters(Points::EveryBlock))
        .unwrap();
    // A crash (`Err`) is the expected outcome.
    if let Ok(got) = run_rewritten(&outcome.binary) {
        assert_ne!(got, vec![55], "naive fp rewriting must not silently succeed");
    }
}

#[test]
fn under_approximation_is_caught_by_poison() {
    let arch = Arch::X64;
    let bin = switch_program(arch, false, SwitchHardness::Easy);
    // Find the jump to inject against.
    let analysis = icfgp_cfg::analyze(&bin, &icfgp_cfg::AnalysisConfig::default());
    let dispatch = bin.function_named("dispatch").unwrap().addr;
    let jump_addr = analysis.funcs[&dispatch].jump_tables[0].jump_addr;

    let mut cfg = RewriteConfig::new(RewriteMode::Dir);
    cfg.analysis.inject =
        vec![icfgp_cfg::InjectedFault::UnderApproximateTable { jump_addr, drop: 3 }];
    let outcome = Rewriter::new(cfg).rewrite(&bin, &Instrumentation::empty(Points::EveryBlock)).unwrap();
    match run_rewritten(&outcome.binary) {
        Err(Outcome::Crashed { reason: CrashReason::IllegalInstruction { .. }, .. }) => {}
        other => panic!("under-approximation must crash into poison, got {other:?}"),
    }
}

#[test]
fn over_approximation_stays_correct() {
    let arch = Arch::X64;
    let bin = switch_program(arch, false, SwitchHardness::Easy);
    let analysis = icfgp_cfg::analyze(&bin, &icfgp_cfg::AnalysisConfig::default());
    let dispatch = bin.function_named("dispatch").unwrap().addr;
    let jump_addr = analysis.funcs[&dispatch].jump_tables[0].jump_addr;
    let expected = run_original(&bin);

    for mode in [RewriteMode::Dir, RewriteMode::Jt] {
        let mut cfg = RewriteConfig::new(mode);
        cfg.analysis.inject =
            vec![icfgp_cfg::InjectedFault::OverApproximateTable { jump_addr, extra: 4 }];
        let outcome =
            Rewriter::new(cfg).rewrite(&bin, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        match run_rewritten(&outcome.binary) {
            Ok(got) => assert_eq!(got, expected, "{mode}: over-approximation must be harmless"),
            Err(o) => panic!("{mode}: over-approximation broke the binary: {o:?}"),
        }
    }
}

#[test]
fn counters_count_blocks() {
    let arch = Arch::Aarch64;
    let bin = calls_program(arch, false);
    let expected = run_original(&bin);
    let outcome = Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
        .rewrite(&bin, &Instrumentation::counters(Points::EveryBlock))
        .unwrap();
    let opts = LoadOptions { preload_runtime: true, ..LoadOptions::default() };
    let mut machine = icfgp_emu::Machine::load(&outcome.binary, &opts).unwrap();
    match machine.run() {
        Outcome::Halted(stats) => assert_eq!(stats.output, expected),
        other => panic!("{other:?}"),
    }
    // Counters live in .icounters; at least one block ran >= 5 times
    // (the loop body) and the entry block ran once.
    let sec = outcome.binary.section(".icounters").unwrap();
    let mut counts = Vec::new();
    for i in 0..sec.len() / 8 {
        let v = machine
            .memory()
            .read_int(sec.addr() + 8 * i as u64, 8, false)
            .unwrap();
        counts.push(v);
    }
    assert!(counts.iter().any(|c| *c >= 5), "loop body counted: {counts:?}");
    assert!(counts.contains(&1), "entry counted once: {counts:?}");
    assert!(counts.iter().all(|c| *c >= 0));
}

#[test]
fn partial_instrumentation_leaves_functions_alone() {
    let arch = Arch::X64;
    let bin = calls_program(arch, false);
    let expected = run_original(&bin);
    let work = bin.function_named("work").unwrap().addr;
    let main = bin.function_named("main").unwrap().addr;
    // Instrument only `work` and `main`; `double` stays original.
    let points = Points::Functions([work, main].into_iter().collect());
    let outcome = Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
        .rewrite(&bin, &Instrumentation::empty(points))
        .unwrap();
    assert_eq!(outcome.report.instrumented_funcs, 2);
    assert!(outcome
        .report
        .skipped
        .iter()
        .any(|(e, r)| *e == bin.function_named("double").unwrap().addr
            && matches!(r, icfgp_core::SkipReason::NotSelected)));
    // `double`'s bytes are untouched.
    let dbl = bin.function_named("double").unwrap();
    assert_eq!(
        bin.read(dbl.addr, dbl.size as usize).unwrap(),
        outcome.binary.read(dbl.addr, dbl.size as usize).unwrap()
    );
    match run_rewritten(&outcome.binary) {
        Ok(got) => assert_eq!(got, expected),
        Err(o) => panic!("{o:?}"),
    }
}

#[test]
fn reorder_layouts_preserve_behaviour() {
    for arch in Arch::ALL {
        let bin = switch_program(arch, false, SwitchHardness::Easy);
        let expected = run_original(&bin);
        for layout in [icfgp_core::LayoutOrder::ReverseFunctions, icfgp_core::LayoutOrder::ReverseBlocks] {
            let mut cfg = RewriteConfig::new(RewriteMode::Jt);
            cfg.layout = layout;
            let outcome = Rewriter::new(cfg)
                .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
                .unwrap();
            match run_rewritten(&outcome.binary) {
                Ok(got) => assert_eq!(got, expected, "{arch}/{layout:?}"),
                Err(o) => panic!("{arch}/{layout:?}: {o:?}"),
            }
        }
    }
}

#[test]
fn trap_trampolines_used_and_work_for_tiny_functions() {
    // x64: a 1-byte function (bare ret) cannot host even the short
    // form when its block is the whole function and neighbours are
    // CFL; force trap by disabling multi-hop and padding use.
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    let mut main = prologue(arch, 16, false);
    main.push(Item::CallF("tiny".into()));
    main.push(movi(8, 3));
    main.push(out(8));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::C, main));
    // Two bytes: too small for the 5-byte near form, big enough for a
    // 2-byte short hop.
    b.add_function(FuncDef::new("tiny", Language::C, vec![Item::I(Inst::Nop), Item::I(Inst::Ret)]));
    b.set_entry("main");
    let bin = b.build().unwrap();
    let expected = run_original(&bin);

    let mut cfg = RewriteConfig::new(RewriteMode::Dir);
    cfg.placement.multi_hop = false;
    cfg.placement.use_padding = false;
    cfg.placement.use_scratch_sections = false;
    let outcome = Rewriter::new(cfg).rewrite(&bin, &Instrumentation::empty(Points::EveryBlock)).unwrap();
    assert!(outcome.report.tramp_trap >= 1, "tiny function needs a trap: {:?}", outcome.report);
    match run_rewritten(&outcome.binary) {
        Ok(got) => assert_eq!(got, expected),
        Err(o) => panic!("{o:?}"),
    }

    // With the full §7 machinery the trap disappears (multi-hop via
    // padding islands).
    let outcome2 = Rewriter::new(RewriteConfig::new(RewriteMode::Dir))
        .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
        .unwrap();
    assert_eq!(outcome2.report.tramp_trap, 0, "{:?}", outcome2.report);
    assert!(outcome2.report.tramp_multi_hop >= 1);
    match run_rewritten(&outcome2.binary) {
        Ok(got) => assert_eq!(got, expected),
        Err(o) => panic!("multi-hop run failed: {o:?}"),
    }
    let _ = TrampolineKind::Trap; // referenced for doc purposes
}

#[test]
fn failed_functions_are_skipped_but_binary_still_works() {
    let arch = Arch::X64;
    let bin = switch_program(arch, false, SwitchHardness::Unanalyzable);
    let expected = run_original(&bin);
    let outcome = Rewriter::new(RewriteConfig::new(RewriteMode::Jt))
        .rewrite(&bin, &Instrumentation::empty(Points::EveryBlock))
        .unwrap();
    assert!(outcome.report.coverage < 1.0, "dispatch is unanalyzable");
    assert!(outcome
        .report
        .skipped
        .iter()
        .any(|(_, r)| matches!(r, icfgp_core::SkipReason::AnalysisFailed(_))));
    // dispatch runs its original code; main is instrumented; the whole
    // program still behaves identically (the §4.3 isolation property).
    match run_rewritten(&outcome.binary) {
        Ok(got) => assert_eq!(got, expected),
        Err(o) => panic!("{o:?}"),
    }
}
