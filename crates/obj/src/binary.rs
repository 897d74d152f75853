//! The [`Binary`] container tying sections, symbols, relocations and
//! metadata together.

use crate::pclntab::GoFuncTable;
use crate::reloc::{RelocKind, Relocation};
use crate::section::{names, Section, SectionKind};
use crate::symbol::{Language, Symbol, SymbolKind};
use crate::unwind::UnwindTable;
use icfgp_isa::Arch;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Executable or shared library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryKind {
    /// A main executable with an entry point.
    Exec,
    /// A shared library (always position independent).
    SharedLib,
}

/// Binary-level metadata: which language features and relocation
/// classes are present. These flags gate which rewriters can process
/// the binary at all (Table 1 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Metadata {
    /// Position-independent (loader may rebase; RELATIVE relocations
    /// describe every absolute address slot).
    pub pie: bool,
    /// Link-time relocations were retained (`-Wl,-q`); BOLT-style
    /// function reordering requires this.
    pub has_link_time_relocs: bool,
    /// Symbol-versioning metadata is present (common in C++/Rust
    /// shared libraries; Egalito-style IR lowering chokes on it).
    pub has_symbol_versioning: bool,
    /// Languages present in the binary.
    pub languages: BTreeSet<Language>,
    /// Symbol names were stripped.
    pub stripped: bool,
}

impl Metadata {
    /// Whether any compilation unit uses C++-style exceptions.
    #[must_use]
    pub fn has_exceptions(&self) -> bool {
        self.languages.contains(&Language::Cpp) || self.languages.contains(&Language::Rust)
    }

    /// Whether the binary embeds a Go runtime (in-binary traceback).
    #[must_use]
    pub fn has_go_runtime(&self) -> bool {
        self.languages.contains(&Language::Go)
    }
}

/// Errors from [`Binary`] consistency operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are named self-descriptively and shown by Display
pub enum ObjError {
    /// Two allocated sections overlap in the address space.
    OverlappingSections { a: String, b: String },
    /// A read or write touched an address no section maps.
    Unmapped { addr: u64 },
    /// A named section does not exist.
    NoSuchSection { name: String },
    /// Symbol `after` is listed after `before` but starts at a lower
    /// address: the symbol table is not sorted by address.
    UnsortedSymbols { before: String, after: String },
    /// The 8-byte slot of the run-time relocation at `at` does not lie
    /// inside one allocated section, so no loader can apply it.
    RelocationOutsideSections { at: u64 },
    /// Function symbol `name`'s `[addr, addr + size)` does not lie
    /// inside one allocated executable section.
    SymbolOutsideCode { name: String, addr: u64, size: u64 },
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::OverlappingSections { a, b } => {
                write!(f, "sections {a} and {b} overlap")
            }
            ObjError::Unmapped { addr } => write!(f, "address {addr:#x} is not mapped"),
            ObjError::NoSuchSection { name } => write!(f, "no section named {name}"),
            ObjError::UnsortedSymbols { before, after } => write!(
                f,
                "symbol order: {after} starts below {before} but is listed after it \
                 (symbols must be sorted by address)"
            ),
            ObjError::RelocationOutsideSections { at } => write!(
                f,
                "relocation slot {at:#x}..{:#x} is not inside one allocated section",
                at.wrapping_add(8)
            ),
            ObjError::SymbolOutsideCode { name, addr, size } => write!(
                f,
                "function symbol {name} at {addr:#x} (size {size:#x}) is not inside one \
                 executable section"
            ),
        }
    }
}

impl std::error::Error for ObjError {}

/// A complete binary: the rewriter's input and output type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Binary {
    /// Target architecture.
    pub arch: Arch,
    /// Executable or shared library.
    pub kind: BinaryKind,
    /// Entry-point address (link-time); meaningless for libraries.
    pub entry: u64,
    /// Sections, in insertion order.
    sections: Vec<Section>,
    /// Symbols, kept sorted by address.
    symbols: Vec<Symbol>,
    /// Relocation records (`.rela_dyn` analog plus retained link-time
    /// relocations).
    pub relocations: Vec<Relocation>,
    /// DWARF-style unwind table (`.eh_frame` analog).
    pub unwind: UnwindTable,
    /// Go-style function table, when the binary embeds a Go runtime.
    pub pclntab: Option<GoFuncTable>,
    /// Feature metadata.
    pub meta: Metadata,
    /// ppc64le TOC anchor (link-time value the loader materialises into
    /// `r2`, plus load bias). `None` on other architectures.
    pub toc_base: Option<u64>,
}

impl Binary {
    /// An empty binary for `arch`.
    #[must_use]
    pub fn new(arch: Arch) -> Binary {
        Binary {
            arch,
            kind: BinaryKind::Exec,
            entry: 0,
            sections: Vec::new(),
            symbols: Vec::new(),
            relocations: Vec::new(),
            unwind: UnwindTable::new(),
            pclntab: None,
            meta: Metadata::default(),
            toc_base: None,
        }
    }

    // ----- sections ------------------------------------------------

    /// Append a section.
    pub fn add_section(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// All sections.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to all sections.
    pub fn sections_mut(&mut self) -> &mut Vec<Section> {
        &mut self.sections
    }

    /// Find a section by name.
    #[must_use]
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name() == name)
    }

    /// Find a section by name, mutably.
    pub fn section_mut(&mut self, name: &str) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.name() == name)
    }

    /// Find the section containing `addr`.
    #[must_use]
    pub fn section_at(&self, addr: u64) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// Find the section containing `addr`, mutably.
    pub fn section_at_mut(&mut self, addr: u64) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.contains(addr))
    }

    /// Read `len` bytes at a virtual address, crossing no section
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not fully inside one
    /// section.
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], ObjError> {
        self.section_at(addr)
            .and_then(|s| s.read(addr, len))
            .ok_or(ObjError::Unmapped { addr })
    }

    /// Read a little-endian u64 at a virtual address.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not mapped.
    pub fn read_u64(&self, addr: u64) -> Result<u64, ObjError> {
        let b = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Overwrite bytes at a virtual address.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not fully inside one
    /// section.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ObjError> {
        let sec = self.section_at_mut(addr).ok_or(ObjError::Unmapped { addr })?;
        if sec.write(addr, bytes) {
            Ok(())
        } else {
            Err(ObjError::Unmapped { addr })
        }
    }

    /// Write a little-endian u64 at a virtual address.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not mapped.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), ObjError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Highest one-past-the-end address of any section (where new
    /// sections get appended).
    #[must_use]
    pub fn address_space_end(&self) -> u64 {
        self.sections.iter().map(Section::end).max().unwrap_or(0)
    }

    /// Sum of allocated section sizes — what binutils' `size` reports.
    /// The paper's "size increase" columns compare this before/after
    /// rewriting.
    #[must_use]
    pub fn loaded_size(&self) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.flags().alloc)
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Verify that no two allocated sections overlap and that every
    /// run-time relocation's 8-byte slot lies inside one allocated
    /// section. Link-time records are never applied by a loader (the
    /// builder's presence markers sit on function entries), so they
    /// are not checked.
    ///
    /// # Errors
    ///
    /// [`ObjError::OverlappingSections`] naming the first offending
    /// pair, or [`ObjError::RelocationOutsideSections`] naming the
    /// first run-time relocation no section holds.
    pub fn validate_layout(&self) -> Result<(), ObjError> {
        let mut ranges: Vec<&Section> =
            self.sections.iter().filter(|s| s.flags().alloc && !s.is_empty()).collect();
        ranges.sort_by_key(|s| s.addr());
        for w in ranges.windows(2) {
            if w[0].end() > w[1].addr() {
                return Err(ObjError::OverlappingSections {
                    a: w[0].name().to_string(),
                    b: w[1].name().to_string(),
                });
            }
        }
        for r in self.runtime_relocations() {
            // The sections are disjoint, so only the last one starting
            // at or below the slot can hold it.
            let below = ranges.partition_point(|s| s.addr() <= r.at);
            let held = below > 0
                && r.at
                    .checked_add(8)
                    .is_some_and(|end| end <= ranges[below - 1].end());
            if !held {
                return Err(ObjError::RelocationOutsideSections { at: r.at });
            }
        }
        Ok(())
    }

    /// Verify that every function symbol's `[addr, addr + size)` lies
    /// inside one allocated executable section. The rewriter reads and
    /// sizes a function by its symbol, so one that runs past its code
    /// would read bytes that are not code or ask for an impossible
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`ObjError::SymbolOutsideCode`] naming the first offending
    /// symbol.
    pub fn validate_symbols(&self) -> Result<(), ObjError> {
        let code: Vec<&Section> =
            self.sections.iter().filter(|s| s.flags().alloc && s.flags().exec).collect();
        let outside = self.functions().find(|f| {
            !f.addr
                .checked_add(f.size)
                .is_some_and(|end| code.iter().any(|s| s.addr() <= f.addr && end <= s.end()))
        });
        match outside {
            Some(f) => Err(ObjError::SymbolOutsideCode {
                name: f.name.clone(),
                addr: f.addr,
                size: f.size,
            }),
            None => Ok(()),
        }
    }

    /// Verify that the symbols are sorted by address, the invariant
    /// [`Binary::add_symbol`] keeps and every address lookup relies on.
    /// A deserialised container can break it.
    ///
    /// # Errors
    ///
    /// [`ObjError::UnsortedSymbols`] naming the first offending pair.
    pub fn validate_symbol_order(&self) -> Result<(), ObjError> {
        match self.symbols.windows(2).find(|w| w[0].addr > w[1].addr) {
            Some(w) => Err(ObjError::UnsortedSymbols {
                before: w[0].name.clone(),
                after: w[1].name.clone(),
            }),
            None => Ok(()),
        }
    }

    // ----- symbols --------------------------------------------------

    /// Add a symbol (kept sorted by address).
    pub fn add_symbol(&mut self, symbol: Symbol) {
        let pos = self.symbols.partition_point(|s| s.addr < symbol.addr);
        self.symbols.insert(pos, symbol);
    }

    /// All symbols, sorted by address.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Mutable access to the symbols (callers must preserve ordering).
    pub fn symbols_mut(&mut self) -> &mut Vec<Symbol> {
        &mut self.symbols
    }

    /// Function symbols, sorted by address.
    pub fn functions(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter().filter(|s| s.kind == SymbolKind::Func)
    }

    /// The function symbol whose range contains `addr`.
    #[must_use]
    pub fn function_at(&self, addr: u64) -> Option<&Symbol> {
        let pos = self.symbols.partition_point(|s| s.addr <= addr);
        self.symbols[..pos]
            .iter()
            .rev()
            .find(|s| s.kind == SymbolKind::Func && s.contains(addr))
    }

    /// The first function symbol starting exactly at `addr`.
    #[must_use]
    pub fn function_starting_at(&self, addr: u64) -> Option<&Symbol> {
        let pos = self.symbols.partition_point(|s| s.addr < addr);
        self.symbols[pos..]
            .iter()
            .take_while(|s| s.addr == addr)
            .find(|s| s.kind == SymbolKind::Func)
    }

    /// Look up a function by name.
    #[must_use]
    pub fn function_named(&self, name: &str) -> Option<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.kind == SymbolKind::Func && s.name == name)
    }

    // ----- relocations ----------------------------------------------

    /// Run-time (RELATIVE) relocations.
    pub fn runtime_relocations(&self) -> impl Iterator<Item = &Relocation> {
        self.relocations.iter().filter(|r| r.kind == RelocKind::Relative)
    }

    /// Whether an address is the site of a RELATIVE relocation.
    #[must_use]
    pub fn relocation_at(&self, addr: u64) -> Option<&Relocation> {
        self.relocations.iter().find(|r| r.at == addr)
    }

    // ----- convenience ----------------------------------------------

    /// The `.text` section.
    ///
    /// # Errors
    ///
    /// [`ObjError::NoSuchSection`] when the binary has no `.text`.
    pub fn text(&self) -> Result<&Section, ObjError> {
        self.section(names::TEXT)
            .ok_or_else(|| ObjError::NoSuchSection { name: names::TEXT.to_string() })
    }

    /// Sections retired to scratch space (renamed originals).
    pub fn scratch_sections(&self) -> impl Iterator<Item = &Section> {
        self.sections.iter().filter(|s| s.kind() == SectionKind::Scratch)
    }

    /// Whether the binary actually *uses* exception handling: some
    /// unwind entry has call sites with landing pads. (Presence of C++
    /// code alone does not imply exception use.)
    #[must_use]
    pub fn uses_exceptions(&self) -> bool {
        self.unwind.entries().iter().any(|e| !e.call_sites.is_empty())
    }

    /// A one-line-per-section layout dump (used by the Figure 1
    /// regeneration binary).
    #[must_use]
    pub fn layout_dump(&self) -> String {
        let mut sorted: Vec<&Section> = self.sections.iter().collect();
        sorted.sort_by_key(|s| s.addr());
        let mut out = String::new();
        for s in sorted {
            out.push_str(&s.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::SectionFlags;

    fn bin() -> Binary {
        let mut b = Binary::new(Arch::X64);
        b.add_section(Section::new(
            names::TEXT,
            0x1000,
            vec![0; 0x100],
            SectionFlags::exec(),
            SectionKind::Text,
        ));
        b.add_section(Section::new(
            names::RODATA,
            0x2000,
            vec![0; 0x80],
            SectionFlags::ro(),
            SectionKind::ReadOnlyData,
        ));
        b.add_symbol(Symbol::func("b", 0x1080, 0x80, Language::C));
        b.add_symbol(Symbol::func("a", 0x1000, 0x80, Language::C));
        b
    }

    #[test]
    fn symbols_stay_sorted() {
        let mut b = bin();
        let names: Vec<&str> = b.functions().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(b.validate_symbol_order().is_ok());
        b.symbols_mut().swap(0, 1);
        let err = b.validate_symbol_order().unwrap_err();
        assert_eq!(err, ObjError::UnsortedSymbols { before: "b".into(), after: "a".into() });
        assert!(err.to_string().contains("symbol order"), "{err}");
    }

    #[test]
    fn function_lookup() {
        let b = bin();
        assert_eq!(b.function_at(0x1000).unwrap().name, "a");
        assert_eq!(b.function_at(0x10FF).unwrap().name, "b");
        assert!(b.function_at(0x1100).is_none());
        assert_eq!(b.function_starting_at(0x1080).unwrap().name, "b");
        assert!(b.function_starting_at(0x1081).is_none());
        assert_eq!(b.function_named("b").unwrap().addr, 0x1080);
        // The first and the last symbol; nothing below the first.
        assert_eq!(b.function_starting_at(0x1000).unwrap().name, "a");
        assert!(b.function_starting_at(0x0FFF).is_none());
        assert!(b.function_starting_at(0).is_none());
        assert!(b.function_at(0x0FFF).is_none());
        // An object symbol listed first at a function's address: the
        // function is returned.
        let mut b = bin();
        b.add_symbol(Symbol::object("obj_a", 0x1000, 8));
        b.add_symbol(Symbol::object("obj_last", 0x10C0, 8));
        assert_eq!(b.function_starting_at(0x1000).unwrap().name, "a");
        assert_eq!(b.function_at(0x1000).unwrap().name, "a");
        assert!(b.function_starting_at(0x10C0).is_none());
        assert_eq!(b.function_at(0x10C0).unwrap().name, "b");
        // Two function symbols at one address: the first one listed
        // (`add_symbol` puts a symbol before those already at its address).
        b.add_symbol(Symbol::func("b_alias", 0x1080, 0x80, Language::C));
        assert_eq!(b.function_starting_at(0x1080).unwrap().name, "b_alias");
    }

    #[test]
    fn read_write_u64() {
        let mut b = bin();
        b.write_u64(0x2000, 0xDEAD_BEEF).unwrap();
        assert_eq!(b.read_u64(0x2000).unwrap(), 0xDEAD_BEEF);
        assert!(b.read_u64(0x3000).is_err());
        // Cross-section reads are rejected.
        assert!(b.read(0x10FC, 8).is_err());
    }

    #[test]
    fn loaded_size_counts_alloc_only() {
        let mut b = bin();
        assert_eq!(b.loaded_size(), 0x180);
        b.add_section(Section::new(
            ".debug",
            0x9000,
            vec![0; 0x1000],
            SectionFlags::unloaded(),
            SectionKind::ReadOnlyData,
        ));
        assert_eq!(b.loaded_size(), 0x180);
    }

    #[test]
    fn overlap_detection() {
        let mut b = bin();
        assert!(b.validate_layout().is_ok());
        b.add_section(Section::new(
            ".bad",
            0x1080,
            vec![0; 0x10],
            SectionFlags::ro(),
            SectionKind::Data,
        ));
        assert!(matches!(
            b.validate_layout(),
            Err(ObjError::OverlappingSections { .. })
        ));
    }

    #[test]
    fn relocation_slots_must_lie_inside_one_section() {
        use crate::reloc::Relocation;
        let mut b = bin();
        // First and last whole slot of `.rodata`, one in `.text`, and
        // a link-time record (never applied) on the last byte of
        // `.text`.
        b.relocations = vec![
            Relocation::relative(0x2000, 0x1000),
            Relocation::relative(0x2078, 0x1000),
            Relocation::relative(0x1010, 0x1000),
            Relocation::link_time(0x10ff, 0x1000),
        ];
        assert!(b.validate_layout().is_ok());
        // Past the end, straddling the end, in the gap between the
        // sections, and at the very top of the address space.
        for at in [0x2080, 0x207c, 0x1100, 0x0ff8, u64::MAX - 3, 0xdead_0000] {
            let mut bad = b.clone();
            bad.relocations.push(Relocation::relative(at, 0x1000));
            assert_eq!(
                bad.validate_layout(),
                Err(ObjError::RelocationOutsideSections { at }),
                "{at:#x}"
            );
        }
        // A slot in a section the loader does not map.
        b.add_section(Section::new(
            ".comment",
            0x3000,
            vec![0; 0x10],
            SectionFlags::unloaded(),
            SectionKind::ReadOnlyData,
        ));
        b.relocations.push(Relocation::relative(0x3000, 0x1000));
        assert!(b.validate_layout().is_err());
    }

    #[test]
    fn function_symbols_must_lie_inside_code() {
        let mut b = bin();
        assert!(b.validate_symbols().is_ok());
        // Data objects are not held to it.
        let data = Symbol::func("d", 0x2000, 0x1000, Language::C);
        b.add_symbol(Symbol { kind: SymbolKind::Object, ..data });
        assert!(b.validate_symbols().is_ok());
        // Past the end of `.text`, wrapping the address space, in
        // `.rodata`, and in no section at all.
        for (addr, size) in [(0x1080, 0x81), (0x1000, u64::MAX), (0x2000, 0x10), (0x5000, 0)] {
            let mut bad = b.clone();
            bad.add_symbol(Symbol::func("f", addr, size, Language::C));
            assert_eq!(
                bad.validate_symbols(),
                Err(ObjError::SymbolOutsideCode { name: "f".into(), addr, size }),
                "{addr:#x}+{size:#x}"
            );
        }
    }

    #[test]
    fn metadata_feature_queries() {
        let mut m = Metadata::default();
        assert!(!m.has_exceptions());
        m.languages.insert(Language::Rust);
        assert!(m.has_exceptions());
        m.languages.insert(Language::Go);
        assert!(m.has_go_runtime());
    }
}
