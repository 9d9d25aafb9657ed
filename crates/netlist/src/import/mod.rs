//! Netlist import front-end: structural Verilog and EDIF 2.0.0.
//!
//! The importer is the inverse of [`crate::to_verilog`] / [`crate::to_edif`]
//! and the gateway for running the aging→approximation flow on third-party
//! designs. It is built as three layers:
//!
//! 1. **Parsers** — a hand-rolled lexer/recursive-descent parser for the
//!    structural Verilog subset the exporter emits (plus bus declarations,
//!    escaped identifiers and positional connections for hand-written
//!    sources), and an s-expression parser for EDIF 2.0.0 netlist views.
//!    Both produce the same language-neutral `Design` AST and report
//!    failures as [`ImportError`] values carrying a line:column [`Loc`].
//! 2. **Cell mapping** — instantiated cell names resolve onto `aix-cells`
//!    primitives through a [`CellAliases`] table: exact library names
//!    first (`NAND2_X1`), then normalized spellings (`nand2_x1`,
//!    `NAND2X1`) and bare function stems (`NAND2` → the X1 drive), plus
//!    caller-registered aliases. `TIE0`/`TIE1`/`GND`/`VDD`-style constant
//!    cells become constant nets.
//! 3. **Netlist construction** — nets and gates are allocated in a
//!    deterministic order (port bits, then instance outputs in file
//!    order, then constants) with every source name preserved, so
//!    re-exporting an imported netlist reproduces the file byte for byte
//!    (the round-trip fixpoint the differential suite pins).
//!
//! Structural defects — unknown cells, width mismatches, undriven or
//! multiply-driven nets, combinational loops — surface as dedicated
//! [`ImportError`] variants naming the offending construct, never as
//! panics.

mod edif;
mod lex;
mod map;
mod verilog;

use crate::Netlist;
use aix_cells::{CellId, Library};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A 1-based line:column source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column, in characters.
    pub col: u32,
}

impl Loc {
    pub(crate) fn new(line: u32, col: u32) -> Self {
        Self { line, col }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Why an import failed. Every parse-level variant carries the source
/// position; [`ImportError::loc`] exposes it uniformly so drivers can
/// render `file:line:col` diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The source text does not match the grammar.
    Syntax {
        /// Where the parse failed.
        loc: Loc,
        /// What the parser expected or found.
        message: String,
    },
    /// A construct the importer recognizes but does not support.
    Unsupported {
        /// Where the construct appears.
        loc: Loc,
        /// The unsupported construct.
        construct: String,
    },
    /// S-expression nesting exceeded the recursion cap.
    DepthExceeded {
        /// Where the limit was exceeded.
        loc: Loc,
        /// The nesting limit.
        limit: usize,
    },
    /// An instantiated cell name resolved to nothing in the library or
    /// alias table.
    UnknownCell {
        /// Where the instance appears.
        loc: Loc,
        /// The instance name.
        instance: String,
        /// The unresolved cell name.
        cell: String,
    },
    /// A connection names a pin the cell does not have.
    UnknownPin {
        /// Where the connection appears.
        loc: Loc,
        /// The instance name.
        instance: String,
        /// The resolved cell name.
        cell: String,
        /// The unknown pin.
        pin: String,
    },
    /// An instance connects the wrong number of pins.
    PinCount {
        /// Where the instance appears.
        loc: Loc,
        /// The instance name.
        instance: String,
        /// The resolved cell name.
        cell: String,
        /// How many connections the cell needs.
        expected: usize,
        /// How many the instance provided.
        provided: usize,
    },
    /// A whole bus was used where a 1-bit net is required.
    WidthMismatch {
        /// Where the reference appears.
        loc: Loc,
        /// The bus name.
        name: String,
        /// Its declared width.
        width: usize,
    },
    /// A bit-select indexed past the declared width.
    BitOutOfRange {
        /// Where the reference appears.
        loc: Loc,
        /// The net name.
        name: String,
        /// Its declared width (1 for scalars).
        width: usize,
        /// The out-of-range index.
        index: u32,
    },
    /// A name was referenced but never declared.
    UndeclaredNet {
        /// Where the reference appears.
        loc: Loc,
        /// The undeclared name.
        name: String,
    },
    /// A name was declared (or a pin connected) twice.
    DuplicateName {
        /// Where the second declaration appears.
        loc: Loc,
        /// The duplicated name.
        name: String,
    },
    /// A net is read but nothing drives it.
    UndrivenNet {
        /// The driverless net.
        name: String,
    },
    /// A net has more than one driver.
    MultipleDrivers {
        /// Where the second driver connects.
        loc: Loc,
        /// The multiply-driven net.
        name: String,
    },
    /// The design's gate graph is cyclic.
    CombinationalLoop {
        /// An instance on the cycle.
        instance: String,
    },
    /// A structural defect with no better category (e.g. no outputs).
    Structure {
        /// Human-readable description.
        message: String,
    },
}

impl ImportError {
    /// The source position, when the error is anchored to one.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Self::Syntax { loc, .. }
            | Self::Unsupported { loc, .. }
            | Self::DepthExceeded { loc, .. }
            | Self::UnknownCell { loc, .. }
            | Self::UnknownPin { loc, .. }
            | Self::PinCount { loc, .. }
            | Self::WidthMismatch { loc, .. }
            | Self::BitOutOfRange { loc, .. }
            | Self::UndeclaredNet { loc, .. }
            | Self::DuplicateName { loc, .. }
            | Self::MultipleDrivers { loc, .. } => Some(*loc),
            Self::UndrivenNet { .. } | Self::CombinationalLoop { .. } | Self::Structure { .. } => {
                None
            }
        }
    }
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(loc) = self.loc() {
            write!(f, "{loc}: ")?;
        }
        match self {
            Self::Syntax { message, .. } => write!(f, "{message}"),
            Self::Unsupported { construct, .. } => {
                write!(f, "unsupported construct: {construct}")
            }
            Self::DepthExceeded { limit, .. } => {
                write!(f, "s-expression nesting exceeds depth limit {limit}")
            }
            Self::UnknownCell { instance, cell, .. } => write!(
                f,
                "unknown cell `{cell}` instantiated by `{instance}` \
                 (not in the library or alias table)"
            ),
            Self::UnknownPin {
                instance,
                cell,
                pin,
                ..
            } => write!(f, "unknown pin `.{pin}` on instance `{instance}` ({cell})"),
            Self::PinCount {
                instance,
                cell,
                expected,
                provided,
                ..
            } => write!(
                f,
                "instance `{instance}` ({cell}) connects {provided} pins, expected {expected}"
            ),
            Self::WidthMismatch { name, width, .. } => write!(
                f,
                "bus `{name}` has width {width} where a 1-bit net is required"
            ),
            Self::BitOutOfRange {
                name, width, index, ..
            } => write!(
                f,
                "bit-select `{name}[{index}]` out of range for width-{width} net"
            ),
            Self::UndeclaredNet { name, .. } => write!(f, "undeclared net `{name}`"),
            Self::DuplicateName { name, .. } => {
                write!(f, "duplicate declaration of `{name}`")
            }
            Self::UndrivenNet { name } => write!(f, "net `{name}` has no driver"),
            Self::MultipleDrivers { name, .. } => {
                write!(f, "net `{name}` has more than one driver")
            }
            Self::CombinationalLoop { instance } => {
                write!(f, "combinational loop through instance `{instance}`")
            }
            Self::Structure { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Maps instantiated cell names onto library cells.
///
/// Resolution order: exact library name, then the normalized spelling
/// (case-insensitive, punctuation-stripped, so `nand2_x1` and `NAND2X1`
/// both find `NAND2_X1`), then bare function stems (`NAND2` resolves to
/// the X1 drive). Callers extend the table with [`alias`](Self::alias)
/// for vendor-specific names.
#[derive(Debug, Clone)]
pub struct CellAliases {
    exact: HashMap<String, CellId>,
    normalized: HashMap<String, CellId>,
}

/// Uppercases and strips everything non-alphanumeric.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_uppercase())
        .collect()
}

impl CellAliases {
    /// The default table for `library`: exact names, normalized
    /// spellings, and bare function stems mapped to the X1 drive.
    pub fn for_library(library: &Library) -> Self {
        let mut exact = HashMap::new();
        let mut normalized = HashMap::new();
        for (id, cell) in library.iter() {
            exact.insert(cell.name.clone(), id);
            normalized.entry(normalize(&cell.name)).or_insert(id);
        }
        for (id, cell) in library.iter() {
            // Bare stems prefer the X1 drive: `find` makes that explicit.
            let stem = cell.function.stem();
            if let Some(x1) = library.find(cell.function, aix_cells::DriveStrength::X1) {
                normalized.entry(normalize(stem)).or_insert(x1);
            } else {
                normalized.entry(normalize(stem)).or_insert(id);
            }
        }
        Self { exact, normalized }
    }

    /// Registers `name` as an alias for the library cell `target` (an
    /// exact library name). Returns `false` when `target` is unknown.
    pub fn alias(&mut self, name: &str, target: &str) -> bool {
        match self.exact.get(target) {
            Some(&id) => {
                self.normalized.insert(normalize(name), id);
                true
            }
            None => false,
        }
    }

    /// Resolves a cell name; the flag is `true` when resolution went
    /// through the alias table rather than an exact name match.
    pub fn resolve(&self, name: &str) -> Option<(CellId, bool)> {
        if let Some(&id) = self.exact.get(name) {
            return Some((id, false));
        }
        self.normalized.get(&normalize(name)).map(|&id| (id, true))
    }

    /// Whether `name` is a constant-driver cell (`TIE0`, `GND`, …), and
    /// which value it ties.
    pub fn constant_cell(name: &str) -> Option<bool> {
        match normalize(name).as_str() {
            "TIE0" | "GND" | "VSS" | "LOGIC0" | "TIELO" => Some(false),
            "TIE1" | "VDD" | "VCC" | "LOGIC1" | "TIEHI" | "POWER" => Some(true),
            _ => None,
        }
    }
}

/// The source formats the importer understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportFormat {
    /// Structural (gate-level) Verilog.
    Verilog,
    /// EDIF 2.0.0 netlist views.
    Edif,
}

impl ImportFormat {
    /// Guesses the format from a file extension: `.v`/`.sv` are Verilog,
    /// `.edif`/`.edf`/`.edn` are EDIF.
    pub fn from_path(path: &Path) -> Option<Self> {
        match path
            .extension()
            .and_then(|e| e.to_str())?
            .to_ascii_lowercase()
            .as_str()
        {
            "v" | "sv" | "vg" => Some(Self::Verilog),
            "edif" | "edf" | "edn" => Some(Self::Edif),
            _ => None,
        }
    }

    /// Guesses the format from content: EDIF files open with `(`.
    pub fn detect(source: &str) -> Self {
        match source.trim_start().chars().next() {
            Some('(') => Self::Edif,
            _ => Self::Verilog,
        }
    }

    /// Human-readable format name.
    pub fn label(self) -> &'static str {
        match self {
            Self::Verilog => "verilog",
            Self::Edif => "edif",
        }
    }
}

// ---------------------------------------------------------------------
// The language-neutral structural AST both parsers lower to.
// ---------------------------------------------------------------------

/// A reference to one bit of the design's net namespace.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NetRef {
    /// A scalar net (or whole width-1 bus) by name.
    Name(String),
    /// One bit of a declared bus.
    Bit(String, u32),
    /// A constant literal.
    Const(bool),
}

/// A declared port, scalar (`width: None`) or bus.
#[derive(Debug, Clone)]
pub(crate) struct PortDecl {
    pub name: String,
    pub dir: crate::PortDirection,
    pub width: Option<usize>,
    pub loc: Loc,
}

/// A declared internal wire.
#[derive(Debug, Clone)]
pub(crate) struct WireDecl {
    pub name: String,
    pub width: Option<usize>,
    pub loc: Loc,
}

/// One pin connection on an instance; `pin: None` means positional.
#[derive(Debug, Clone)]
pub(crate) struct Conn {
    pub pin: Option<String>,
    pub target: Option<NetRef>,
    pub loc: Loc,
}

/// One cell instance.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    pub name: String,
    pub cell: String,
    pub conns: Vec<Conn>,
    pub loc: Loc,
}

/// A continuous assignment (`assign target = source;`).
#[derive(Debug, Clone)]
pub(crate) struct Assign {
    pub target: NetRef,
    pub source: NetRef,
    pub loc: Loc,
}

/// A parsed structural design, language-neutral.
#[derive(Debug, Clone)]
pub(crate) struct Design {
    pub name: String,
    pub ports: Vec<PortDecl>,
    pub wires: Vec<WireDecl>,
    pub instances: Vec<Instance>,
    pub assigns: Vec<Assign>,
}

// ---------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------

/// Imports a structural Verilog module using the default alias table.
///
/// # Errors
///
/// Returns an [`ImportError`] naming the defect and (for parse and
/// mapping errors) its line:column position.
pub fn import_verilog(source: &str, library: &Arc<Library>) -> Result<Netlist, ImportError> {
    import_verilog_with(source, library, &CellAliases::for_library(library))
}

/// Imports a structural Verilog module with a caller-extended alias table.
///
/// # Errors
///
/// Returns an [`ImportError`] naming the defect and its position.
pub fn import_verilog_with(
    source: &str,
    library: &Arc<Library>,
    aliases: &CellAliases,
) -> Result<Netlist, ImportError> {
    import_design(source, ImportFormat::Verilog, library, aliases)
}

/// Imports an EDIF 2.0.0 netlist using the default alias table.
///
/// # Errors
///
/// Returns an [`ImportError`] naming the defect and its position.
pub fn import_edif(source: &str, library: &Arc<Library>) -> Result<Netlist, ImportError> {
    import_edif_with(source, library, &CellAliases::for_library(library))
}

/// Imports an EDIF 2.0.0 netlist with a caller-extended alias table.
///
/// # Errors
///
/// Returns an [`ImportError`] naming the defect and its position.
pub fn import_edif_with(
    source: &str,
    library: &Arc<Library>,
    aliases: &CellAliases,
) -> Result<Netlist, ImportError> {
    import_design(source, ImportFormat::Edif, library, aliases)
}

/// Imports `source` in the given format using the default alias table.
///
/// # Errors
///
/// Returns an [`ImportError`] naming the defect and its position.
pub fn import_netlist(
    source: &str,
    format: ImportFormat,
    library: &Arc<Library>,
) -> Result<Netlist, ImportError> {
    import_design(source, format, library, &CellAliases::for_library(library))
}

fn import_design(
    source: &str,
    format: ImportFormat,
    library: &Arc<Library>,
    aliases: &CellAliases,
) -> Result<Netlist, ImportError> {
    let _span = aix_obs::span!(
        aix_obs::names::import::SPAN_IMPORT,
        format = format.label(),
        bytes = source.len(),
    );
    let parsed = {
        let _parse = aix_obs::span!(aix_obs::names::import::SPAN_PARSE, format = format.label());
        match format {
            ImportFormat::Verilog => verilog::parse(source),
            ImportFormat::Edif => edif::parse(source),
        }
    };
    let result = parsed.and_then(|design| map::build(&design, library, aliases));
    if result.is_err() {
        aix_obs::count!(aix_obs::names::import::FAILED, format = format.label());
    }
    result
}
