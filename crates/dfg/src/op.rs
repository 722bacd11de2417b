//! Operation kinds carried by DFG nodes.
//!
//! The DAC'14 flow partitions operations into *IP-core types*: every
//! operation must execute on an IP core whose type matches. The paper's
//! experiments use three types — multipliers, adders and "other operators" —
//! so [`OpKind`] maps onto a coarser [`IpTypeId`] via [`OpKind::ip_type`].

use std::fmt;
use std::str::FromStr;

/// The concrete arithmetic performed by a DFG node.
///
/// `Add`/`Sub` run on adder cores, `Mul` on multiplier cores, and the
/// remaining kinds on the paper's third "other operators" core type.
///
/// # Examples
///
/// ```
/// use troy_dfg::{IpTypeId, OpKind};
///
/// assert_eq!(OpKind::Add.ip_type(), IpTypeId::ADDER);
/// assert_eq!(OpKind::Sub.ip_type(), IpTypeId::ADDER);
/// assert_eq!(OpKind::Mul.ip_type(), IpTypeId::MULTIPLIER);
/// assert_eq!(OpKind::Less.ip_type(), IpTypeId::OTHER);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction (runs on an adder core).
    Sub,
    /// Multiplication.
    Mul,
    /// Signed `<` comparison producing 0/1.
    Less,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift by the second operand (mod word width).
    Shl,
    /// Logical right shift by the second operand (mod word width).
    Shr,
}

/// Identifier of an IP-core *type* (the paper's `t` index into `τ`).
///
/// Two operations of the same `IpTypeId` compete for the same pool of IP
/// cores; an operation can only be bound to a core of its own type.
///
/// # Examples
///
/// ```
/// use troy_dfg::IpTypeId;
///
/// let t = IpTypeId::MULTIPLIER;
/// assert_eq!(t.index(), 1);
/// assert_eq!(IpTypeId::new(1), t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpTypeId(u8);

impl IpTypeId {
    /// Adder cores (`Add`, `Sub`).
    pub const ADDER: IpTypeId = IpTypeId(0);
    /// Multiplier cores (`Mul`).
    pub const MULTIPLIER: IpTypeId = IpTypeId(1);
    /// The paper's catch-all "other operators" core type.
    pub const OTHER: IpTypeId = IpTypeId(2);

    /// Number of distinct built-in core types (the paper's `|τ|` = 3).
    pub const COUNT: usize = 3;

    /// Creates a type id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= IpTypeId::COUNT`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(index < Self::COUNT, "IP type index {index} out of range");
        IpTypeId(index as u8)
    }

    /// Raw index of this type (0 = adder, 1 = multiplier, 2 = other).
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Iterator over all built-in core types.
    pub fn all() -> impl Iterator<Item = IpTypeId> {
        (0..Self::COUNT).map(IpTypeId::new)
    }

    /// Human-readable name used in reports ("adder", "multiplier", "other").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self.0 {
            0 => "adder",
            1 => "multiplier",
            _ => "other",
        }
    }
}

impl fmt::Display for IpTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl OpKind {
    /// The IP-core type this operation must be bound to.
    #[must_use]
    pub fn ip_type(self) -> IpTypeId {
        match self {
            OpKind::Add | OpKind::Sub => IpTypeId::ADDER,
            OpKind::Mul => IpTypeId::MULTIPLIER,
            OpKind::Less | OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Shl | OpKind::Shr => {
                IpTypeId::OTHER
            }
        }
    }

    /// Short mnemonic used by the textual DFG format and DOT labels.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Less => "lt",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
        }
    }

    /// Infix symbol used for pretty-printing expressions.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Less => "<",
            OpKind::And => "&",
            OpKind::Or => "|",
            OpKind::Xor => "^",
            OpKind::Shl => "<<",
            OpKind::Shr => ">>",
        }
    }

    /// All operation kinds, in a stable order.
    pub fn all() -> impl Iterator<Item = OpKind> {
        [
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Less,
            OpKind::And,
            OpKind::Or,
            OpKind::Xor,
            OpKind::Shl,
            OpKind::Shr,
        ]
        .into_iter()
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when parsing an [`OpKind`] mnemonic fails.
///
/// # Examples
///
/// ```
/// use troy_dfg::OpKind;
///
/// let err = "frobnicate".parse::<OpKind>().unwrap_err();
/// assert!(err.to_string().contains("frobnicate"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpKindError {
    token: String,
}

impl fmt::Display for ParseOpKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operation mnemonic `{}`", self.token)
    }
}

impl std::error::Error for ParseOpKindError {}

impl FromStr for OpKind {
    type Err = ParseOpKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Accept both the mnemonic and the infix symbol so hand-written DFG
        // files can use whichever reads better.
        OpKind::all()
            .find(|k| k.mnemonic() == s || k.symbol() == s)
            .ok_or_else(|| ParseOpKindError {
                token: s.to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_mnemonic() {
        for kind in OpKind::all() {
            let parsed: OpKind = kind.mnemonic().parse().expect("mnemonic parses");
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn every_kind_round_trips_through_symbol() {
        for kind in OpKind::all() {
            let parsed: OpKind = kind.symbol().parse().expect("symbol parses");
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn unknown_mnemonic_is_an_error() {
        assert!("nope".parse::<OpKind>().is_err());
    }

    #[test]
    fn ip_type_partitions_ops_into_three_groups() {
        let mut counts = [0usize; IpTypeId::COUNT];
        for kind in OpKind::all() {
            counts[kind.ip_type().index()] += 1;
        }
        assert_eq!(counts[IpTypeId::ADDER.index()], 2);
        assert_eq!(counts[IpTypeId::MULTIPLIER.index()], 1);
        assert_eq!(counts[IpTypeId::OTHER.index()], 6);
    }

    #[test]
    fn ip_type_names_are_distinct() {
        let names: Vec<&str> = IpTypeId::all().map(IpTypeId::name).collect();
        assert_eq!(names, vec!["adder", "multiplier", "other"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ip_type_index_out_of_range_panics() {
        let _ = IpTypeId::new(3);
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(OpKind::Mul.to_string(), "mul");
        assert_eq!(IpTypeId::ADDER.to_string(), "adder");
    }
}
