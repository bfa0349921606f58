//! Hypervisor error codes.
//!
//! Jailhouse returns negative errno-style values from hypercalls; the
//! root-cell driver renders them as messages like *"invalid
//! arguments"* — the exact string the paper's E1 experiment observes.

use std::fmt;

/// An error returned by a hypercall or internal hypervisor operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HvError {
    /// `-EPERM`: operation not permitted (e.g. management call from a
    /// non-root cell, or the hypervisor is not enabled).
    NotPermitted,
    /// `-ENOENT`: no cell with the requested id exists.
    NoSuchCell,
    /// `-ENOMEM`: a requested region does not fit available memory.
    OutOfMemory,
    /// `-EBUSY`: the target cell or resource is in use.
    Busy,
    /// `-EEXIST`: a cell with this id/name already exists.
    AlreadyExists,
    /// `-EINVAL`: malformed hypercall arguments or configuration — the
    /// "invalid arguments" of the paper.
    InvalidArguments,
    /// `-ENOSYS`: unknown hypercall code.
    UnknownHypercall,
}

impl HvError {
    /// The negative errno-style return value placed in `r0`.
    pub fn code(self) -> i64 {
        match self {
            HvError::NotPermitted => -1,
            HvError::NoSuchCell => -2,
            HvError::OutOfMemory => -12,
            HvError::Busy => -16,
            HvError::AlreadyExists => -17,
            HvError::InvalidArguments => -22,
            HvError::UnknownHypercall => -38,
        }
    }

    /// Decodes an errno-style value back to an error, if it matches.
    pub fn from_code(code: i64) -> Option<HvError> {
        match code {
            -1 => Some(HvError::NotPermitted),
            -2 => Some(HvError::NoSuchCell),
            -12 => Some(HvError::OutOfMemory),
            -16 => Some(HvError::Busy),
            -17 => Some(HvError::AlreadyExists),
            -22 => Some(HvError::InvalidArguments),
            -38 => Some(HvError::UnknownHypercall),
            _ => None,
        }
    }
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            HvError::NotPermitted => "operation not permitted",
            HvError::NoSuchCell => "no such cell",
            HvError::OutOfMemory => "out of memory",
            HvError::Busy => "resource busy",
            HvError::AlreadyExists => "cell already exists",
            HvError::InvalidArguments => "invalid arguments",
            HvError::UnknownHypercall => "unknown hypercall",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HvError {}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [HvError; 7] = [
        HvError::NotPermitted,
        HvError::NoSuchCell,
        HvError::OutOfMemory,
        HvError::Busy,
        HvError::AlreadyExists,
        HvError::InvalidArguments,
        HvError::UnknownHypercall,
    ];

    #[test]
    fn codes_are_negative_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for e in ALL {
            assert!(e.code() < 0);
            assert!(seen.insert(e.code()), "duplicate code for {e:?}");
        }
    }

    #[test]
    fn codes_round_trip() {
        for e in ALL {
            assert_eq!(HvError::from_code(e.code()), Some(e));
        }
        assert_eq!(HvError::from_code(0), None);
        assert_eq!(HvError::from_code(-99), None);
    }

    #[test]
    fn einval_displays_the_papers_message() {
        assert_eq!(HvError::InvalidArguments.to_string(), "invalid arguments");
    }
}
