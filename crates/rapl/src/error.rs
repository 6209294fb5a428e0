//! Error type of the simulated RAPL device.

use std::fmt;

/// Errors produced while reading the simulated RAPL registers.
#[derive(Debug)]
pub enum RaplError {
    /// The requested MSR address is not part of the RAPL register map.
    UnknownRegister(u32),
    /// The requested domain is not supported by this device
    /// (e.g. PSys on pre-Skylake parts, PP1 on servers).
    UnsupportedDomain(crate::Domain),
}

impl fmt::Display for RaplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaplError::UnknownRegister(addr) => {
                write!(f, "unknown RAPL MSR address {addr:#x}")
            }
            RaplError::UnsupportedDomain(d) => {
                write!(f, "RAPL domain {d:?} not supported by this device")
            }
        }
    }
}

impl std::error::Error for RaplError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let variants: Vec<RaplError> = vec![
            RaplError::UnknownRegister(0x611),
            RaplError::UnsupportedDomain(crate::Domain::Psys),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
