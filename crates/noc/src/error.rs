//! Error types for the NoC substrate.

use crate::ids::{PortId, VcId};
use std::error::Error;
use std::fmt;

/// Errors raised by the NoC substrate primitives.
///
/// The substrate is used inside a cycle-accurate inner loop, so errors are
/// lightweight enums rather than boxed trait objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocError {
    /// A flit was pushed into a virtual-channel buffer that is already full.
    BufferFull {
        /// Port holding the buffer.
        port: PortId,
        /// Virtual channel within the port.
        vc: VcId,
        /// Configured capacity of the buffer, in flits.
        capacity: usize,
    },
    /// A port index was out of range for the router it was used with.
    InvalidPort {
        /// The offending port index.
        port: PortId,
        /// Number of ports on the router.
        num_ports: usize,
    },
    /// A virtual-channel index was out of range for the port it was used with.
    InvalidVc {
        /// The offending virtual-channel index.
        vc: VcId,
        /// Number of virtual channels per port.
        num_vcs: usize,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::BufferFull { port, vc, capacity } => write!(
                f,
                "virtual channel buffer full (port {port}, vc {vc}, capacity {capacity} flits)"
            ),
            NocError::InvalidPort { port, num_ports } => {
                write!(f, "invalid port {port} (router has {num_ports} ports)")
            }
            NocError::InvalidVc { vc, num_vcs } => {
                write!(f, "invalid virtual channel {vc} (port has {num_vcs} VCs)")
            }
        }
    }
}

impl Error for NocError {}

/// Convenience result alias used across the crate.
pub(crate) type NocResult<T> = Result<T, NocError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = NocError::BufferFull {
            port: PortId(1),
            vc: VcId(2),
            capacity: 64,
        };
        let msg = e.to_string();
        assert!(msg.contains("port 1"));
        assert!(msg.contains("vc 2"));
        assert!(msg.contains("64"));

        let e = NocError::InvalidPort {
            port: PortId(9),
            num_ports: 5,
        };
        assert!(e.to_string().contains("9"));

        let e = NocError::InvalidVc {
            vc: VcId(7),
            num_vcs: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("virtual channel 7"));
        assert!(msg.contains("4 VCs"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error>(_e: &E) {}
        let e = NocError::InvalidPort {
            port: PortId(0),
            num_ports: 0,
        };
        assert_err(&e);
    }
}
