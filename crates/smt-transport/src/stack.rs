//! The transport stacks compared in the paper's evaluation.

use serde::{Deserialize, Serialize};

/// One of the stacks evaluated in §5 (legend labels of Figs. 6–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StackKind {
    /// Plain TCP (no encryption).
    Tcp,
    /// TLS 1.3 over TCP with kernel TLS, software crypto ("kTLS-sw").
    KtlsSw,
    /// TLS 1.3 over TCP with kernel TLS and NIC transmit crypto offload
    /// ("kTLS-hw").
    KtlsHw,
    /// Plain Homa (message-based, no encryption).
    Homa,
    /// SMT with software crypto ("SMT-sw").
    SmtSw,
    /// SMT with NIC transmit crypto offload ("SMT-hw").
    SmtHw,
    /// TCPLS (TLS 1.3 extended with stream multiplexing over TCP, §5.5); cannot
    /// use NIC crypto offload.
    Tcpls,
    /// User-space TLS over TCP (the stock Redis TLS configuration in Fig. 8).
    UserTls,
}

impl StackKind {
    /// Every evaluated stack, stream-based first then message-based — the
    /// full matrix the endpoint conformance tests iterate.
    pub const fn all() -> [StackKind; 8] {
        [
            StackKind::Tcp,
            StackKind::UserTls,
            StackKind::KtlsSw,
            StackKind::KtlsHw,
            StackKind::Tcpls,
            StackKind::Homa,
            StackKind::SmtSw,
            StackKind::SmtHw,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            StackKind::Tcp => "TCP",
            StackKind::KtlsSw => "kTLS-sw",
            StackKind::KtlsHw => "kTLS-hw",
            StackKind::Homa => "Homa",
            StackKind::SmtSw => "SMT-sw",
            StackKind::SmtHw => "SMT-hw",
            StackKind::Tcpls => "TCPLS",
            StackKind::UserTls => "TLS",
        }
    }

    /// True for stacks built on the message-based (Homa-derived) transport.
    pub fn is_message_based(self) -> bool {
        matches!(self, StackKind::Homa | StackKind::SmtSw | StackKind::SmtHw)
    }

    /// True for stacks that encrypt application data.
    pub fn is_encrypted(self) -> bool {
        !matches!(self, StackKind::Tcp | StackKind::Homa)
    }

    /// True for stacks whose transmit-side crypto is offloaded to the NIC.
    pub fn offloads_tx_crypto(self) -> bool {
        matches!(self, StackKind::KtlsHw | StackKind::SmtHw)
    }

    /// The stacks plotted in Fig. 6 / Fig. 7, in legend order.
    pub fn figure6_set() -> Vec<StackKind> {
        vec![
            StackKind::Tcp,
            StackKind::KtlsSw,
            StackKind::KtlsHw,
            StackKind::Homa,
            StackKind::SmtSw,
            StackKind::SmtHw,
        ]
    }

    /// The stacks plotted in Fig. 8 (Redis / YCSB), in legend order.
    pub fn figure8_set() -> Vec<StackKind> {
        vec![
            StackKind::Tcp,
            StackKind::UserTls,
            StackKind::KtlsSw,
            StackKind::KtlsHw,
            StackKind::Homa,
            StackKind::SmtSw,
            StackKind::SmtHw,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figures() {
        assert_eq!(StackKind::SmtHw.label(), "SMT-hw");
        assert_eq!(StackKind::KtlsSw.label(), "kTLS-sw");
        assert_eq!(StackKind::figure6_set().len(), 6);
        assert_eq!(StackKind::figure8_set().len(), 7);
    }

    #[test]
    fn classification() {
        assert!(StackKind::SmtSw.is_message_based());
        assert!(!StackKind::KtlsSw.is_message_based());
        assert!(StackKind::KtlsHw.is_encrypted());
        assert!(!StackKind::Homa.is_encrypted());
        assert!(StackKind::SmtHw.offloads_tx_crypto());
        assert!(!StackKind::Tcpls.offloads_tx_crypto());
    }
}
