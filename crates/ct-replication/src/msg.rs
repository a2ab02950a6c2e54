//! Protocol messages shared by all replication styles.

/// Identifier of a client request (a SCADA poll or command).
pub(crate) type ReqId = u64;

/// A digest standing in for the request contents. Correct nodes
/// compute it deterministically from the request id; a Byzantine node
/// fabricating state produces a digest that fails this check.
pub type Digest = u64;

/// The digest a correct node computes for a request.
pub(crate) fn correct_digest(req: ReqId) -> Digest {
    req.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7)
}

/// A fabricated request id a Byzantine leader uses to equivocate:
/// competing with the real request for the same sequence slot.
pub(crate) fn fake_request(req: ReqId) -> ReqId {
    req ^ 0x5A5A_5A5A
}

/// Messages exchanged by masters, replicas and clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// Client poll/command.
    Request {
        /// Request id.
        id: ReqId,
    },
    /// Server response to a request.
    Reply {
        /// Request id being answered.
        id: ReqId,
        /// Digest of the (claimed) result.
        digest: Digest,
    },
    /// Leader orders `req` at `(view, seq)`.
    Propose {
        /// Protocol view.
        view: u64,
        /// Sequence slot.
        seq: u64,
        /// Request ordered in the slot.
        req: ReqId,
        /// Digest of the request.
        digest: Digest,
    },
    /// Replica vote for a proposal.
    Accept {
        /// Protocol view.
        view: u64,
        /// Sequence slot.
        seq: u64,
        /// Request voted for.
        req: ReqId,
        /// Digest voted for.
        digest: Digest,
    },
    /// Vote to move to `view`.
    ViewChange {
        /// The proposed new view.
        view: u64,
    },
    /// Liveness beacon from an active site to its cold backups (and
    /// between masters).
    Heartbeat,
}

impl ct_simnet::StateHash for ProtocolMsg {
    fn state_hash(&self, h: &mut ct_store::StableHasher) {
        match *self {
            ProtocolMsg::Request { id } => {
                h.write_u8(0);
                h.write_u64(id);
            }
            ProtocolMsg::Reply { id, digest } => {
                h.write_u8(1);
                h.write_u64(id);
                h.write_u64(digest);
            }
            ProtocolMsg::Propose {
                view,
                seq,
                req,
                digest,
            } => {
                h.write_u8(2);
                h.write_u64(view);
                h.write_u64(seq);
                h.write_u64(req);
                h.write_u64(digest);
            }
            ProtocolMsg::Accept {
                view,
                seq,
                req,
                digest,
            } => {
                h.write_u8(3);
                h.write_u64(view);
                h.write_u64(seq);
                h.write_u64(req);
                h.write_u64(digest);
            }
            ProtocolMsg::ViewChange { view } => {
                h.write_u8(4);
                h.write_u64(view);
            }
            ProtocolMsg::Heartbeat => h.write_u8(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_request_sensitive() {
        assert_eq!(correct_digest(5), correct_digest(5));
        assert_ne!(correct_digest(5), correct_digest(6));
    }

    #[test]
    fn fake_request_differs_and_is_involutive() {
        assert_ne!(fake_request(9), 9);
        assert_eq!(fake_request(fake_request(9)), 9);
    }

    #[test]
    fn fake_request_digest_differs() {
        assert_ne!(correct_digest(fake_request(3)), correct_digest(3));
    }
}
