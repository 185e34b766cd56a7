//! Protocol messages and signed receipts.
//!
//! The message space is split into two strata:
//!
//! - [`WireMsg`] — the actual client↔edge↔cloud *protocol*. Every
//!   variant is fully codable: [`WireMsg::encode_frame`] produces a
//!   length-framed envelope ([`wedge_log::frame`]: magic, version,
//!   type tag, guarded payload length) and
//!   [`WireMsg::decode_frame`] is its exact, hostile-input-hardened
//!   inverse. This is what crosses real sockets in `wedge-net`.
//! - [`Msg`] — the driver-level message type: the harness-control
//!   commands (`Start`, `DoPut`, …) that exist only *in-process* to
//!   poke a client engine, plus [`Msg::Wire`] wrapping the protocol.
//!   Control variants deliberately have **no** encoding — a workload
//!   script is not a protocol message, and the type split makes
//!   putting one on the wire unrepresentable.
//!
//! Every message is signed by its sender in the real protocol; in the
//! simulator the receipts that matter for disputes ([`AddReceipt`],
//! [`ReadReceipt`]) carry genuine Schnorr signatures, while bulk
//! entry signatures can be elided under
//! [`crate::config::CryptoMode::Modeled`] (their CPU cost is still
//! charged).

use wedge_crypto::{Digest, Identity, IdentityId, KeyRegistry, Signature};
use wedge_log::{
    decode_frame, Block, BlockId, BlockProof, DecodeError, Decoder, Encoder, Entry, GossipWatermark,
};
use wedge_lsmerkle::{
    DeltaMergeRequest, DeltaMergeResult, GlobalRootCert, IndexReadProof, Key, MergeRequest,
};

/// A signed edge statement: "entry set `entries_digest` from `client`
/// is committed in block `bid` with digest `block_digest`".
///
/// This is the client's Phase-I dispute evidence (Definition 1): if
/// the certified digest for `bid` ever differs from `block_digest`,
/// this receipt convicts the edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddReceipt {
    /// The promising edge node.
    pub edge: IdentityId,
    /// The client the promise was made to.
    pub client: IdentityId,
    /// Request id chosen by the client (echoed back).
    pub req_id: u64,
    /// Digest over the client's submitted entries.
    pub entries_digest: Digest,
    /// The block the entries were committed into.
    pub bid: BlockId,
    /// The sealed block's digest.
    pub block_digest: Digest,
    /// Edge signature over all of the above.
    pub signature: Signature,
}

impl AddReceipt {
    fn signing_bytes(
        edge: IdentityId,
        client: IdentityId,
        req_id: u64,
        entries_digest: &Digest,
        bid: BlockId,
        block_digest: &Digest,
    ) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-add-receipt-v1", 96);
        enc.put_u64(edge.0)
            .put_u64(client.0)
            .put_u64(req_id)
            .put_digest(entries_digest)
            .put_u64(bid.0)
            .put_digest(block_digest);
        enc.finish()
    }

    /// Signs a receipt as the edge.
    #[allow(clippy::too_many_arguments)]
    pub fn issue(
        edge: &Identity,
        client: IdentityId,
        req_id: u64,
        entries_digest: Digest,
        bid: BlockId,
        block_digest: Digest,
    ) -> Self {
        let signature = edge.sign(&Self::signing_bytes(
            edge.id,
            client,
            req_id,
            &entries_digest,
            bid,
            &block_digest,
        ));
        AddReceipt { edge: edge.id, client, req_id, entries_digest, bid, block_digest, signature }
    }

    /// Verifies the edge's signature.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            self.edge,
            &Self::signing_bytes(
                self.edge,
                self.client,
                self.req_id,
                &self.entries_digest,
                self.bid,
                &self.block_digest,
            ),
            &self.signature,
        )
    }

    /// Exact byte length of [`AddReceipt::encode_into`]'s output.
    pub const ENCODED_LEN: usize = 8 + 8 + 8 + 32 + 8 + 32 + 32;

    /// Canonical nestable wire encoding: the signed fields plus the
    /// signature.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.edge.0)
            .put_u64(self.client.0)
            .put_u64(self.req_id)
            .put_digest(&self.entries_digest)
            .put_u64(self.bid.0)
            .put_digest(&self.block_digest)
            .put_signature(&self.signature);
    }

    /// Inverse of [`AddReceipt::encode_into`]. The signature is *not*
    /// verified here — decoding and trusting are separate steps.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(AddReceipt {
            edge: IdentityId(dec.get_u64()?),
            client: IdentityId(dec.get_u64()?),
            req_id: dec.get_u64()?,
            entries_digest: dec.get_digest()?,
            bid: BlockId(dec.get_u64()?),
            block_digest: dec.get_digest()?,
            signature: dec.get_signature()?,
        })
    }
}

/// A signed edge statement about a log read: either "block `bid` has
/// digest `digest`" or "block `bid` is not available".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadReceipt {
    /// The responding edge.
    pub edge: IdentityId,
    /// The requesting client.
    pub client: IdentityId,
    /// The block id asked about.
    pub bid: BlockId,
    /// The digest served, or `None` for a "not available" answer.
    pub digest: Option<Digest>,
    /// Edge signature.
    pub signature: Signature,
}

impl ReadReceipt {
    fn signing_bytes(
        edge: IdentityId,
        client: IdentityId,
        bid: BlockId,
        digest: &Option<Digest>,
    ) -> Vec<u8> {
        let mut enc = Encoder::with_tag_and_capacity("wedge-read-receipt-v1", 57);
        enc.put_u64(edge.0).put_u64(client.0).put_u64(bid.0);
        match digest {
            Some(d) => {
                enc.put_u8(1);
                enc.put_digest(d);
            }
            None => {
                enc.put_u8(0);
            }
        }
        enc.finish()
    }

    /// Signs a read receipt as the edge.
    pub fn issue(
        edge: &Identity,
        client: IdentityId,
        bid: BlockId,
        digest: Option<Digest>,
    ) -> Self {
        let signature = edge.sign(&Self::signing_bytes(edge.id, client, bid, &digest));
        ReadReceipt { edge: edge.id, client, bid, digest, signature }
    }

    /// Verifies the edge's signature.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            self.edge,
            &Self::signing_bytes(self.edge, self.client, self.bid, &self.digest),
            &self.signature,
        )
    }

    /// Exact byte length of [`ReadReceipt::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 1 + self.digest.as_ref().map_or(0, |_| 32) + 32
    }

    /// Canonical nestable wire encoding: the signed fields plus the
    /// signature.
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.put_u64(self.edge.0).put_u64(self.client.0).put_u64(self.bid.0);
        enc.put_option(self.digest.as_ref(), |e, d| {
            e.put_digest(d);
        });
        enc.put_signature(&self.signature);
    }

    /// Inverse of [`ReadReceipt::encode_into`]. The signature is *not*
    /// verified here.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ReadReceipt {
            edge: IdentityId(dec.get_u64()?),
            client: IdentityId(dec.get_u64()?),
            bid: BlockId(dec.get_u64()?),
            digest: dec.get_option(|d| d.get_digest())?,
            signature: dec.get_signature()?,
        })
    }
}

/// A client dispute: evidence that the edge may have lied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dispute {
    /// Phase II never arrived for a Phase-I-committed add.
    MissingCertification {
        /// The edge's signed promise.
        receipt: AddReceipt,
    },
    /// A read served content that certification later contradicted.
    WrongRead {
        /// The edge's signed read answer.
        receipt: ReadReceipt,
    },
    /// The edge denied a block the cloud's gossip says exists.
    Omission {
        /// The edge's signed "not available".
        receipt: ReadReceipt,
        /// The gossip watermark proving existence.
        watermark: GossipWatermark,
    },
}

impl Dispute {
    /// Exact byte length of [`Dispute::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Dispute::MissingCertification { .. } => AddReceipt::ENCODED_LEN,
            Dispute::WrongRead { receipt } => receipt.encoded_len(),
            Dispute::Omission { receipt, .. } => {
                receipt.encoded_len() + GossipWatermark::ENCODED_LEN
            }
        }
    }

    /// Canonical nestable wire encoding (variant tag + evidence).
    pub fn encode_into(&self, enc: &mut Encoder) {
        match self {
            Dispute::MissingCertification { receipt } => {
                enc.put_u8(0);
                receipt.encode_into(enc);
            }
            Dispute::WrongRead { receipt } => {
                enc.put_u8(1);
                receipt.encode_into(enc);
            }
            Dispute::Omission { receipt, watermark } => {
                enc.put_u8(2);
                receipt.encode_into(enc);
                watermark.encode_into(enc);
            }
        }
    }

    /// Inverse of [`Dispute::encode_into`]. Evidence signatures are
    /// *not* verified here — the cloud's dispute handler does that.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => Dispute::MissingCertification { receipt: AddReceipt::decode_from(dec)? },
            1 => Dispute::WrongRead { receipt: ReadReceipt::decode_from(dec)? },
            2 => Dispute::Omission {
                receipt: ReadReceipt::decode_from(dec)?,
                watermark: GossipWatermark::decode_from(dec)?,
            },
            _ => return Err(DecodeError::Malformed("dispute variant tag")),
        })
    }
}

/// The cloud's ruling on a dispute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DisputeVerdict {
    /// The edge lied; it has been punished (revoked).
    EdgePunished {
        /// The convicted edge.
        edge: IdentityId,
        /// Human-readable grounds.
        grounds: String,
    },
    /// No wrongdoing provable (e.g. certification simply in flight).
    Dismissed,
}

impl DisputeVerdict {
    /// Exact byte length of [`DisputeVerdict::encode_into`]'s output.
    pub fn encoded_len(&self) -> usize {
        match self {
            DisputeVerdict::EdgePunished { grounds, .. } => 1 + 8 + 8 + grounds.len(),
            DisputeVerdict::Dismissed => 1,
        }
    }

    /// Canonical nestable wire encoding.
    pub fn encode_into(&self, enc: &mut Encoder) {
        match self {
            DisputeVerdict::EdgePunished { edge, grounds } => {
                enc.put_u8(1);
                enc.put_u64(edge.0);
                enc.put_bytes(grounds.as_bytes());
            }
            DisputeVerdict::Dismissed => {
                enc.put_u8(0);
            }
        }
    }

    /// Inverse of [`DisputeVerdict::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => DisputeVerdict::Dismissed,
            1 => {
                let edge = IdentityId(dec.get_u64()?);
                let grounds = String::from_utf8(dec.get_bytes()?.to_vec())
                    .map_err(|_| DecodeError::Malformed("verdict grounds utf-8"))?;
                DisputeVerdict::EdgePunished { edge, grounds }
            }
            _ => return Err(DecodeError::Malformed("verdict variant tag")),
        })
    }
}

/// Envelope tags no peer sends any more, with the variant name each one
/// carried. A retired tag decodes as an unknown kind, and neither its
/// number nor its name is ever reused; `wedge-lint` holds
/// `WIRE_ABI.lock`'s `[retired]` section to this list.
///
/// - 12 `MergeRes`: the full merge reply, replaced by the
///   delta-encoded [`WireMsg::MergeResDelta`] (tag 18).
pub const RETIRED_WIRE_TAGS: [(u8, &str); 1] = [(12, "MergeRes")];

/// The codable WedgeChain protocol: every message that crosses a node
/// boundary, and nothing else.
///
/// Wire sizes for the network model are computed by
/// [`WireMsg::wire_size`]; digests-only coordination is what keeps the
/// edge→cloud sizes small (data-free certification). The canonical
/// byte format is [`WireMsg::encode_frame`] / [`WireMsg::decode_frame`].
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    // ---- client → edge ----
    /// A batch of signed entries to append (one block's worth).
    BatchAdd {
        /// Client request id.
        req_id: u64,
        /// The signed entries.
        entries: Vec<Entry>,
    },
    /// Log read by block id.
    LogRead {
        /// The block id to fetch.
        bid: BlockId,
    },
    /// Key-value get.
    Get {
        /// Client request id.
        req_id: u64,
        /// The key.
        key: Key,
    },
    // ---- edge → client ----
    /// Phase-I commitment: the signed receipt (block content rides
    /// along for clients that asked for it).
    AddResponse {
        /// The edge's signed promise.
        receipt: AddReceipt,
    },
    /// Reply to a log read: block + best-available proof, or a signed
    /// denial.
    LogReadResponse {
        /// Signed statement of what was served.
        receipt: ReadReceipt,
        /// The block, if available.
        block: Option<Block>,
        /// The cloud proof, if already certified (Phase II read).
        proof: Option<BlockProof>,
    },
    /// Reply to a get: the full index read proof.
    GetResponse {
        /// Echoed request id.
        req_id: u64,
        /// Proof material for client-side verification.
        proof: Box<IndexReadProof>,
    },
    /// Phase-II notification forwarded to clients of a block.
    BlockProofForward(BlockProof),
    /// Gossip watermark forwarded from the cloud.
    GossipForward(GossipWatermark),
    // ---- edge → cloud ----
    /// Data-free certification request: digest only.
    BlockCertify {
        /// The block id.
        bid: BlockId,
        /// The block digest.
        digest: Digest,
        /// Edge signature over (bid, digest).
        signature: Signature,
    },
    /// A merge request (ships pages).
    MergeReq(Box<MergeRequest>),
    // ---- cloud → edge ----
    /// Certification success.
    BlockProofMsg(BlockProof),
    /// Certification refused: equivocation detected.
    CertRejected {
        /// The offending block id.
        bid: BlockId,
    },
    /// A re-signed global root with a fresh timestamp (§V-D freshness).
    GlobalRefresh(wedge_lsmerkle::GlobalRootCert),
    // ---- client ↔ cloud ----
    /// A dispute with evidence.
    DisputeMsg(Box<Dispute>),
    /// The ruling.
    VerdictMsg(DisputeVerdict),
    /// Gossip direct to a subscriber.
    Gossip(GossipWatermark),
    /// Merge reply, delta-encoded against the originating request:
    /// pages the edge already holds travel as references, so the reply
    /// scales with the *changed* pages of a merge rather than the
    /// target level's size. The only merge reply on the wire: the
    /// full reply's tag 12 is retired (see [`RETIRED_WIRE_TAGS`]).
    MergeResDelta(Box<DeltaMergeResult>),
    /// Merge request, delta-encoded against the pages the cloud
    /// retains from its own last replies: pages the cloud already
    /// holds travel as 5-byte references, so the request scales with
    /// the *changed* pages rather than the target level's size. This
    /// is what the edge sends once retention is established;
    /// [`WireMsg::MergeReq`] (tag 10) remains decodable forever as the
    /// cold-start/fallback path.
    MergeReqDelta(Box<DeltaMergeRequest>),
    /// Cloud → edge nack: a delta request referenced retention the
    /// cloud no longer holds (restart, eviction). The edge answers by
    /// resending the merge as a full [`WireMsg::MergeReq`] — one extra
    /// round trip on the existing retry clock, never a wedge.
    MergeReqResend {
        /// The edge whose delta failed to resolve.
        edge: IdentityId,
        /// Source level of the unresolvable request.
        source_level: u32,
        /// Epoch of the unresolvable request.
        epoch: u64,
    },
}

/// Canonical signing bytes for a block-certify message.
pub fn certify_signing_bytes(edge: IdentityId, bid: BlockId, digest: &Digest) -> Vec<u8> {
    let mut enc = Encoder::with_tag_and_capacity("wedge-certify-v1", 48);
    enc.put_u64(edge.0).put_u64(bid.0).put_digest(digest);
    enc.finish()
}

impl WireMsg {
    /// Short variant name (trace labels, diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            WireMsg::BatchAdd { .. } => "BatchAdd",
            WireMsg::LogRead { .. } => "LogRead",
            WireMsg::Get { .. } => "Get",
            WireMsg::AddResponse { .. } => "AddResponse",
            WireMsg::LogReadResponse { .. } => "LogReadResponse",
            WireMsg::GetResponse { .. } => "GetResponse",
            WireMsg::BlockProofForward(_) => "BlockProofForward",
            WireMsg::GossipForward(_) => "GossipForward",
            WireMsg::BlockCertify { .. } => "BlockCertify",
            WireMsg::MergeReq(_) => "MergeReq",
            WireMsg::BlockProofMsg(_) => "BlockProofMsg",
            WireMsg::CertRejected { .. } => "CertRejected",
            WireMsg::GlobalRefresh(_) => "GlobalRefresh",
            WireMsg::DisputeMsg(_) => "DisputeMsg",
            WireMsg::VerdictMsg(_) => "VerdictMsg",
            WireMsg::Gossip(_) => "Gossip",
            WireMsg::MergeResDelta(_) => "MergeResDelta",
            WireMsg::MergeReqDelta(_) => "MergeReqDelta",
            WireMsg::MergeReqResend { .. } => "MergeReqResend",
        }
    }

    /// Approximate wire size in bytes, for the bandwidth model.
    /// `u64`: merge traffic can exceed 4 GiB and must not wrap the
    /// cost accounting in release builds.
    pub fn wire_size(&self) -> u64 {
        match self {
            WireMsg::BatchAdd { entries, .. } => {
                16 + entries.iter().map(|e| e.wire_size()).sum::<u64>()
            }
            WireMsg::LogRead { .. } => 16,
            WireMsg::Get { .. } => 24,
            WireMsg::AddResponse { .. } => 8 + 8 + 8 + 32 + 8 + 32 + 32,
            WireMsg::LogReadResponse { block, .. } => {
                90 + block.as_ref().map_or(0, |b| b.wire_size()) + BlockProof::WIRE_SIZE
            }
            WireMsg::GetResponse { proof, .. } => 8 + proof.wire_size(),
            WireMsg::BlockProofForward(_) | WireMsg::BlockProofMsg(_) => BlockProof::WIRE_SIZE,
            WireMsg::GossipForward(_) | WireMsg::Gossip(_) => GossipWatermark::WIRE_SIZE,
            WireMsg::BlockCertify { .. } => 8 + 32 + 32,
            WireMsg::MergeReq(r) => r.wire_size(),
            WireMsg::MergeResDelta(d) => d.wire_size(),
            WireMsg::MergeReqDelta(d) => d.wire_size(),
            WireMsg::MergeReqResend { .. } => 24,
            WireMsg::CertRejected { .. } => 16,
            WireMsg::GlobalRefresh(_) => 96,
            WireMsg::DisputeMsg(_) => 256,
            WireMsg::VerdictMsg(_) => 64,
        }
    }

    /// The envelope type tag for this variant. Tags are wire ABI:
    /// never renumber, only append; a tag leaves this list only into
    /// [`RETIRED_WIRE_TAGS`].
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::BatchAdd { .. } => 1,
            WireMsg::LogRead { .. } => 2,
            WireMsg::Get { .. } => 3,
            WireMsg::AddResponse { .. } => 4,
            WireMsg::LogReadResponse { .. } => 5,
            WireMsg::GetResponse { .. } => 6,
            WireMsg::BlockProofForward(_) => 7,
            WireMsg::GossipForward(_) => 8,
            WireMsg::BlockCertify { .. } => 9,
            WireMsg::MergeReq(_) => 10,
            WireMsg::BlockProofMsg(_) => 11,
            WireMsg::CertRejected { .. } => 13,
            WireMsg::GlobalRefresh(_) => 14,
            WireMsg::DisputeMsg(_) => 15,
            WireMsg::VerdictMsg(_) => 16,
            WireMsg::Gossip(_) => 17,
            WireMsg::MergeResDelta(_) => 18,
            WireMsg::MergeReqDelta(_) => 19,
            WireMsg::MergeReqResend { .. } => 20,
        }
    }

    /// Exact byte length of [`WireMsg::encode_payload`]'s output —
    /// unlike [`WireMsg::wire_size`], which is the bandwidth model's
    /// approximation. Callers size encode buffers with this; the
    /// round-trip property suite holds it to exact equality for every
    /// variant.
    pub fn encoded_len(&self) -> usize {
        match self {
            WireMsg::BatchAdd { entries, .. } => {
                8 + 8 + entries.iter().map(|e| e.encoded_len()).sum::<usize>()
            }
            WireMsg::LogRead { .. } => 8,
            WireMsg::Get { .. } => 16,
            WireMsg::AddResponse { .. } => AddReceipt::ENCODED_LEN,
            WireMsg::LogReadResponse { receipt, block, proof } => {
                receipt.encoded_len()
                    + 1
                    + block.as_ref().map_or(0, |b| 8 + b.canonical_len())
                    + 1
                    + proof.as_ref().map_or(0, |_| BlockProof::ENCODED_LEN)
            }
            WireMsg::GetResponse { proof, .. } => 8 + proof.encoded_len(),
            WireMsg::BlockProofForward(_) | WireMsg::BlockProofMsg(_) => BlockProof::ENCODED_LEN,
            WireMsg::GossipForward(_) | WireMsg::Gossip(_) => GossipWatermark::ENCODED_LEN,
            WireMsg::BlockCertify { .. } => 8 + 32 + 32,
            WireMsg::MergeReq(r) => r.encoded_len(),
            WireMsg::MergeResDelta(d) => d.encoded_len(),
            WireMsg::MergeReqDelta(d) => d.encoded_len(),
            WireMsg::MergeReqResend { .. } => 8 + 4 + 8,
            WireMsg::CertRejected { .. } => 8,
            WireMsg::GlobalRefresh(_) => GlobalRootCert::ENCODED_LEN,
            WireMsg::DisputeMsg(d) => d.encoded_len(),
            WireMsg::VerdictMsg(v) => v.encoded_len(),
        }
    }

    /// Encodes the payload (envelope-free; [`WireMsg::kind`] routes
    /// the decode).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_payload_into(&mut buf);
        buf
    }

    /// Buffer-reusing twin of [`WireMsg::encode_payload`]: clears
    /// `buf`, reserves exactly [`WireMsg::encoded_len`] bytes, and
    /// encodes into it — a pooled buffer keeps its capacity across
    /// messages, so the steady-state encode path never allocates.
    pub fn encode_payload_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(self.encoded_len());
        let mut enc = Encoder::append_to(std::mem::take(buf));
        self.encode_payload_body(&mut enc);
        *buf = enc.finish();
        debug_assert_eq!(buf.len(), self.encoded_len(), "encoded_len drift: {}", self.name());
    }

    fn encode_payload_body(&self, enc: &mut Encoder) {
        match self {
            WireMsg::BatchAdd { req_id, entries } => {
                enc.put_u64(*req_id);
                enc.put_u64(entries.len() as u64);
                for e in entries {
                    e.encode(enc);
                }
            }
            WireMsg::LogRead { bid } => {
                enc.put_u64(bid.0);
            }
            WireMsg::Get { req_id, key } => {
                enc.put_u64(*req_id).put_u64(*key);
            }
            WireMsg::AddResponse { receipt } => receipt.encode_into(enc),
            WireMsg::LogReadResponse { receipt, block, proof } => {
                receipt.encode_into(enc);
                enc.put_option(block.as_ref(), |e, b| {
                    e.put_bytes(&b.canonical_bytes());
                });
                enc.put_option(proof.as_ref(), |e, p| p.encode_into(e));
            }
            WireMsg::GetResponse { req_id, proof } => {
                enc.put_u64(*req_id);
                proof.encode_into(enc);
            }
            WireMsg::BlockProofForward(p) | WireMsg::BlockProofMsg(p) => p.encode_into(enc),
            WireMsg::GossipForward(wm) | WireMsg::Gossip(wm) => wm.encode_into(enc),
            WireMsg::BlockCertify { bid, digest, signature } => {
                enc.put_u64(bid.0).put_digest(digest).put_signature(signature);
            }
            WireMsg::MergeReq(r) => r.encode_into(enc),
            WireMsg::MergeResDelta(d) => d.encode_into(enc),
            WireMsg::MergeReqDelta(d) => d.encode_into(enc),
            WireMsg::MergeReqResend { edge, source_level, epoch } => {
                enc.put_u64(edge.0).put_u32(*source_level).put_u64(*epoch);
            }
            WireMsg::CertRejected { bid } => {
                enc.put_u64(bid.0);
            }
            WireMsg::GlobalRefresh(cert) => cert.encode_into(enc),
            WireMsg::DisputeMsg(d) => d.encode_into(enc),
            WireMsg::VerdictMsg(v) => v.encode_into(enc),
        }
    }

    /// Decodes a payload routed by `kind`, requiring every byte to be
    /// consumed. All input is untrusted: every malformation is a typed
    /// [`DecodeError`], never a panic.
    pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<WireMsg, DecodeError> {
        let mut dec = Decoder::new(payload);
        let msg = match kind {
            1 => {
                let req_id = dec.get_u64()?;
                // Each entry is ≥ 48 bytes on the wire; an absurd
                // count fails before pre-allocating hostile capacity.
                let count = dec.get_count(48)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(Entry::decode(&mut dec)?);
                }
                WireMsg::BatchAdd { req_id, entries }
            }
            2 => WireMsg::LogRead { bid: BlockId(dec.get_u64()?) },
            3 => WireMsg::Get { req_id: dec.get_u64()?, key: dec.get_u64()? },
            4 => WireMsg::AddResponse { receipt: AddReceipt::decode_from(&mut dec)? },
            5 => {
                let receipt = ReadReceipt::decode_from(&mut dec)?;
                let block = dec.get_option(|d| Block::decode(d.get_bytes()?))?;
                let proof = dec.get_option(BlockProof::decode_from)?;
                WireMsg::LogReadResponse { receipt, block, proof }
            }
            6 => {
                let req_id = dec.get_u64()?;
                let proof = Box::new(IndexReadProof::decode_from(&mut dec)?);
                WireMsg::GetResponse { req_id, proof }
            }
            7 => WireMsg::BlockProofForward(BlockProof::decode_from(&mut dec)?),
            8 => WireMsg::GossipForward(GossipWatermark::decode_from(&mut dec)?),
            9 => WireMsg::BlockCertify {
                bid: BlockId(dec.get_u64()?),
                digest: dec.get_digest()?,
                signature: dec.get_signature()?,
            },
            10 => WireMsg::MergeReq(Box::new(MergeRequest::decode_from(&mut dec)?)),
            11 => WireMsg::BlockProofMsg(BlockProof::decode_from(&mut dec)?),
            13 => WireMsg::CertRejected { bid: BlockId(dec.get_u64()?) },
            14 => WireMsg::GlobalRefresh(GlobalRootCert::decode_from(&mut dec)?),
            15 => WireMsg::DisputeMsg(Box::new(Dispute::decode_from(&mut dec)?)),
            16 => WireMsg::VerdictMsg(DisputeVerdict::decode_from(&mut dec)?),
            17 => WireMsg::Gossip(GossipWatermark::decode_from(&mut dec)?),
            18 => WireMsg::MergeResDelta(Box::new(DeltaMergeResult::decode_from(&mut dec)?)),
            19 => WireMsg::MergeReqDelta(Box::new(DeltaMergeRequest::decode_from(&mut dec)?)),
            20 => WireMsg::MergeReqResend {
                edge: IdentityId(dec.get_u64()?),
                source_level: dec.get_u32()?,
                epoch: dec.get_u64()?,
            },
            _ => return Err(DecodeError::Malformed("unknown message kind")),
        };
        dec.finish()?;
        Ok(msg)
    }

    /// Encodes the full framed message: envelope header + payload.
    /// This is the byte string `wedge-net` writes to a socket.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.append_frame_to(&mut buf).expect("oversized frame payload");
        buf
    }

    /// Appends the full framed message — `[header | payload]`,
    /// contiguous — to a caller-owned buffer without clearing it, so
    /// several frames for the same peer can be packed into one buffer
    /// and shipped with a single `write_all`. The payload length comes
    /// from [`WireMsg::encoded_len`], so the header is written first
    /// and the bytes land in their final position; an oversized
    /// payload is refused with `InvalidInput` before any byte is
    /// appended.
    pub fn append_frame_to(&self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        let payload_len = self.encoded_len();
        wedge_log::append_frame_header(buf, self.kind(), payload_len)?;
        let before = buf.len();
        let mut enc = Encoder::append_to(std::mem::take(buf));
        self.encode_payload_body(&mut enc);
        *buf = enc.finish();
        debug_assert_eq!(buf.len() - before, payload_len, "encoded_len drift: {}", self.name());
        Ok(())
    }

    /// Decodes one framed message from a complete buffer — the exact
    /// inverse of [`WireMsg::encode_frame`], rejecting bad magic,
    /// unsupported versions, hostile lengths, truncation and trailing
    /// bytes.
    pub fn decode_frame(bytes: &[u8]) -> Result<WireMsg, DecodeError> {
        let frame = decode_frame(bytes)?;
        WireMsg::decode_payload(frame.kind, &frame.payload)
    }
}

/// The driver-level message type: in-process harness control plus the
/// wire protocol. Only [`Msg::Wire`] contents ever cross a byte
/// boundary — the control variants have no encoding *by construction*
/// (they are instructions to a local engine, not protocol).
// `WireMsg` dwarfs the control variants; `Msg` values are moved once
// into the simulator's queue, so boxing would only add an allocation
// per message.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Msg {
    // ---- harness → client (in-process only) ----
    /// Kick a client's workload.
    Start,
    /// Harness-driven single put (see `SystemHarness::put`).
    DoPut {
        /// The key.
        key: Key,
        /// The value.
        value: Vec<u8>,
    },
    /// Harness-driven single get.
    DoGet {
        /// The key.
        key: Key,
    },
    /// Harness-driven log read.
    DoLogRead {
        /// The block id.
        bid: BlockId,
    },
    /// A protocol message (the codable stratum).
    Wire(WireMsg),
}

impl From<WireMsg> for Msg {
    fn from(w: WireMsg) -> Msg {
        Msg::Wire(w)
    }
}

impl Msg {
    /// Short variant name, used as the trace label
    /// (`Simulation::enable_trace(cap, Msg::label)`).
    pub fn label(msg: &Msg) -> String {
        let name = match msg {
            Msg::Start => "Start",
            Msg::DoPut { .. } => "DoPut",
            Msg::DoGet { .. } => "DoGet",
            Msg::DoLogRead { .. } => "DoLogRead",
            Msg::Wire(w) => w.name(),
        };
        name.to_string()
    }

    /// Approximate wire size in bytes, for the bandwidth model.
    /// Control messages are local: their nominal size only spaces
    /// harness injections in the simulator.
    pub fn wire_size(&self) -> u64 {
        match self {
            Msg::Start | Msg::DoPut { .. } | Msg::DoGet { .. } | Msg::DoLogRead { .. } => 8,
            Msg::Wire(w) => w.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wedge_crypto::sha256;

    #[test]
    fn add_receipt_roundtrip_and_binding() {
        let edge = Identity::derive("edge", 1);
        let mut reg = KeyRegistry::new();
        reg.register(edge.id, edge.public()).unwrap();
        let r = AddReceipt::issue(
            &edge,
            IdentityId(7),
            3,
            sha256(b"entries"),
            BlockId(5),
            sha256(b"block"),
        );
        assert!(r.verify(&reg));
        let mut bad = r.clone();
        bad.bid = BlockId(6);
        assert!(!bad.verify(&reg));
        let mut bad = r.clone();
        bad.block_digest = sha256(b"other");
        assert!(!bad.verify(&reg));
    }

    #[test]
    fn read_receipt_covers_denials() {
        let edge = Identity::derive("edge", 1);
        let mut reg = KeyRegistry::new();
        reg.register(edge.id, edge.public()).unwrap();
        let denial = ReadReceipt::issue(&edge, IdentityId(7), BlockId(5), None);
        assert!(denial.verify(&reg));
        let served = ReadReceipt::issue(&edge, IdentityId(7), BlockId(5), Some(sha256(b"b")));
        assert!(served.verify(&reg));
        assert_ne!(denial.signature, served.signature);
        // A denial cannot be replayed as a serve.
        let mut forged = denial.clone();
        forged.digest = Some(sha256(b"b"));
        assert!(!forged.verify(&reg));
    }

    #[test]
    fn certify_is_data_free() {
        // The certify message must be O(1) regardless of block size.
        let d = sha256(b"block");
        let edge = Identity::derive("edge", 1);
        let msg = WireMsg::BlockCertify {
            bid: BlockId(1),
            digest: d,
            signature: edge.sign(&certify_signing_bytes(edge.id, BlockId(1), &d)),
        };
        assert!(msg.wire_size() < 100);
        // And its real framed encoding is just as small.
        assert!(msg.encode_frame().len() < 100);
    }

    #[test]
    fn batch_add_wire_size_scales() {
        let client = Identity::derive("client", 1);
        let mk = |n: usize| WireMsg::BatchAdd {
            req_id: 0,
            entries: (0..n).map(|i| Entry::new_signed(&client, i as u64, vec![0; 100])).collect(),
        };
        let small = mk(10).wire_size();
        let large = mk(100).wire_size();
        assert!(large > small * 8);
    }

    #[test]
    fn framed_roundtrip_smoke() {
        // The exhaustive per-variant round-trip + corruption suite
        // lives in tests/wire_msg_roundtrip.rs; this is the in-module
        // smoke check.
        let edge = Identity::derive("edge", 1);
        let msg = WireMsg::AddResponse {
            receipt: AddReceipt::issue(
                &edge,
                IdentityId(7),
                3,
                sha256(b"entries"),
                BlockId(5),
                sha256(b"block"),
            ),
        };
        let bytes = msg.encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(msg));
    }
}
