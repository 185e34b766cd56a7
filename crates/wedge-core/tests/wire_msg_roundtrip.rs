//! Round-trip and corruption property tests for the full protocol
//! codec: **every** [`WireMsg`] variant encodes to a framed byte
//! string and decodes back to an equal value, and every way an
//! adversary can mangle those bytes — truncation at any offset, bit
//! flips, trailing garbage, unknown type tags, bad magic/version —
//! decodes to a typed error or a *different* value, never a panic and
//! never a silent false equality.
//!
//! The harness-control stratum (`Msg::Start`, `Msg::DoPut`, …) is
//! deliberately absent here: control variants live on [`Msg`], not
//! [`WireMsg`], and have **no** encoding — putting a workload command
//! on the wire is unrepresentable by construction, which is the
//! type-level guarantee this suite rides on.
//!
//! No third-party crates are available in the build environment, so
//! each property runs over deterministic SplitMix64-generated case
//! streams (matching `wedge-log/tests/wire_roundtrip.rs`).

use std::sync::Arc;
use wedge_core::messages::{
    AddReceipt, Dispute, DisputeVerdict, ReadReceipt, WireMsg, RETIRED_WIRE_TAGS,
};
use wedge_crypto::{sha256, Digest, Identity, IdentityId, InclusionProof, Signature};
use wedge_log::{
    Block, BlockId, BlockProof, DecodeError, Entry, GossipWatermark, FRAME_HEADER_LEN,
};
use wedge_lsmerkle::{
    DeltaMergeRequest, DeltaMergeResult, GlobalRootCert, IndexReadProof, KvRecord, L0Page,
    L0Witness, LevelWitness, MergeRequest, MergeResult, Page, PageDelta, ReqPageSlot,
    SignedLevelRoot, Version,
};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn sig(&mut self) -> Signature {
        Signature {
            e: (self.next() as u128) << 64 | self.next() as u128,
            s: (self.next() as u128) << 64 | self.next() as u128,
        }
    }

    fn digest(&mut self) -> Digest {
        sha256(&self.next().to_be_bytes())
    }
}

// --- structurally arbitrary protocol values (signatures need not
// verify: codecs round-trip bytes, they do not judge them) ---

fn arb_entry(rng: &mut Rng) -> Entry {
    let payload_len = rng.below(80) as usize;
    Entry {
        client: IdentityId(rng.next()),
        sequence: rng.next(),
        payload: rng.bytes(payload_len),
        signature: rng.sig(),
    }
}

fn arb_block(rng: &mut Rng) -> Block {
    Block {
        edge: IdentityId(rng.next()),
        id: BlockId(rng.next()),
        entries: (0..1 + rng.below(5)).map(|_| arb_entry(rng)).collect(),
        sealed_at_ns: rng.next(),
    }
}

fn arb_add_receipt(rng: &mut Rng) -> AddReceipt {
    AddReceipt {
        edge: IdentityId(rng.next()),
        client: IdentityId(rng.next()),
        req_id: rng.next(),
        entries_digest: rng.digest(),
        bid: BlockId(rng.next()),
        block_digest: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_read_receipt(rng: &mut Rng) -> ReadReceipt {
    ReadReceipt {
        edge: IdentityId(rng.next()),
        client: IdentityId(rng.next()),
        bid: BlockId(rng.next()),
        digest: if rng.below(2) == 0 { Some(rng.digest()) } else { None },
        signature: rng.sig(),
    }
}

fn arb_block_proof(rng: &mut Rng) -> BlockProof {
    BlockProof {
        edge: IdentityId(rng.next()),
        bid: BlockId(rng.next()),
        digest: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_watermark(rng: &mut Rng) -> GossipWatermark {
    GossipWatermark {
        edge: IdentityId(rng.next()),
        timestamp_ns: rng.next(),
        log_len: rng.next(),
        signature: rng.sig(),
    }
}

fn arb_records(rng: &mut Rng, n: usize) -> Vec<KvRecord> {
    // Strictly increasing keys (page invariant); arbitrary versions
    // and values/tombstones.
    let mut key = 0u64;
    (0..n)
        .map(|_| {
            key += 1 + rng.below(50);
            KvRecord {
                key,
                version: Version { bid: rng.next(), pos: rng.next() as u32 },
                value: if rng.below(4) == 0 {
                    None
                } else {
                    let len = rng.below(30) as usize;
                    Some(rng.bytes(len))
                },
            }
        })
        .collect()
}

fn arb_page(rng: &mut Rng) -> Arc<Page> {
    let n = 1 + rng.below(4) as usize;
    let records = arb_records(rng, n);
    let min = records.first().map_or(0, |r| r.key.saturating_sub(rng.below(5)));
    let max = records.last().map_or(u64::MAX, |r| r.key + rng.below(5));
    Arc::new(Page::new(min, max, records, rng.next()))
}

fn arb_l0_page(rng: &mut Rng) -> Arc<L0Page> {
    Arc::new(L0Page::from_block(arb_block(rng)))
}

fn arb_level_root(rng: &mut Rng) -> SignedLevelRoot {
    SignedLevelRoot {
        edge: IdentityId(rng.next()),
        level: 1 + rng.next() as u32 % 4,
        epoch: rng.next(),
        root: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_global(rng: &mut Rng) -> GlobalRootCert {
    GlobalRootCert {
        edge: IdentityId(rng.next()),
        epoch: rng.next(),
        timestamp_ns: rng.next(),
        root: rng.digest(),
        signature: rng.sig(),
    }
}

fn arb_merge_request(rng: &mut Rng) -> MergeRequest {
    MergeRequest {
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        source_l0: (0..rng.below(3)).map(|_| arb_l0_page(rng)).collect(),
        source_pages: (0..rng.below(3)).map(|_| arb_page(rng)).collect(),
        target_pages: (0..rng.below(3)).map(|_| arb_page(rng)).collect(),
        epoch: rng.next(),
    }
}

fn arb_merge_result(rng: &mut Rng) -> MergeResult {
    MergeResult {
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        new_target_pages: (0..rng.below(3)).map(|_| arb_page(rng)).collect(),
        new_source_root: if rng.below(2) == 0 { Some(arb_level_root(rng)) } else { None },
        new_target_root: arb_level_root(rng),
        all_level_roots: (0..1 + rng.below(3)).map(|_| rng.digest()).collect(),
        global: arb_global(rng),
        new_epoch: rng.next(),
    }
}

fn arb_delta_merge_result(rng: &mut Rng) -> DeltaMergeResult {
    DeltaMergeResult {
        request_fp: rng.digest(),
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        pages: (0..rng.below(4))
            .map(|_| {
                if rng.below(2) == 0 {
                    PageDelta::Full(arb_page(rng))
                } else {
                    // Codec round-trips arbitrary indices; range checks
                    // happen at resolve time, against a real request.
                    PageDelta::Reused(rng.next() as u32)
                }
            })
            .collect(),
        new_source_root: if rng.below(2) == 0 { Some(arb_level_root(rng)) } else { None },
        new_target_root: arb_level_root(rng),
        all_level_roots: (0..1 + rng.below(3)).map(|_| rng.digest()).collect(),
        global: arb_global(rng),
        new_epoch: rng.next(),
    }
}

fn arb_req_slot(rng: &mut Rng) -> ReqPageSlot {
    if rng.below(2) == 0 {
        ReqPageSlot::Full(arb_page(rng))
    } else {
        // Codec round-trips arbitrary references; level/index checks
        // happen at resolve time, against the real retention cache.
        ReqPageSlot::Retained { level: 1 + (rng.next() as u8 % 4), index: rng.next() as u32 }
    }
}

fn arb_delta_merge_request(rng: &mut Rng) -> DeltaMergeRequest {
    DeltaMergeRequest {
        edge: IdentityId(rng.next()),
        source_level: rng.next() as u32 % 3,
        epoch: rng.next(),
        retention: (0..rng.below(3)).map(|_| (1 + rng.next() as u32 % 4, rng.digest())).collect(),
        source_l0: (0..rng.below(3)).map(|_| arb_l0_page(rng)).collect(),
        source_pages: (0..rng.below(3)).map(|_| arb_req_slot(rng)).collect(),
        target_pages: (0..rng.below(3)).map(|_| arb_req_slot(rng)).collect(),
    }
}

fn arb_index_read_proof(rng: &mut Rng) -> IndexReadProof {
    IndexReadProof {
        edge: IdentityId(rng.next()),
        key: rng.next(),
        outcome: if rng.below(2) == 0 {
            Some(KvRecord {
                key: rng.next(),
                version: Version { bid: rng.next(), pos: rng.next() as u32 },
                value: Some(rng.bytes(8)),
            })
        } else {
            None
        },
        l0: (0..rng.below(3))
            .map(|_| L0Witness {
                page: arb_l0_page(rng),
                proof: if rng.below(2) == 0 { Some(arb_block_proof(rng)) } else { None },
            })
            .collect(),
        witnesses: (0..rng.below(3))
            .map(|_| LevelWitness {
                level: 1 + rng.next() as u32 % 3,
                page: arb_page(rng),
                inclusion: InclusionProof {
                    leaf_index: rng.below(64) as usize,
                    siblings: (0..rng.below(5)).map(|_| rng.digest()).collect(),
                },
            })
            .collect(),
        level_roots: (0..1 + rng.below(3)).map(|_| rng.digest()).collect(),
        global: arb_global(rng),
    }
}

fn arb_dispute(rng: &mut Rng) -> Dispute {
    match rng.below(3) {
        0 => Dispute::MissingCertification { receipt: arb_add_receipt(rng) },
        1 => Dispute::WrongRead { receipt: arb_read_receipt(rng) },
        _ => Dispute::Omission { receipt: arb_read_receipt(rng), watermark: arb_watermark(rng) },
    }
}

fn arb_verdict(rng: &mut Rng) -> DisputeVerdict {
    if rng.below(2) == 0 {
        DisputeVerdict::Dismissed
    } else {
        DisputeVerdict::EdgePunished {
            edge: IdentityId(rng.next()),
            grounds: {
                let len = rng.below(24) as usize;
                String::from_utf8(rng.bytes(len).iter().map(|b| b'a' + b % 26).collect()).unwrap()
            },
        }
    }
}

/// One structurally arbitrary instance of every `WireMsg` variant —
/// adding a variant without extending this list fails the
/// `all_20_variants_covered` assertion below.
fn arb_all_variants(rng: &mut Rng) -> Vec<WireMsg> {
    vec![
        WireMsg::BatchAdd {
            req_id: rng.next(),
            entries: (0..rng.below(4)).map(|_| arb_entry(rng)).collect(),
        },
        WireMsg::LogRead { bid: BlockId(rng.next()) },
        WireMsg::Get { req_id: rng.next(), key: rng.next() },
        WireMsg::AddResponse { receipt: arb_add_receipt(rng) },
        WireMsg::LogReadResponse {
            receipt: arb_read_receipt(rng),
            block: if rng.below(2) == 0 { Some(arb_block(rng)) } else { None },
            proof: if rng.below(2) == 0 { Some(arb_block_proof(rng)) } else { None },
        },
        WireMsg::GetResponse { req_id: rng.next(), proof: Box::new(arb_index_read_proof(rng)) },
        WireMsg::BlockProofForward(arb_block_proof(rng)),
        WireMsg::GossipForward(arb_watermark(rng)),
        WireMsg::BlockCertify {
            bid: BlockId(rng.next()),
            digest: rng.digest(),
            signature: rng.sig(),
        },
        WireMsg::MergeReq(Box::new(arb_merge_request(rng))),
        WireMsg::BlockProofMsg(arb_block_proof(rng)),
        WireMsg::CertRejected { bid: BlockId(rng.next()) },
        WireMsg::GlobalRefresh(arb_global(rng)),
        WireMsg::DisputeMsg(Box::new(arb_dispute(rng))),
        WireMsg::VerdictMsg(arb_verdict(rng)),
        WireMsg::Gossip(arb_watermark(rng)),
        WireMsg::MergeResDelta(Box::new(arb_delta_merge_result(rng))),
        WireMsg::MergeReqDelta(Box::new(arb_delta_merge_request(rng))),
        WireMsg::MergeReqResend {
            edge: IdentityId(rng.next()),
            source_level: rng.next() as u32,
            epoch: rng.next(),
        },
    ]
}

#[test]
fn all_live_variants_covered() {
    let mut rng = Rng::new(0);
    let msgs = arb_all_variants(&mut rng);
    let mut kinds: Vec<u8> = msgs.iter().map(|m| m.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    // Tags 1..=20 were allocated; every one is a live variant here
    // unless it is retired.
    let retired: Vec<u8> = RETIRED_WIRE_TAGS.iter().map(|(tag, _)| *tag).collect();
    let live: Vec<u8> = (1..=20).filter(|tag| !retired.contains(tag)).collect();
    assert_eq!(kinds, live, "one instance per live variant, no gaps");
}

#[test]
fn retired_kind_is_rejected_as_unknown() {
    // A well-formed full merge reply under its old tag 12: the tag is
    // retired, so the frame is rejected exactly like a tag no message
    // ever had — never decoded as a merge result.
    let mut rng = Rng::new(7);
    let mut enc = wedge_log::Encoder::default();
    arb_merge_result(&mut rng).encode_into(&mut enc);
    let payload = enc.finish();
    for (kind, name) in RETIRED_WIRE_TAGS {
        let frame = wedge_log::Frame { kind, payload: payload.clone() }.encode();
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(DecodeError::Malformed("unknown message kind")),
            "retired tag {kind} ({name}) must be rejected as unknown"
        );
    }
}

#[test]
fn every_variant_roundtrips_framed() {
    for case in 0..24u64 {
        let mut rng = Rng::new(0x3117 ^ case);
        for msg in arb_all_variants(&mut rng) {
            let bytes = msg.encode_frame();
            let back = WireMsg::decode_frame(&bytes)
                .unwrap_or_else(|e| panic!("case {case} {}: {e}", msg.name()));
            assert_eq!(back, msg, "case {case}: {} round-trips", msg.name());
            // Decode∘encode is the identity on bytes too: re-encoding
            // yields the exact frame, so digests/signatures computed
            // over decoded values match the sender's.
            assert_eq!(back.encode_frame(), bytes, "case {case}: {} bytes stable", msg.name());
        }
    }
}

#[test]
fn encode_into_reused_dirty_buffer_is_byte_identical() {
    // The pooled encode path: one buffer reused across every variant
    // and case, pre-filled with garbage each time, must produce bytes
    // identical to the allocating `encode_payload()`, and
    // `encoded_len()` must predict the exact byte count — that
    // arithmetic is what lets the wire path pre-size without growth
    // reallocation.
    let mut buf = Vec::new();
    for case in 0..24u64 {
        let mut rng = Rng::new(0xB0F5 ^ case);
        for msg in arb_all_variants(&mut rng) {
            let fresh = msg.encode_payload();
            assert_eq!(
                fresh.len(),
                msg.encoded_len(),
                "case {case}: {} encoded_len is exact",
                msg.name()
            );
            // Dirty the scratch so stale bytes would be caught.
            buf.clear();
            buf.extend_from_slice(&[0xAA; 37]);
            msg.encode_payload_into(&mut buf);
            assert_eq!(buf, fresh, "case {case}: {} pooled encode byte-identical", msg.name());
        }
    }
}

#[test]
fn append_frame_to_packs_contiguous_frames() {
    // The coalescing primitive: appending several frames to one
    // buffer yields exactly the concatenation of their standalone
    // frames — header and payload contiguous, nothing between them.
    for case in 0..8u64 {
        let mut rng = Rng::new(0xC0A1 ^ case);
        let msgs = arb_all_variants(&mut rng);
        let mut packed = Vec::new();
        let mut expect = Vec::new();
        for msg in &msgs {
            msg.append_frame_to(&mut packed).expect("in-cap frame");
            expect.extend_from_slice(&msg.encode_frame());
        }
        assert_eq!(packed, expect, "case {case}: packed batch is the frame concatenation");
        // And the batch decodes back to the same sequence, frame by
        // frame.
        let mut off = 0;
        for msg in &msgs {
            let len = FRAME_HEADER_LEN + msg.encoded_len();
            let back = WireMsg::decode_frame(&packed[off..off + len]).expect("decode");
            assert_eq!(&back, msg, "case {case}: {} survives packing", msg.name());
            off += len;
        }
        assert_eq!(off, packed.len(), "case {case}: no trailing bytes");
    }
}

#[test]
fn truncation_always_errors_never_panics() {
    for case in 0..4u64 {
        let mut rng = Rng::new(0x7C91 ^ case);
        for msg in arb_all_variants(&mut rng) {
            let bytes = msg.encode_frame();
            for cut in 0..bytes.len() {
                assert!(
                    WireMsg::decode_frame(&bytes[..cut]).is_err(),
                    "case {case} {}: cut at {cut} must fail",
                    msg.name()
                );
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_forge_equality() {
    for case in 0..4u64 {
        let mut rng = Rng::new(0xF11F ^ case);
        for msg in arb_all_variants(&mut rng) {
            let bytes = msg.encode_frame();
            // Flip one bit at a sample of positions (every position for
            // small frames).
            let stride = (bytes.len() / 64).max(1);
            for pos in (0..bytes.len()).step_by(stride) {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << (rng.below(8) as u8);
                if let Ok(decoded) = WireMsg::decode_frame(&bad) {
                    assert_ne!(
                        decoded,
                        msg,
                        "{}: flipped byte {pos} must not decode to the original",
                        msg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn trailing_bytes_rejected() {
    let mut rng = Rng::new(0x7A11);
    for msg in arb_all_variants(&mut rng) {
        let mut bytes = msg.encode_frame();
        bytes.push(0);
        assert!(WireMsg::decode_frame(&bytes).is_err(), "{}: trailing byte", msg.name());
    }
}

#[test]
fn unknown_kind_rejected() {
    // A structurally valid frame whose type tag names no message.
    for kind in [0u8, 21, 0x7F, 0xF0, 0xFF] {
        let frame = wedge_log::Frame { kind, payload: vec![] }.encode();
        assert!(
            matches!(WireMsg::decode_frame(&frame), Err(DecodeError::Malformed(_))),
            "kind {kind} must be rejected"
        );
    }
}

#[test]
fn cross_variant_payloads_rejected() {
    // Re-tagging a message's payload as a different kind must fail
    // (or at minimum decode to a different message — it cannot be
    // silently accepted as the original).
    let mut rng = Rng::new(0xC402);
    let msg = WireMsg::AddResponse { receipt: arb_add_receipt(&mut rng) };
    let mut bytes = msg.encode_frame();
    bytes[FRAME_HEADER_LEN - 5] = WireMsg::LogRead { bid: BlockId(0) }.kind();
    assert!(WireMsg::decode_frame(&bytes).is_err(), "receipt bytes are not a LogRead");
}

// --- delta-encoded merge replies: resolution semantics ---
//
// The delta codec is deliberately not self-contained: references
// rehydrate against the outstanding request, keyed by its fingerprint.
// These tests build *real* merges through `CloudIndex` (entry
// signatures are irrelevant to the cloud's merge checks, so they are
// fake) and exercise the request-context step end to end.

mod delta_resolution {
    use super::*;
    use std::collections::HashMap;
    use wedge_core::messages::WireMsg;
    use wedge_log::{write_frame, CertLedger, MAX_FRAME_PAYLOAD};
    use wedge_lsmerkle::{CloudIndex, KvOp, LsmConfig, RetainedLevel};

    fn kv_put_entry(seq: u64, key: u64, value: Vec<u8>) -> Entry {
        Entry {
            client: IdentityId(1000),
            sequence: seq,
            payload: KvOp::put(key, value).encode(),
            signature: Signature { e: 0, s: 0 },
        }
    }

    struct Cloud {
        cloud: Identity,
        ledger: CertLedger,
        index: CloudIndex,
        edge: IdentityId,
        next_bid: u64,
    }

    impl Cloud {
        fn new(cfg: LsmConfig) -> Self {
            let cloud = Identity::derive("cloud", 1);
            let edge = IdentityId(100);
            let mut index = CloudIndex::new(cfg);
            index.init_edge(&cloud, edge, 0);
            Cloud { cloud, ledger: CertLedger::new(), index, edge, next_bid: 0 }
        }

        /// Seals + certifies one single-put block as an L0 page.
        fn certified_l0(&mut self, key: u64, value: Vec<u8>) -> std::sync::Arc<L0Page> {
            let block = Block {
                edge: self.edge,
                id: BlockId(self.next_bid),
                entries: vec![kv_put_entry(self.next_bid, key, value)],
                sealed_at_ns: self.next_bid,
            };
            self.next_bid += 1;
            let page = std::sync::Arc::new(L0Page::from_block(block));
            self.ledger.offer(self.edge, page.block().id, page.digest());
            page
        }

        fn merge(&mut self, req: &MergeRequest) -> MergeResult {
            self.index.process_merge(&self.cloud, &self.ledger, req, 1_000).expect("merge ok")
        }
    }

    /// A big-target/small-source scenario: merge 1 builds the target
    /// level, merge 2 touches only its last page.
    fn big_target_small_source(
        cfg: LsmConfig,
        keys: u64,
        value: Vec<u8>,
    ) -> (Cloud, MergeRequest, MergeResult) {
        let mut cloud = Cloud::new(cfg);
        let source_l0 = (0..keys).map(|k| cloud.certified_l0(k, value.clone())).collect();
        let req1 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0,
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = cloud.merge(&req1);
        // Merge 2: one small put far to the right — only the last
        // target page's range is touched.
        let touch = cloud.certified_l0(1 << 40, b"small".to_vec());
        let req2 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res1.new_target_pages.clone(),
            epoch: res1.new_epoch,
        };
        let res2 = cloud.merge(&req2);
        (cloud, req2, res2)
    }

    #[test]
    fn delta_resolves_into_the_requests_own_arcs() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (_, req2, res2) = big_target_small_source(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeResult::delta_against(&res2, &req2);
        assert!(delta.reused_pages() >= 1, "untouched pages travel as references");
        assert!(delta.full_pages() >= 1, "the touched region travels in full");
        assert!(delta.wire_size() < res2.wire_size(), "delta is smaller than the full reply");

        // The framed message round-trips like every other variant.
        let msg = WireMsg::MergeResDelta(Box::new(delta.clone()));
        let bytes = msg.encode_frame();
        let back = WireMsg::decode_frame(&bytes).expect("delta frame decodes");
        assert_eq!(back, msg);

        // Resolution rehydrates references into the request's own
        // pages: pointer identity, not copies.
        let resolved = delta.resolve(&req2).expect("fingerprint-matched request resolves");
        assert_eq!(resolved, res2);
        let reused_idx = delta
            .pages
            .iter()
            .position(|p| matches!(p, PageDelta::Reused(_)))
            .expect("at least one reference");
        assert!(
            std::sync::Arc::ptr_eq(
                &resolved.new_target_pages[reused_idx],
                &req2.target_pages[reused_idx]
            ),
            "reference resolves to the request's Arc, byte-for-byte shared"
        );
    }

    /// The replay-cache interaction: a *retried* request decoded off
    /// the wire carries fresh `Arc`s but the same fingerprint, so the
    /// cloud's cached result delta-encodes against the retry and every
    /// reference resolves against the retry's own pages.
    #[test]
    fn replayed_delta_resolves_against_the_retried_request() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (cloud, req2, res2) = big_target_small_source(cfg, 8, b"v".to_vec());
        // The retry crosses the wire: fresh Arcs on the cloud side.
        let retry_bytes = WireMsg::MergeReq(Box::new(req2.clone())).encode_frame();
        let Ok(WireMsg::MergeReq(retry)) = WireMsg::decode_frame(&retry_bytes) else {
            panic!("retry decodes as a merge request");
        };
        let cached = cloud.index.replay_for(&retry).expect("fingerprint-matched retry replays");
        assert_eq!(cached, res2);
        let delta = DeltaMergeResult::delta_against(&cached, &retry);
        assert!(delta.reused_pages() >= 1, "replay still dedups (digest match, not ptr match)");
        let resolved = delta.resolve(&retry).expect("resolves against the retry");
        assert_eq!(resolved, res2);
        // And NOT against a different request (the original pre-wire
        // request has the same fingerprint, so that one also resolves;
        // a *mutated* one must not — see the hostile test below).
    }

    #[test]
    fn hostile_out_of_range_index_and_wrong_fingerprint_are_typed_errors() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (_, req2, res2) = big_target_small_source(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeResult::delta_against(&res2, &req2);

        // An out-of-range reuse index — as a hostile peer could put on
        // the wire — is a typed error, never a panic.
        let mut hostile = delta.clone();
        hostile.pages[0] = PageDelta::Reused(u32::MAX);
        assert_eq!(
            hostile.resolve(&req2),
            Err(DecodeError::Malformed("merge reuse index out of range"))
        );
        // The hostile frame still round-trips as bytes (range checks
        // are resolution-time, against a real request).
        let bytes = WireMsg::MergeResDelta(Box::new(hostile.clone())).encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(WireMsg::MergeResDelta(Box::new(hostile))));

        // A delta for a different request (dangling reference context)
        // is refused by fingerprint before any index is looked at.
        let mut dangling = delta.clone();
        dangling.request_fp = sha256(b"some other request");
        assert_eq!(
            dangling.resolve(&req2),
            Err(DecodeError::Malformed("merge delta answers a different request"))
        );

        // A bad page-delta tag on the wire is a decode error.
        let mut enc = wedge_log::Encoder::default();
        delta.encode_into(&mut enc);
        let mut payload = enc.finish();
        // tag byte of the first page slot: fp(32) + edge(8) + level(4)
        // + count(8).
        payload[52] = 7;
        assert!(DeltaMergeResult::decode_from(&mut wedge_log::Decoder::new(&payload)).is_err());
    }

    /// The motivating failure: a big-target/small-source merge whose
    /// *full* reply exceeds the 16 MiB frame cap — `write_frame` would
    /// refuse it and the partition would wedge. The delta encoding of
    /// the same reply is a few pages plus references and sails through.
    #[test]
    fn oversized_full_reply_ships_as_small_delta() {
        let cfg = LsmConfig { level_thresholds: vec![2, 1000], page_capacity: 1 };
        let value = vec![0xAB; 256 * 1024];
        let (_, req2, res2) = big_target_small_source(cfg, 65, value);

        // The full reply is genuinely over the frame cap: the old
        // representation could not have been sent at all.
        let mut enc = wedge_log::Encoder::default();
        res2.encode_into(&mut enc);
        let full_payload = enc.finish();
        assert_eq!(full_payload.len(), res2.encoded_len());
        assert!(
            full_payload.len() > MAX_FRAME_PAYLOAD as usize,
            "full reply must exceed the cap ({} <= {MAX_FRAME_PAYLOAD})",
            full_payload.len()
        );
        let mut sink = Vec::new();
        // Under its retired tag 12, as it was once shipped.
        let err = write_frame(&mut sink, 12, &full_payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "write_frame refuses it");

        // The delta reply for the same merge is tiny and round-trips.
        let delta = DeltaMergeResult::delta_against(&res2, &req2);
        assert!(delta.reused_pages() >= 60, "almost everything is a reference");
        let msg = WireMsg::MergeResDelta(Box::new(delta));
        let bytes = msg.encode_frame();
        assert!(
            bytes.len() < 1024 * 1024,
            "delta frame scales with changed pages, not target size (got {})",
            bytes.len()
        );
        let Ok(WireMsg::MergeResDelta(back)) = WireMsg::decode_frame(&bytes) else {
            panic!("delta frame decodes");
        };
        assert_eq!(back.resolve(&req2).expect("resolves"), res2);
    }

    // --- the request direction: references rehydrate against the
    // cloud's retention cache, keyed by per-level fingerprints ---

    /// Builds the third merge of a warm partition: the target run is
    /// retained on both sides, so its pages can travel as references.
    fn warm_third_merge(
        cfg: LsmConfig,
        keys: u64,
        value: Vec<u8>,
    ) -> (Cloud, MergeRequest, HashMap<u32, RetainedLevel>) {
        let (mut cloud, _req2, res2) = big_target_small_source(cfg, keys, value);
        let touch = cloud.certified_l0(2 << 40, b"next".to_vec());
        let req3 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res2.new_target_pages.clone(),
            epoch: res2.new_epoch,
        };
        // What the edge learned from res2's reply — the same run the
        // cloud retained when it processed that merge.
        let mut retained = HashMap::new();
        retained.insert(1u32, RetainedLevel::over(cloud.edge, 1, &res2.new_target_pages));
        (cloud, req3, retained)
    }

    #[test]
    fn delta_request_resolves_into_the_clouds_own_arcs() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (mut cloud, req3, retained) = warm_third_merge(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeRequest::delta_against(&req3, &retained);
        assert!(delta.reused_pages() >= 1, "retained target pages travel as references");
        assert!(delta.full_pages() >= 1, "the new L0 page travels in full");
        assert!(delta.wire_size() < req3.wire_size(), "delta is smaller than the full request");

        // The framed message round-trips like every other variant.
        let msg = WireMsg::MergeReqDelta(Box::new(delta.clone()));
        let bytes = msg.encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(msg));

        // Resolution rehydrates references into the cloud's own
        // retained pages: pointer identity, not copies.
        let resolved = cloud.index.resolve_delta_request(&delta).expect("warm cache resolves");
        assert_eq!(resolved, req3);
        let reused_idx = delta
            .target_pages
            .iter()
            .position(|s| matches!(s, ReqPageSlot::Retained { .. }))
            .expect("at least one reference");
        assert!(
            Arc::ptr_eq(&resolved.target_pages[reused_idx], &req3.target_pages[reused_idx]),
            "reference resolves to the cloud's retained Arc, byte-for-byte shared"
        );
        // The resolved request is a processable merge.
        cloud.merge(&resolved);
    }

    #[test]
    fn hostile_delta_requests_are_typed_errors() {
        let cfg = LsmConfig { level_thresholds: vec![2, 100], page_capacity: 4 };
        let (mut cloud, req3, retained) = warm_third_merge(cfg, 8, b"v".to_vec());
        let delta = DeltaMergeRequest::delta_against(&req3, &retained);

        // A fingerprint naming a run the cloud never retained.
        let mut stale = delta.clone();
        stale.retention[0].1 = sha256(b"never retained");
        assert_eq!(
            cloud.index.resolve_delta_request(&stale),
            Err(DecodeError::Malformed("merge request retention claim stale or unknown"))
        );

        // A reference into a level the request never declared.
        let mut undeclared = delta.clone();
        undeclared.retention.clear();
        assert_eq!(
            cloud.index.resolve_delta_request(&undeclared),
            Err(DecodeError::Malformed("merge request references an undeclared level"))
        );

        // An out-of-range reuse index — as a hostile peer could put on
        // the wire — is a typed error, never a panic.
        let mut oob = delta.clone();
        let pos = oob
            .target_pages
            .iter()
            .position(|s| matches!(s, ReqPageSlot::Retained { .. }))
            .expect("a reference to corrupt");
        let ReqPageSlot::Retained { level, .. } = oob.target_pages[pos] else { unreachable!() };
        oob.target_pages[pos] = ReqPageSlot::Retained { level, index: u32::MAX };
        assert_eq!(
            cloud.index.resolve_delta_request(&oob),
            Err(DecodeError::Malformed("merge request reuse index out of range"))
        );
        // The hostile frame still round-trips as bytes (range checks
        // are resolution-time, against the real retention cache).
        let bytes = WireMsg::MergeReqDelta(Box::new(oob.clone())).encode_frame();
        assert_eq!(WireMsg::decode_frame(&bytes), Ok(WireMsg::MergeReqDelta(Box::new(oob))));

        // After eviction even the honest delta no longer resolves —
        // the typed error is what the engine turns into a resend nack.
        cloud.index.evict_retained(cloud.edge);
        assert!(matches!(
            cloud.index.resolve_delta_request(&delta),
            Err(DecodeError::Malformed(_))
        ));
    }

    /// The request-direction motivating failure: a merge whose *full*
    /// request re-ships a 16 MiB+ target level — `write_frame` would
    /// refuse the frame and the merge could never be submitted. The
    /// delta encoding of the same request is one new page plus 5-byte
    /// references and sails through.
    #[test]
    fn oversized_full_request_ships_as_small_delta() {
        let cfg = LsmConfig { level_thresholds: vec![2, 1000], page_capacity: 1 };
        let value = vec![0xCD; 256 * 1024];
        let mut cloud = Cloud::new(cfg.clone());
        let source_l0 = (0..65).map(|k| cloud.certified_l0(k, value.clone())).collect();
        let req1 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0,
            source_pages: vec![],
            target_pages: vec![],
            epoch: 0,
        };
        let res1 = cloud.merge(&req1);
        let touch = cloud.certified_l0(1 << 40, b"small".to_vec());
        let req2 = MergeRequest {
            edge: cloud.edge,
            source_level: 0,
            source_l0: vec![touch],
            source_pages: vec![],
            target_pages: res1.new_target_pages.clone(),
            epoch: res1.new_epoch,
        };

        // The full request is genuinely over the frame cap.
        let full = WireMsg::MergeReq(Box::new(req2.clone()));
        let full_payload = full.encode_payload();
        assert!(
            full_payload.len() > MAX_FRAME_PAYLOAD as usize,
            "full request must exceed the cap ({} <= {MAX_FRAME_PAYLOAD})",
            full_payload.len()
        );
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, full.kind(), &full_payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "write_frame refuses it");

        // The delta request for the same merge is tiny and round-trips.
        let mut retained = HashMap::new();
        retained.insert(1u32, RetainedLevel::over(cloud.edge, 1, &res1.new_target_pages));
        let delta = DeltaMergeRequest::delta_against(&req2, &retained);
        assert!(delta.reused_pages() >= 60, "almost everything is a reference");
        let msg = WireMsg::MergeReqDelta(Box::new(delta));
        let bytes = msg.encode_frame();
        assert!(
            bytes.len() < 1024 * 1024,
            "delta frame scales with changed pages, not target size (got {})",
            bytes.len()
        );
        let Ok(WireMsg::MergeReqDelta(back)) = WireMsg::decode_frame(&bytes) else {
            panic!("delta request frame decodes");
        };
        let resolved = cloud.index.resolve_delta_request(&back).expect("resolves");
        assert_eq!(resolved, req2);
        cloud.merge(&resolved);
    }
}

/// The framed encoding of the certify message stays O(1): data-free
/// certification survives the trip onto real bytes.
#[test]
fn framed_certify_is_still_data_free() {
    let edge = Identity::derive("edge", 1);
    let d = sha256(b"block");
    let msg = WireMsg::BlockCertify { bid: BlockId(1), digest: d, signature: edge.sign(b"x") };
    assert!(msg.encode_frame().len() < 100, "digest-only certification on the wire");
}
