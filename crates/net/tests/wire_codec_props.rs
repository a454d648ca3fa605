//! Property tests of the wire codec: every frame round-trips, every strict
//! prefix asks for more bytes, and arbitrary or corrupted bytes decode to a
//! frame, a request for more bytes, or a typed [`WireError`] — never a
//! panic.  A golden-bytes test pins the `Done` layout.

use proptest::prelude::*;
use rdx_core::budget::BudgetError;
use rdx_core::error::{DeadlineError, RdxError, Side, TenantQuotaKind};
use rdx_core::strategy::{DsmPostProjection, ProjectionCode, SecondSideCode};
use rdx_net::{
    decode_frame, encode_done, encode_frame, Frame, SubmitSpec, WireError, WireReport,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, WIRE_VERSION,
};

/// Most rows a generated `Done` column holds.
const MAX_ROWS: u64 = 300;

/// A splitmix64 stream: the shim draws one seed per case, and every frame
/// field is derived from it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    fn opt_u32(&mut self) -> Option<u32> {
        self.flag().then(|| self.next() as u32)
    }

    fn opt_u64(&mut self) -> Option<u64> {
        self.flag().then(|| self.next())
    }

    fn text(&mut self) -> String {
        let len = self.below(24);
        (0..len)
            .map(|_| char::from(b' ' + self.below(95) as u8))
            .collect()
    }

    fn codes(&mut self) -> DsmPostProjection {
        let first = match self.below(3) {
            0 => ProjectionCode::Unsorted,
            1 => ProjectionCode::Sorted,
            _ => ProjectionCode::PartialCluster,
        };
        let second = if self.flag() {
            SecondSideCode::Decluster
        } else {
            SecondSideCode::Unsorted
        };
        DsmPostProjection::with_codes(first, second)
    }

    fn error(&mut self) -> RdxError {
        let n = self.next();
        match self.below(12) {
            0 => RdxError::Budget(BudgetError::ZeroBytes),
            1 => RdxError::Budget(BudgetError::BelowOneRow {
                budget_bytes: n as usize,
                bytes_per_row: self.next() as usize,
            }),
            2 => RdxError::UnknownRelation { id: n as u32 },
            3 => RdxError::TooManyColumns {
                side: if self.flag() {
                    Side::Larger
                } else {
                    Side::Smaller
                },
                requested: n as usize,
                available: self.next() as usize,
            },
            4 => RdxError::SelectionMismatch {
                selection_base: n as usize,
                base_cardinality: self.next() as usize,
            },
            5 => RdxError::UnknownTicket { ticket: n },
            6 => RdxError::Deadline(DeadlineError::Infeasible {
                predicted_ns: n,
                deadline_ns: self.next(),
            }),
            7 => RdxError::Deadline(DeadlineError::Exceeded {
                consumed_ns: n,
                deadline_ns: self.next(),
            }),
            8 => RdxError::Cancelled,
            9 => RdxError::WorkerPanicked { worker: n as usize },
            10 => RdxError::TenantQuota {
                tenant: n as u32,
                kind: TenantQuotaKind::InFlight {
                    in_flight: self.next() as usize,
                    limit: self.next() as usize,
                },
            },
            _ => RdxError::TenantQuota {
                tenant: n as u32,
                kind: TenantQuotaKind::ResidentBytes {
                    needed: self.next() as usize,
                    in_use: self.next() as usize,
                    limit: self.next() as usize,
                },
            },
        }
    }

    /// A `Done` report with 0-8 columns of 0-[`MAX_ROWS`] rows.
    fn report(&mut self) -> WireReport {
        let ncols = self.below(9) as usize;
        let rows = self.below(MAX_ROWS + 1) as usize;
        WireReport {
            rows: rows as u64,
            chunks: self.next(),
            cache_hit: self.flag(),
            share_bytes: self.next(),
            columns: (0..ncols)
                .map(|_| (0..rows).map(|_| self.next() as i32).collect())
                .collect(),
        }
    }

    /// Any frame type, `Done` three times as often as each other one.
    fn frame(&mut self) -> Frame {
        let ticket = self.next();
        match self.below(14) {
            0 => Frame::Hello {
                tenant: self.flag().then(|| self.text()),
            },
            1 => Frame::Submit(SubmitSpec {
                larger: self.next() as u32,
                smaller: self.next() as u32,
                project_larger: self.next() as u32,
                project_smaller: self.next() as u32,
                budget_bytes: self.opt_u64(),
                threads: self.opt_u32(),
                codes: self.flag().then(|| self.codes()),
                deadline_ns: self.opt_u64(),
                priority: self.next() as u32,
            }),
            2 => Frame::Poll { ticket },
            3 => Frame::Cancel { ticket },
            4 => Frame::HelloOk {
                version: self.next() as u8,
                tenant: self.opt_u32(),
            },
            5 => Frame::Submitted { ticket },
            6 => Frame::Queued {
                ticket,
                position: self.next(),
            },
            7 => Frame::Chunk {
                ticket,
                chunks: self.next(),
                rows: self.next(),
            },
            8 => Frame::Rejected {
                ticket,
                error: self.error(),
            },
            9 => Frame::CancelResult {
                ticket,
                cancelled: self.flag(),
            },
            10 => Frame::ProtocolError {
                detail: self.text(),
            },
            _ => Frame::Done {
                ticket,
                report: self.report(),
            },
        }
    }
}

fn encoded(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_frame(frame, &mut bytes);
    bytes
}

/// Decodes `bytes` under `max_payload`; a panic fails the property.  A
/// decoded frame must not claim more bytes than it was given.
fn decode_totally(bytes: &[u8], max_payload: u32) -> Result<Option<(Frame, usize)>, WireError> {
    let decoded = decode_frame(bytes, max_payload);
    if let Ok(Some((_, consumed))) = &decoded {
        assert!(*consumed <= bytes.len(), "consumed past the input");
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `decode(encode(f)) == f`, consuming exactly the encoded bytes; a
    /// `Done` encodes identically from borrowed columns.
    #[test]
    fn every_frame_round_trips(seed in 0u64..u64::MAX) {
        let frame = Gen(seed).frame();
        let bytes = encoded(&frame);
        prop_assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Ok(Some((frame.clone(), bytes.len())))
        );
        if let Frame::Done { ticket, report } = &frame {
            let mut borrowed = Vec::new();
            encode_done(
                *ticket,
                report.rows,
                report.chunks,
                report.cache_hit,
                report.share_bytes,
                report.columns.iter().map(Vec::as_slice),
                &mut borrowed,
            );
            prop_assert_eq!(borrowed, bytes);
        }
    }

    /// Every strict prefix of an encoded frame asks for more bytes.
    #[test]
    fn every_strict_prefix_is_incomplete(seed in 0u64..u64::MAX) {
        let bytes = encoded(&Gen(seed).frame());
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Ok(None),
                "prefix of {} of {} bytes",
                cut,
                bytes.len()
            );
        }
    }

    /// Flipping bits anywhere in a valid frame, or capping its payload
    /// below its size, yields a frame, `Ok(None)` or a typed error.
    #[test]
    fn corrupted_frames_never_panic(
        seed in 0u64..u64::MAX,
        flips in proptest::collection::vec(0u64..u64::MAX, 1..4),
    ) {
        let mut g = Gen(seed);
        let mut bytes = encoded(&g.frame());
        for flip in &flips {
            let at = (*flip % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << ((flip >> 32) % 8);
        }
        let _ = decode_totally(&bytes, DEFAULT_MAX_PAYLOAD);
        let cap = g.below(bytes.len() as u64) as u32;
        let _ = decode_totally(&bytes, cap);
    }

    /// Random payload bytes behind a valid header of any type byte reach
    /// every payload parser and still fail typed, never panic.
    #[test]
    fn random_payloads_never_panic(
        type_byte in 0u8..=255,
        payload in proptest::collection::vec(0u8..=255, 0..96),
        raw_header in 0u8..2,
    ) {
        let mut bytes = if raw_header == 1 {
            Vec::new() // wholly random bytes, header included
        } else {
            let mut header = vec![MAGIC[0], MAGIC[1], WIRE_VERSION, type_byte];
            header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            header
        };
        bytes.extend_from_slice(&payload);
        match decode_totally(&bytes, DEFAULT_MAX_PAYLOAD) {
            Ok(Some(_)) | Err(_) => {}
            Ok(None) => prop_assert!(
                raw_header == 1 || bytes.len() < HEADER_LEN,
                "a complete frame asked for more bytes"
            ),
        }
    }
}

/// The `Done` layout, byte for byte: header, ticket, rows, chunks,
/// cache-hit byte, share bytes, column count, then per column its length
/// and little-endian values.
#[test]
fn done_frame_golden_bytes() {
    let frame = Frame::Done {
        ticket: 0x0102_0304_0506_0708,
        report: WireReport {
            rows: 2,
            chunks: 1,
            cache_hit: true,
            share_bytes: 512,
            columns: vec![vec![1, -2], vec![]],
        },
    };
    #[rustfmt::skip]
    let golden: &[u8] = &[
        0x52, 0x44, 0x01, 0x85, 51, 0, 0, 0,         // "RD", v1, Done, payload 51 B
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // ticket
        2, 0, 0, 0, 0, 0, 0, 0,                       // rows
        1, 0, 0, 0, 0, 0, 0, 0,                       // chunks
        1,                                            // cache hit
        0, 2, 0, 0, 0, 0, 0, 0,                       // share bytes
        2, 0,                                         // two columns
        2, 0, 0, 0, 1, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF, // [1, -2]
        0, 0, 0, 0,                                   // []
    ];
    assert_eq!(encoded(&frame), golden);
    assert_eq!(
        decode_frame(golden, DEFAULT_MAX_PAYLOAD),
        Ok(Some((frame, golden.len())))
    );
}
