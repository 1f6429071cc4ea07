//! The zero-copy byte-slice decoder must be observationally equivalent
//! to the serde reference decoder: on any input line — well-formed in any
//! field order, decorated with unknown fields and whitespace, or
//! malformed anywhere — both decoders must agree on the verdict, on the
//! decoded record, and (through the readers) on the 1-based position of
//! the first error and on the resume fingerprint chain. This suite is
//! part of the acceptance gate for the columnar ingest path: the serde
//! decoder stays in the tree as the executable specification the fast
//! path is judged against. The chunked readers every `kav stream` and
//! `kav serve` input goes through (`LineStream`, `FrameStream`) are held
//! to the same standard, fed by a source that yields a few bytes per read.

use k_atomicity::history::frame::{FrameReader, FrameStream, FrameWriter, FRAME_LEN, FRAME_LEN_V2};
use k_atomicity::history::fxhash::Fingerprint;
use k_atomicity::history::ndjson::{self, NdjsonError, StreamRecord};
use k_atomicity::history::{OpKind, Operation, Time, Value, Weight};
use proptest::prelude::*;
use std::io::Read;

/// A [`Read`] that yields 1–7 bytes per call in a seeded order, so line
/// and frame boundaries (and multi-byte characters) land anywhere in a
/// refill of the chunked readers.
struct Trickle<'a> {
    bytes: &'a [u8],
    state: u64,
}

impl<'a> Trickle<'a> {
    fn new(bytes: &'a [u8], seed: u64) -> Self {
        Trickle { bytes, state: seed }
    }
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = (1 + (self.state >> 33) as usize % 7)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// What a reader step yielded, comparable across readers: the record,
/// the 1-based position of a parse error, or an I/O error (`None`).
type Step = Option<Result<StreamRecord, Option<usize>>>;

fn step(item: &Option<Result<StreamRecord, NdjsonError>>) -> Step {
    item.as_ref().map(|result| match result {
        Ok(record) => Ok(*record),
        Err(NdjsonError::Parse { line, .. }) => Err(Some(*line)),
        Err(NdjsonError::Io(_)) => Err(None),
    })
}

fn record_strategy() -> impl Strategy<Value = StreamRecord> {
    (
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        0u64..1_000,
        (any::<u32>(), 0u64..4),
    )
        .prop_map(|(key, is_write, value, start, len, (weight, client))| StreamRecord {
            key,
            kind: if is_write { OpKind::Write } else { OpKind::Read },
            value: Value(value),
            start: Time(start),
            finish: Time(start.saturating_add(len)),
            weight: Weight(weight),
            client,
        })
}

/// Renders `record` as one JSON line in a chosen field order, optionally
/// dropping the defaultable fields, inserting an unknown field, and
/// sprinkling insignificant whitespace — every variant a compliant
/// decoder must accept.
fn render_line(
    record: &StreamRecord,
    rotation: usize,
    drop_defaults: bool,
    unknown: Option<&str>,
    pad: bool,
) -> String {
    let kind = match record.kind {
        OpKind::Read => "\"read\"",
        OpKind::Write => "\"write\"",
    };
    let mut fields = vec![
        format!("\"kind\":{kind}"),
        format!("\"value\":{}", record.value.0),
        format!("\"start\":{}", record.start.as_u64()),
        format!("\"finish\":{}", record.finish.as_u64()),
    ];
    // `key` and `weight` are #[serde(default)]: omitting them must decode
    // as 0 and as the unit weight.
    if !(drop_defaults && record.key == 0) {
        fields.push(format!("\"key\":{}", record.key));
    }
    if !(drop_defaults && record.weight == Weight::UNIT) {
        fields.push(format!("\"weight\":{}", record.weight.0));
    }
    // `client` is #[serde(default)] too: omitting it must decode as 0
    // (the untagged sentinel).
    if !(drop_defaults && record.client == 0) {
        fields.push(format!("\"client\":{}", record.client));
    }
    if let Some(extra) = unknown {
        fields.push(extra.to_owned());
    }
    let n = fields.len();
    fields.rotate_left(rotation % n);
    let sep = if pad { " ,\t" } else { "," };
    let body = fields.join(sep);
    if pad {
        format!(" {{ {body} }}\t")
    } else {
        format!("{{{body}}}")
    }
}

/// Picks `Some(UNKNOWN_FIELDS[i])` for in-range `i`, `None` past the end
/// (the vendored proptest has no option strategy, so the range carries
/// one extra slot meaning "no unknown field").
fn unknown_field(pick: usize) -> Option<&'static str> {
    UNKNOWN_FIELDS.get(pick).copied()
}

/// Unknown-field payloads the decoders must validate and skip: nested
/// containers, escapes (including surrogate pairs), floats, literals.
const UNKNOWN_FIELDS: &[&str] = &[
    "\"tag\":\"reconfig \\u0041\\n\\\"quoted\\\"\"",
    "\"emoji\":\"\\ud83d\\ude00\"",
    "\"nested\":{\"a\":[1,2,{\"b\":null}],\"c\":false}",
    "\"f\":-12.5e3",
    "\"deep\":[[[[\"x\"]]]]",
    "\"big\":18446744073709551615",
];

/// Hand-written malformed lines hitting failure modes a lazy scanner
/// might miss: truncation, trailing garbage, bad enum tags, sign and
/// overflow errors (including inside skipped fields), lone surrogates,
/// missing fields, doubled commas, non-object top level, fractional
/// weights.
const BREAKAGES: &[&str] = &[
    "{\"kind\":\"write\",\"value\":1,\"start\":0",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3}x",
    "{\"kind\":\"wrote\",\"value\":1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":-1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":18446744073709551616}",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3,\"x\":\"\\ud800\"}",
    "{\"value\":1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":1,,\"start\":0,\"finish\":3}",
    "[{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3}]",
    "{\"kind\":\"write\" \"value\":1,\"start\":0,\"finish\":3}",
    "{\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":3,\"weight\":0.5}",
    "null",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any well-formed rendering — any field order, defaults dropped,
    /// unknown fields, whitespace — decodes to the same record on both
    /// paths.
    #[test]
    fn well_formed_lines_decode_identically(
        record in record_strategy(),
        rotation in 0usize..8,
        drop_defaults in any::<bool>(),
        unknown_pick in 0usize..=UNKNOWN_FIELDS.len(),
        pad in any::<bool>(),
    ) {
        let line =
            render_line(&record, rotation, drop_defaults, unknown_field(unknown_pick), pad);
        let reference = ndjson::parse_line(&line).expect("reference accepts");
        let fast = ndjson::parse_line_bytes(line.as_bytes()).expect("fast path accepts");
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(&fast, &record);
    }

    /// On arbitrary printable input the decoders agree on the verdict,
    /// and whenever both accept they decode the same record. (Error
    /// *messages* are not part of the contract; the verdict and, below,
    /// the error line are.)
    #[test]
    fn arbitrary_lines_get_the_same_verdict(
        bytes in prop::collection::vec(0x20u8..0x7f, 0..60),
    ) {
        let line = String::from_utf8(bytes).expect("printable ASCII");
        let reference = ndjson::parse_line(&line);
        let fast = ndjson::parse_line_bytes(line.as_bytes());
        prop_assert_eq!(fast.is_ok(), reference.is_ok(), "line: {:?}", line);
        if let (Ok(fast), Ok(reference)) = (fast, reference) {
            prop_assert_eq!(fast, reference);
        }
    }

    /// Truncating or corrupting a valid line at any byte keeps the
    /// decoders in agreement.
    #[test]
    fn mutilated_lines_get_the_same_verdict(
        record in record_strategy(),
        unknown_pick in 0usize..=UNKNOWN_FIELDS.len(),
        cut_permille in 0usize..=1000,
        flip in (any::<bool>(), any::<usize>(), any::<u8>()),
    ) {
        let line = render_line(&record, 0, false, unknown_field(unknown_pick), false);
        let mut bytes = line.into_bytes();
        bytes.truncate(bytes.len() * cut_permille / 1000);
        let (flip_on, flip_at, flip_byte) = flip;
        if flip_on && !bytes.is_empty() {
            // Keep the mutation valid UTF-8 so both paths see a string
            // (invalid UTF-8 is an I/O-level concern, tested at the
            // reader layer).
            let at = flip_at % bytes.len();
            bytes[at] = flip_byte & 0x7f;
        }
        let line = String::from_utf8(bytes).expect("ASCII stays ASCII");
        let reference = ndjson::parse_line(&line);
        let fast = ndjson::parse_line_bytes(line.as_bytes());
        prop_assert_eq!(fast.is_ok(), reference.is_ok(), "line: {:?}", line);
        if let (Ok(fast), Ok(reference)) = (fast, reference) {
            prop_assert_eq!(fast, reference);
        }
    }

    /// Document level: over a stream mixing valid, blank and malformed
    /// lines, the buffered serde reader and the zero-copy slice reader
    /// yield the same record sequence, the same 1-based error lines, the
    /// same line counts and the same resume fingerprints — which is what
    /// lets a checkpoint written from one ingest path resume under the
    /// other.
    #[test]
    fn readers_agree_on_records_errors_and_fingerprints(
        records in prop::collection::vec(record_strategy(), 0..12),
        breakage_picks in prop::collection::vec(0usize..BREAKAGES.len(), 0..4),
        blanks in 0usize..3,
        trailing_newline in any::<bool>(),
        shuffle_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
    ) {
        let mut lines: Vec<String> = records
            .iter()
            .enumerate()
            .map(|(i, r)| render_line(r, i, i % 2 == 0, None, i % 3 == 0))
            .collect();
        lines.extend(breakage_picks.iter().map(|&i| BREAKAGES[i].to_owned()));
        lines.extend((0..blanks).map(|_| String::new()));
        // Deterministic Fisher-Yates so malformed lines land anywhere.
        let mut state = shuffle_seed | 1;
        for i in (1..lines.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            lines.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut doc = lines.join("\n");
        if trailing_newline && !doc.is_empty() {
            doc.push('\n');
        }

        let mut reference =
            ndjson::Reader::with_fingerprint(doc.as_bytes(), Fingerprint::new());
        let mut fast =
            ndjson::SliceReader::with_fingerprint(doc.as_bytes(), Fingerprint::new());
        // The chunked reader, fed a few bytes per read, is the third party.
        let mut chunked = ndjson::LineStream::with_fingerprint(
            Trickle::new(doc.as_bytes(), chunk_seed),
            Fingerprint::new(),
        );
        loop {
            let (a, b) = (reference.next(), fast.next());
            prop_assert_eq!(step(&a), step(&chunked.next()), "chunked reader diverges");
            prop_assert_eq!(reference.lines_read(), chunked.lines_read(), "chunked line counts");
            prop_assert_eq!(reference.fingerprint(), chunked.fingerprint(), "chunked fingerprints");
            prop_assert_eq!(
                reference.lines_read(),
                fast.lines_read(),
                "line counts diverge"
            );
            prop_assert_eq!(
                reference.fingerprint(),
                fast.fingerprint(),
                "fingerprints diverge at line {}",
                reference.lines_read()
            );
            match (a, b) {
                (None, None) => break,
                (Some(Ok(a)), Some(Ok(b))) => prop_assert_eq!(a, b),
                (
                    Some(Err(NdjsonError::Parse { line: a, .. })),
                    Some(Err(NdjsonError::Parse { line: b, .. })),
                ) => prop_assert_eq!(a, b, "error lines diverge: {} vs {}", a, b),
                (a, b) => prop_assert!(false, "readers diverge: {:?} vs {:?}", a, b),
            }
        }
    }

    /// The buffered line writer is byte-identical to serde serialisation,
    /// and both decoders roundtrip its output.
    #[test]
    fn buffered_writer_matches_serde(record in record_strategy()) {
        let mut line = String::new();
        ndjson::write_line_into(&record, &mut line);
        prop_assert_eq!(&line, &serde_json::to_string(&record).unwrap());
        prop_assert_eq!(&line, &ndjson::to_line(&record));
        prop_assert_eq!(ndjson::parse_line(&line).unwrap(), record.clone());
        prop_assert_eq!(ndjson::parse_line_bytes(line.as_bytes()).unwrap(), record);
    }

    /// The binary frame format roundtrips the same records the NDJSON
    /// paths carry, frame counts play the role line counts play for
    /// NDJSON, and truncation is detected at the right frame.
    #[test]
    fn frames_roundtrip_and_truncate_cleanly(
        records in prop::collection::vec(record_strategy(), 0..12),
        cut in 0usize..=FRAME_LEN,
        chunk_seed in any::<u64>(),
    ) {
        // Session-tagged records need the v2 layout (the v1 writer
        // rejects tags by contract), mirroring the CLI's auto-selection.
        let v2 = records.iter().any(|r| r.client != 0);
        let frame_len = if v2 { FRAME_LEN_V2 } else { FRAME_LEN };
        let mut writer =
            if v2 { FrameWriter::new_v2(Vec::new()) } else { FrameWriter::new(Vec::new()) };
        for record in &records {
            writer.write_record(record).unwrap();
        }
        let mut bytes = writer.finish().unwrap();

        let decoded: Vec<StreamRecord> = FrameReader::new(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(&decoded, &records);

        // Chop mid-frame (cut == FRAME_LEN appends nothing): every full
        // frame still decodes, then the partial frame errors with its
        // 1-based frame number.
        let extra: Vec<u8> = vec![0xABu8; cut % frame_len];
        bytes.extend_from_slice(&extra);
        let mut reader =
            FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        for (i, expected) in records.iter().enumerate() {
            let got = reader.next().unwrap().unwrap();
            prop_assert_eq!(&got, expected, "frame {}", i);
        }
        match reader.next() {
            None => prop_assert!(extra.is_empty(), "only a clean boundary ends quietly"),
            Some(Err(NdjsonError::Parse { line, .. })) => {
                prop_assert!(!extra.is_empty(), "clean boundaries must end quietly");
                prop_assert_eq!(line, records.len() + 1);
            }
            other => prop_assert!(false, "unexpected tail: {:?}", other),
        }
        // A consumed truncated tail counts as one frame, exactly like a
        // malformed NDJSON line counts as one line.
        let consumed_tail = u64::from(!extra.is_empty());
        prop_assert_eq!(reader.frames_read(), records.len() as u64 + consumed_tail);

        // The chunked reader, fed a few bytes per read, agrees with the
        // slice reader at every step.
        let mut slice = FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        let mut chunked =
            FrameStream::with_fingerprint(Trickle::new(&bytes, chunk_seed), Fingerprint::new())
                .unwrap();
        loop {
            let (a, b) = (step(&slice.next()), step(&chunked.next()));
            prop_assert_eq!(&a, &b, "chunked frame reader diverges");
            prop_assert_eq!(slice.frames_read(), chunked.frames_read());
            prop_assert_eq!(slice.fingerprint(), chunked.fingerprint());
            if a.is_none() {
                break;
            }
        }
    }
}

/// A frame file whose magic is missing or wrong must be rejected at
/// construction — NDJSON piped into `--format binary` fails fast instead
/// of decoding garbage frames.
#[test]
fn bad_magic_is_rejected_at_open() {
    assert!(FrameReader::new(b"{\"kind\":\"write\",\"value\":1}").is_err());
    assert!(FrameReader::new(b"KAVF9999").is_err());
    assert!(FrameReader::new(b"KAVF000").is_err(), "short magic");
}

/// Runs the serde reader, the slice reader and the chunked reader (at
/// several chunkings) over `doc`, requiring the same step, line count and
/// fingerprint after every call, and the same skip results.
fn assert_ndjson_readers_agree(doc: &[u8]) {
    for seed in 0..8u64 {
        let mut reference = ndjson::Reader::with_fingerprint(doc, Fingerprint::new());
        let mut slice = ndjson::SliceReader::with_fingerprint(doc, Fingerprint::new());
        let mut chunked =
            ndjson::LineStream::with_fingerprint(Trickle::new(doc, seed), Fingerprint::new());
        loop {
            let a = step(&reference.next());
            assert_eq!(a, step(&slice.next()), "slice reader diverges");
            assert_eq!(
                a,
                step(&chunked.next()),
                "chunked reader diverges (seed {seed})"
            );
            assert_eq!(reference.lines_read(), slice.lines_read());
            assert_eq!(reference.lines_read(), chunked.lines_read());
            assert_eq!(reference.fingerprint(), slice.fingerprint());
            assert_eq!(reference.fingerprint(), chunked.fingerprint());
            if a.is_none() {
                break;
            }
        }
        let lines = reference.lines_read();
        for n in [0, lines / 2, lines, lines + 1] {
            let mut reference = ndjson::Reader::with_fingerprint(doc, Fingerprint::new());
            let mut chunked =
                ndjson::LineStream::with_fingerprint(Trickle::new(doc, seed), Fingerprint::new());
            let (a, b) = (reference.skip_raw_lines(n), chunked.skip_raw_lines(n));
            assert_eq!(a.is_ok(), b.is_ok(), "skip {n} verdicts diverge");
            if let (Ok(a), Ok(b)) = (a, b) {
                assert_eq!(a, b, "skip {n} counts diverge");
            }
            assert_eq!(reference.lines_read(), chunked.lines_read());
            assert_eq!(reference.fingerprint(), chunked.fingerprint());
        }
    }
}

const GOOD_LINE: &str = "{\"key\":3,\"kind\":\"write\",\"value\":1,\"start\":0,\"finish\":2}";

/// A valid line whose unknown field pads it to `len` bytes or more.
fn padded_line(len: usize) -> String {
    format!(
        "{{\"kind\":\"read\",\"value\":1,\"start\":3,\"finish\":4,\"pad\":\"{}\"}}",
        "x".repeat(len)
    )
}

#[test]
fn chunked_reader_handles_lines_longer_than_its_buffer() {
    // Well past the reader's initial 64 KiB buffer, valid and malformed.
    let long = padded_line(200_000);
    let doc = format!("{GOOD_LINE}\n{long}\n{}\n{GOOD_LINE}", &long[..150_000]);
    assert_ndjson_readers_agree(doc.as_bytes());
    let records: Vec<_> = ndjson::LineStream::new(doc.as_bytes()).collect();
    assert_eq!(records.len(), 4);
    assert!(records[1].is_ok() && records[2].is_err() && records[3].is_ok());
}

#[test]
fn chunked_reader_handles_crlf_line_endings() {
    let doc = format!("{GOOD_LINE}\r\n\r\n{{ bad\r\n{GOOD_LINE}\r\n");
    assert_ndjson_readers_agree(doc.as_bytes());
    let mut reader = ndjson::LineStream::new(doc.as_bytes());
    assert!(reader.next().unwrap().is_ok());
    assert!(matches!(
        reader.next(),
        Some(Err(NdjsonError::Parse { line: 3, .. }))
    ));
    assert!(reader.next().unwrap().is_ok());
    assert!(reader.next().is_none());
    assert_eq!(reader.lines_read(), 4);
}

#[test]
fn chunked_reader_handles_utf8_across_a_refill() {
    // The first 64 KiB refill ends one byte into the interesting sequence
    // of the second line — a valid `é`, a truncated sequence, or bytes
    // that are never UTF-8 — even when the source fills whole buffers;
    // the trickle puts it anywhere else.
    let valid = "{\"kind\":\"read\",\"value\":1,\"start\":3,\"finish\":4,\"t\":\"\u{e9}\"}";
    let cases: [(&[u8], usize); 3] = [
        (valid.as_bytes(), valid.find('\u{e9}').unwrap()),
        (&[0xC3, b'\n'], 0),
        (&[b'{', 0xFF, 0xFE, b'}'], 1),
    ];
    for (second, at) in cases {
        let first_len = 64 * 1024 - 1 - at;
        let mut doc = padded_line(first_len - 1 - padded_line(0).len()).into_bytes();
        doc.push(b'\n');
        assert_eq!(doc.len(), first_len);
        doc.extend_from_slice(second);
        doc.extend_from_slice(format!("\n{GOOD_LINE}\n").as_bytes());
        assert_ndjson_readers_agree(&doc);
        let steps: Vec<Step> = ndjson::LineStream::new(&doc[..])
            .map(|r| step(&Some(r)))
            .collect();
        let expected_second = if at > 1 {
            Some(Ok(()))
        } else {
            Some(Err(None))
        };
        assert_eq!(steps[1].as_ref().map(|r| r.map(|_| ())), expected_second);
    }
}

#[test]
fn chunked_readers_handle_empty_input() {
    assert_ndjson_readers_agree(b"");
    let mut reader = ndjson::LineStream::with_fingerprint(&b""[..], Fingerprint::new());
    assert!(reader.next().is_none());
    assert_eq!(reader.lines_read(), 0);
    assert_eq!(reader.fingerprint(), Some(Fingerprint::new().value()));

    // No bytes at all is not a frame stream; the bare magic is an empty
    // one.
    assert!(FrameStream::new(Trickle::new(b"", 0)).is_err());
    let magic = FrameWriter::new(Vec::new()).finish().unwrap();
    let mut frames = FrameStream::new(Trickle::new(&magic, 0)).unwrap();
    assert!(frames.next().is_none());
    assert_eq!(frames.frames_read(), 0);
}

#[test]
fn chunked_frame_reader_reports_a_truncated_final_frame() {
    let records = [
        StreamRecord::new(1, Operation::write(Value(1), Time(0), Time(2))),
        StreamRecord::new(
            2,
            Operation::read(Value(1), Time(3), Time(5)).with_client(7),
        ),
    ];
    let mut writer = FrameWriter::new_v2(Vec::new());
    for record in &records {
        writer.write_record(record).unwrap();
    }
    let mut bytes = writer.finish().unwrap();
    bytes.truncate(bytes.len() - 5);
    for seed in 0..8u64 {
        let mut slice = FrameReader::with_fingerprint(&bytes, Fingerprint::new()).unwrap();
        let mut chunked =
            FrameStream::with_fingerprint(Trickle::new(&bytes, seed), Fingerprint::new()).unwrap();
        assert_eq!(step(&chunked.next()), Some(Ok(records[0])));
        assert_eq!(
            step(&chunked.next()),
            Some(Err(Some(2))),
            "truncated frame 2"
        );
        assert!(chunked.next().is_none());
        assert_eq!(chunked.frames_read(), 2);
        while slice.next().is_some() {}
        assert_eq!(slice.frames_read(), 2);
        assert_eq!(slice.fingerprint(), chunked.fingerprint());
        // Skipping counts the truncated tail as one frame too.
        let mut skip =
            FrameStream::with_fingerprint(Trickle::new(&bytes, seed), Fingerprint::new()).unwrap();
        assert_eq!(skip.skip_raw_frames(5).unwrap(), 2);
        assert_eq!(skip.fingerprint(), slice.fingerprint());
    }
}
