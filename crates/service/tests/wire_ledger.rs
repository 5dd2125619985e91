//! The golden ledger of the wire: for every sample frame (see
//! `frames/mod.rs`) the bytes it encodes to, a digest of the value it
//! decodes to, and what the decoder makes of every truncation and of
//! every single-byte overwrite with `0x00` and with `0xFF`. Overwrites
//! inside record sections are left out (those bytes are the record
//! codec's, not the frame layout's).
//!
//! `wire_ledger.txt` pins today's bytes: a codec change that moves one
//! byte, one decoded value or one accept/refuse outcome fails this test.
//! On a mismatch the test writes what the codec now produces to
//! `wire_ledger.actual.txt` under cargo's test scratch directory, to diff
//! against the committed ledger.

mod frames;

use std::fmt::Write as _;

use frames::{decode, digest, samples, Outcome};

/// One character per case: `A` accepted, `R` refused with a protocol
/// error, `N` not a write frame, `.` inside a record section.
fn outcome_char(outcome: &Outcome) -> char {
    match outcome {
        Outcome::Accepted(_) => 'A',
        Outcome::Refused => 'R',
        Outcome::NotWrite => 'N',
    }
}

fn render() -> String {
    let mut out = String::new();
    for s in samples() {
        let hex: String = s.frame.iter().map(|b| format!("{b:02x}")).collect();
        let value = match decode(s.dir, &s.frame) {
            Outcome::Accepted(debug) => format!("{:016x}", digest(debug.as_bytes())),
            other => panic!("{}: a sample frame must decode, got {other:?}", s.label),
        };
        // Every accepted mutant's decoded value feeds one digest, so a
        // mutant that still decodes cannot silently decode differently.
        let mut mutants = Vec::new();
        let mut case = |bytes: &[u8]| {
            let outcome = decode(s.dir, bytes);
            if let Outcome::Accepted(debug) = &outcome {
                mutants.extend_from_slice(debug.as_bytes());
                mutants.push(b'\n');
            }
            outcome_char(&outcome)
        };
        let cuts: String = (0..s.frame.len())
            .map(|cut| case(&s.frame[..cut]))
            .collect();
        let inside = |at: usize| s.records.iter().any(|r| r.contains(&at));
        let mut overwrite = |byte: u8| -> String {
            (0..s.frame.len())
                .map(|at| {
                    if inside(at) {
                        return '.';
                    }
                    let mut bent = s.frame.clone();
                    bent[at] = byte;
                    case(&bent)
                })
                .collect()
        };
        let zero = overwrite(0x00);
        let ones = overwrite(0xFF);
        writeln!(out, "# {} ({:?})", s.label, s.dir).unwrap();
        writeln!(out, "frame {hex}").unwrap();
        writeln!(out, "value {value}").unwrap();
        writeln!(out, "cut   {cuts}").unwrap();
        writeln!(out, "0x00  {zero}").unwrap();
        writeln!(out, "0xff  {ones}").unwrap();
        writeln!(out, "mutants {:016x}", digest(&mutants)).unwrap();
    }
    out
}

#[test]
fn every_frame_matches_the_golden_ledger() {
    let actual = render();
    let golden = include_str!("wire_ledger.txt");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_ledger.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "the codec drifted from tests/wire_ledger.txt at line {}; now: {}",
            first + 1,
            path.display()
        );
    }
}
