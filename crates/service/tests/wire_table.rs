//! The frame table (`proto::FRAME_TABLE`) against what it generates:
//! every row has a sample frame, every sample survives the hostile-frame
//! corpus its row implies, and `docs/PROTOCOL.md`'s frame tables are the
//! table's own rendering.

mod frames;

use std::collections::BTreeSet;

use frames::{decode, samples, Dir, Outcome, Sample};
use reldiv_service::proto::{
    self, decode_response, encode_write, Family, FrameDoc, Request, WriteFrame, FRAME_TABLE,
    STATS_COUNTERS,
};

fn family(name: &str) -> &'static Family {
    nested(name).unwrap_or_else(|| panic!("no family {name}"))
}

/// The decoder a top-level family's frames go through.
const TOP: [(&str, Dir); 3] = [
    ("Requests", Dir::Request),
    ("Writes", Dir::Write),
    ("Responses", Dir::Reply),
];

/// The rows a frame's bytes select, outermost first: a row whose first
/// field is a tagged family continues into that family's row.
fn rows_of(family: &'static Family, frame: &[u8]) -> Option<Vec<&'static FrameDoc>> {
    let row = family
        .frames
        .iter()
        .find(|row| frame.starts_with(row.tag))?;
    let mut rows = vec![row];
    if let Some(inner) = row.fields.first().and_then(|(_, form)| nested(form)) {
        if inner.frames.iter().all(|r| !r.tag.is_empty()) {
            rows.extend(rows_of(inner, &frame[row.tag.len()..])?);
        }
    }
    Some(rows)
}

/// A sample's rows. A request no request row claims is a write frame
/// (`Register`).
fn frame_rows(s: &Sample) -> Vec<&'static FrameDoc> {
    let tops: &[&str] = match s.dir {
        Dir::Request => &["Requests", "Writes"],
        Dir::Write => &["Writes"],
        Dir::Reply => &["Responses"],
    };
    let rows = tops.iter().find_map(|name| rows_of(family(name), &s.frame));
    rows.unwrap_or_else(|| panic!("{}: no row opens the frame", s.label))
}

/// The family a wire form names, if it is one.
fn nested(form: &str) -> Option<&'static Family> {
    FRAME_TABLE.iter().find(|f| f.name == form)
}

/// How many trailing extensions a frame of these rows may stop before:
/// the innermost row's own, plus those of a section that ends it (a
/// `DivideBody` keeps its extensions optional ahead of the epoch).
fn optional_tail(rows: &[&FrameDoc]) -> usize {
    let row = rows.last().unwrap();
    let ending = row.fields.last().and_then(|(_, form)| nested(form));
    let section = ending.filter(|f| f.frames.len() == 1 && f.frames[0].tag.is_empty());
    row.ext.len() + section.map_or(0, |f| f.frames[0].ext.len())
}

#[test]
fn every_row_has_a_sample() {
    let samples = samples();
    let mut uncovered = Vec::new();
    for (name, dir) in TOP {
        for prefix in prefixes(family(name)) {
            let covered = samples
                .iter()
                .any(|s| s.dir == dir && s.frame.starts_with(&prefix));
            if !covered {
                uncovered.push(format!("{name} {prefix:02x?}"));
            }
        }
    }
    assert!(uncovered.is_empty(), "rows without a sample: {uncovered:?}");
}

/// Every tag sequence that opens a frame of `family`.
fn prefixes(family: &'static Family) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for row in family.frames {
        match row.fields.first().and_then(|(_, form)| nested(form)) {
            Some(inner) if inner.frames.iter().all(|r| !r.tag.is_empty()) => {
                for tail in prefixes(inner) {
                    out.push([row.tag, &tail[..]].concat());
                }
            }
            _ => out.push(row.tag.to_vec()),
        }
    }
    out
}

/// Re-encodes an accepted value of a sample's direction.
fn reencode(dir: Dir, bytes: &[u8]) -> Vec<u8> {
    match dir {
        Dir::Request => Request::decode(bytes).unwrap().encode().unwrap(),
        Dir::Reply => proto::encode_response(&decode_response(bytes).unwrap()).unwrap(),
        Dir::Write => {
            let w = proto::decode_write(bytes).unwrap().unwrap();
            let rows: Vec<_> = w.rows.tuples().collect();
            encode_write(&w.name, &w.kind, &w.schema, &rows, w.epoch).unwrap()
        }
    }
}

/// What the decoder accepts it re-encodes, and the re-encoding decodes to
/// the same value: a decoder never takes what the encoder would refuse.
fn check_accepted(s: &Sample, bytes: &[u8], what: &str) {
    let again = reencode(s.dir, bytes);
    assert_eq!(
        decode(s.dir, &again),
        decode(s.dir, bytes),
        "{}: {what}",
        s.label
    );
}

#[test]
fn every_row_survives_its_hostile_frame_corpus() {
    for s in samples() {
        let rows = frame_rows(&s);
        assert_eq!(
            reencode(s.dir, &s.frame),
            s.frame,
            "{}: round trip",
            s.label
        );
        // Truncations: a frame may stop only where a trailing extension
        // would start, and then reads as if the extension took its
        // default.
        let mut accepted = 0;
        for cut in 0..s.frame.len() {
            let bytes = &s.frame[..cut];
            if let Outcome::Accepted(_) = decode(s.dir, bytes) {
                accepted += 1;
                assert!(
                    reencode(s.dir, bytes).starts_with(bytes),
                    "{}: cut {cut}",
                    s.label
                );
            }
        }
        assert_eq!(accepted, optional_tail(&rows), "{}: accepted cuts", s.label);
        // Every byte outside the record sections overwritten with 0x00,
        // 0xFF and each single-bit flip: refused with a typed protocol
        // error (`decode` checks the type), or accepted and stable.
        for at in (0..s.frame.len()).filter(|at| s.records.iter().all(|r| !r.contains(at))) {
            let original = s.frame[at];
            let bytes = [0x00, 0xFF]
                .into_iter()
                .chain((0..8).map(|bit| original ^ (1 << bit)));
            for byte in bytes {
                let mut bent = s.frame.clone();
                bent[at] = byte;
                if let Outcome::Accepted(_) = decode(s.dir, &bent) {
                    check_accepted(&s, &bent, &format!("byte {at} = {byte:#04x}"));
                }
            }
        }
    }
}

#[test]
fn a_write_frame_is_read_as_a_request_only_when_it_is_a_register() {
    for s in samples().iter().filter(|s| s.dir == Dir::Write) {
        let write: WriteFrame<_> = proto::decode_write(&s.frame).unwrap().unwrap();
        let request = Request::decode(&s.frame);
        match write.kind {
            proto::WriteKind::Register => assert!(request.is_ok(), "{}", s.label),
            _ => assert!(request.is_err(), "{}", s.label),
        }
    }
}

// ---------------------------------------------------------------------
// docs/PROTOCOL.md

const BEGIN: &str = "<!-- frame table: begin -->";
const END: &str = "<!-- frame table: end -->";

fn hex(tag: &[u8]) -> String {
    match tag {
        [] => "—".into(),
        _ => tag
            .iter()
            .map(|b| format!("`{b:#04x}`"))
            .collect::<Vec<_>>()
            .join(" "),
    }
}

fn fields(list: &[(&str, &str)]) -> String {
    match list {
        [] => "—".into(),
        _ => list
            .iter()
            .map(|(name, form)| format!("`{form}` {name}"))
            .collect::<Vec<_>>()
            .join(", "),
    }
}

/// The frame table as `docs/PROTOCOL.md` shows it.
fn render() -> String {
    let mut out = String::new();
    for family in FRAME_TABLE {
        out.push_str(&format!("\n#### `{}`\n\n", family.name));
        out.push_str("| tag | row | fields | trailing extensions |\n|---|---|---|---|\n");
        for row in family.frames {
            out.push_str(&format!(
                "| {} | `{}` | {} | {} |\n",
                hex(row.tag),
                row.name,
                fields(row.fields),
                fields(row.ext)
            ));
        }
    }
    let counters: Vec<String> = STATS_COUNTERS.iter().map(|c| format!("`{c}`")).collect();
    out.push_str(&format!(
        "\n`Counters`, in wire order: {}.\n\n",
        counters.join(", ")
    ));
    out
}

fn protocol_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn protocol_md_shows_the_frame_table() {
    let doc = protocol_md();
    let block = doc
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(block, _)| block);
    let actual = render();
    if block != Some(actual.as_str()) {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frame_table.md");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "docs/PROTOCOL.md's frame table drifted from proto::FRAME_TABLE; \
             the table renders to {} (it belongs between {BEGIN} and {END})",
            path.display()
        );
    }
}

/// Every wire form a row names is a family (rendered above) or is
/// described in PROTOCOL.md's wire-form table.
#[test]
fn protocol_md_describes_every_wire_form() {
    let doc = protocol_md();
    let (_, forms) = doc
        .split_once("## Wire forms")
        .expect("a wire-form section");
    let (forms, _) = forms.split_once("\n## ").expect("a section after it");
    let families: BTreeSet<&str> = FRAME_TABLE.iter().map(|f| f.name).collect();
    let mut missing = BTreeSet::new();
    for row in FRAME_TABLE.iter().flat_map(|f| f.frames) {
        for (_, form) in row.fields.iter().chain(row.ext) {
            let names = form
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .filter(|t| t.starts_with(|c: char| c.is_ascii_uppercase()) && !t.contains('_'));
            for name in names {
                if !families.contains(name) && !forms.contains(&format!("`{name}")) {
                    missing.insert(name.to_owned());
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "forms PROTOCOL.md does not describe: {missing:?}"
    );
}
