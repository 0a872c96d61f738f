//! The six declared tables of DESIGN.md checked against what the code
//! does, in both directions: a row the code does not do and a fact of the
//! code that no row states are both failures, and each failure names the
//! row (by line) or the fact. §13.3's opcodes are checked by sending every
//! byte to a live server; the WAL tags by encoding one record of each
//! variant and each packed `Overwrite` shape, and by decoding every tag
//! byte.
//!
//! Each check is a function over the markdown text, so
//! `seeded_drift_is_named_row_by_row` can feed it DESIGN.md with one row
//! edited and assert that the check names that row.

use asset::client::Client;
use asset::common::ParticipantState;
use asset::coord::CommitMessage;
use asset::server::protocol::{opcode, status, status_name};
use asset::server::AssetServer;
use asset::storage::log::{IdCursor, LogEntry, Patch};
use asset::storage::{LogRecord, RecordRef};
use asset::{Config, Database, Oid, Tid, TxnStatus};
use std::sync::OnceLock;

const DESIGN: &str = include_str!("../DESIGN.md");

/// A body row of a DESIGN.md table: its 1-based line and its cells,
/// trimmed, with backticks removed.
struct Row {
    line: usize,
    cells: Vec<String>,
}

impl Row {
    fn cell(&self, i: usize) -> &str {
        self.cells.get(i).map_or("", String::as_str)
    }

    /// The leading identifier of cell `i` (`Prepare { tids }` → `Prepare`).
    fn ident(&self, i: usize) -> &str {
        let c = self.cell(i);
        let end = c.find(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_');
        &c[..end.unwrap_or(c.len())]
    }

    /// Cell `i`'s leading number (`0x` hex or decimal) as hex text, so
    /// `0x0F` and `0x0f` agree; `?` if there is none.
    fn hex(&self, i: usize) -> String {
        let word = self.cell(i).split_whitespace().next().unwrap_or("");
        number(word).map_or("?".into(), |v| format!("{v:#04x}"))
    }
}

/// A byte written `0x` hex or decimal.
fn number(word: &str) -> Option<u8> {
    match word.strip_prefix("0x") {
        Some(hex) => u8::from_str_radix(hex, 16).ok(),
        None => word.parse().ok(),
    }
}

fn cells(line: &str) -> Vec<String> {
    let t = line.trim().trim_matches('|');
    t.split('|').map(|c| c.trim().replace('`', "")).collect()
}

/// The body rows of the table whose header row starts with `header`.
fn table(md: &str, header: &[&str]) -> Vec<Row> {
    let lines: Vec<&str> = md.lines().collect();
    let is_header = |l: &&str| {
        let h = cells(l).into_iter().map(|c| c.to_lowercase());
        l.trim_start().starts_with('|') && h.take(header.len()).eq(header.iter().copied())
    };
    let Some(at) = lines.iter().position(is_header) else {
        return Vec::new();
    };
    // the header, then the |---| separator, then rows up to the first non-row
    (at + 2..lines.len())
        .take_while(|&i| lines[i].trim_start().starts_with('|'))
        .map(|i| Row {
            line: i + 1,
            cells: cells(lines[i]),
        })
        .collect()
}

/// A relation row's key: `from → to`.
fn pair(r: &Row) -> String {
    format!("{} → {}", r.ident(0), r.ident(1))
}

/// Both directions at once: each row's `key` must be one of the code's
/// `facts`, and each fact some row's key.
fn diff(rows: &[Row], key: impl Fn(&Row) -> String, facts: &[String]) -> Vec<String> {
    let keys: Vec<String> = rows.iter().map(&key).collect();
    let unheld = rows.iter().zip(&keys).filter(|(_, k)| !facts.contains(k));
    let mut out: Vec<String> = unheld
        .map(|(r, k)| format!("DESIGN.md:{}: `{k}` is not what the code does", r.line))
        .collect();
    let unstated = facts.iter().filter(|f| !keys.contains(f));
    out.extend(unstated.map(|f| format!("the code's `{f}` has no row")));
    out
}

/// Opcode bytes a live server answers with anything but `ERR_BAD_OPCODE`.
fn served() -> &'static [u8] {
    static SERVED: OnceLock<Vec<u8>> = OnceLock::new();
    SERVED.get_or_init(|| {
        let (db, _) = Database::open(Config::in_memory()).expect("open database");
        let server = AssetServer::spawn(db, "127.0.0.1:0").expect("bind server");
        let mut c = Client::connect(&server.local_addr().to_string()).expect("connect");
        // SHUTDOWN last: once answered, the server stops
        let bytes = (0..=u8::MAX).filter(|&b| b != opcode::SHUTDOWN);
        let mut served: Vec<u8> = (bytes.chain([opcode::SHUTDOWN]))
            .filter(|&op| {
                c.send(op, Vec::new()).expect("send");
                c.recv().expect("reply").status != status::ERR_BAD_OPCODE
            })
            .collect();
        served.sort_unstable();
        drop(c);
        server.shutdown();
        server.join();
        served
    })
}

/// §13.3 requests: the server serves exactly the listed bytes, and
/// `opcode::NAMES` is the table.
fn check_opcodes(md: &str, served: &[u8]) -> Vec<String> {
    let rows = table(md, &["opcode", "name"]);
    let key = |r: &Row| format!("{} {}", r.hex(0), r.ident(1));
    let served: Vec<String> = served
        .iter()
        .map(|&b| format!("{b:#04x} {}", opcode::name(b)))
        .collect();
    let names: Vec<String> = opcode::NAMES
        .iter()
        .map(|(b, name)| format!("{b:#04x} {name}"))
        .collect();
    let mut out = diff(&rows, key, &served);
    out.extend(diff(&rows, key, &names));
    out
}

/// §13.3 responses: `status_name` knows exactly the listed codes, by the
/// row's name (`ERR_TXN_NOT_FOUND` → `txn-not-found`).
fn check_statuses(md: &str) -> Vec<String> {
    let rows = table(md, &["status", "name"]);
    let name = |r: &Row| r.ident(1).trim_start_matches("ERR_").to_lowercase();
    let key = |r: &Row| format!("{} {}", r.hex(0), name(r).replace('_', "-"));
    let known = (0..=u8::MAX).filter(|&b| status_name(b) != "unknown");
    let facts: Vec<String> = known
        .map(|b| format!("{b:#04x} {}", status_name(b)))
        .collect();
    diff(&rows, key, &facts)
}

/// The tid the short kinds of [`record_tags`] are written against.
const PREV: u64 = 1_000;

/// `rec`'s first byte, written after a record of tid [`PREV`].
fn tag_after_prev(rec: RecordRef<'_>) -> u8 {
    let (mut c, mut out) = (IdCursor::default(), Vec::new());
    LogRecord::Abort { tid: Tid(PREV) }
        .as_ref()
        .encode_into(&mut Vec::new(), &mut c);
    rec.encode_into(&mut out, &mut c);
    out[0]
}

/// The tag `LogRecord::encode` writes for each variant — for `Commit`
/// and `Prepared`, for a group of one and for a larger one, and for a
/// one-tid record a tid far from the one before it — with its DESIGN.md
/// name; then the tag of a one-tid `Commit`, `Prepared` and `Abort` at
/// each delta its kind holds, of an `Update` that creates an object of
/// each length a packed kind holds, and of an `Overwrite` and a CLR
/// patched in each shape a packed kind holds. The match is exhaustive: a new variant
/// does not compile until it is named here, and then the check asks for
/// its row.
fn record_tags() -> Vec<String> {
    let (t, o) = (Tid(PREV), Oid(2));
    let samples = [
        LogRecord::Update {
            tid: t,
            oid: o,
            before: None,
            after: None,
        },
        LogRecord::Overwrite {
            tid: t,
            oid: o,
            after: None,
        },
        LogRecord::Commit { tids: vec![t] },
        LogRecord::Abort { tid: t },
        LogRecord::Delegate {
            from: t,
            to: t,
            obs: None,
        },
        LogRecord::Checkpoint,
        LogRecord::Clr {
            oid: o,
            image: None,
        },
        LogRecord::Prepared { tids: vec![t] },
        LogRecord::Commit { tids: vec![t, t] },
        LogRecord::Prepared { tids: vec![t, t] },
    ];
    let name = |r: &LogRecord| match r {
        LogRecord::Update { .. } => "Update",
        LogRecord::Overwrite { .. } => "Overwrite",
        LogRecord::Commit { .. } => "Commit",
        LogRecord::Abort { .. } => "Abort",
        LogRecord::Delegate { .. } => "Delegate",
        LogRecord::Checkpoint => "Checkpoint",
        LogRecord::Clr { .. } => "Clr",
        LogRecord::Prepared { .. } => "Prepared",
    };
    let tag = |r: &LogRecord| r.encode()[0];
    let mut tags: Vec<String> = samples
        .iter()
        .map(|r| format!("{:#04x} {}", tag(r), name(r)))
        .collect();
    // one tid within 16 of the one before it, either way; within 8
    for d in -16..16 {
        let tid = Tid(PREV.saturating_add_signed(d));
        let tids = [tid];
        let short = |rec, name| format!("{:#04x} {name}", tag_after_prev(rec));
        tags.push(short(
            RecordRef::Commit {
                tids: tids[..].into(),
            },
            "Commit",
        ));
        if (-8..8).contains(&d) {
            tags.push(short(
                RecordRef::Prepared {
                    tids: tids[..].into(),
                },
                "Prepared",
            ));
            tags.push(short(RecordRef::Abort { tid }, "Abort"));
        }
    }
    // an object created with 1 to 32 bytes, its oid a delta of one byte or
    // of ten: the tag holds the length, whatever the oid costs
    for (n, oid) in (1..=32).flat_map(|n| [(n, o), (n, Oid(u64::MAX))]) {
        let after = vec![7; n];
        let create = RecordRef::Update {
            tid: t,
            oid,
            before: None,
            after: Some(&after),
        };
        tags.push(format!("{:#04x} Update", tag_after_prev(create)));
    }
    // a 16-byte image whose bytes `p..p + m` change: prefix p, middle m
    let base = [0u8; 16];
    for (p, m) in (0..8).flat_map(|p| (1..=8).map(move |m| (p, m))) {
        let after: Vec<u8> = (0..16).map(|i| u8::from((p..p + m).contains(&i))).collect();
        let patch = Some(Patch::between(Some(&base), &after));
        let (tid, oid) = (t, o);
        let overwrite = RecordRef::Overwrite {
            tid,
            oid,
            after: patch,
        };
        tags.push(format!("{:#04x} Overwrite", tag_after_prev(overwrite)));
        let clr = RecordRef::Clr { oid, image: patch };
        tags.push(format!("{:#04x} Clr", tag_after_prev(clr)));
    }
    tags
}

/// The WAL record-type inventory: each record encodes its row's tag, the
/// seal is the row named Seal, and the decoder accepts exactly the tags
/// the table lists.
fn check_wal_tags(md: &str) -> Vec<String> {
    // a range row (`0x40–0x7F`) stands for a row of each tag in it
    let mut rows = Vec::new();
    for r in table(md, &["tag", "record"]) {
        let (lo, hi) = r.cell(0).split_once('–').unwrap_or((r.cell(0), r.cell(0)));
        let Some((lo, hi)) = number(lo).zip(number(hi)) else {
            rows.push(r);
            continue;
        };
        let row = |t: u8| [vec![t.to_string()], r.cells[1..].to_vec()].concat();
        let line = r.line;
        rows.extend((lo..=hi).map(|t| Row {
            line,
            cells: row(t),
        }));
    }
    let mut tags = record_tags();
    for t in 0..=u8::MAX {
        match LogEntry::decode(&[t, 0, 0, 0, 0], 0) {
            Ok(Some((LogEntry::Seal(_), _))) => tags.push(format!("{t:#04x} Seal")),
            Ok(Some((LogEntry::Reset, _))) => tags.push(format!("{t:#04x} Reset")),
            _ => {}
        }
    }
    // a tag the decoder takes, after a record of tid `PREV`: whole, or a
    // record still to come
    let accepts = |t: u8| {
        let mut bytes = LogRecord::Abort { tid: Tid(PREV) }.encode();
        let (at, mut c) = (bytes.len(), IdCursor::default());
        bytes.push(t);
        LogEntry::decode_in(&bytes, 0, &mut c).unwrap();
        LogEntry::decode_in(&bytes, at, &mut c).is_ok()
    };
    let accepted: Vec<String> = (0..=u8::MAX)
        .filter(|&t| accepts(t))
        .map(|t| format!("{t:#04x}"))
        .collect();
    let mut out = diff(&rows, |r| format!("{} {}", r.hex(0), r.ident(1)), &tags);
    out.extend(diff(&rows, |r| r.hex(0), &accepted));
    out
}

/// §14.1: each listed message rides the listed opcode, and every message
/// that rides one is listed. Exhaustive over `CommitMessage`, as
/// [`record_tags`] is over `LogRecord`.
fn check_messages(md: &str) -> Vec<String> {
    let rows = table(md, &["message", "wire opcode"]);
    let key = |r: &Row| format!("{} {}", r.ident(0), r.cell(1));
    let samples = [
        CommitMessage::Prepare { tids: Vec::new() },
        CommitMessage::Vote {
            yes: true,
            group: Vec::new(),
        },
        CommitMessage::CommitDecide { tids: Vec::new() },
        CommitMessage::AbortDecide { tids: Vec::new() },
        CommitMessage::Ack,
        CommitMessage::QueryState { tid: Tid(1) },
        CommitMessage::State(ParticipantState::Unknown),
        CommitMessage::Failed { info: "".into() },
    ];
    let name = |m: &CommitMessage| match m {
        CommitMessage::Prepare { .. } => "Prepare",
        CommitMessage::Vote { .. } => "Vote",
        CommitMessage::CommitDecide { .. } => "CommitDecide",
        CommitMessage::AbortDecide { .. } => "AbortDecide",
        CommitMessage::Ack => "Ack",
        CommitMessage::QueryState { .. } => "QueryState",
        CommitMessage::State(_) => "State",
        CommitMessage::Failed { .. } => "Failed",
    };
    let facts: Vec<String> = samples
        .iter()
        .filter_map(|m| Some((name(m), m.wire_opcode()?)))
        .map(|(m, op)| format!("{m} {op:#04x} {}", opcode::name(op)))
        .collect();
    diff(&rows, key, &facts)
}

/// Every `TxnStatus`: a new variant does not compile here until listed.
fn statuses() -> Vec<TxnStatus> {
    use TxnStatus::*;
    let next = |s| match s {
        Initiated => Some(Running),
        Running => Some(Completed),
        Completed => Some(Committing),
        Committing => Some(Prepared),
        Prepared => Some(Committed),
        Committed => Some(Aborting),
        Aborting => Some(Aborted),
        Aborted => None,
    };
    std::iter::successors(Some(Initiated), |&s| next(s)).collect()
}

/// §4.2 / §14.2: `can_transition_to` allows exactly the listed pairs.
fn check_transitions(md: &str) -> Vec<String> {
    let rows = table(md, &["from", "to"]);
    let pairs = statuses()
        .into_iter()
        .flat_map(|a| statuses().into_iter().map(move |b| (a, b)));
    let facts: Vec<String> = pairs
        .filter(|(a, b)| a.can_transition_to(*b))
        .map(|(a, b)| format!("{a:?} → {b:?}"))
        .collect();
    diff(&rows, pair, &facts)
}

/// §14.1's report map: `ParticipantState::of` reports each status as its
/// row says, and a status with no row as `Other`.
fn check_report_map(md: &str) -> Vec<String> {
    let rows = table(md, &["txn status", "reported state"]);
    let reported = statuses()
        .into_iter()
        .map(|s| (s, ParticipantState::of(Some(s))));
    let facts: Vec<String> = reported
        .filter(|(_, p)| *p != ParticipantState::Other)
        .map(|(s, p)| format!("{s:?} → {p:?}"))
        .collect();
    diff(&rows, pair, &facts)
}

#[test]
fn design_tables_match_the_code_in_both_directions() {
    let mut problems = check_opcodes(DESIGN, served());
    problems.extend(check_statuses(DESIGN));
    problems.extend(check_wal_tags(DESIGN));
    problems.extend(check_messages(DESIGN));
    problems.extend(check_transitions(DESIGN));
    problems.extend(check_report_map(DESIGN));
    // a table that lost its header has no rows, and every fact is unstated
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn seeded_drift_is_named_row_by_row() {
    // DESIGN.md with each `row` replaced, and the problems `check` finds
    let seed = |edits: &[(&str, &str)], check: &dyn Fn(&str) -> Vec<String>| {
        let mut md = DESIGN.to_string();
        for (row, with) in edits {
            assert!(md.contains(row), "no row {row:?}");
            md = md.replacen(row, with, 1);
        }
        (check(&md), md)
    };
    let named = |(problems, _): &(Vec<String>, String), want: &str| {
        let found = problems.iter().any(|p| p.contains(want));
        assert!(found, "{want:?} not named in {problems:#?}");
    };
    let line_of = |(_, md): &(Vec<String>, String), row: &str| {
        let n = md
            .lines()
            .position(|l| l.starts_with(row))
            .expect("seeded row");
        format!("DESIGN.md:{}:", n + 1)
    };

    // an opcode value changed
    let changed = "| `0x15` | ABORT |";
    let s = seed(&[("| `0x14` | ABORT |", changed)], &|md| {
        check_opcodes(md, served())
    });
    named(&s, &line_of(&s, changed));
    // a status row removed
    let removed = "| `0x08` | ERR_DEADLOCK | chosen as deadlock victim |\n";
    let s = seed(&[(removed, "")], &check_statuses);
    named(&s, "the code's `0x08 deadlock` has no row");
    // two record tags swapped
    let (commit, abort) = ("| `4` | Commit |", "| `3` | Abort |");
    let swap = [("| `3` | Commit |", commit), ("| `4` | Abort |", abort)];
    let s = seed(&swap, &check_wal_tags);
    named(&s, &line_of(&s, commit));
    named(&s, &line_of(&s, abort));
    // the packed range cut short
    let s = seed(&[("| `0x40–0x7F` |", "| `0x40–0x7E` |")], &check_wal_tags);
    named(&s, "the code's `0x7f Overwrite` has no row");
    // a transition added
    let added = "| `Running` | `Committed` | seeded |";
    let last = "| `Aborting` | `Aborted` | undo walk finished |";
    let s = seed(&[(last, &format!("{last}\n{added}"))], &check_transitions);
    named(&s, &line_of(&s, added));
    // a report row dropped
    let s = seed(&[("| `Aborting` | `Aborted` |\n", "")], &check_report_map);
    named(&s, "the code's `Aborting → Aborted` has no row");
    // a §14.1 message pointed at the wrong opcode
    let wrong = "| `QueryState { tid }` | `0x40` PREPARE |";
    let s = seed(
        &[("| `QueryState { tid }` | `0x41` PREPARED |", wrong)],
        &check_messages,
    );
    named(&s, &line_of(&s, wrong));
}
